"""Test-suite settings shared by every test module.

Property tests run under one ``hypothesis`` profile: ``derandomize`` replays
the same examples on every run, so a result never depends on the run's
random draw or on the example database, and no ``deadline`` means a slow
machine cannot fail an example by time alone.
"""

from hypothesis import settings

settings.register_profile("trotterkit", derandomize=True, deadline=None)
settings.load_profile("trotterkit")
