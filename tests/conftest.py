"""Test-suite settings shared by every test module.

Property tests run under one ``hypothesis`` profile: ``derandomize`` replays
the same examples on every run, so a result never depends on the run's
random draw or on the example database, and no ``deadline`` means a slow
machine cannot fail an example by time alone.

The ``lp_calls`` fixture counts the norm solver's LP solves.
"""

import pytest
from hypothesis import settings
from scipy.optimize import linprog

from trotterkit import bl_metric

settings.register_profile("trotterkit", derandomize=True, deadline=None)
settings.load_profile("trotterkit")


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that gains one entry, the shape of ``A_eq``, per ``bl_metric.linprog`` call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(bl_metric, "linprog", counting)
    return calls
