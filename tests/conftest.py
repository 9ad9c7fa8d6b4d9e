"""Test-suite settings shared by every test module.

Property tests run under one ``hypothesis`` profile: ``derandomize`` replays
the same examples on every run, so a result never depends on the run's
random draw or on the example database, and no ``deadline`` means a slow
machine cannot fail an example by time alone.

The ``lp_calls`` fixture counts the norm solver's LP solves, and
``block_solves`` its batches, stars included.
"""

import pytest
from hypothesis import settings
from scipy.optimize import linprog

from trotterkit import bl_metric, cli

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


@pytest.fixture
def block_solves(monkeypatch):
    """A list that gains one entry, its number of nonzero blocks, per
    ``solve_blocks`` call that has any, under ``bl_metric``'s and ``cli``'s
    names."""
    calls = []
    solve_blocks = bl_metric.solve_blocks

    def counting(entries):
        if blocks := sum(1 for scale, _ in entries if scale):
            calls.append(blocks)
        return solve_blocks(entries)

    for module in (bl_metric, cli):
        monkeypatch.setattr(module, "solve_blocks", counting)
    return calls
