import numpy as np
import pytest

from trotterkit.identities import (
    check_corollary,
    check_corollary_recomposition,
    check_lemma_a,
    check_lemma_b,
    check_lemma_c,
    check_swap_identity,
    random_generator,
    run_identity_suite,
    standard_test_panel,
)
from trotterkit.measures import StateSpace
from trotterkit.operators import SemigroupSpec


@pytest.fixture
def setup():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(4, 3))
    space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    g1 = SemigroupSpec.matrix_exponential(space, random_generator(4, rng))
    g2 = SemigroupSpec.matrix_exponential(space, random_generator(4, rng))
    return space, g1, g2, standard_test_panel(space, rng)


def test_telescoping_single_step(setup):
    space, g1, g2, panel = setup
    r = check_lemma_a(g1, g2, 1.0, 6, 4, panel)
    assert r.passed and r.max_deviation < 1e-12


def test_telescoping_block(setup):
    space, g1, g2, panel = setup
    r = check_lemma_b(g1, g2, 1.0, 6, 3, panel)
    assert r.passed


def test_telescoping_refinement(setup):
    space, g1, g2, panel = setup
    r = check_lemma_c(g1, g2, 1.0, 3, 2, panel)
    assert r.passed


def test_corollary_as_displayed(setup):
    space, g1, g2, panel = setup
    r = check_corollary(g1, g2, 0.9, 3, 3, panel)
    assert r.passed


def test_corollary_recomposition_consistent(setup):
    space, g1, g2, panel = setup
    r = check_corollary_recomposition(g1, g2, 0.9, 2, 3, panel)
    assert r.passed


def test_swap_both_expansions(setup):
    space, g1, g2, panel = setup
    r = check_swap_identity(g1, g2, 0.4, 3, panel)
    assert r.passed


def test_degenerate_indices(setup):
    """k = 1 leaves empty sums; both sides must vanish."""
    space, g1, g2, panel = setup
    assert check_lemma_b(g1, g2, 1.0, 4, 1, panel).max_deviation < 1e-12
    assert check_corollary(g1, g2, 1.0, 2, 1, panel).max_deviation < 1e-12


def test_invalid_arguments(setup):
    space, g1, g2, panel = setup
    with pytest.raises(ValueError):
        check_lemma_a(g1, g2, 1.0, 4, 5, panel)
    with pytest.raises(ValueError):
        check_swap_identity(g1, g2, 1.0, 0, panel)


def test_euclidean_lift_identities():
    """Noncommuting linear-flow lifts satisfy the same operator identities."""
    rng = np.random.default_rng(3)
    space = StateSpace.euclidean(2)
    g1 = SemigroupSpec.linear_flow_lift(space, [[0.0, 1.0], [0.0, 0.0]])
    g2 = SemigroupSpec.linear_flow_lift(space, [[0.0, 0.0], [1.0, 0.0]])
    from trotterkit.measures import PositiveMeasure
    panel = [PositiveMeasure.dirac(space, [1.0, 0.0]),
             PositiveMeasure.from_atoms(space, [([0.3, -0.2], 0.5), ([1.0, 1.0], 0.5)])]
    assert check_lemma_a(g1, g2, 0.5, 4, 3, panel).passed
    assert check_swap_identity(g1, g2, 0.25, 2, panel).passed


def test_suite_runs_clean():
    results, failures = run_identity_suite(seed=5, trials=2, max_states=4)
    assert failures == []
    assert len(results) == 12
    assert all(r.passed for r in results)


def test_suite_deterministic():
    a, _ = run_identity_suite(seed=9, trials=1, max_states=3)
    b, _ = run_identity_suite(seed=9, trials=1, max_states=3)
    assert [r.max_deviation for r in a] == [r.max_deviation for r in b]


def test_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_identity_suite(seed=0, trials=0, max_states=4)


def test_each_check_solves_one_lp(setup, lp_calls):
    _, g1, g2, panel = setup
    checks = [lambda: check_lemma_a(g1, g2, 0.8, 6, 4, panel),
              lambda: check_lemma_b(g1, g2, 0.8, 6, 3, panel),
              lambda: check_lemma_c(g1, g2, 0.8, 2, 3, panel),
              lambda: check_corollary(g1, g2, 0.8, 2, 3, panel),
              lambda: check_corollary_recomposition(g1, g2, 0.8, 2, 3, panel),
              lambda: check_swap_identity(g1, g2, 0.4, 3, panel)]
    for check in checks:
        del lp_calls[:]
        result = check()
        # the whole panel's deviations in one solve (some of them are nonzero)
        assert len(lp_calls) == 1 and result.max_deviation > 0.0 and result.passed
