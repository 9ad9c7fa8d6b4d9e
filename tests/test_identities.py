import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterkit import identities
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
from trotterkit.measures import (
    PRUNE_REL_TOL,
    PositiveMeasure,
    SignedMeasure,
    StateSpace,
    linear_combine,
)
from trotterkit.operators import MarkovOperatorSpec, SemigroupSpec, apply, at_time


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


def test_suite_rejects_fewer_than_two_states():
    with pytest.raises(ValueError, match="max_states must be >= 2"):
        run_identity_suite(seed=0, trials=1, max_states=1)


@pytest.mark.parametrize("check, index, args", [
    (check_lemma_a, "m", (1.0, 6.0, 4)),
    (check_lemma_a, "j", (1.0, 6, 4.0)),
    (check_lemma_b, "k", (1.0, 6, 3.0)),
    (check_lemma_c, "n", (1.0, 3.0, 2)),
    (check_corollary, "k", (0.9, 3, 1.5)),
    (check_corollary_recomposition, "n", (0.9, 2.0, 3)),
    (check_swap_identity, "n", (0.4, 3.0)),
])
def test_indices_must_be_integers(setup, check, index, args):
    _, g1, g2, panel = setup
    with pytest.raises(ValueError, match=f"^{index} must be an integer"):
        check(g1, g2, *args, panel)


def test_empty_test_panel_is_refused(setup):
    """No test measure would make the check pass without testing anything."""
    _, g1, g2, _ = setup
    with pytest.raises(ValueError, match="need at least one test measure"):
        check_lemma_a(g1, g2, 1.0, 6, 4, [])


def test_finite_checks_run_as_panels(setup, monkeypatch):
    """On a finite space no product goes through apply_signed: every check
    runs its panel through the stacked products."""
    _, g1, g2, panel = setup

    def refuse(P, mu):
        raise AssertionError("apply_signed called")

    monkeypatch.setattr(identities, "apply_signed", refuse)
    assert check_lemma_a(g1, g2, 0.8, 6, 4, panel).passed
    assert check_swap_identity(g1, g2, 0.4, 3, panel).passed


def test_stacked_product_is_rowwise_gemv():
    """The panel's premise: NumPy runs ``np.matmul(P, W[..., None])`` as one
    gemv per row, so each row is bitwise ``P @ w``."""
    rng = np.random.default_rng(0)
    for states in range(2, 25):
        P = rng.uniform(size=(states, states)) * (rng.uniform(size=(states, states)) < 0.8)
        P = P + np.eye(states) * 1e-3
        P = P / P.sum(axis=0)
        W = rng.uniform(size=(2, 7, states)) * (rng.uniform(size=(2, 7, states)) < 0.7)
        stacked = np.matmul(P, W[..., None])[..., 0]
        for got_part, part in zip(stacked, W):
            for got, w in zip(got_part, part):
                assert got.tobytes() == (P @ w).tobytes(), states


def test_flow_array_maps_are_rowwise_point_maps():
    """``_map_chain``'s premise: a flow's ``_array_map`` on a stack of points
    is, row for row, bitwise its ``point_map``.  A linear flow's stacked
    product runs one gemv per point, the call ``E @ x`` makes."""
    rng = np.random.default_rng(2)
    for dim in range(1, 5):
        space = StateSpace.euclidean(dim)
        flows = [SemigroupSpec.linear_flow_lift(space, rng.normal(size=(dim, dim)) * (
            rng.uniform(size=(dim, dim)) < 0.8)) for _ in range(10)]
        flows += [SemigroupSpec.map_flow(space, "translation", {"velocity": v})
                  for v in (rng.normal(), [rng.normal()], rng.normal(size=dim).tolist())]
        flows += [SemigroupSpec.map_flow(space, "contraction", {"rate": rng.normal() * 10.0})]
        if dim >= 2:
            flows += [SemigroupSpec.map_flow(space, "rotation", {"rate": rng.normal() * 5.0})]
        ops = [at_time(g, t) for g in flows for t in (0.0, 0.3, rng.uniform(0.0, 3.0))]
        for P in ops + [MarkovOperatorSpec.identity(space)]:
            X = rng.normal(size=(7, dim, 1)) * 10.0 ** rng.integers(-8, 8, size=(7, 1, 1))
            points = X.tobytes()
            expected = [np.asarray(P.point_map(x), dtype=float).tobytes() for x in X[..., 0]]
            Y = np.full_like(X, np.nan)
            P._array_map(X, Y)
            assert X.tobytes() == points, P  # the source is only read
            assert [y.tobytes() for y in Y[..., 0]] == expected, P


def test_short_sums_run_left_to_right():
    """``_totals`` rests on this: NumPy adds fewer than 8 numbers left to
    right, so a row sum with zeros between the numbers is their sum."""
    rng = np.random.default_rng(1)
    for n in range(1, 8):
        g = rng.uniform(size=(50, n)) * 10.0 ** rng.integers(-8, 8, size=(50, n))
        for row, total in zip(g, np.add.reduce(g, axis=-1)):
            assert total == functools.reduce(operator.add, row.tolist())


# The panel against the per-measure path: ``_chain`` and ``_combine`` on a
# panel must give, row by row, bitwise what the per-factor loop below and
# ``linear_combine`` give on each measure, exceptions included.


def _per_factor_chain(mu, ops):
    """The product of ``ops`` in written order on one signed measure, factor
    by factor: ``apply`` on each nonempty part, then ``linear_combine``."""
    for P in reversed(ops):
        pos = apply(P, mu.pos) if len(mu.pos) else mu.pos
        neg = apply(P, mu.neg) if len(mu.neg) else mu.neg
        mu = linear_combine([1.0, -1.0], [pos, neg])
    return mu


def _discrete(k):
    return StateSpace.finite(np.ones((k, k)) - np.eye(k))


# zeros, ordinary weights, and weights small enough to fall under the prune cut
_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-300, 1e-11))


def _at_cut(weights):
    """The weight t that, put after ``weights``, equals PRUNE_REL_TOL times
    the left-to-right sum of them all: the largest weight a prune drops."""
    t = 0.0
    for _ in range(20):
        t = PRUNE_REL_TOL * np.add.accumulate(weights + [t])[-1]
    assert t == PRUNE_REL_TOL * np.add.accumulate(weights + [t])[-1]
    return t


def _stochastic(space, matrix):
    return MarkovOperatorSpec(kind="stochastic_matrix", space=space, matrix=matrix)


def _corrupted(space, matrix):
    """A stochastic-matrix operator whose matrix is replaced after its checks."""
    P = _stochastic(space, np.eye(space.size))
    object.__setattr__(P, "matrix", matrix)
    return P


@st.composite
def _operators(draw, space):
    k = space.size
    column = st.lists(_entries, min_size=k, max_size=k).filter(lambda c: sum(c) > 0.0)
    pool = [_stochastic(space, np.eye(k))]
    for _ in range(draw(st.integers(1, 3))):
        a = np.array(draw(st.lists(column, min_size=k, max_size=k))).T
        pool.append(_stochastic(space, a / a.sum(axis=0)))
    # every column alike: both parts land on one measure, so the re-split
    # empties a part, or both when the masses are equal
    c = np.array(draw(column))
    pool.append(_stochastic(space, np.tile((c / c.sum())[:, None], (1, k))))
    bad = draw(st.sampled_from(["none", "scaled", "negative"]))
    if bad == "scaled":  # TV not preserved
        pool.append(_corrupted(space, 1.001 * pool[-1].matrix))
    elif bad == "negative":
        m = pool[-1].matrix.copy()
        m[0] -= 0.1
        pool.append(_corrupted(space, m))
    return draw(st.lists(st.sampled_from(pool), max_size=8))


@st.composite
def _signed_measure(draw, space):
    """A Jordan pair on ``space``, its atoms listed in a drawn order."""
    k = space.size
    states = draw(st.permutations(range(k)))
    shape = draw(st.sampled_from(["split", "no negative part", "no positive part", "empty",
                                  "mass zero", "at the cut", "above the cut"]))
    if shape == "mass zero":  # equal Diracs
        w = draw(st.floats(1e-3, 1.0))
        pos, neg = [(states[0], w)], [(states[1], w)]
    elif shape in ("at the cut", "above the cut"):
        big = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=k - 1))
        t = _at_cut(big)
        if shape == "above the cut":
            t = np.nextafter(t, 1.0)
        # the small atom sits on the last state, after the others in index order
        pos = list(zip(range(len(big)), big)) + [(k - 1, t)]
        neg = []
    else:
        weights = [w for w in draw(st.lists(_entries, min_size=k, max_size=k))]
        sides = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        if shape == "no negative part":
            sides = [True] * k
        elif shape == "no positive part":
            sides = [False] * k
        elif shape == "empty":
            weights = [0.0] * k
        pos = [(i, weights[i]) for i in states if sides[i] and weights[i] > 0.0]
        neg = [(i, weights[i]) for i in states if not sides[i] and weights[i] > 0.0]

    def part(atoms):
        return PositiveMeasure(space, tuple(int(i) for i, _ in atoms),
                               np.array([w for _, w in atoms], dtype=float))

    return SignedMeasure(pos=part(pos), neg=part(neg))


def _rows(fn):
    try:
        out = fn()
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok",) + tuple((part.points, part.weights.tobytes())
                           for mu in out for part in (mu.pos, mu.neg))


@st.composite
def _chain_case(draw):
    space = _discrete(draw(st.integers(2, 12)))
    measures = draw(st.lists(_signed_measure(space), min_size=1, max_size=5))
    return space, draw(_operators(space)), measures


@settings(max_examples=300)
@given(_chain_case())
def test_panel_chain_matches_per_measure(case):
    space, ops, measures = case
    panel = identities._panel(measures, space)
    assert panel is not None
    assert (_rows(lambda: identities._chain(panel, ops).measures())
            == _rows(lambda: [_per_factor_chain(mu, ops) for mu in measures]))


@st.composite
def _combine_case(draw):
    space = _discrete(draw(st.integers(2, 12)))
    rows = draw(st.integers(1, 4))
    columns = draw(st.lists(st.lists(_signed_measure(space), min_size=rows, max_size=rows),
                            min_size=1, max_size=4))
    if draw(st.booleans()):  # measures in chain output order, unless the chain raises
        ops = draw(_operators(space))
        try:
            columns = [[_per_factor_chain(mu, ops) for mu in column] for column in columns]
        except (ValueError, RuntimeError):
            pass
    coeffs = draw(st.lists(st.sampled_from([1.0, -1.0, 0.0, 0.5, -3.0, 1e308]),
                           min_size=len(columns), max_size=len(columns)))
    return space, coeffs, columns


@settings(max_examples=300)
@given(_combine_case())
def test_panel_combine_matches_linear_combine(case):
    space, coeffs, columns = case
    panels = [identities._panel(column, space) for column in columns]
    assert all(panel is not None for panel in panels)
    assert (_rows(lambda: identities._combine(coeffs, panels).measures())
            == _rows(lambda: [linear_combine(coeffs, list(row)) for row in zip(*columns)]))


def test_at_cut_weights_straddle_the_prune():
    """The cut helper lands exactly on the prune cut, and the identity
    step drops that atom and keeps the next float up."""
    space = _discrete(3)
    big = [0.5, 0.25]
    t = _at_cut(big)
    eye = _stochastic(space, np.eye(3))
    for weight, kept in ((t, False), (np.nextafter(t, 1.0), True)):
        mu = SignedMeasure(pos=PositiveMeasure(space, (0, 1, 2), np.array(big + [weight])),
                           neg=PositiveMeasure(space))
        out, = identities._chain(identities._panel([mu], space), [eye]).measures()
        assert (out.pos.points == (0, 1, 2)) is kept
