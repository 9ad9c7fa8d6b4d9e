import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterkit import identities
from trotterkit import operators as ops_module
from trotterkit.bl_metric import bl_distances, max_bl_distance
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
    mass,
)
from trotterkit.operators import MarkovOperatorSpec, SemigroupSpec, apply, apply_signed, at_time


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


def test_each_check_solves_at_most_one_lp(setup, lp_calls, monkeypatch):
    _, g1, g2, panel = setup
    measured = []

    def recording(pairs, metric):
        measured.append((pairs, metric))
        return max_bl_distance(pairs, metric)

    monkeypatch.setattr(identities, "max_bl_distance", recording)
    checks = [lambda: check_lemma_a(g1, g2, 0.8, 6, 4, panel),
              lambda: check_lemma_b(g1, g2, 0.8, 6, 3, panel),
              lambda: check_lemma_c(g1, g2, 0.8, 2, 3, panel),
              lambda: check_corollary(g1, g2, 0.8, 2, 3, panel),
              lambda: check_corollary_recomposition(g1, g2, 0.8, 2, 3, panel),
              lambda: check_swap_identity(g1, g2, 0.4, 3, panel)]
    for check in checks:
        del lp_calls[:], measured[:]
        result = check()
        # the panel's deviations that can hold the maximum in one solve (some
        # of them are nonzero), and the maximum of every deviation
        assert len(lp_calls) <= 1 and result.max_deviation > 0.0 and result.passed
        ((pairs, metric),) = measured
        largest = max(linear_combine([1.0, -1.0], pair).tv for pair in pairs)
        unpruned = max([0.0] + bl_distances(pairs, metric))
        assert abs(result.max_deviation - unpruned) <= 1e-9 * largest


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


def _refuse(*args):
    raise identities._Refused


def test_a_part_out_of_state_order_runs_per_measure(setup, monkeypatch):
    """Only a hand-built part lists its states out of order.  A panel does
    not hold it, so the check runs per measure, through apply_signed; a
    measure in state order gives the same result on either path."""
    space, g1, g2, panel = setup
    mu = panel[-1]  # atoms on every state
    shuffled = PositiveMeasure(space, mu.points[::-1], mu.weights[::-1])
    identities._panel([mu.as_signed()], space)
    with pytest.raises(identities._Refused):
        identities._panel([mu.as_signed(), shuffled.as_signed()], space)
    calls = []

    def counting(P, nu):
        calls.append(P)
        return apply_signed(P, nu)

    monkeypatch.setattr(identities, "apply_signed", counting)
    on_panel = check_lemma_a(g1, g2, 0.8, 6, 4, [mu])
    assert not calls
    mixed = check_lemma_a(g1, g2, 0.8, 6, 4, [mu, shuffled])
    assert calls and mixed.passed
    monkeypatch.setattr(identities, "_panel", _refuse)
    assert check_lemma_a(g1, g2, 0.8, 6, 4, [mu]) == on_panel
    assert check_lemma_a(g1, g2, 0.8, 6, 4, [mu, shuffled]) == mixed


def _outcome(check):
    try:
        return ("ok", check())
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("factor", ["kernel", "scaled"])
@pytest.mark.parametrize("where, chain_calls", [("a and b", 1), ("outer", 2)])
def test_a_refusal_mid_check_runs_the_check_per_measure(setup, monkeypatch, factor, where,
                                                        chain_calls):
    """In lemma (b) with k = 3, only the term j = 2 has P2(2h) in its
    products ``a`` and ``b``, and only it has P1(2h) as ``outer``.  Either
    one, replaced by a factor the panel refuses, stops the panel in that
    ``chain`` call, and the check equals an all-per-measure run: a value for
    the same transitions as a kernel, the TV exception for a scaled matrix."""
    space, g1, g2, panel = setup
    t, m, k = 0.8, 6, 3
    g = g2 if where == "a and b" else g1
    time = 2 * (t / m)
    P = at_time(g, time)
    if factor == "kernel":
        bad = MarkovOperatorSpec(kind="kernel", space=space, kernel=lambda i: (
            PositiveMeasure.from_atoms(space, list(enumerate(P.matrix[:, i].tolist())))))
    else:
        bad = _corrupted(space, 1.1 * P.matrix)
    monkeypatch.setattr(identities, "at_time",
                        lambda G, s: bad if G is g and s == time else at_time(G, s))
    calls = []
    chain = identities._Panel.chain

    def counting(self, terms):
        calls.append(len(terms))
        return chain(self, terms)

    monkeypatch.setattr(identities._Panel, "chain", counting)
    mid_check = _outcome(lambda: check_lemma_b(g1, g2, t, m, k, panel))
    assert len(calls) == chain_calls
    assert mid_check[0] == ("ok" if factor == "kernel" else "raised")
    monkeypatch.setattr(identities, "_panel", _refuse)
    assert _outcome(lambda: check_lemma_b(g1, g2, t, m, k, panel)) == mid_check


def test_runner_calls_do_not_grow_with_the_indices(setup, monkeypatch):
    """A finite check makes as many ``_Panel.chain`` calls at large indices
    as at small ones: the loops over its terms are stacked, not unrolled."""
    _, g1, g2, panel = setup
    calls = []
    chain = identities._Panel.chain

    def counting(self, terms):
        calls.append(len(terms))
        return chain(self, terms)

    monkeypatch.setattr(identities._Panel, "chain", counting)

    def runs(check, *args):
        del calls[:]
        assert check(g1, g2, *args, panel).passed
        return len(calls)

    assert runs(check_corollary, 0.8, 2, 2) == runs(check_corollary, 0.8, 4, 4)
    assert runs(check_swap_identity, 0.4, 2) == runs(check_swap_identity, 0.4, 8)
    assert runs(check_lemma_a, 0.8, 12, 2) == runs(check_lemma_a, 0.8, 12, 12)


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


def test_stacked_terms_are_rowwise_gemv():
    """The premise of ``_Panel.chain``'s term stacks: with a different
    matrix per term, ``np.matmul(M[:, None], W[..., None])`` still runs one
    gemv per row, so each row of term t is bitwise ``M[t] @ w``."""
    rng = np.random.default_rng(1)
    for states in range(2, 25):
        for terms in range(1, 31):
            matrices = []
            for _ in range(terms):  # separate (S, S) arrays, stacked below
                P = rng.uniform(size=(states, states)) * (
                    rng.uniform(size=(states, states)) < 0.8) + np.eye(states) * 1e-3
                matrices.append(P / P.sum(axis=0))
            W = rng.uniform(size=(2, terms, 3, states)) * (
                rng.uniform(size=(2, terms, 3, states)) < 0.7)
            stacked = np.matmul(np.stack(matrices)[:, None], W[..., None])[..., 0]
            for t, P in enumerate(matrices):
                for got, w in zip(stacked[:, t].reshape(-1, states), W[:, t].reshape(-1, states)):
                    assert got.tobytes() == (P @ w).tobytes(), (states, terms, t)


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


# The panel against the per-measure path: ``_Panel.chain`` and
# ``_Panel.combine`` must give, row by row, bitwise what the per-factor loop
# below and ``linear_combine`` give on each measure, or refuse; they refuse
# wherever the per-measure path raises.


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


def _repaired(entries, k):
    """``k`` columns of drawn entries, each scaled to mass 1; a column of
    zeros first gets 1.0 on the diagonal."""
    a = np.array(entries, dtype=float).reshape(-1, k)
    zero = np.flatnonzero(a.sum(axis=0) == 0.0)
    a[zero, zero] = 1.0
    return a / a.sum(axis=0)


@st.composite
def _pool(draw, space):
    """Stochastic matrices on ``space`` to draw factors from, and at most one
    factor that ``apply`` refuses."""
    k = space.size
    # one flat draw of k * k entries per matrix, an all-zero column repaired
    # rather than redrawn: Hypothesis's cost here is per draw
    pool = [_stochastic(space, np.eye(k))]
    for _ in range(draw(st.integers(1, 3))):
        pool.append(_stochastic(space, _repaired(
            draw(st.lists(_entries, min_size=k * k, max_size=k * k)), k)))
    # every column alike: both parts land on one measure, so the re-split
    # empties a part, or both when the masses are equal
    c = _repaired(draw(st.lists(_entries, min_size=k, max_size=k)), 1)
    pool.append(_stochastic(space, np.tile(c, (1, k))))
    bad = draw(st.sampled_from(["none", "scaled", "negative", "foreign"]))
    if bad == "scaled":  # TV not preserved
        pool.append(_corrupted(space, 1.001 * pool[-1].matrix))
    elif bad == "negative":
        m = pool[-1].matrix.copy()
        m[0] -= 0.1
        pool.append(_corrupted(space, m))
    elif bad == "foreign":
        pool.append(MarkovOperatorSpec.identity(StateSpace.finite(2.0 * space.dist)))
    return pool


@st.composite
def _operators(draw, space):
    return draw(st.lists(st.sampled_from(draw(_pool(space))), max_size=8))


@st.composite
def _signed_measure(draw, space):
    """A Jordan pair on ``space``, each part's atoms in state order, as
    every measure on a finite space lists them."""
    k = space.size
    shape = draw(st.sampled_from(["split", "no negative part", "no positive part", "empty",
                                  "mass zero", "at the cut", "above the cut"]))
    if shape == "mass zero":  # equal Diracs
        w = draw(st.floats(1e-3, 1.0))
        i, j = draw(st.permutations(range(k)))[:2]
        pos, neg = [(i, w)], [(j, w)]
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
        pos = [(i, weights[i]) for i in range(k) if sides[i] and weights[i] > 0.0]
        neg = [(i, weights[i]) for i in range(k) if not sides[i] and weights[i] > 0.0]

    def part(atoms):
        return PositiveMeasure(space, tuple(int(i) for i, _ in atoms),
                               np.array([w for _, w in atoms], dtype=float))

    return SignedMeasure(pos=part(pos), neg=part(neg))


_REFUSED = ("refused",)


def _rows(fn, pruned=True):
    try:
        out = fn()
    except identities._Refused:
        return _REFUSED
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    parts = [part for mu in out for part in (mu.pos, mu.neg)]
    # no part is pruned on its own, yet each clears the cut of its own mass
    assert not pruned or all((part.weights > PRUNE_REL_TOL * mass(part.weights.tolist())).all()
                             for part in parts)
    return ("ok",) + tuple((part.points, part.weights.tobytes()) for part in parts)


@st.composite
def _chain_case(draw):
    space = _discrete(draw(st.integers(2, 12)))
    measures = draw(st.lists(_signed_measure(space), min_size=1, max_size=5))
    return space, draw(_operators(space)), measures


@settings(max_examples=300)
@given(_chain_case())
def test_panel_chain_matches_per_measure(case):
    """The same rows, or a refusal: for a factor on another space, or where
    the per-factor loop raises."""
    space, ops, measures = case
    panel = identities._panel(measures, space)
    pruned = bool(ops)  # no factor leaves the measures as drawn
    got = _rows(lambda: panel.chain([ops]).measures(), pruned)
    expected = _rows(lambda: [_per_factor_chain(mu, ops) for mu in measures], pruned)
    assert got == expected or got == _REFUSED and (
        expected[0] == "raised" or any(P.space != space for P in ops))


@st.composite
def _terms_case(draw):
    """Terms of 0-8 factors from one pool, each on its own block of test
    measures or all on one, and a group cap that splits them."""
    space = _discrete(draw(st.integers(2, 6)))
    pool = draw(_pool(space))
    terms = draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), min_size=1, max_size=6))
    rows = draw(st.integers(1, 3))
    block = st.lists(_signed_measure(space), min_size=rows, max_size=rows)
    if draw(st.booleans()):
        blocks = [draw(block)] * len(terms)
    else:
        blocks = [draw(block) for _ in terms]
    weights, matrix = 2 * rows * space.size, space.size ** 2
    cap = draw(st.sampled_from([ops_module._STACK_SIZE, 1, weights, 3 * weights, 2 * matrix]))
    return space, terms, blocks, cap


@settings(max_examples=150)
@given(_terms_case())
def test_term_stacks_match_one_run_per_term(case):
    """The runner on term-major blocks against one single-term run per term
    and against the per-factor loop, term by term: the same rows, or a
    refusal if any term refuses alone.  Every group stays under the cap
    unless it holds one term, and a run that does not refuse runs each term
    in one group."""
    space, terms, blocks, cap = case
    groups = []
    steps = identities._Panel._steps

    def recording(self, w, members):
        groups.append((len(members), w.size, len(members) * space.size ** 2))
        return steps(self, w, members)

    stacked = identities._panel([mu for block in blocks for mu in block], space)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ops_module, "_STACK_SIZE", cap)  # the one cap, which the panel reads
        m.setattr(identities._Panel, "_steps", recording)
        got = _rows(lambda: stacked.chain(terms).measures(), pruned=False)
    assert got == _REFUSED or sum(n for n, _, _ in groups) == len(terms)
    assert all(n == 1 or (weights <= cap and matrices <= cap) for n, weights, matrices in groups)
    assert got == _rows(lambda: [mu for block, ops in zip(blocks, terms) for mu in
                                 identities._panel(block, space).chain([ops]).measures()],
                        pruned=False)
    assert got in (_REFUSED, _rows(lambda: [_per_factor_chain(mu, ops) for block, ops in
                                            zip(blocks, terms) for mu in block], pruned=False))


def test_fortran_order_matrices_keep_their_bits_in_a_stack():
    """The gemv of a Fortran-order matrix adds in another order than that of
    a C-order one, and a stack of matrices is C-order: ``MarkovOperatorSpec``
    stores every matrix C-contiguous, so a term stack keeps the bits of the
    per-factor loop for matrices given in Fortran order too."""
    space = _discrete(9)
    rng = np.random.default_rng(4)
    ops = []
    for _ in range(3):
        a = rng.uniform(size=(9, 9)) * (rng.uniform(size=(9, 9)) < 0.7) + np.eye(9)
        ops.append(_stochastic(space, np.asfortranarray(a / a.sum(axis=0))))
    assert all(P.matrix.flags.c_contiguous for P in ops)
    measures = [identities.standard_test_panel(space, rng)[-1].as_signed(),
                linear_combine([1.0, -1.0], [PositiveMeasure.dirac(space, 2),
                                             PositiveMeasure.dirac(space, 5, 0.5)])]
    terms = [ops, ops[::-1], [ops[1]] * 5]
    stacked = identities._panel(measures * len(terms), space)
    assert (_rows(lambda: stacked.chain(terms).measures())
            == _rows(lambda: [_per_factor_chain(mu, ops) for ops in terms for mu in measures]))


@st.composite
def _combine_case(draw):
    space = _discrete(draw(st.integers(2, 12)))
    rows = draw(st.integers(1, 4))
    columns = draw(st.lists(st.lists(_signed_measure(space), min_size=rows, max_size=rows),
                            min_size=1, max_size=4))
    if draw(st.booleans()):  # measures as a chain outputs them, unless the chain raises
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
    """The same rows, or a refusal exactly where linear_combine raises."""
    space, coeffs, columns = case
    panels = [identities._panel(column, space) for column in columns]
    expected = _rows(lambda: [linear_combine(coeffs, list(row)) for row in zip(*columns)])
    assert _rows(lambda: identities._Panel.combine(coeffs, panels).measures()) == (
        _REFUSED if expected[0] == "raised" else expected)


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
        out, = identities._panel([mu], space).chain([[eye]]).measures()
        assert (out.pos.points == (0, 1, 2)) is kept


def _compensated_sum(values, start=0):
    """The builtin ``sum`` of CPython 3.12 and later on floats: Neumaier's
    compensated summation."""
    total, compensation = float(start), 0.0
    for x in map(float, values):
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("big, weight", [
    # the compensated total is one rounding lower: its cut keeps the atom at the cut
    ([0.405, 0.199, 0.092, 0.581], "at the cut"),
    # one rounding higher: its cut drops the next float up
    ([0.392, 0.89, 0.228, 0.624], "above the cut"),
])
def test_signed_paths_agree_under_compensated_sum(monkeypatch, big, weight):
    """No cut takes the builtin ``sum``: with 3.12's compensated ``sum``
    shadowed into the modules, the panel and the per-measure path still keep
    the same atoms on 5 states under the identity matrix."""
    t = _at_cut(big)
    if weight == "above the cut":
        t = np.nextafter(t, 1.0)
    weights = big + [t]
    # the two sums put the cut on either side of the small atom
    assert (t > PRUNE_REL_TOL * mass(weights)) != (t > PRUNE_REL_TOL * _compensated_sum(weights))
    for module in ("trotterkit.measures", "trotterkit.operators", "trotterkit.identities"):
        monkeypatch.setattr(f"{module}.sum", _compensated_sum, raising=False)
    space = _discrete(5)
    mu = SignedMeasure(pos=PositiveMeasure(space, (0, 1, 2, 3, 4), np.array(weights)),
                       neg=PositiveMeasure(space))
    panel = identities._panel([mu], space)
    eye = _stochastic(space, np.eye(5))
    assert (_rows(lambda: panel.chain([[eye]]).measures())
            == _rows(lambda: [_per_factor_chain(mu, [eye])]))
    assert (_rows(lambda: identities._Panel.combine([1.0], [panel]).measures())
            == _rows(lambda: [linear_combine([1.0], [mu])]))
