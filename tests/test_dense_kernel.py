"""The dense finite-space kernel against the atom path it replaces.

The references here are the loop versions: a weight vector built atom by
atom, ``PositiveMeasure.from_atoms`` over the matrix-vector product, and
``trotter_iterate`` as a chained ``apply`` loop.  The arithmetic is
unchanged, so results must agree bit for bit, exceptions included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterkit import operators as ops_module
from trotterkit.diagnostics import tightness_probe
from trotterkit.measures import (
    PRUNE_REL_TOL,
    PositiveMeasure,
    SpaceMismatchError,
    StateSpace,
)
from trotterkit.operators import (
    GeneratorError,
    MarkovOperatorSpec,
    SemigroupSpec,
    apply,
    at_time,
)
from trotterkit.splitting import (
    extended_commutator_constant,
    sample_scheme_family,
    trotter_iterate,
)


def _discrete(k):
    return StateSpace.finite(np.ones((k, k)) - np.eye(k))


def _atom_path_apply(P, mu):
    """``apply`` on a stochastic matrix as the atom round-trip computed it."""
    if np.any(mu.weights < 0.0):
        raise ValueError("apply takes positive measures; split signed input first")
    v = np.zeros(P.space.size)
    for p, w in zip(mu.points, mu.weights):
        v[int(p)] += w
    out_v = P.matrix @ v
    out = PositiveMeasure.from_atoms(
        P.space, [(i, out_v[i]) for i in range(P.space.size) if out_v[i] != 0.0])
    if abs(out.tv - mu.tv) > ops_module.TV_PRESERVATION_TOL * max(1.0, mu.tv):
        raise RuntimeError(
            f"TV not preserved: {mu.tv} -> {out.tv} under {P.kind} operator")
    return out


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", out.points, out.weights.tobytes())


# zeros, ordinary weights, and weights small enough to fall under the prune cut
_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-300, 1e-11))


@st.composite
def _matrix_and_measure(draw):
    k = draw(st.integers(1, 12))
    column = st.lists(_entries, min_size=k, max_size=k).filter(lambda c: sum(c) > 0.0)
    a = np.array(draw(st.lists(column, min_size=k, max_size=k))).T
    space = _discrete(k)
    P = MarkovOperatorSpec(kind="stochastic_matrix", space=space,
                           matrix=a / a.sum(axis=0))
    weights = draw(st.lists(_entries, min_size=k, max_size=k))
    return P, PositiveMeasure.from_atoms(space, list(enumerate(weights)))


@settings(max_examples=300)
@given(_matrix_and_measure())
def test_dense_apply_matches_atom_path(case):
    P, mu = case
    assert _outcome(apply, P, mu) == _outcome(_atom_path_apply, P, mu)


@settings(max_examples=100)
@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12))
def test_weight_vector_round_trip(weights):
    space = _discrete(len(weights))
    v = np.asarray(weights)
    mu = PositiveMeasure.from_weight_vector(space, v)
    ref = PositiveMeasure.from_atoms(
        space, [(i, v[i]) for i in range(len(v)) if v[i] != 0.0])
    assert mu.points == ref.points
    assert mu.weights.tobytes() == ref.weights.tobytes()
    expected = np.zeros(len(v))
    expected[list(mu.points)] = mu.weights
    assert mu.weight_vector().tobytes() == expected.tobytes()


def test_prune_cut_uses_the_atom_path_sum():
    """The last entry lies between the cuts of a sequential and a pairwise
    sum; the atom path's builtin ``sum`` keeps it."""
    v = np.array([0.40250535449109437, 0.23525152020535517, 0.5053054299843583,
                  0.8166918432585648, 0.3075779880943727, 0.14681917095796865,
                  0.4640966558393754, 0.2786617400583298, 0.1816777410572097,
                  3.338587443949968e-12])
    assert PRUNE_REL_TOL * sum(v.tolist()) < v[-1] <= PRUNE_REL_TOL * float(v.sum())
    mu = PositiveMeasure.from_weight_vector(_discrete(10), v)
    ref = PositiveMeasure.from_atoms(_discrete(10), list(enumerate(v.tolist())))
    assert mu.points == ref.points == tuple(range(10))
    assert mu.weights.tobytes() == ref.weights.tobytes()


def test_from_weight_vector_rejects_negative_weights():
    with pytest.raises(ValueError, match="negative"):
        PositiveMeasure.from_weight_vector(_discrete(3), [0.5, -0.1, 0.6])


@pytest.fixture
def absorbing_pair():
    """State 0 has no inflow and drains fast, so its weight hits the prune
    cut; g1 has a zero column (state 3 is absorbing under it)."""
    space = _discrete(4)
    q1 = np.array([[-30.0, 0, 0, 0], [10, -1, 1, 0], [10, 0.5, -2, 0], [10, 0.5, 1, 0]])
    q2 = np.array([[-30.0, 0, 0, 0], [15, -2, 1, 1], [15, 1, -1, 1], [0, 1, 0, -2]])
    return (SemigroupSpec.matrix_exponential(space, q1),
            SemigroupSpec.matrix_exponential(space, q2),
            PositiveMeasure.from_atoms(space, [(0, 0.6), (1, 0.4)]))


@pytest.mark.parametrize("order", ["g1_first", "g2_first"])
@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_trotter_iterate_matches_chained_apply(absorbing_pair, order, n, t):
    g1, g2, mu = absorbing_pair
    p1, p2 = at_time(g1, t / n), at_time(g2, t / n)
    first, second = (p2, p1) if order == "g1_first" else (p1, p2)
    ref = mu
    for _ in range(n):
        ref = apply(second, apply(first, ref))
    before = ops_module.APPLY_COUNT
    out = trotter_iterate(g1, g2, t, n, mu, order)
    assert ops_module.APPLY_COUNT == before  # APPLY_COUNT counts apply calls only
    assert out.space is second.space
    assert out.points == ref.points
    assert out.weights.tobytes() == ref.weights.tobytes()


def test_pruned_and_zero_weights_occur(absorbing_pair):
    g1, g2, mu = absorbing_pair
    out = trotter_iterate(g1, g2, 2.0, 64, mu)
    assert 0 not in out.points  # pruned, then held at exactly zero


class TestAtTimeMemo:
    def test_repeated_t_returns_one_operator(self, absorbing_pair):
        g1, _, _ = absorbing_pair
        P = at_time(g1, 0.25)
        assert at_time(g1, 0.25) is P
        assert at_time(g1, np.float64(0.25)) is P
        assert at_time(g1, 0.5) is not P
        with pytest.raises(ValueError):
            P.matrix[0, 0] = 0.5  # shared, so read-only

    def test_not_shared_between_equal_valued_instances(self):
        q = np.array([[-1.0, 2.0], [1.0, -2.0]])
        a = SemigroupSpec.matrix_exponential(StateSpace.finite([[0.0, 1.0], [1.0, 0.0]]), q)
        b = SemigroupSpec.matrix_exponential(StateSpace.finite([[0.0, 3.0], [3.0, 0.0]]), q)
        assert np.array_equal(a.Q, b.Q)
        pa, pb = at_time(a, 0.3), at_time(b, 0.3)
        assert pa is not pb
        assert pa.space == a.space and pb.space == b.space
        twin = SemigroupSpec.matrix_exponential(a.space, q)
        assert at_time(twin, 0.3) is not pa

    def test_negative_t_raises_every_time(self, absorbing_pair):
        g1, _, _ = absorbing_pair
        at_time(g1, 0.0)
        for _ in range(2):
            with pytest.raises(ValueError):
                at_time(g1, -0.1)

    def test_generator_error_is_not_memoized(self, absorbing_pair, monkeypatch):
        g1, _, _ = absorbing_pair
        monkeypatch.setattr(ops_module, "expm", lambda a: np.full(a.shape, 0.5))
        for _ in range(2):
            with pytest.raises(GeneratorError):
                at_time(g1, 0.7)
        monkeypatch.undo()
        P = at_time(g1, 0.7)
        assert np.allclose(P.matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_generator_is_a_read_only_copy(self):
        q = np.array([[-1.0, 2.0], [1.0, -2.0]])
        g = SemigroupSpec.matrix_exponential(StateSpace.finite([[0.0, 1.0], [1.0, 0.0]]), q)
        q[0, 0] = -5.0  # the caller's array stays writable and unshared
        assert g.Q[0, 0] == -1.0
        with pytest.raises(ValueError):
            g.Q[0, 0] = -5.0


class TestIterateMemo:
    def test_repeated_call_shares_one_iterate(self, absorbing_pair):
        g1, g2, mu = absorbing_pair
        out = trotter_iterate(g1, g2, 1.0, 16, mu)
        again = PositiveMeasure.from_atoms(mu.space, [(0, 0.6), (1, 0.4)])
        assert trotter_iterate(g1, g2, 1.0, 16, again) is out
        with pytest.raises(ValueError):
            out.weights[0] = 1.0  # shared, so read-only

    def test_key_covers_every_argument(self, absorbing_pair):
        g1, g2, mu = absorbing_pair
        base = trotter_iterate(g1, g2, 1.0, 16, mu)
        other_mu = PositiveMeasure.from_atoms(mu.space, [(0, 0.6), (1, np.nextafter(0.4, 1.0))])
        twin = SemigroupSpec.matrix_exponential(g2.space, g2.Q)
        variants = [trotter_iterate(g1, g2, 1.5, 16, mu),
                    trotter_iterate(g1, g2, 1.0, 17, mu),
                    trotter_iterate(g1, g2, 1.0, 16, mu, "g2_first"),
                    trotter_iterate(g1, g2, 1.0, 16, other_mu),
                    trotter_iterate(g1, twin, 1.0, 16, mu),
                    trotter_iterate(g2, g1, 1.0, 16, mu)]
        assert all(v is not base for v in variants)
        # a twin factor computes the same iterate without sharing it
        assert variants[4].weights.tobytes() == base.weights.tobytes()

    def test_foreign_space_refused_after_a_hit(self, absorbing_pair):
        g1, g2, mu = absorbing_pair
        trotter_iterate(g1, g2, 1.0, 8, mu)
        foreign = StateSpace.finite(2.0 * (np.ones((4, 4)) - np.eye(4)))
        with pytest.raises(SpaceMismatchError):
            trotter_iterate(g1, g2, 1.0, 8,
                            PositiveMeasure.from_atoms(foreign, [(0, 0.6), (1, 0.4)]))

    def test_mismatched_factor_spaces_refused(self):
        q = np.array([[-1.0, 2.0], [1.0, -2.0]])
        a = SemigroupSpec.matrix_exponential(StateSpace.finite([[0.0, 1.0], [1.0, 0.0]]), q)
        b = SemigroupSpec.matrix_exponential(StateSpace.finite([[0.0, 3.0], [3.0, 0.0]]), q)
        with pytest.raises(SpaceMismatchError):
            trotter_iterate(a, b, 1.0, 4, PositiveMeasure.dirac(a.space, 0))


def _closure_family(g1, g2, delta, count, rng, order):
    """The scheme family as closures: pre, then ``trotter_iterate``, then post."""
    ops = []
    for _ in range(count):
        s, s2, t = (float(rng.uniform(0.0, delta)) for _ in range(3))
        n = int(rng.integers(1, 9))
        pre, post = at_time(g1, s), at_time(g2, s2)
        ops.append(lambda mu, pre=pre, post=post, t=t, n=n:
                   apply(post, trotter_iterate(g1, g2, t, n, apply(pre, mu), order)))
    return ops


def _bits(mu):
    return np.asarray(mu.points, dtype=float).tobytes(), mu.weights.tobytes()


def _plane_pair():
    plane = StateSpace.euclidean(2)
    return (SemigroupSpec.linear_flow_lift(plane, [[0.0, 1.0], [0.0, 0.0]]),
            SemigroupSpec.map_flow(plane, "rotation", {"rate": 0.7}),
            PositiveMeasure.from_atoms(plane, [([1.0, 0.0], 0.6), ([0.0, 1.0], 0.4)]))


@pytest.mark.parametrize("order", ["g1_first", "g2_first"])
def test_scheme_family_acts_like_the_closure(absorbing_pair, order):
    for g1, g2, mu in (absorbing_pair, _plane_pair()):
        family = sample_scheme_family(g1, g2, 0.4, 6, np.random.default_rng(3), order)
        closures = _closure_family(g1, g2, 0.4, 6, np.random.default_rng(3), order)
        assert [P.kind for P in family] == ["composite"] * 6
        for P, closure in zip(family, closures):
            assert _bits(apply(P, mu)) == _bits(closure(mu))


def test_extended_constant_takes_the_scheme_family():
    g1, g2, mu = _plane_pair()
    family = sample_scheme_family(g1, g2, 0.1, 2, np.random.default_rng(0))
    c_hat, flags = extended_commutator_constant(g1, g2, mu, [0.2, 0.1], family)
    assert c_hat >= 1.0 and flags == []


def test_tightness_probe_takes_the_scheme_family():
    g1, g2, mu = _plane_pair()
    family = sample_scheme_family(g1, g2, 0.1, 3, np.random.default_rng(0))
    table = tightness_probe(family, mu, [0.25, 0.5, 4.0]).mass_outside
    pushed = [apply(P, mu) for P in family]
    assert table.shape == (3, 3)
    assert np.all(table[:, 0] > 0.0) and np.all(table[:, -1] == 0.0)
    assert np.all(table <= [[nu.tv] for nu in pushed])


class TestEuclideanIterateMemo:
    def test_hit_returns_the_first_result(self):
        g1, g2, mu = _plane_pair()
        before = ops_module.APPLY_COUNT
        out = trotter_iterate(g1, g2, 0.5, 16, mu)
        assert ops_module.APPLY_COUNT - before == 32  # one apply per factor
        again = PositiveMeasure.from_atoms(mu.space, [([1.0, 0.0], 0.6), ([0.0, 1.0], 0.4)])
        assert trotter_iterate(g1, g2, 0.5, 16, again) is out
        assert ops_module.APPLY_COUNT - before == 32  # a hit applies nothing
        with pytest.raises(ValueError):
            out.weights[0] = 1.0  # shared, so read-only

    @pytest.mark.parametrize("order", ["g1_first", "g2_first"])
    def test_matches_chained_apply(self, order):
        g1, g2, mu = _plane_pair()
        p1, p2 = at_time(g1, 0.5 / 7), at_time(g2, 0.5 / 7)
        first, second = (p2, p1) if order == "g1_first" else (p1, p2)
        ref = mu
        for _ in range(7):
            ref = apply(second, apply(first, ref))
        for _ in range(2):  # a miss, then a hit
            assert _bits(trotter_iterate(g1, g2, 0.5, 7, mu, order)) == _bits(ref)

    def test_foreign_space_refused_after_a_hit(self):
        g1, g2, mu = _plane_pair()
        trotter_iterate(g1, g2, 0.5, 8, mu)
        for foreign in (PositiveMeasure.dirac(StateSpace.euclidean(3), [1.0, 0.0, 0.0]),
                        PositiveMeasure.dirac(_discrete(2), 0)):
            with pytest.raises(SpaceMismatchError):
                trotter_iterate(g1, g2, 0.5, 8, foreign)

    def test_key_tells_signed_zeros_apart(self):
        g1, g2, mu = _plane_pair()
        plus = PositiveMeasure.dirac(mu.space, [0.0, 1.0])
        minus = PositiveMeasure.dirac(mu.space, [-0.0, 1.0])
        assert plus.points == minus.points  # equal as tuples, not as bytes
        assert trotter_iterate(g1, g2, 0.5, 8, minus) is not trotter_iterate(g1, g2, 0.5, 8, plus)
