"""The dense finite-space kernel against the atom path it replaces.

The references here are the loop versions: a weight vector built atom by
atom, ``PositiveMeasure.from_atoms`` over the matrix-vector product, and
``trotter_iterate`` as a chained ``apply`` loop.  The arithmetic is
unchanged, so results must agree bit for bit, exceptions included.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterkit import identities
from trotterkit import operators as ops_module
from trotterkit.diagnostics import tightness_probe
from trotterkit.measures import (
    PRUNE_REL_TOL,
    PositiveMeasure,
    SignedMeasure,
    SpaceMismatchError,
    StateSpace,
    mass,
    merged_positive,
)
from trotterkit.operators import (
    GeneratorError,
    MarkovOperatorSpec,
    SemigroupSpec,
    apply,
    apply_signed,
    at_time,
    compose,
)
from trotterkit.splitting import (
    commutator_modulus,
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
    total = mass(x for x in out_v.tolist() if x != 0.0)  # the mass before the prune
    if abs(total - mu.tv) > ops_module.TV_PRESERVATION_TOL * max(1.0, mu.tv):
        raise RuntimeError(
            f"TV not preserved: {mu.tv} -> {total} under {P.kind} operator")
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
    sum; the atom path's left-to-right ``mass`` keeps it."""
    v = np.array([0.40250535449109437, 0.23525152020535517, 0.5053054299843583,
                  0.8166918432585648, 0.3075779880943727, 0.14681917095796865,
                  0.4640966558393754, 0.2786617400583298, 0.1816777410572097,
                  3.338587443949968e-12])
    assert PRUNE_REL_TOL * mass(v.tolist()) < v[-1] <= PRUNE_REL_TOL * float(v.sum())
    mu = PositiveMeasure.from_weight_vector(_discrete(10), v)
    ref = PositiveMeasure.from_atoms(_discrete(10), list(enumerate(v.tolist())))
    assert mu.points == ref.points == tuple(range(10))
    assert mu.weights.tobytes() == ref.weights.tobytes()


def test_weight_at_the_cut_is_pruned():
    v = np.array([0.5, 5.000000000005e-13])
    assert PRUNE_REL_TOL * mass(v.tolist()) == v[1]  # not above the cut
    for mu in (PositiveMeasure.from_weight_vector(_discrete(2), v),
               PositiveMeasure.from_atoms(_discrete(2), list(enumerate(v.tolist())))):
        assert mu.points == (0,)


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
    omega = commutator_modulus(g1, g2, mu, [0.2, 0.1])
    c_hat, flags = extended_commutator_constant(g1, g2, mu, omega, family)
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
        calls = []
        for g in (g1, g2):  # the memoized factors of the 16 blocks, with counted array maps
            P = at_time(g, 0.5 / 16)
            object.__setattr__(P, "_array_map",
                               lambda src, dst, f=P._array_map: calls.append(src) or f(src, dst))
        before = ops_module.APPLY_COUNT
        out = trotter_iterate(g1, g2, 0.5, 16, mu)
        assert ops_module.APPLY_COUNT == before  # map steps are not counted, as dense steps
        assert len(calls) == 32  # one call per factor step, for all atoms at once
        again = PositiveMeasure.from_atoms(mu.space, [([1.0, 0.0], 0.6), ([0.0, 1.0], 0.4)])
        assert trotter_iterate(g1, g2, 0.5, 16, again) is out
        assert len(calls) == 32  # a hit applies nothing
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


# Euclidean map chains: ``apply`` on a product of deterministic maps against
# the per-factor loop it replaces, which pushed the atoms through one map and
# rebuilt the measure with ``from_atoms`` after every factor.


def _atom_path_map_apply(P, mu):
    """``apply`` on a Euclidean deterministic map as one ``from_atoms``
    computes it, with the TV check on the merged mass before the prune."""
    ops_module.check_input(P, mu)
    out, total = merged_positive(P.space, [(P.point_map(np.asarray(p, dtype=float)), w)
                                           for p, w in zip(mu.points, mu.weights)])
    if abs(total - mu.tv) > ops_module.TV_PRESERVATION_TOL * max(1.0, mu.tv):
        raise RuntimeError(f"TV not preserved: {mu.tv} -> {total} under {P.kind} operator")
    return out


def _per_factor_map_loop(factors, mu):
    for P in reversed(factors):
        mu = _atom_path_map_apply(P, mu)
    return mu


def _map_outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", out.space, len(out), np.asarray(out.points, dtype=float).tobytes(),
            out.weights.tobytes())


def _snap(delta):
    """Rounds each coordinate to a grid of 1/2, then moves it delta towards
    where it came from: images in one cell are equal or 2 * delta apart."""
    def snap(x):
        y = np.round(2.0 * x) / 2.0
        return y + delta * np.sign(x - y)
    return snap


# magnitudes from 1e-13 to 1e3, and zeros of both signs
_coords = st.one_of(st.sampled_from([0.0, -0.0]), st.builds(
    lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]), st.floats(-13.0, 3.0)))
# image distances 2 * delta of zero, half the coincidence tolerance, one
# float below it, exactly it, one float above it, and twice it
_HALF_TOL = 5e-13
_SNAP_DELTAS = [0.0, 2.5e-13, np.nextafter(_HALF_TOL, 0.0), _HALF_TOL,
                np.nextafter(_HALF_TOL, 1.0), 1e-12]


@st.composite
def _map_factor(draw, space):
    dim = space.dim
    t = draw(st.floats(0.0, 2.0))
    kind = draw(st.sampled_from(["linear", "contraction", "rotation", "translation", "snap"]))
    if kind == "linear":  # zero entries make singular A likely
        entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
        a = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
        return at_time(SemigroupSpec.linear_flow_lift(space, a), t)
    if kind == "contraction":  # at these rates images collide
        return at_time(SemigroupSpec.map_flow(
            space, "contraction", {"rate": draw(st.floats(10.0, 200.0))}), t)
    if kind == "rotation" and dim >= 2:
        return at_time(SemigroupSpec.map_flow(
            space, "rotation", {"rate": draw(st.floats(-5.0, 5.0))}), t)
    if kind == "translation":
        velocity = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
        return at_time(SemigroupSpec.map_flow(space, "translation", {"velocity": velocity}), t)
    return MarkovOperatorSpec(kind="deterministic_map", space=space,
                              point_map=_snap(draw(st.sampled_from(_SNAP_DELTAS))))


@st.composite
def _map_chain_case(draw):
    space = StateSpace.euclidean(draw(st.integers(1, 3)))
    point = st.lists(_coords, min_size=space.dim, max_size=space.dim)
    atoms = draw(st.lists(st.tuples(point, _entries), max_size=8))
    if draw(st.booleans()):
        mu = PositiveMeasure.from_atoms(space, atoms)
    else:  # as stored, unmerged and unpruned
        mu = PositiveMeasure(space=space, points=tuple(tuple(p) for p, _ in atoms),
                             weights=np.array([w for _, w in atoms], dtype=float))
    factors = draw(st.lists(_map_factor(space), min_size=1, max_size=6))
    return factors, mu


@settings(max_examples=400)
@given(_map_chain_case())
def test_map_product_matches_per_factor_loop(case):
    factors, mu = case
    assert (_map_outcome(apply, compose(*factors), mu)
            == _map_outcome(_per_factor_map_loop, factors, mu))
    assert (_map_outcome(apply, factors[0], mu)
            == _map_outcome(_atom_path_map_apply, factors[0], mu))


def test_single_map_apply_builds_no_stack(monkeypatch):
    """One Euclidean map ``apply`` is one atom step: it never enters the
    chain runner, and it gives the atom path's bits, merges included."""
    def no_stack(ops, mu):
        raise AssertionError("a single apply ran the point-array chain")

    monkeypatch.setattr(ops_module, "_map_chain", no_stack)
    plane = StateSpace.euclidean(2)
    cloud = PositiveMeasure.from_atoms(
        plane, [([0.3, -1.2], 0.5), ([2.0, 0.1], 0.25), ([-0.7, 0.4], 0.25)])
    maps = [at_time(SemigroupSpec.linear_flow_lift(plane, [[-0.2, 1.0], [-1.0, -0.2]]), 0.9),
            at_time(SemigroupSpec.map_flow(plane, "rotation", {"rate": 0.7}), 0.4),
            at_time(SemigroupSpec.map_flow(plane, "translation", {"velocity": [1.0, -1.0]}),
                    0.25),
            # e^-200 brings the three images within the coincidence tolerance
            at_time(SemigroupSpec.map_flow(plane, "contraction", {"rate": 200.0}), 1.0),
            MarkovOperatorSpec.identity(plane),
            MarkovOperatorSpec(kind="deterministic_map", space=plane, point_map=_snap(0.0))]
    for P in maps:
        for mu in (cloud, PositiveMeasure(space=plane)):
            outcome = _map_outcome(apply, P, mu)
            assert outcome[0] == "ok" and outcome == _map_outcome(_atom_path_map_apply, P, mu)
    assert _map_outcome(apply, maps[3], cloud)[2] == 1


@pytest.mark.parametrize("delta, atoms", list(zip(_SNAP_DELTAS, [1, 1, 1, 2, 2, 2])))
def test_images_at_the_tolerance(delta, atoms):
    """Snapped to 0 from either side, the images are 2 * delta apart: at
    2 * delta == COINCIDENCE_TOL exactly they are two atoms."""
    for dim in (1, 2, 3):
        space = StateSpace.euclidean(dim)
        mu = PositiveMeasure.from_atoms(space, [([0.1] * dim, 0.25), ([-0.1] * dim, 0.75)])
        snap = MarkovOperatorSpec(kind="deterministic_map", space=space, point_map=_snap(delta))
        shift = at_time(SemigroupSpec.map_flow(space, "translation", {"velocity": [1.0] * dim}),
                        0.0)
        for factors in [(snap,), (shift, snap), (snap, shift, shift)]:
            outcome = _map_outcome(apply, compose(*factors), mu)
            assert outcome[:3] == ("ok", space, atoms)
            assert outcome == _map_outcome(_per_factor_map_loop, factors, mu)


@pytest.mark.parametrize("image", [
    lambda x: np.array([np.inf] * len(x)),
    lambda x: x * np.nan if x[0] > 0.5 else x,  # the second atom only
    lambda x: np.append(x, 0.0),
    lambda x: float(x[0]),
    lambda x: [x, x] if x[0] > 0.5 else x,  # ragged: the images make no array
])
def test_bad_images_raise_as_per_factor_loop(image):
    plane = StateSpace.euclidean(2)
    mu = PositiveMeasure.from_atoms(plane, [([0.0, 1.0], 0.5), ([2.0, 0.5], 0.5)])
    bad = MarkovOperatorSpec(kind="deterministic_map", space=plane, point_map=image)
    shift = at_time(SemigroupSpec.map_flow(plane, "translation", {"velocity": [0.5, 0.0]}), 0.5)
    for factors in [(bad,), (bad, shift), (shift, bad, shift)]:
        outcome = _map_outcome(apply, compose(*factors), mu)
        assert outcome[0] == "raised" and "is not a point of R^2" in outcome[2]
        assert outcome == _map_outcome(_per_factor_map_loop, factors, mu)


def _recorded(fn, *args):
    """``_map_outcome`` of the call, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        outcome = _map_outcome(fn, *args)
    return outcome, [(w.category, str(w.message)) for w in record]


@pytest.mark.parametrize("case, step", [("coincidence", 40), ("overflow", 46)])
def test_long_chain_leaves_the_array_loop_at_a_middle_step(case, step):
    """A 96-step chain first merges two images, or first overflows, at a
    middle step: the array loop discards the steps from there on, and the
    chain goes on as the per-factor loop does, warnings included."""
    plane = StateSpace.euclidean(2)
    mu = PositiveMeasure.from_atoms(plane, [([1.0, 0.5], 0.25), ([2.0, -0.5], 0.75)])
    if case == "coincidence":  # the points close in fourfold at every other step
        pair = (at_time(SemigroupSpec.map_flow(plane, "contraction", {"rate": math.log(4.0)}),
                        1.0),
                at_time(SemigroupSpec.linear_flow_lift(plane, [[0.0, -1.0], [1.0, 0.0]]), 0.3))
    else:  # the points grow e^30-fold at every other step
        pair = (at_time(SemigroupSpec.linear_flow_lift(plane, [[30.0, 0.0], [0.0, 30.0]]), 1.0),
                at_time(SemigroupSpec.map_flow(plane, "rotation", {"rate": 1.0}), 0.7))
    applied = pair * 48  # in application order
    assert _map_outcome(_per_factor_map_loop, applied[:step][::-1], mu)[:3] == ("ok", plane, 2)
    at_step, _ = _recorded(_per_factor_map_loop, applied[:step + 1][::-1], mu)
    assert at_step[:3] == ("ok", plane, 1) if case == "coincidence" else at_step[0] == "raised"
    calls = []
    for P in pair:
        object.__setattr__(P, "point_map", lambda x, f=P.point_map: calls.append(x) or f(x))
    got = _recorded(apply, compose(*applied[::-1]), mu)
    assert len(calls) == 2  # one point_map step, at the first step the test refuses
    assert got == _recorded(_per_factor_map_loop, applied[::-1], mu)
    if case == "overflow":
        assert got[0][0] == "raised" and len(got[1]) == 2  # one warning per image


def test_one_tv_rule_for_every_apply_branch():
    """Matrix, kernel and map steps check TV on the merged mass before the
    prune, so five atoms under the cut, together above the TV tolerance,
    are pruned alike."""
    space, line = _discrete(6), StateSpace.euclidean(1)
    weights = np.array([1.0] + [4e-13] * 5)
    mu = PositiveMeasure(space, tuple(range(6)), weights)  # stored unpruned
    cases = [(MarkovOperatorSpec.identity(space), mu),
             (MarkovOperatorSpec(kind="kernel", space=space,
                                 kernel=lambda p: PositiveMeasure.dirac(space, p)), mu),
             (MarkovOperatorSpec(kind="deterministic_map", space=space, point_map=lambda p: p),
              mu),
             (MarkovOperatorSpec.identity(line),
              PositiveMeasure(line, tuple((float(p),) for p in range(6)), weights))]
    for P, nu in cases:
        out = apply(P, nu)
        assert np.asarray(out.points, dtype=float).ravel().tolist() == [0.0], P
        assert out.weights.tobytes() == np.array([1.0]).tobytes(), P


@settings(max_examples=200)
@given(st.integers(1, 3).flatmap(lambda dim: st.lists(
    st.tuples(st.lists(_coords, min_size=dim, max_size=dim), _entries), min_size=1, max_size=8)))
def test_prune_is_a_no_op_without_a_coincidence(atoms):
    """The kept atoms of ``from_atoms`` are pairwise apart and above the cut:
    moved apart again, they keep their weights and order bit for bit."""
    space = StateSpace.euclidean(len(atoms[0][0]))
    mu = PositiveMeasure.from_atoms(space, atoms)
    doubled = PositiveMeasure.from_atoms(
        space, [(2.0 * np.asarray(p), w) for p, w in zip(mu.points, mu.weights)])
    assert doubled.weights.tobytes() == mu.weights.tobytes()
    assert doubled.points == tuple(tuple(2.0 * x for x in p) for p in mu.points)


# Signed chains: ``apply_signed`` on a product is ``apply_signed`` factor by
# factor, nested composites included, and the identity checks' panel, run
# as one row of one term, gives the same bits on each measure it holds or
# refuses; it refuses wherever ``apply_signed`` raises.


def _flat(factors):
    """The factors of a product in written order, nested composites flattened."""
    return [f for F in factors for f in (_flat(F.factors) if F.kind == "composite" else [F])]


def _factor_by_factor(P, mu):
    """``apply_signed`` on each factor of P, the last first."""
    for F in reversed(_flat([P])):
        mu = apply_signed(F, mu)
    return mu


def _held(mu):
    """Whether a panel holds mu: distinct states in both parts together, with
    finite positive weights, both parts on one space."""
    try:
        identities._panel([mu], mu.space)
    except identities._Refused:
        return False
    return True


def _panel_apply_signed(P, mu):
    """The product P on mu as the identity checks run it: a one-row panel of
    one term, P's factors flattened; ``_Refused`` where it cannot."""
    return identities._panel([mu], mu.space).chain([_flat([P])]).measures()[0]


_REFUSED = ("refused",)


def _signed_outcome(fn, *args):
    try:
        out = fn(*args)
    except identities._Refused:
        return _REFUSED
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok",) + tuple((np.asarray(part.points, dtype=float).tobytes(),
                            part.weights.tobytes()) for part in (out.pos, out.neg))


def _corrupted(P, edit):
    """A copy of a stochastic-matrix operator whose matrix is edited after
    construction, past the checks of MarkovOperatorSpec."""
    bad = MarkovOperatorSpec(kind="stochastic_matrix", space=P.space, matrix=P.matrix.copy())
    object.__setattr__(bad, "matrix", edit(bad.matrix))
    return bad


def _signed(space, pos_atoms, neg_atoms):
    return SignedMeasure(pos=PositiveMeasure.from_atoms(space, pos_atoms),
                         neg=PositiveMeasure.from_atoms(space, neg_atoms))


class TestSignedChains:
    @pytest.fixture
    def ops(self):
        space = _discrete(3)
        rng = np.random.default_rng(8)
        q1, q2 = (identities.random_generator(3, rng) for _ in range(2))
        a = at_time(SemigroupSpec.matrix_exponential(space, q1), 0.3)
        b = at_time(SemigroupSpec.matrix_exponential(space, q2), 1.7)
        kernel = MarkovOperatorSpec(kind="kernel", space=space, kernel=lambda p: (
            PositiveMeasure.from_atoms(space, [(p, 0.25), ((int(p) + 1) % 3, 0.75)])))
        shift = MarkovOperatorSpec(kind="deterministic_map", space=space,
                                   point_map=lambda p: (int(p) + 2) % 3)
        return space, a, b, kernel, shift

    def test_products_match_per_factor_loop(self, ops):
        space, a, b, kernel, shift = ops
        scaled, negative = _corrupted(a, lambda m: 1.1 * m), _corrupted(
            b, lambda m: m + np.outer([1.0, -1.0, 0.0], m[1] + 0.1))
        foreign = StateSpace.finite(2.0 * space.dist)
        bad = PositiveMeasure(space=space, points=(1,), weights=np.array([-0.5]))
        measures = [_signed(space, [(0, 0.5), (2, 0.2)], [(1, 0.3)]),
                    _signed(space, [(0, 0.5)], [(1, 0.5)]),
                    _signed(space, [(2, 1e-300), (1, 3.0)], [(0, 3.0)]),
                    _signed(space, [], [(2, 0.7), (0, 0.1)]),
                    _signed(space, [], []),
                    _signed(foreign, [(1, 1.0)], [(0, 0.5)]),
                    # measures a panel does not hold: a state in both parts,
                    # a negative weight, parts on two spaces, a repeated state,
                    # a zero weight
                    _signed(space, [(0, 0.5), (2, 0.2)], [(1, 0.3), (2, 0.4)]),
                    _signed(space, [(0, 1.0), (1, 1.0)], [(1, 1.0), (0, 1.0)]),
                    SignedMeasure(pos=PositiveMeasure.dirac(space, 0), neg=bad),
                    SignedMeasure(pos=PositiveMeasure(space=foreign),
                                  neg=PositiveMeasure.dirac(space, 1)),
                    SignedMeasure(pos=PositiveMeasure(space, (2, 0, 2), np.array([0.2, 0.5, 0.1])),
                                  neg=PositiveMeasure.dirac(space, 1, 0.3)),
                    SignedMeasure(pos=PositiveMeasure(space, (0, 1), np.array([0.6, 0.0])),
                                  neg=PositiveMeasure.dirac(space, 2, 0.4)),
                    SignedMeasure(pos=PositiveMeasure(space, (1, 0), np.array([0.7, 0.2])),
                                  neg=PositiveMeasure(space, (2, 1), np.array([0.4, 0.3])))]
        assert [_held(mu) for mu in measures] == [True] * 6 + [False] * 7
        products = [(a,), (a, b), (b, a, b, a, b, a), (a, kernel, b), (kernel, a),
                    (shift, a, shift), (shift, kernel), (compose(a, b), kernel),
                    (a, compose(b, compose(a, b))), (scaled, b), (a, negative, a),
                    (kernel, scaled), (negative,), (scaled,)]
        for factors in products:
            for mu in measures:
                P = compose(*factors)
                expected = _signed_outcome(_factor_by_factor, P, mu)
                assert _signed_outcome(apply_signed, P, mu) == expected, (factors, mu)
                if _held(mu):
                    # only stochastic matrices run on the panel
                    got = _signed_outcome(_panel_apply_signed, P, mu)
                    assert got == expected or got == _REFUSED and (expected[0] == "raised" or any(
                        F.kind != "stochastic_matrix" for F in _flat([P]))), (factors, mu)

    def test_refusals_come_in_the_per_factor_order(self, ops):
        space, a, b, _, _ = ops
        scaled = _corrupted(a, lambda m: 1.1 * m)
        negative = _corrupted(b, lambda m: m + np.outer([1.0, -1.0, 0.0], m[1] + 0.1))
        mu = _signed(space, [(0, 0.6)], [(2, 0.4)])
        foreign = MarkovOperatorSpec.identity(StateSpace.finite(2.0 * space.dist))
        refusals = [  # the positive part first: its mass is 0.6
            (compose(b, scaled), mu, RuntimeError, r"TV not preserved: 0\.6 -> "),
            (compose(a, negative, a), mu, ValueError, "negative weights"),
            (foreign, mu, SpaceMismatchError, None),
            (compose(a, b), _signed(foreign.space, [(0, 1.0)], [(1, 1.0)]),
             SpaceMismatchError, None)]
        for P, nu, error, message in refusals:
            with pytest.raises(error, match=message):
                apply_signed(P, nu)
            with pytest.raises(identities._Refused):
                _panel_apply_signed(P, nu)
        bad_neg = SignedMeasure(pos=mu.pos, neg=PositiveMeasure(
            space=space, points=(1,), weights=np.array([-0.5])))
        assert not _held(bad_neg)
        with pytest.raises(RuntimeError, match=r"TV not preserved: 0\.6 -> "):
            apply_signed(compose(b, scaled), bad_neg)
        with pytest.raises(ValueError, match="apply takes positive measures"):
            apply_signed(compose(b, a), bad_neg)

    def test_euclidean_products_match_per_factor_loop(self):
        plane = StateSpace.euclidean(2)
        rot = at_time(SemigroupSpec.map_flow(plane, "rotation", {"rate": 0.7}), 0.4)
        lift = at_time(SemigroupSpec.linear_flow_lift(plane, [[-0.2, 1.0], [-1.0, -0.2]]), 0.9)
        shift = at_time(SemigroupSpec.map_flow(plane, "translation", {"velocity": [1.0, -1.0]}),
                        0.25)
        mu = _signed(plane, [([0.3, -1.2], 0.5), ([2.0, 0.1], 0.25)],
                     [([-0.7, 0.4], 0.25), ([0.3, -1.2], 0.1)])
        for factors in [(rot,), (rot, lift), (lift, shift, rot, lift), (rot, compose(lift, shift))]:
            P = compose(*factors)
            assert (_signed_outcome(apply_signed, P, mu)
                    == _signed_outcome(_factor_by_factor, P, mu)), factors

    def test_negative_part_is_in_state_order(self):
        eye = MarkovOperatorSpec.identity(_discrete(3))
        mu = _signed(eye.space, [(0, 1.0), (2, 0.5)], [(1, 0.3), (2, 0.9)])
        # state 2 merges first, from the positive part, and still comes last
        assert apply_signed(eye, mu).neg.points == (1, 2)
        assert apply_signed(compose(eye, eye), mu).neg.points == (1, 2)
        # a measure a panel holds: state 2 joins the positive part's support
        # and goes negative, state 1 is only ever negative
        spread = MarkovOperatorSpec(kind="stochastic_matrix", space=eye.space,
                                    matrix=[[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
        held = _signed(eye.space, [(0, 1.0)], [(1, 0.3), (2, 0.9)])
        assert _held(held)
        for run in (apply_signed, _panel_apply_signed):
            assert run(spread, held).neg.points == (1, 2)
            assert run(compose(eye, spread), held).neg.points == (1, 2)
        for P in (spread, compose(spread, spread), compose(eye, spread)):
            assert _signed_outcome(_panel_apply_signed, P, held) == _signed_outcome(
                apply_signed, P, held)

    def test_resplit_cut_uses_the_left_to_right_mass(self):
        """The negative atom lies between the cuts of a sequential and a
        pairwise sum of the merged weights; linear_combine keeps it."""
        v = [0.40250535449109437, 0.23525152020535517, 0.5053054299843583,
             0.8166918432585648, 0.3075779880943727, 0.14681917095796865,
             0.4640966558393754, 0.2786617400583298, 0.1816777410572097]
        tiny = 3.338587443949968e-12
        assert PRUNE_REL_TOL * mass(v + [tiny]) < tiny <= PRUNE_REL_TOL * float(np.sum(v + [tiny]))
        eye = MarkovOperatorSpec.identity(_discrete(10))
        mu = _signed(eye.space, list(enumerate(v)), [(9, tiny)])
        for run in (apply_signed, _panel_apply_signed):
            out = run(compose(eye, eye), mu)
            assert out.neg.points == (9,) and out.neg.weights.tolist() == [tiny]
        assert _signed_outcome(_panel_apply_signed, eye, mu) == _signed_outcome(
            apply_signed, eye, mu)
        at_cut = _signed(eye.space, [(0, 0.5)], [(1, 5.000000000005e-13)])
        for run in (apply_signed, _panel_apply_signed):
            assert run(eye, at_cut).neg.points == ()  # not above the cut

    def test_each_nonempty_part_and_factor_is_counted(self, ops):
        """``apply_signed`` makes one counted ``apply`` per nonempty part and
        factor; the identity checks' panel adds nothing to APPLY_COUNT."""
        space, a, b, kernel, _ = ops
        mu = _signed(space, [(0, 0.5)], [(1, 0.5)])  # mass 0: both parts stay nonempty
        one_sided = _signed(space, [(0, 0.5)], [])
        for P, nu, count in ((a, mu, 2), (compose(a, b, a), mu, 6),
                             (compose(a, kernel, b), mu, 6), (compose(a, b, a), one_sided, 3)):
            before = ops_module.APPLY_COUNT
            apply_signed(P, nu)
            assert ops_module.APPLY_COUNT - before == count, (P, nu)
        before = ops_module.APPLY_COUNT
        _panel_apply_signed(a, mu)
        _panel_apply_signed(compose(a, b, a), mu)
        assert ops_module.APPLY_COUNT == before

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_identity_suite_matches_per_factor_loop(self, seed, monkeypatch):
        """The suite's panels against its formulas run one test measure at a
        time, each product one ``apply_signed`` per factor."""
        def run():
            results, failures = identities.run_identity_suite(seed, 4, 6)
            return repr([r.to_json_dict() for r in results]), repr(failures)

        def refuse(measures, space):
            raise identities._Refused

        new = run()
        monkeypatch.setattr(identities, "_panel", refuse)
        assert new == run()


# The TV check takes the product's mass before the prune: the prune drops up
# to PRUNE_REL_TOL of the mass per atom, so over several atoms it drops more
# than TV_PRESERVATION_TOL from a valid stochastic matrix.


@pytest.fixture
def thin_rows():
    """Rows 1-5 hold 5e-13 in every column and row 0 the rest: each of
    those entries falls under the prune cut, and together they hold 2.5e-12."""
    a = np.full((6, 6), 5e-13)
    a[0] = 1.0 - 5 * 5e-13
    return MarkovOperatorSpec(kind="stochastic_matrix", space=_discrete(6), matrix=a)


class TestTVCheckBeforePrune:
    def test_apply_accepts_a_pruned_product(self, thin_rows):
        P = thin_rows
        mu = PositiveMeasure.dirac(P.space, 0)
        out = apply(P, mu)
        assert out.points == (0,)
        assert mu.tv - out.tv > ops_module.TV_PRESERVATION_TOL  # the prune took more
        assert _outcome(apply, P, mu) == _outcome(_atom_path_apply, P, mu)
        assert _bits(apply(compose(P, P, P), mu)) == _bits(apply(P, apply(P, apply(P, mu))))

    def test_apply_signed_accepts_a_pruned_product(self, thin_rows):
        P = thin_rows
        mu = _signed(P.space, [(0, 1.0)], [(3, 0.5)])
        repeated = SignedMeasure(pos=PositiveMeasure(P.space, (0, 0), np.array([0.5, 0.5])),
                                 neg=PositiveMeasure(P.space))  # a panel does not hold it
        for product in (P, compose(P, P, P)):
            outcome = _signed_outcome(apply_signed, product, mu)
            assert outcome[0] == "ok"
            assert _signed_outcome(_panel_apply_signed, product, mu) == outcome
            assert _signed_outcome(apply_signed, product, repeated)[0] == "ok"

    def test_identity_check_accepts_a_pruned_product(self, thin_rows, monkeypatch):
        P = thin_rows
        rng = np.random.default_rng(2)
        g1, g2 = (SemigroupSpec.matrix_exponential(P.space, identities.random_generator(6, rng))
                  for _ in range(2))
        panel = identities.standard_test_panel(P.space, rng)
        monkeypatch.setattr(identities, "at_time", lambda g, t: P if g is g1 else at_time(g, t))
        with monkeypatch.context() as m:  # the panel takes no per-measure fallback
            m.setattr(identities, "apply_signed", lambda P, mu: pytest.fail("fallback"))
            result = identities.check_swap_identity(g1, g2, 0.5, 3, panel)
        assert result.passed and result.instances == 10
        scaled = _corrupted(P, lambda m: 1.1 * m)
        monkeypatch.setattr(identities, "at_time",
                            lambda g, t: scaled if g is g1 else at_time(g, t))
        with pytest.raises(RuntimeError, match="TV not preserved"):
            identities.check_swap_identity(g1, g2, 0.5, 3, panel)

    @pytest.mark.parametrize("scale, message", [
        (1.1, "TV not preserved"),
        (0.0, r"TV not preserved: \S+ -> 0\.0 under"),  # an empty product's mass is a float
    ])
    def test_scaled_matrix_is_still_refused(self, thin_rows, scale, message):
        scaled = _corrupted(thin_rows, lambda m: scale * m)
        mu = PositiveMeasure.dirac(scaled.space, 0)
        signed = _signed(scaled.space, [(0, 1.0)], [(3, 0.5)])
        for attempt in (lambda: apply(scaled, mu), lambda: apply(compose(thin_rows, scaled), mu),
                        lambda: apply_signed(scaled, signed),
                        lambda: apply_signed(compose(scaled, thin_rows), signed)):
            with pytest.raises(RuntimeError, match=message):
                attempt()
        for product in (scaled, compose(scaled, thin_rows)):
            with pytest.raises(identities._Refused):
                _panel_apply_signed(product, signed)


# Stacked dense runs: a chain of stochastic matrices fills one stack of
# weight vectors and tests every step's prune cut and TV check at once; the
# first step that fails the test, and every single step, runs ``_dense_step``.


def _per_factor_apply(factors, mu):
    """The chain in application order as one ``apply`` per factor."""
    for P in factors:
        mu = apply(P, mu)
    return mu


def _dense_outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", out.space, out.points, out.weights.tobytes())


def _recording_dense_step(monkeypatch):
    """Patches ``_dense_step`` to record the factor and input weights of every call."""
    calls = []
    step = ops_module._dense_step

    def recording(P, v, tv_in, space):
        calls.append((P, v.tobytes()))
        return step(P, v, tv_in, space)

    monkeypatch.setattr(ops_module, "_dense_step", recording)
    return calls


@pytest.mark.parametrize("case, step", [("prune", None), ("scaled", 40), ("nudged", 33),
                                        ("negative", 53), ("foreign", 47)])
def test_long_dense_chain_leaves_the_stack_at_a_middle_step(absorbing_pair, monkeypatch,
                                                            case, step):
    """A 96-step chain first prunes, or first meets a factor that apply
    refuses, at a middle step: the stack keeps the steps before it,
    ``_dense_step`` runs that step alone, and the chain ends as the
    per-factor loop does, bit for bit or with its exception."""
    g1, g2, mu = absorbing_pair
    pair = (at_time(g1, 0.015), at_time(g2, 0.015))  # state 0 falls under the cut at step 60
    applied = list(pair * 48)  # in application order
    if case == "prune":  # the first step whose product has a weight under the cut
        step = next(k for k in range(96) if
                    len(_per_factor_apply(applied[:k + 1], mu)) < mu.space.size)
    elif case == "scaled":
        applied[step] = _corrupted(applied[step], lambda m: 1.1 * m)
    elif case == "nudged":  # off by 1e-9, just past the TV tolerance
        applied[step] = _corrupted(applied[step], lambda m: (1.0 + 1e-9) * m)
    elif case == "negative":
        applied[step] = _corrupted(applied[step], lambda m: m * [[1.0], [-1.0], [1.0], [1.0]])
    else:
        applied[step] = MarkovOperatorSpec.identity(StateSpace.finite(2.0 * mu.space.dist))
    assert 10 < step < 86
    before = _per_factor_apply(applied[:step], mu)
    assert len(before) == mu.space.size  # nothing pruned before the step
    expected = _dense_outcome(_per_factor_apply, applied, mu)
    assert expected[0] == ("ok" if case == "prune" else "raised")
    calls = _recording_dense_step(monkeypatch)
    assert _dense_outcome(ops_module._apply_chain, applied, mu) == expected
    assert calls == [(applied[step], before.weight_vector().tobytes())]


@pytest.mark.parametrize("period", [1, 2, 16])
def test_chain_that_prunes_every_step_or_two_stacks_few_times(monkeypatch, period):
    """``trickle`` gives state 0 1e-14 of state 1's weight, under the cut, and
    ``keep`` leaves state 0 alone: a chain of ``trickle`` prunes at every step,
    and one with ``trickle`` every ``period`` factors at each of them, each
    time in ``_dense_step``.  Each failing stack is followed by twice as many
    single steps as the one before, so at most log2(n) + 1 stacks fail
    however often the chain prunes, fewer than three steps are stacked per
    step (a stack of the rest of the chain after each failing step would
    stack n^2 / 2), and the chain stays bitwise the per-factor loop."""
    space = _discrete(3)
    trickle = MarkovOperatorSpec(kind="stochastic_matrix", space=space, matrix=[
        [0.5, 1e-14, 0.0], [0.5, 0.7 - 1e-14, 0.2], [0.0, 0.3, 0.8]])
    keep = MarkovOperatorSpec(kind="stochastic_matrix", space=space, matrix=[
        [1.0, 0.0, 0.0], [0.0, 0.6, 0.1], [0.0, 0.4, 0.9]])
    n, mu = 512, PositiveMeasure.from_atoms(space, [(1, 0.5), (2, 0.5)])
    chain = ((trickle,) + (keep,) * (period - 1)) * (n // period)
    expected = _dense_outcome(_per_factor_apply, chain, mu)
    assert expected[:3] == ("ok", space, (1, 2))
    calls = _recording_dense_step(monkeypatch)
    stacks = []
    kept_steps = ops_module._dense_kept_steps

    def recording(S, tv):
        kept, totals = kept_steps(S, tv)
        stacks.append((len(S) - 1, kept))
        return kept, totals

    monkeypatch.setattr(ops_module, "_dense_kept_steps", recording)
    assert _dense_outcome(ops_module._apply_chain, chain, mu) == expected
    assert len([P for P, _ in calls if P is trickle]) == n // period
    failing = [S for S, kept in stacks if kept < S]
    assert len(failing) <= math.log2(n) + 1 and sum(S for S, _ in stacks) < 3 * n


@st.composite
def _dense_chain_case(draw):
    k = draw(st.integers(1, 8))
    space = _discrete(k)
    column = st.lists(_entries, min_size=k, max_size=k).filter(lambda c: sum(c) > 0.0)
    pool = [MarkovOperatorSpec(kind="stochastic_matrix", space=space, matrix=np.eye(k))]
    for _ in range(draw(st.integers(1, 3))):
        a = np.array(draw(st.lists(column, min_size=k, max_size=k))).T
        pool.append(MarkovOperatorSpec(kind="stochastic_matrix", space=space,
                                       matrix=a / a.sum(axis=0)))
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    weights = draw(st.lists(_entries, min_size=k, max_size=k))
    if draw(st.booleans()):
        mu = PositiveMeasure.from_atoms(space, list(enumerate(weights)))
    else:  # as stored, unpruned, with zero weights
        mu = PositiveMeasure(space, tuple(range(k)), np.array(weights))
    # the default cap, and caps that end runs after 0 to 16 steps
    stack = draw(st.sampled_from([ops_module._STACK_SIZE, 1, 2 * k, 7 * k, 16]))
    return factors, mu, stack


@settings(max_examples=200)
@given(_dense_chain_case())
def test_dense_chain_matches_per_factor_apply(case):
    factors, mu, stack = case
    expected = _dense_outcome(_per_factor_apply, factors, mu)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ops_module, "_STACK_SIZE", stack)
        assert _dense_outcome(ops_module._apply_chain, factors, mu) == expected
