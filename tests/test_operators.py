from itertools import combinations

import numpy as np
import pytest

from trotterkit import operators as ops_module
from trotterkit.bl_metric import LipschitzWitness, pairwise_distances
from trotterkit.cli import _finite_witness
from trotterkit.measures import PositiveMeasure, SignedMeasure, SpaceMismatchError, StateSpace
from trotterkit.operators import (
    GeneratorError,
    MarkovOperatorSpec,
    SemigroupSpec,
    apply,
    apply_signed,
    at_time,
    compose,
    semigroup_from_json,
)


@pytest.fixture
def path3():
    return StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


@pytest.fixture
def mu(path3):
    return PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.3), (2, 0.2)])


class TestOperators:
    def test_rejects_nonstochastic_matrix(self, path3):
        with pytest.raises(ValueError):
            MarkovOperatorSpec(kind="stochastic_matrix", space=path3,
                               matrix=np.eye(3) * 0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, path3, bad):
        m = np.eye(3)
        m[0, 1] = bad
        with pytest.raises(ValueError, match="stochastic matrix has non-finite entries"):
            MarkovOperatorSpec(kind="stochastic_matrix", space=path3, matrix=m)

    def test_matrix_apply_preserves_tv(self, path3, mu):
        m = np.array([[0.5, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.0]])
        P = MarkovOperatorSpec(kind="stochastic_matrix", space=path3, matrix=m)
        assert apply(P, mu).tv == pytest.approx(mu.tv, abs=1e-12)

    def test_apply_rejects_negative_weights(self, path3, mu):
        P = MarkovOperatorSpec.identity(path3)
        bad = PositiveMeasure(space=path3, points=(0,), weights=np.array([-1.0]))
        with pytest.raises(ValueError):
            apply(P, bad)

    def test_deterministic_map_pushforward(self):
        s = StateSpace.euclidean(1)
        P = MarkovOperatorSpec(kind="deterministic_map", space=s,
                               point_map=lambda x: x + 1.0)
        out = apply(P, PositiveMeasure.dirac(s, [0.0]))
        assert out.points[0] == (1.0,)

    def test_kernel_operator(self, path3):
        def k(p):
            return PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.5)])

        P = MarkovOperatorSpec(kind="kernel", space=path3, kernel=k)
        out = apply(P, PositiveMeasure.dirac(path3, 2))
        assert out.tv == pytest.approx(1.0, abs=1e-12)

    def test_kernel_on_an_empty_measure(self, path3):
        def never(p):
            raise AssertionError("the kernel has no atom to act on")

        out = apply(MarkovOperatorSpec(kind="kernel", space=path3, kernel=never),
                    PositiveMeasure(space=path3))
        assert (out.space, out.points, out.weights.tolist()) == (path3, (), [])

    def test_kernel_images_live_on_the_operator_space(self, path3):
        foreign = StateSpace.finite(2.0 * path3.dist)
        P = MarkovOperatorSpec(kind="kernel", space=path3,
                               kernel=lambda p: PositiveMeasure.dirac(foreign, p))
        with pytest.raises(SpaceMismatchError):
            apply(P, PositiveMeasure.dirac(path3, 1))

    def test_apply_signed_jordan_route(self, path3):
        P = MarkovOperatorSpec.identity(path3)
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (1, -0.5)])
        out = apply_signed(P, mu)
        assert out.tv == pytest.approx(1.5)


class TestSemigroups:
    def test_generator_validation(self, path3):
        with pytest.raises(GeneratorError):
            SemigroupSpec.matrix_exponential(path3, np.ones((3, 3)))
        with pytest.raises(GeneratorError):
            SemigroupSpec.matrix_exponential(
                path3, [[-1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
    def test_generator_rejects_nan(self, path3, entry):
        Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        Q[entry] = np.nan
        with pytest.raises(GeneratorError, match="generator has non-finite entries"):
            SemigroupSpec.matrix_exponential(path3, Q)

    def test_linear_flow_rejects_nan(self):
        with pytest.raises(ValueError, match="flow matrix has non-finite entries"):
            SemigroupSpec.linear_flow_lift(StateSpace.euclidean(2), [[0.0, np.nan], [0.0, 0.0]])

    def test_exponential_is_stochastic(self, path3, mu):
        Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        g = SemigroupSpec.matrix_exponential(path3, Q)
        P = at_time(g, 0.7)
        assert np.allclose(P.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert apply(P, mu).tv == pytest.approx(mu.tv, abs=1e-12)

    def test_semigroup_property(self, path3):
        Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        g = SemigroupSpec.matrix_exponential(path3, Q)
        ab = at_time(g, 0.3).matrix @ at_time(g, 0.4).matrix
        assert np.allclose(ab, at_time(g, 0.7).matrix, atol=1e-12)

    def test_time_zero_is_identity(self, path3):
        Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        g = SemigroupSpec.matrix_exponential(path3, Q)
        assert np.allclose(at_time(g, 0.0).matrix, np.eye(3))

    def test_negative_time_rejected(self, path3):
        Q = np.zeros((3, 3))
        g = SemigroupSpec.matrix_exponential(path3, Q)
        with pytest.raises(ValueError):
            at_time(g, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_at_time_needs_a_finite_time(self, path3, t):
        Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        g = SemigroupSpec.matrix_exponential(path3, Q)
        with pytest.raises(ValueError, match="finite t >= 0"):
            at_time(g, t)
        assert g._operators == {}  # nothing memoized

    def test_linear_flow_lift(self):
        s = StateSpace.euclidean(2)
        g = SemigroupSpec.linear_flow_lift(s, [[0.0, 1.0], [0.0, 0.0]])
        out = apply(at_time(g, 1.0), PositiveMeasure.dirac(s, [0.0, 1.0]))
        assert out.points[0] == pytest.approx((1.0, 1.0))

    def test_named_flows(self):
        s = StateSpace.euclidean(2)
        g = SemigroupSpec.map_flow(s, "rotation", {"rate": np.pi / 2})
        out = apply(at_time(g, 1.0), PositiveMeasure.dirac(s, [1.0, 0.0]))
        assert np.allclose(out.points[0], (0.0, 1.0), atol=1e-12)

    def test_from_json(self, path3):
        g = semigroup_from_json(path3, {
            "kind": "matrix_exponential",
            "Q": [[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]})
        assert g.kind == "matrix_exponential"
        s = StateSpace.euclidean(1)
        g2 = semigroup_from_json(s, {"kind": "map_flow", "map": "translation",
                                     "params": {"velocity": [2.0]},
                                     "auxiliaryNormWeight": "one"})
        assert (g2.kind, g2.flow_name, g2.flow_params) == (
            "map_flow", "translation", {"velocity": [2.0]})

    def test_rotation_needs_two_dimensions(self):
        with pytest.raises(ValueError, match="rotation flow .* dim 1"):
            SemigroupSpec.map_flow(StateSpace.euclidean(1), "rotation", {"rate": 1.0})
        g = SemigroupSpec.map_flow(StateSpace.euclidean(3), "rotation", {"rate": np.pi / 2})
        out = apply(at_time(g, 1.0), PositiveMeasure.dirac(g.space, [1.0, 0.0, 2.0]))
        assert np.allclose(out.points[0], (0.0, 1.0, 2.0), atol=1e-12)

    @pytest.mark.parametrize("velocity", [[1.0, 2.0, 3.0], [], [[1.0, 2.0]]])
    def test_translation_velocity_must_fit_the_dim(self, velocity):
        with pytest.raises(ValueError, match="translation flow .* dim 2"):
            SemigroupSpec.map_flow(StateSpace.euclidean(2), "translation",
                                   {"velocity": velocity})

    @pytest.mark.parametrize("name, params", [
        ("translation", {"velocity": [1.0]}), ("rotation", {"rate": 1.0}),
        ("contraction", {"rate": 1.0})])
    def test_named_flows_need_a_euclidean_space(self, path3, name, params):
        # a named flow moves coordinates; a state index has none
        with pytest.raises(ValueError, match=f"{name} flow needs a Euclidean space"):
            SemigroupSpec.map_flow(path3, name, params)

    @pytest.mark.parametrize("name, params", [
        ("translation", {"velocity": [np.nan]}), ("translation", {"velocity": [1.0, np.inf]}),
        ("contraction", {"rate": np.nan}), ("rotation", {"rate": -np.inf})])
    def test_named_flows_need_finite_parameters(self, name, params):
        with pytest.raises(ValueError, match=f"{name} flow .* non-finite velocity or rate"):
            SemigroupSpec.map_flow(StateSpace.euclidean(2), name, params)

    @pytest.mark.parametrize("velocity, moved", [([1.0], (1.0, 1.0)), ([1.0, -2.0], (1.0, -2.0)),
                                                 (0.5, (0.5, 0.5)), (None, (1.0, 1.0))])
    def test_translation_velocity_of_length_one_or_dim(self, velocity, moved):
        params = {} if velocity is None else {"velocity": velocity}
        g = SemigroupSpec.map_flow(StateSpace.euclidean(2), "translation", params)
        out = apply(at_time(g, 1.0), PositiveMeasure.dirac(g.space, [0.0, 0.0]))
        assert out.points == (moved,)


def _outcome(fn, *args):
    """Result of ``fn(*args)`` bit for bit, or the exception it raised."""
    try:
        out = fn(*args)
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", np.asarray(out.points, dtype=float).tobytes(), out.weights.tobytes())


def _chained(factors, mu):
    """The product in written order as nested ``apply`` calls."""
    for P in reversed(factors):
        mu = apply(P, mu)
    return mu


def _rates(k, rng):
    q = rng.uniform(0.0, 1.0, size=(k, k))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    return q


def _corrupted(P, scale):
    """A copy of a stochastic-matrix operator with its columns scaled after
    construction, past the checks of MarkovOperatorSpec."""
    bad = MarkovOperatorSpec(kind="stochastic_matrix", space=P.space, matrix=P.matrix.copy())
    object.__setattr__(bad, "matrix", scale * bad.matrix)
    return bad


class TestCompose:
    @pytest.fixture
    def finite_ops(self, path3):
        rng = np.random.default_rng(4)
        a = at_time(SemigroupSpec.matrix_exponential(path3, _rates(3, rng)), 0.3)
        b = at_time(SemigroupSpec.matrix_exponential(path3, _rates(3, rng)), 1.1)
        k = MarkovOperatorSpec(kind="kernel", space=path3, kernel=lambda p: PositiveMeasure.from_atoms(
            path3, [(p, 0.25), ((int(p) + 1) % 3, 0.75)]))
        m = MarkovOperatorSpec(kind="deterministic_map", space=path3,
                               point_map=lambda p: (int(p) + 2) % 3)
        return a, b, k, m

    def test_finite_products_match_chained_apply(self, path3, finite_ops):
        a, b, k, m = finite_ops
        half = MarkovOperatorSpec(kind="kernel", space=path3,
                                  kernel=lambda p: PositiveMeasure.dirac(path3, p, 0.5))
        foreign = StateSpace.finite(2.0 * path3.dist)
        measures = [PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.3), (2, 0.2)]),
                    PositiveMeasure.from_atoms(path3, [(2, 1e-300), (1, 3.0)]),
                    PositiveMeasure(space=path3),
                    PositiveMeasure(space=path3, points=(0, 2), weights=np.array([1.0, -0.1])),
                    PositiveMeasure.dirac(foreign, 1)]
        products = [(a,), (a, b), (b, a, b, a, b, a), (a, k, b), (k, a), (m, a, m), (m, k),
                    (compose(a, b), k), (a, compose(b, compose(a, b))), (_corrupted(a, 1.1), b),
                    (a, _corrupted(b, 0.9), a), (k, _corrupted(a, 1.1)), (a, half), (half, b)]
        for factors in products:
            for mu in measures:
                assert (_outcome(apply, compose(*factors), mu)
                        == _outcome(_chained, factors, mu)), (factors, mu)

    def test_euclidean_products_match_chained_apply(self):
        plane = StateSpace.euclidean(2)
        rot = at_time(SemigroupSpec.map_flow(plane, "rotation", {"rate": 0.7}), 0.4)
        lift = at_time(SemigroupSpec.linear_flow_lift(plane, [[-0.2, 1.0], [-1.0, -0.2]]), 0.9)
        shift = at_time(SemigroupSpec.map_flow(plane, "translation", {"velocity": [1.0, -1.0]}),
                        0.25)
        cloud = PositiveMeasure.from_atoms(
            plane, [([0.3, -1.2], 0.5), ([2.0, 0.1], 0.25), ([-0.7, 0.4], 0.25)])
        line = PositiveMeasure.dirac(StateSpace.euclidean(1), [0.5])
        for factors in [(rot,), (rot, lift), (lift, shift, rot, lift), (rot, compose(lift, shift))]:
            for mu in (cloud, PositiveMeasure(space=plane), line):
                assert (_outcome(apply, compose(*factors), mu)
                        == _outcome(_chained, factors, mu)), (factors, mu)

    def test_apply_count(self, path3, finite_ops):
        a, b, k, _ = finite_ops
        mu = PositiveMeasure.dirac(path3, 0)
        before = ops_module.APPLY_COUNT
        apply(compose(a, b, a), mu)  # one dense chain: one apply call
        assert ops_module.APPLY_COUNT - before == 1
        apply(compose(a, k, b), mu)  # one apply call per factor, plus the composite
        assert ops_module.APPLY_COUNT - before == 5

    def test_refuses_no_factors_and_foreign_factors(self, path3, finite_ops):
        a, _, _, _ = finite_ops
        with pytest.raises(ValueError, match="at least one factor"):
            compose()
        with pytest.raises(ValueError, match="at least one factor"):
            MarkovOperatorSpec(kind="composite", space=path3)
        foreign = MarkovOperatorSpec.identity(StateSpace.finite(2.0 * path3.dist))
        with pytest.raises(SpaceMismatchError):
            compose(a, foreign)
        with pytest.raises(SpaceMismatchError):
            compose(MarkovOperatorSpec.identity(StateSpace.euclidean(3)), a)
        with pytest.raises(SpaceMismatchError):
            MarkovOperatorSpec(kind="composite", space=foreign.space, factors=(a,))


def _old_finite_witness(space, values):
    values = np.asarray(values, dtype=float)
    sup = float(np.max(np.abs(values))) if values.size else 0.0
    lip = 0.0
    for i in range(space.size):
        for j in range(i + 1, space.size):
            lip = max(lip, abs(values[i] - values[j]) / space.dist[i, j])
    norm = sup + lip
    if norm > 0.0:
        values, sup, lip = values / norm, sup / norm, lip / norm
    return values, sup, lip


def _old_check_feasible(f, space, slack):
    v = np.asarray(f.values, dtype=float)
    if np.any(np.abs(v) > f.sup_bound + slack):
        return False
    for (i, p), (j, q) in combinations(enumerate(f.points), 2):
        if abs(v[i] - v[j]) > f.lip_bound * space.distance(p, q) + slack:
            return False
    return True


class TestLipschitzHelpers:
    def test_finite_witness_matches_pairwise_loop(self):
        rng = np.random.default_rng(11)
        for k in range(1, 13):
            pts = rng.normal(size=(k, 3))
            space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
            for values in (rng.uniform(-1.0, 1.0, k), np.zeros(k), np.eye(k)[k // 2]):
                w = _finite_witness(space, values)
                ref_values, ref_sup, ref_lip = _old_finite_witness(space, values)
                assert w.values.tobytes() == ref_values.tobytes()
                assert (w.sup_bound, w.lip_bound) == (ref_sup, ref_lip)

    def test_check_feasible_matches_pairwise_loop(self, path3):
        rng = np.random.default_rng(13)
        plane = StateSpace.euclidean(3)
        for space, points in ((path3, (2, 0, 1)), (plane, tuple(map(tuple, rng.normal(size=(4, 3)))))):
            values = rng.uniform(-0.5, 0.5, len(points))
            dist = pairwise_distances(space, points)
            ratios = [abs(values[i] - values[j]) / dist[i, j]
                      for i, j in combinations(range(len(points)), 2)]
            for lip in (max(ratios), np.nextafter(max(ratios), 0.0), 0.5 * max(ratios)):
                for slack in (0.0, 1e-9, 1e-2):
                    f = LipschitzWitness(points=points, values=values, sup_bound=0.5, lip_bound=lip)
                    assert f.check_feasible(space, slack) == _old_check_feasible(f, space, slack)

    def test_pairwise_distances_refuses_foreign_states(self, path3):
        assert pairwise_distances(path3, [2, 0]).tolist() == [[0.0, 2.0], [2.0, 0.0]]
        with pytest.raises(ValueError, match="not a state"):
            pairwise_distances(path3, [0, -1])
