import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

from trotterkit import bl_metric
from trotterkit.bl_metric import (
    DistanceRangeError,
    LipschitzWitness,
    OracleSupportError,
    bl_distance,
    bl_dual_norm,
    bl_dual_norm_oracle,
    bl_norm_values,
    build_envelope_metric,
    dirac_distance_exact,
)
from trotterkit.measures import PositiveMeasure, SignedMeasure, StateSpace, linear_combine


@pytest.fixture
def path3():
    return StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def norm_value(mu, metric):
    """The norm alone, as one flow LP."""
    return bl_norm_values([mu], metric)[0]


def random_metric_space(rng, size):
    pts = rng.normal(size=(size, 3))
    return StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))


class TestDualNorm:
    def test_single_dirac_norm_is_mass(self, path3):
        value, _ = bl_dual_norm(PositiveMeasure.dirac(path3, 0, 0.7).as_signed(), path3)
        assert value == pytest.approx(0.7)

    def test_dirac_pair_closed_form(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (2, -1.0)])
        value, witness = bl_dual_norm(mu, path3)
        assert value == pytest.approx(dirac_distance_exact(2.0), abs=1e-12)
        assert witness.check_feasible(path3)

    def test_witness_attains_value(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 0.6), (1, -0.9), (2, 0.2)])
        value, witness = bl_dual_norm(mu, path3)
        assert witness.pair(mu) == pytest.approx(value, abs=1e-9)
        assert witness.check_feasible(path3)

    def test_norm_dominated_by_tv(self, path3):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(size=3)
            mu = SignedMeasure.from_atoms(path3, list(enumerate(w)))
            value, _ = bl_dual_norm(mu, path3)
            assert value <= mu.tv + 1e-9

    def test_homogeneity_at_tiny_scale(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 4e-8), (2, -4e-8)])
        value, _ = bl_dual_norm(mu, path3)
        assert value == pytest.approx(4e-8 * dirac_distance_exact(2.0), rel=1e-9)

    def test_empty_measure(self, path3):
        mu = SignedMeasure.from_atoms(path3, [])
        value, _ = bl_dual_norm(mu, path3)
        assert value == 0.0

    def test_triangle_inequality(self, path3):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = SignedMeasure.from_atoms(path3, list(enumerate(rng.normal(size=3))))
            b = SignedMeasure.from_atoms(path3, list(enumerate(rng.normal(size=3))))
            na, _ = bl_dual_norm(a, path3)
            nb, _ = bl_dual_norm(b, path3)
            nab, _ = bl_dual_norm(linear_combine([1.0, 1.0], [a, b]), path3)
            assert nab <= na + nb + 1e-9


class TestOracle:
    def test_agrees_with_lp(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            space = random_metric_space(rng, 4)
            mu = SignedMeasure.from_atoms(space, list(enumerate(rng.normal(size=4))))
            lp, _ = bl_dual_norm(mu, space)
            assert bl_dual_norm_oracle(mu, space) == pytest.approx(lp, abs=1e-9)

    def test_refuses_large_support(self):
        rng = np.random.default_rng(2)
        space = random_metric_space(rng, 8)
        mu = SignedMeasure.from_atoms(space, list(enumerate(rng.normal(size=8))))
        with pytest.raises(OracleSupportError):
            bl_dual_norm_oracle(mu, space)

    @pytest.mark.parametrize("d", [1e15, np.inf, np.nan])
    def test_refuses_distances_the_lp_cannot_take(self, d):
        class Far:  # a metric that puts every two points d apart
            def distance(self, p, q):
                return d

        mu = SignedMeasure.from_atoms(StateSpace.euclidean(1), [([0.0], 1.0), ([1.0], -0.5)])
        for norm in (lambda: bl_dual_norm(mu, Far()), lambda: bl_norm_values([mu], Far()),
                     lambda: bl_dual_norm_oracle(mu, Far())):
            with pytest.raises(DistanceRangeError, match=f"lie {d!r} apart"):
                norm()


class TestEnvelopeMetric:
    def test_envelope_dominates_base(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (1, -0.5), (2, -0.5)])
        _, witness = bl_dual_norm(mu, path3)
        env = build_envelope_metric(path3, [witness])
        for i in range(3):
            for j in range(3):
                assert env.distance(i, j) >= path3.distance(i, j) - 1e-15

    def test_envelope_norm_at_least_base(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 0.5), (1, 0.1), (2, -0.6)])
        _, witness = bl_dual_norm(mu, path3)
        env = build_envelope_metric(path3, [witness])
        base_value, _ = bl_dual_norm(mu, path3)
        env_value, _ = bl_dual_norm(mu, env)
        assert env_value >= base_value - 1e-10


class TestDistances:
    def test_bl_distance_symmetry(self, path3):
        a = PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.5)])
        b = PositiveMeasure.from_atoms(path3, [(1, 0.3), (2, 0.7)])
        assert bl_distance(a, b, path3) == pytest.approx(bl_distance(b, a, path3), abs=1e-12)

    def test_identical_measures_distance_zero(self, path3):
        a = PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.5)])
        assert bl_distance(a, a, path3) == 0.0

    def test_euclidean_diracs(self):
        s = StateSpace.euclidean(2)
        a = PositiveMeasure.dirac(s, [0.0, 0.0])
        b = PositiveMeasure.dirac(s, [3.0, 4.0])
        assert bl_distance(a, b, s) == pytest.approx(dirac_distance_exact(5.0), abs=1e-9)


def grid_metric(rng, rows, cols):
    """Shortest paths on a rows x cols grid with edge weights in {1, 2, 3}/8.

    The sums are exact in floating point, so every shortest path through an
    intermediate point is an exact triangle equality and pruning removes
    all but (some of) the grid edges.
    """
    k = rows * cols
    d = np.full((k, k), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(k):
        r, c = divmod(i, cols)
        for nb in ([i + 1] if c + 1 < cols else []) + ([i + cols] if r + 1 < rows else []):
            d[i, nb] = d[nb, i] = float(rng.integers(1, 4))
    for m in range(k):
        d = np.minimum(d, d[:, m:m + 1] + d[m:m + 1, :])
    return StateSpace.finite(d / 8.0)


def near_collinear_space(rng, k):
    """Points close to a line: d_il + d_lj exceeds d_ij by a relative 1e-6
    to 1e-3, so pruning removes no pair."""
    pts = np.column_stack([np.arange(float(k)), rng.uniform(-0.03, 0.03, k)])
    return StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))


def full_support_measure(rng, space, zero_mass=False):
    w = rng.normal(size=space.size)
    if zero_mass:
        w -= w.mean()
    return SignedMeasure.from_atoms(space, list(enumerate((w / np.abs(w).sum()).tolist())))


def primal_lp(mu, space):
    """Reference: the norm from the box/Lipschitz primal LP over (f, M, L)
    with every pair, dense."""
    pts, wts = mu.support()
    scale = float(np.abs(wts).sum())
    wts = wts / scale
    k, n = len(pts), len(pts) + 2
    rows = []
    for i in range(k):
        for sign in (1.0, -1.0):
            r = np.zeros(n)
            r[i], r[k] = sign, -1.0  # +-f_i <= M
            rows.append(r)
        for j in range(k):
            if j != i:
                r = np.zeros(n)
                r[i], r[j], r[k + 1] = 1.0, -1.0, -space.distance(pts[i], pts[j])
                rows.append(r)  # f_i - f_j <= L d_ij
    r = np.zeros(n)
    r[k] = r[k + 1] = 1.0  # M + L <= 1
    rows.append(r)
    A, b = np.array(rows), np.zeros(len(rows))
    b[-1] = 1.0
    bounds = [(None, None)] * k + [(0.0, 1.0)] * 2
    c = np.zeros(n)
    c[:k] = -wts
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.success
    return -res.fun * scale


def assert_certificate(mu, space, value, witness, tol=1e-9):
    """The witness is feasible on every pair of its points (pruned ones too),
    lies in the unit BL ball and attains the value."""
    assert witness.check_feasible(space, slack=tol)
    assert witness.sup_bound >= 0.0 and witness.lip_bound >= 0.0
    assert witness.sup_bound + witness.lip_bound <= 1.0 + tol
    assert witness.pair(mu) == pytest.approx(value, abs=tol * mu.tv)


class TestFlowForm:
    def test_matches_primal_lp_on_random_metrics(self):
        rng = np.random.default_rng(23)
        for k in range(2, 13):
            for _ in range(3):
                space = random_metric_space(rng, k)
                mu = full_support_measure(rng, space, zero_mass=k % 2 == 0)
                value, witness = bl_dual_norm(mu, space)
                ref_value = primal_lp(mu, space)
                assert value == pytest.approx(ref_value, abs=1e-9)
                assert norm_value(mu, space) == pytest.approx(ref_value, abs=1e-9)
                assert_certificate(mu, space, value, witness)

    def test_near_triangle_equalities_are_not_pruned(self):
        # every pair must keep its flow column
        rng = np.random.default_rng(31)
        for _ in range(4):
            space = near_collinear_space(rng, 10)
            assert len(bl_metric._flow_pairs(space.dist)[0]) == 90
            mu = full_support_measure(rng, space, zero_mass=True)
            value, witness = bl_dual_norm(mu, space)
            assert value == pytest.approx(primal_lp(mu, space), abs=1e-9)
            assert_certificate(mu, space, value, witness)

    def test_pruning_is_exact_on_a_graph_metric(self):
        rng = np.random.default_rng(48)
        space = grid_metric(rng, 6, 8)
        kept = len(bl_metric._flow_pairs(space.dist)[0])
        assert kept <= 2 * (5 * 8 + 6 * 7)  # at most the directed grid edges
        for zero_mass in (True, False):
            mu = full_support_measure(rng, space, zero_mass)
            value, witness = bl_dual_norm(mu, space)
            assert value == pytest.approx(primal_lp(mu, space), abs=1e-9)
            assert_certificate(mu, space, value, witness)

    def test_path_metric_keeps_only_neighbour_pairs(self):
        pts = np.arange(7, dtype=float)
        src, dst = bl_metric._flow_pairs(np.abs(pts[:, None] - pts[None, :]))
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
            [(i, i + 1) for i in range(6)] + [(i + 1, i) for i in range(6)])

    def test_hop_below_rounding_does_not_prune(self):
        # d_02 = 1e-17 vanishes in d_01 + d_12, so 1 + 1e-17 <= 1 holds in
        # floating point both for (0, 1) via 2 and for (0, 2) via 1; pruning
        # both would cut point 0 off.  Neither hop is strictly shorter.
        space = StateSpace.finite([[0.0, 1.0, 1.0], [1.0, 0.0, 1e-17], [1.0, 1e-17, 0.0]])
        assert len(bl_metric._flow_pairs(space.dist)[0]) == 6
        mu = SignedMeasure.from_atoms(space, [(0, 1.0), (1, -0.5), (2, -0.5)])
        value, witness = bl_dual_norm(mu, space)
        assert value == pytest.approx(dirac_distance_exact(1.0), abs=1e-9)
        assert_certificate(mu, space, value, witness)

    @pytest.mark.parametrize("k", [12, 48, 96, 200])
    def test_certificate_on_large_supports(self, k):
        rng = np.random.default_rng(k)
        spaces = [random_metric_space(rng, k)]
        if k >= 48:
            spaces.append(grid_metric(rng, 8, k // 8))
        for space in spaces:
            mu = full_support_measure(rng, space, zero_mass=True)
            value, witness = bl_dual_norm(mu, space)
            assert len(witness.points) == k
            assert_certificate(mu, space, value, witness)
            assert norm_value(mu, space) == pytest.approx(value, abs=1e-12)

    def test_distance_and_norm_each_solve_one_lp(self, path3, lp_calls):
        a = PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.5)])
        b = PositiveMeasure.from_atoms(path3, [(2, 1.0)])
        bl_distance(a, b, path3)
        # path3 prunes (0, 2) and (2, 0): 6 r columns, 4 flows and t
        assert lp_calls == [(3, 11)]
        bl_dual_norm(linear_combine([1.0, -1.0], [a, b]), path3)
        assert lp_calls == [(3, 11), (3, 11)]

    def test_failed_stage_one_raises(self, path3, monkeypatch):
        monkeypatch.setattr(bl_metric, "linprog", lambda *a, **kw: OptimizeResult(
            success=False, status=2, message="forced failure"))
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (2, -1.0)])
        for norm in (bl_dual_norm, norm_value):
            with pytest.raises(RuntimeError, match="forced failure"):
                norm(mu, path3)


def all_pairs_prune(dist):
    """Reference: every directed pair that no point splits into two strictly
    shorter hops, from the O(k^3) prune over all pairs, in row-major order."""
    k = len(dist)
    pruned = np.eye(k, dtype=bool)
    for l in range(k):
        via = dist[:, l, None] + dist[None, l, :]
        hop = np.maximum(dist[:, l, None], dist[None, l, :])
        pruned |= (via <= dist) & (hop < dist)
    return np.nonzero(~pruned)


def full_lp_value(mu, metric):
    """Reference: the norm from one flow LP with a column for every pair the
    all-pairs prune keeps."""
    _, scale, wts, dist = bl_metric._unit_support(mu, metric)
    res, _ = bl_metric._flow_lp([(wts, dist, all_pairs_prune(dist))])
    return res.fun * scale


def column_generation_cases():
    """(metric, measure) parameters, one per support that column generation
    must solve exactly, from 24 to 200 points."""
    rng = np.random.default_rng(61)
    cases = [(f"generic{k}", random_metric_space(rng, k)) for k in (24, 48, 96, 200)]
    cases += [("grid6x8", grid_metric(rng, 6, 8)), ("grid8x12", grid_metric(rng, 8, 12)),
              ("collinear40", near_collinear_space(rng, 40))]
    cases = [pytest.param(space, full_support_measure(rng, space, zero_mass=True), id=name)
             for name, space in cases]
    base = random_metric_space(rng, 30)
    family = [LipschitzWitness(points=tuple(range(30)), values=rng.uniform(-1.0, 1.0, 30),
                               sup_bound=1.0, lip_bound=1.0) for _ in range(2)]
    cases.append(pytest.param(build_envelope_metric(base, family),
                              full_support_measure(rng, base, zero_mass=True), id="envelope30"))
    plane = StateSpace.euclidean(2)
    w = rng.normal(size=32)
    cases.append(pytest.param(plane, SignedMeasure.from_atoms(
        plane, list(zip(rng.normal(size=(32, 2)).tolist(), (w - w.mean()).tolist()))),
        id="euclidean32"))
    return cases


class TestColumnGeneration:
    @pytest.mark.parametrize("metric, mu", column_generation_cases())
    def test_matches_the_full_lp_with_a_certified_witness(self, metric, mu):
        value, witness = bl_dual_norm(mu, metric)
        full = full_lp_value(mu, metric)
        assert abs(value - full) <= 1e-12 * mu.tv
        assert abs(norm_value(mu, metric) - full) <= 1e-12 * mu.tv
        assert len(witness.points) == len(mu.pos) + len(mu.neg)
        assert_certificate(mu, metric, value, witness)  # on every pair

    @pytest.mark.parametrize("k", [2, 5, 9, 13, 17])
    def test_small_supports_start_with_every_kept_pair_and_solve_once(self, k, lp_calls):
        rng = np.random.default_rng(k)
        spaces = [random_metric_space(rng, k), grid_metric(rng, 1, k)]
        for space in spaces:
            src, dst = bl_metric._flow_pairs(space.dist)
            ref_src, ref_dst = all_pairs_prune(space.dist)
            assert src.tolist() == ref_src.tolist() and dst.tolist() == ref_dst.tolist()
            del lp_calls[:]
            bl_dual_norm(full_support_measure(rng, space), space)
            assert lp_calls == [(k, 2 * k + len(ref_src) + 1)]

    def test_large_generic_support_adds_columns_in_rounds(self, lp_calls):
        k = 200
        rng = np.random.default_rng(5)
        space = random_metric_space(rng, k)
        mu = full_support_measure(rng, space, zero_mass=True)
        value, _ = bl_dual_norm(mu, space)
        assert len(lp_calls) >= 2
        columns = [cols - 2 * k - 1 for _, cols in lp_calls]
        assert columns == sorted(set(columns)) and columns[-1] < k * (k - 1)
        assert abs(value - full_lp_value(mu, space)) <= 1e-12 * mu.tv

    def test_stops_only_when_no_pair_without_a_column_breaks_its_dual_constraint(
            self, monkeypatch):
        # 40 points on a faint parabola: the end points' direct pair is barely
        # shorter than a path of neighbour hops, so the first solve's duals
        # break a constraint by about 3e-7 at unit TV, above 1e-12 and below 1e-6
        x = 0.04 * np.arange(40)
        pts = np.column_stack([x, 1e-3 * x ** 2])
        space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        w = np.full(40, 1e-3)
        w[0], w[-1] = 0.5, -0.538
        mu = SignedMeasure.from_atoms(space, list(enumerate(w.tolist())))
        solves = []
        flow_lp = bl_metric._flow_lp

        def recording(blocks):
            res, t_cols = flow_lp(blocks)
            solves.append((blocks[0][2], res))
            return res, t_cols

        monkeypatch.setattr(bl_metric, "_flow_lp", recording)
        value, _ = bl_dual_norm(mu, space)
        assert len(solves) >= 2
        (src, dst), res = solves[-1]
        f, L = res.eqlin.marginals, -res.ineqlin.marginals[1]
        gap = f[:, None] - f[None, :] - L * space.dist
        gap[src, dst] = 0.0
        assert gap.max() <= 1e-12
        # the solver's own tolerances limit both values to about 1e-10 here
        assert abs(value - full_lp_value(mu, space)) <= 1e-9 * mu.tv

    def test_mixed_batch_matches_each_own_solve(self, lp_calls):
        rng = np.random.default_rng(64)  # a 60-point support that needs two solves
        space = random_metric_space(rng, 60)
        large = full_support_measure(rng, space, zero_mass=True)
        small = [SignedMeasure.from_atoms(space, list(zip(
            rng.choice(60, size, replace=False).tolist(), rng.normal(size=size).tolist())))
            for size in (3, 7, 12, 12)]
        batch = [small[0], large] + small[1:]
        del lp_calls[:]
        values = bl_norm_values(batch, space)
        assert len(lp_calls) >= 2  # the large block gains columns
        for mu, value in zip(batch, values):
            assert abs(value - bl_norm_values([mu], space)[0]) <= 1e-12
        assert abs(values[1] - full_lp_value(large, space)) <= 1e-12 * large.tv


@st.composite
def lattice_spaces(draw, min_size=2, max_size=6):
    """Distinct points of a coarse 2-D lattice: their Euclidean metric has
    exact triangle equalities along lattice lines, which pruning removes."""
    coords = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    pts = np.array(draw(st.lists(coords, min_size=min_size, max_size=max_size, unique=True)),
                   dtype=float) / 2.0
    return StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))


def measures_on(space, draw, positive):
    weights = st.floats(0.0, 1.0) if positive else st.floats(-1.0, 1.0)
    w = draw(st.lists(weights, min_size=space.size, max_size=space.size))
    build = PositiveMeasure.from_atoms if positive else SignedMeasure.from_atoms
    return build(space, list(enumerate(w)))


class TestNormProperties:
    @settings(max_examples=40)
    @given(st.data())
    def test_distance_is_symmetric_and_satisfies_triangle(self, data):
        space = data.draw(lattice_spaces())
        a, b, c = (measures_on(space, data.draw, positive=True) for _ in range(3))
        ab, ba = bl_distance(a, b, space), bl_distance(b, a, space)
        assert ab == pytest.approx(ba, abs=1e-9)
        assert bl_distance(a, c, space) <= ab + bl_distance(b, c, space) + 1e-9

    @settings(max_examples=60)
    @given(st.data())
    def test_norm_is_dominated_by_total_variation(self, data):
        space = data.draw(lattice_spaces())
        mu = measures_on(space, data.draw, positive=False)
        assert norm_value(mu, space) <= mu.tv + 1e-9

    @settings(max_examples=60)
    @given(st.data())
    def test_dirac_distance_has_closed_form(self, data):
        space = data.draw(lattice_spaces())
        i, j = data.draw(st.lists(st.integers(0, space.size - 1), min_size=2, max_size=2,
                                  unique=True))
        a, b = PositiveMeasure.dirac(space, i), PositiveMeasure.dirac(space, j)
        expected = dirac_distance_exact(space.distance(i, j))
        assert bl_distance(a, b, space) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60)
    @given(st.data(), st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
    def test_norm_is_homogeneous(self, data, c):
        space = data.draw(lattice_spaces())
        mu = measures_on(space, data.draw, positive=False)
        assume(mu.tv > 0.0)
        scaled = linear_combine([c], [mu])
        assert norm_value(scaled, space) == pytest.approx(
            abs(c) * norm_value(mu, space), rel=1e-9, abs=1e-12)


@st.composite
def batch_metrics(draw):
    """(metric, candidate support points): a random finite space, a lattice
    space, lattice points of the plane or an envelope metric."""
    kind = draw(st.sampled_from(["finite", "lattice", "euclidean", "envelope"]))
    if kind == "euclidean":
        coords = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
        pts = draw(st.lists(coords, min_size=1, max_size=8, unique=True))
        return StateSpace.euclidean(2), [np.array(p, dtype=float) / 4.0 for p in pts]
    if kind == "lattice":
        space = draw(lattice_spaces(max_size=8))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        space = random_metric_space(rng, draw(st.integers(2, 8)))
    points = list(range(space.size))
    if kind != "envelope":
        return space, points
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=space.size, max_size=space.size))
    g = LipschitzWitness(points=tuple(points), values=np.array(values),
                         sup_bound=1.0, lip_bound=1.0)
    return build_envelope_metric(space, [g]), points


@st.composite
def batch_measures(draw, space, points):
    """A signed measure on some of ``points`` (maybe none), at total variation
    10^-12 to 10, with zero net mass or not."""
    chosen = draw(st.lists(st.integers(0, len(points) - 1), max_size=len(points), unique=True))
    w = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=len(chosen),
                               max_size=len(chosen))))
    if len(w) > 1 and draw(st.booleans()):
        w = w - w.mean()
    if np.abs(w).sum() > 0.0:
        w = w / np.abs(w).sum() * 10.0 ** draw(st.floats(-12.0, 1.0))
    return SignedMeasure.from_atoms(space, [(points[i], x) for i, x in zip(chosen, w.tolist())])


class TestBatchedNorms:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_each_value_matches_its_own_solve(self, lp_calls, data):
        metric, points = data.draw(batch_metrics())
        space = getattr(metric, "space", metric)
        batch = data.draw(st.lists(batch_measures(space, points), min_size=1, max_size=6))
        del lp_calls[:]
        values = bl_norm_values(batch, metric)
        assert len(lp_calls) == int(any(mu.tv > 0.0 for mu in batch))
        assert len(values) == len(batch)
        for mu, value in zip(batch, values):
            if mu.tv == 0.0:
                assert value == 0.0
                continue
            assert value == pytest.approx(bl_norm_values([mu], metric)[0], abs=1e-12)
            assert value == pytest.approx(primal_lp(mu, metric), abs=1e-9)

    def test_empty_and_zero_batches_solve_nothing(self, path3, lp_calls):
        assert bl_norm_values([], path3) == []
        empty = SignedMeasure.from_atoms(path3, [])
        cancelled = SignedMeasure.from_atoms(path3, [(1, 0.5), (1, -0.5)])
        assert bl_norm_values([empty, cancelled], path3) == [0.0, 0.0]
        assert lp_calls == []

    def test_one_solve_stacks_every_nonzero_block(self, path3, lp_calls):
        a = SignedMeasure.from_atoms(path3, [(0, 1.0), (2, -1.0)])
        b = SignedMeasure.from_atoms(path3, [(1, 0.3)])
        empty = SignedMeasure.from_atoms(path3, [])
        values = bl_norm_values([a, empty, b, a], path3)
        # a: 2 points, 2 flows; b: 1 point, no flow; r+, r-, flows and t per block
        assert lp_calls == [(2 + 1 + 2, (4 + 2 + 1) + (2 + 0 + 1) + (4 + 2 + 1))]
        assert values == pytest.approx([dirac_distance_exact(2.0), 0.0, 0.3,
                                        dirac_distance_exact(2.0)], abs=1e-12)

    def test_long_batches_split_into_runs_of_bounded_width(self, path3, lp_calls,
                                                           monkeypatch):
        rng = np.random.default_rng(9)
        batch = [full_support_measure(rng, path3) for _ in range(5)]  # 11 columns each
        expected = [bl_norm_values([mu], path3)[0] for mu in batch]
        for width, shapes in ((25, [(6, 22), (6, 22), (3, 11)]), (10, [(3, 11)] * 5)):
            monkeypatch.setattr(bl_metric, "MAX_LP_COLUMNS", width)
            del lp_calls[:]
            assert bl_norm_values(batch, path3) == pytest.approx(expected, abs=1e-12)
            assert lp_calls == shapes

    def test_failed_batch_raises(self, path3, monkeypatch):
        monkeypatch.setattr(bl_metric, "linprog", lambda *a, **kw: OptimizeResult(
            success=False, status=2, message="forced failure"))
        a = SignedMeasure.from_atoms(path3, [(0, 1.0), (2, -1.0)])
        b = SignedMeasure.from_atoms(path3, [(1, 0.3)])
        with pytest.raises(RuntimeError, match="forced failure"):
            bl_norm_values([a, b], path3)


class TestWitnessLookup:
    def test_pair_keys_each_point_once_and_keeps_the_sum(self, monkeypatch):
        rng = np.random.default_rng(7)
        space = random_metric_space(rng, 40)
        f = LipschitzWitness(points=tuple(rng.permutation(40).tolist()),
                             values=rng.uniform(-0.5, 0.5, 40), sup_bound=0.5, lip_bound=0.5)
        mu = full_support_measure(rng, space)
        where = {q: i for i, q in enumerate(f.points)}
        pts, wts = mu.support()
        expected = float(sum(w * float(f.values[where[p]]) for p, w in zip(pts, wts)))
        keys = []
        point_key = StateSpace.point_key
        monkeypatch.setattr(StateSpace, "point_key",
                            lambda self, p: keys.append(p) or point_key(self, p))
        assert f.pair(mu) == expected  # the same terms summed in the same order
        assert len(keys) == 40  # one lookup per atom, no scan over the witness points

    def test_lookup_takes_first_occurrence_and_extends_off_the_points(self, path3):
        f = LipschitzWitness(points=(2, 0, 2), values=np.array([0.25, -0.25, 0.5]),
                             sup_bound=0.5, lip_bound=0.25)
        assert [f.value_at(path3, p) for p in (2, 2.0, np.int64(0))] == [0.25, 0.25, -0.25]
        assert f.value_at(path3, 1) == 0.0  # McShane: min(0.25 + 0.25, -0.25 + 0.25, ...)
        with pytest.raises(ValueError, match="not a state"):
            f.value_at(path3, 1.5)

    def test_euclidean_lookup_matches_points_within_the_coincidence_tolerance(self):
        space = StateSpace.euclidean(2)
        f = LipschitzWitness(points=((0.0, 0.0), (1.0, 2.0)), values=np.array([0.25, -0.3]),
                             sup_bound=0.5, lip_bound=0.5)
        # the stored value, as atom merging would merge the two points
        assert f.value_at(space, [1.0 + 1e-13, 2.0 - 1e-13]) == -0.3
        # beyond the tolerance, the McShane extension
        assert f.value_at(space, [1.0 + 1e-11, 2.0]) == pytest.approx(-0.3 + 0.5e-11, abs=1e-15)
        assert f.value_at(space, [1.0 + 1e-11, 2.0]) != -0.3
