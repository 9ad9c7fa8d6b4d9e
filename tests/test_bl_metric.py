from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog
from scipy.sparse import coo_array

from trotterkit import bl_metric
from trotterkit.bl_metric import (
    DistanceRangeError,
    EnvelopeMetric,
    LipschitzWitness,
    OracleSupportError,
    bl_distance,
    bl_distances,
    bl_dual_norm,
    bl_dual_norm_oracle,
    bl_norm_values,
    dirac_distance_exact,
    max_bl_distance,
)
from trotterkit.cli import load_scenario
from trotterkit.measures import PositiveMeasure, SignedMeasure, StateSpace, linear_combine


@pytest.fixture
def path3():
    return StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


@pytest.fixture
def path4():
    x = np.arange(4.0)
    return StateSpace.finite(np.abs(x[:, None] - x[None, :]))


def two_by_two(space):
    """Two atoms of each sign, so the norm needs the flow LP: positive at the
    path's ends, negative in between.  On ``path4`` its norm is 2/3."""
    return SignedMeasure.from_atoms(space, [(0, 0.5), (1, -0.5), (2, -0.5), (3, 0.5)])


def norm_value(mu, metric):
    """The norm alone, from one ``bl_norm_values`` call."""
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
        env = EnvelopeMetric(base=path3, family=(witness,))
        for i in range(3):
            for j in range(3):
                assert env.distance(i, j) >= path3.distance(i, j) - 1e-15

    def test_envelope_norm_at_least_base(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 0.5), (1, 0.1), (2, -0.6)])
        _, witness = bl_dual_norm(mu, path3)
        env = EnvelopeMetric(base=path3, family=(witness,))
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
    intermediate point is an exact triangle equality.
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
    to 1e-3."""
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


def starting_pairs(mu, metric):
    """The flow columns a block of ``mu`` starts its LP with, as (sources,
    sinks) arrays of indices into its cross distances: positive atom i to
    negative atom j."""
    (_, (_, cross)), = bl_metric.norm_blocks([mu], metric)
    return bl_metric._sign_pairs(cross)


def assert_certificate(mu, space, value, witness, tol=1e-9):
    """The witness is feasible on every pair of its points (those without a
    flow column too), lies in the unit BL ball and attains the value."""
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

    def test_graph_metric_matches_the_primal_lp(self):
        rng = np.random.default_rng(48)
        space = grid_metric(rng, 6, 8)
        for zero_mass in (True, False):
            mu = full_support_measure(rng, space, zero_mass)
            value, witness = bl_dual_norm(mu, space)
            assert value == pytest.approx(primal_lp(mu, space), abs=1e-9)
            assert_certificate(mu, space, value, witness)

    def test_near_triangle_equalities_keep_every_sign_pair(self):
        # no pair from a positive to a negative atom loses its flow column
        rng = np.random.default_rng(31)
        for _ in range(4):
            space = near_collinear_space(rng, 10)
            mu = full_support_measure(rng, space, zero_mass=True)
            src, _ = starting_pairs(mu, space)
            assert len(src) == len(mu.pos) * len(mu.neg)
            value, witness = bl_dual_norm(mu, space)
            assert value == pytest.approx(primal_lp(mu, space), abs=1e-9)
            assert_certificate(mu, space, value, witness)

    def test_hop_below_rounding(self):
        # d_12 = 1e-17 vanishes in d_01 + d_12: both negative atoms (states 1
        # and 2, negative atoms 0 and 1) keep their column from the positive one
        space = StateSpace.finite([[0.0, 1.0, 1.0], [1.0, 0.0, 1e-17], [1.0, 1e-17, 0.0]])
        mu = SignedMeasure.from_atoms(space, [(0, 1.0), (1, -0.5), (2, -0.5)])
        src, dst = starting_pairs(mu, space)
        assert (src.tolist(), dst.tolist()) == ([0, 0], [0, 1])
        value, witness = bl_dual_norm(mu, space)
        assert value == pytest.approx(dirac_distance_exact(1.0), abs=1e-9)
        assert norm_value(mu, space) == pytest.approx(dirac_distance_exact(1.0), abs=1e-12)
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

    def test_distance_and_norm_each_solve_one_lp(self, path4, lp_calls):
        a = PositiveMeasure.from_atoms(path4, [(0, 0.5), (3, 0.5)])
        b = PositiveMeasure.from_atoms(path4, [(1, 0.5), (2, 0.5)])
        bl_distance(a, b, path4)
        # flows only from positive to negative atoms: 8 r columns, (0, 1),
        # (0, 2), (3, 1), (3, 2) and t
        assert lp_calls == [(4, 13)]
        bl_dual_norm(linear_combine([1.0, -1.0], [a, b]), path4)
        assert lp_calls == [(4, 13), (4, 13)]

    def test_failed_stage_one_raises(self, path4, monkeypatch):
        monkeypatch.setattr(bl_metric, "linprog", lambda *a, **kw: OptimizeResult(
            success=False, status=2, message="forced failure"))
        for norm in (bl_dual_norm, norm_value):
            with pytest.raises(RuntimeError, match="forced failure"):
                norm(two_by_two(path4), path4)


def full_lp_value(mu, metric):
    """Reference: the norm from one flow LP with a column for every directed
    pair of distinct points (dense all pairs), same-sign pairs included,
    built here rather than by ``_flow_matrices``: columns r+, r- (k each),
    a flow y_ij per pair and t; min t subject to r+ - r- + div y = w,
    sum(r+ + r-) <= t and sum d_ij y_ij <= t."""
    scale, wts, dist = bl_metric._unit_support(mu, metric, {})
    k = len(wts)
    src, dst = np.nonzero(~np.eye(k, dtype=bool))
    e, pts = len(src), np.arange(k)
    flows, t = 2 * k + np.arange(e), 2 * k + e
    A_eq = coo_array((np.concatenate([np.ones(k), -np.ones(k), np.ones(e), -np.ones(e)]),
                      (np.concatenate([pts, pts, src, dst]),
                       np.concatenate([pts, k + pts, flows, flows]))), shape=(k, t + 1))
    A_ub = coo_array((np.concatenate([np.ones(2 * k), dist[src, dst], [-1.0, -1.0]]),
                      (np.repeat([0, 1, 0, 1], [2 * k, e, 1, 1]),
                       np.concatenate([np.arange(2 * k), flows, [t, t]]))), shape=(2, t + 1))
    c = np.zeros(t + 1)
    c[t] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(2), A_eq=A_eq, b_eq=wts, method="highs",
                  options={"presolve": False})
    assert res.success, res.message
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
    cases.append(pytest.param(EnvelopeMetric(base=base, family=tuple(family)),
                              full_support_measure(rng, base, zero_mass=True), id="envelope30"))
    plane = StateSpace.euclidean(2)
    w = rng.normal(size=32)
    cases.append(pytest.param(plane, SignedMeasure.from_atoms(
        plane, list(zip(rng.normal(size=(32, 2)).tolist(), (w - w.mean()).tolist()))),
        id="euclidean32"))
    return cases


def parabola_measure(c):
    """(space, measure) on 40 points of the parabola y = c x^2, x = 0.04 i:
    weight 1e-3 everywhere but 0.5 and -0.538 at the ends."""
    x = 0.04 * np.arange(40)
    pts = np.column_stack([x, c * x ** 2])
    space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    w = np.full(40, 1e-3)
    w[0], w[-1] = 0.5, -0.538
    return space, SignedMeasure.from_atoms(space, list(enumerate(w.tolist())))


def sign_pairs(wts, p):
    """Reference: the pairs of an atom i of the positive part (the first
    ``p`` weights) and an atom j of the negative part, from a loop in
    row-major order, as (sources, sinks) lists of indices into the block's
    cross distances: i and j - p."""
    pairs = [(i, j - p) for i in range(p) for j in range(p, len(wts))]
    return [i for i, _ in pairs], [j for _, j in pairs]


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
            mu = full_support_measure(rng, space)
            (_, (wts, cross)), = bl_metric.norm_blocks([mu], space)
            src, dst = bl_metric._sign_pairs(cross)
            ref_src, ref_dst = sign_pairs(wts, len(mu.pos))
            assert src.tolist() == ref_src and dst.tolist() == ref_dst
            del lp_calls[:]
            bl_dual_norm(mu, space)
            assert lp_calls == [(k, 2 * k + len(ref_src) + 1)]

    def test_large_generic_support_adds_columns_in_rounds(self, lp_calls, monkeypatch):
        # with each atom's two nearest atoms of the other sign the first
        # solve misses pairs that the optimum needs
        monkeypatch.setattr(bl_metric, "NEAREST", 2)
        k = 200
        rng = np.random.default_rng(5)
        space = random_metric_space(rng, k)
        mu = full_support_measure(rng, space, zero_mass=True)
        value, _ = bl_dual_norm(mu, space)
        assert len(lp_calls) >= 2
        columns = [cols - 2 * k - 1 for _, cols in lp_calls]
        assert columns == sorted(set(columns)) and columns[-1] < len(mu.pos) * len(mu.neg)
        assert abs(value - full_lp_value(mu, space)) <= 1e-12 * mu.tv

    def test_stops_only_when_no_pair_without_a_column_breaks_its_dual_constraint(
            self, monkeypatch):
        # the pairs tested are those from a positive to a negative atom:
        # every solve but the last leaves one of them broken by more than
        # CHECK_TOL, the last none
        monkeypatch.setattr(bl_metric, "NEAREST", 2)
        rng = np.random.default_rng(8)
        space = grid_metric(rng, 5, 8)
        mu = full_support_measure(rng, space, zero_mass=True)
        solves = []
        flow_lp = bl_metric._flow_lp

        def recording(blocks):
            res, t_cols = flow_lp(blocks)
            solves.append((blocks[0], res))
            return res, t_cols

        monkeypatch.setattr(bl_metric, "_flow_lp", recording)
        value, _ = bl_dual_norm(mu, space)
        assert len(solves) >= 2
        broken, dist = [], bl_metric.pairwise_distances(space, mu.support()[0])
        for (wts, cross, (src, dst)), res in solves:
            pos, neg, p = wts > 0.0, wts < 0.0, len(cross)
            assert pos[src].all() and neg[p + dst].all()
            f, L = res.eqlin.marginals, -res.ineqlin.marginals[1]
            gap = f[:, None] - f[None, :] - L * dist
            gap[src, p + dst] = 0.0
            broken.append(gap[np.ix_(pos, neg)].max() > bl_metric.CHECK_TOL)
        assert broken == [True] * (len(solves) - 1) + [False]
        assert abs(value - full_lp_value(mu, space)) <= 1e-9 * mu.tv

    @pytest.mark.parametrize("c", [1e-2, 1e-3])
    def test_witness_of_a_near_degenerate_support_keeps_its_bounds(self, c):
        # the duals alone broke L d_ij by 2.2e-8 (c = 1e-2) and 9.8e-8 (1e-3)
        space, mu = parabola_measure(c)
        value, witness = bl_dual_norm(mu, space)
        assert witness.check_feasible(space, slack=1e-15)
        assert abs(witness.pair(mu) - value) <= 1e-9 * mu.tv

    @pytest.mark.parametrize("k, positive", [(40, 10), (30, 15)])
    def test_a_sign_of_at_most_nearest_atoms_starts_with_every_pair(self, k, positive,
                                                                    lp_calls):
        # more than NEAREST + 1 points.  10 positive and 30 negative atoms:
        # each negative atom's NEAREST nearest positive atoms are all 10.  15
        # of each sign: each atom's NEAREST nearest atoms of the other sign
        # are all of them.  Either way the first solve is final
        rng = np.random.default_rng(66)
        space = random_metric_space(rng, k)
        w = -rng.uniform(0.5, 1.0, k)
        w[rng.permutation(k)[:positive]] *= -3.0
        mu = SignedMeasure.from_atoms(space, list(enumerate((w / np.abs(w).sum()).tolist())))
        assert k > bl_metric.NEAREST + 1 and min(positive, k - positive) <= bl_metric.NEAREST
        (_, (wts, cross)), = bl_metric.norm_blocks([mu], space)
        src, dst = bl_metric._sign_pairs(cross)
        assert (src.tolist(), dst.tolist()) == sign_pairs(wts, len(mu.pos))
        value, witness = bl_dual_norm(mu, space)
        shape = (k, 2 * k + positive * (k - positive) + 1)
        assert lp_calls == [shape]
        assert abs(norm_value(mu, space) - value) <= 1e-12 * mu.tv
        assert lp_calls == [shape] * 2
        assert abs(value - full_lp_value(mu, space)) <= 1e-12 * mu.tv
        assert_certificate(mu, space, value, witness)

    def test_mixed_batch_matches_each_own_solve(self, lp_calls, monkeypatch):
        monkeypatch.setattr(bl_metric, "NEAREST", 4)  # the 60-point support needs rounds
        rng = np.random.default_rng(64)
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


def assert_entry_equal(entry, alone):
    (scale, block), (alone_scale, alone_block) = entry, alone
    assert scale == alone_scale
    if block is None:
        assert alone_block is None
        return
    (wts, cross), (a_wts, a_cross) = block, alone_block
    assert np.array_equal(wts, a_wts) and np.array_equal(cross, a_cross)


class TestSharedSupports:
    def test_repeated_and_reordered_supports_match_their_own_entries(self):
        rng = np.random.default_rng(73)
        space = random_metric_space(rng, 24)
        forward = SignedMeasure.from_atoms(space, [(0, 0.5), (3, 0.2), (9, -0.7)])
        scaled = linear_combine([3.0], [forward])  # the same support, in the same order
        reordered = SignedMeasure.from_atoms(space, [(0, -0.5), (3, -0.2), (9, 0.7)])
        large = full_support_measure(rng, space, zero_mass=True)
        batch = [forward, large, scaled, reordered, SignedMeasure.from_atoms(space, []),
                 large, forward]
        assert forward.support()[0] == [0, 3, 9] and reordered.support()[0] == [9, 0, 3]
        entries = bl_metric.norm_blocks(batch, space)
        for mu, entry in zip(batch, entries):
            assert_entry_equal(entry, bl_metric.norm_blocks([mu], space)[0])
        # one distance matrix per support within the call: each block's
        # cross distances are a view of it
        assert entries[0][1][1].base is entries[2][1][1].base is entries[6][1][1].base
        assert entries[1][1][1].base is entries[5][1][1].base
        assert entries[3][1][1].base is not entries[0][1][1].base

    def test_a_support_shares_its_distances_and_not_its_pairs(self):
        # positive on points 0-19 or on 0-14, negative on the rest: the same
        # support, in the same order, with other signs
        rng = np.random.default_rng(75)
        space = random_metric_space(rng, 40)
        w = rng.uniform(0.5, 1.0, 40)
        batch = [SignedMeasure.from_atoms(space, list(enumerate(
            np.where(np.arange(40) < split, w, -w).tolist()))) for split in (20, 15)]
        assert batch[0].support()[0] == batch[1].support()[0] == list(range(40))
        entries = bl_metric.norm_blocks(batch, space)
        (_, (_, cross)), (_, (_, other_cross)) = entries
        assert other_cross.base is cross.base
        pairs, other_pairs = (bl_metric._sign_pairs(cross) for _, (_, cross) in entries)
        assert len(pairs[0]) != len(other_pairs[0])
        for mu, entry, (src, dst) in zip(batch, entries, (pairs, other_pairs)):
            (_, (wts, cross)) = entry
            assert (wts[src] > 0.0).all() and (wts[len(cross) + dst] < 0.0).all()
            assert_entry_equal(entry, bl_metric.norm_blocks([mu], space)[0])
        for mu, value in zip(batch, bl_norm_values(batch, space)):
            assert abs(value - full_lp_value(mu, space)) <= 1e-12 * mu.tv

    def test_calls_on_two_spaces_share_nothing(self, path3):
        flat = StateSpace.finite(np.ones((3, 3)) - np.eye(3))
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (1, -0.5), (2, -0.5)])
        nu = SignedMeasure.from_atoms(flat, [(0, 1.0), (1, -0.5), (2, -0.5)])
        assert mu.support()[0] == nu.support()[0]
        for space, m in ((path3, mu), (flat, nu), (path3, mu)):
            (_, (_, cross)), = bl_metric.norm_blocks([m], space)
            src, dst = bl_metric._sign_pairs(cross)
            # states (0, 1) and (0, 2): negative atoms 0 and 1
            assert np.array_equal(cross, space.dist[:1, 1:]) and len(src) == 2
            assert (src.tolist(), dst.tolist()) == ([0, 0], [0, 1])

    def test_envelope_values_and_distances_with_and_without_repeats(self, monkeypatch):
        rng = np.random.default_rng(74)
        base = random_metric_space(rng, 8)
        family = [LipschitzWitness(points=tuple(range(8)), values=rng.uniform(-1.0, 1.0, 8),
                                   sup_bound=1.0, lip_bound=1.0)]
        metric = EnvelopeMetric(base=base, family=tuple(family))
        a = full_support_measure(rng, base, zero_mass=True)
        b = SignedMeasure.from_atoms(base, [(1, 0.4), (5, -0.1), (6, -0.3)])
        calls = []
        distance = type(metric).distance
        monkeypatch.setattr(type(metric), "distance",
                            lambda self, p, q: calls.append((p, q)) or distance(self, p, q))
        distinct = bl_norm_values([a, b], metric)
        assert len(calls) == 28 + 3
        repeated = bl_norm_values([a, b, a, b, a], metric)
        assert len(calls) == 2 * (28 + 3)  # repeats compute no distance
        assert repeated == pytest.approx(distinct * 2 + distinct[:1], abs=1e-12)
        for mu, entry in zip([a, b, a], bl_metric.norm_blocks([a, b, a], metric)):
            assert_entry_equal(entry, bl_metric.norm_blocks([mu], metric)[0])


@st.composite
def format_measures(draw):
    """(space, measures, pairs): a random finite space or the plane, signed
    measures from ``from_atoms`` on its points (repeats merge, and may cancel
    to 0), their ``linear_combine`` sums and (mu, nu) pairs of them."""
    if draw(st.booleans()):
        space = StateSpace.euclidean(2)
        points = [(x / 4.0, y / 4.0) for x in range(-3, 4) for y in range(-3, 4)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        space = random_metric_space(rng, draw(st.integers(1, 8)))
        points = list(range(space.size))
    atoms = st.tuples(st.sampled_from(points), st.floats(-1.0, 1.0))
    built = [SignedMeasure.from_atoms(space, draw(st.lists(atoms, max_size=10)))
             for _ in range(draw(st.integers(1, 4)))]
    sums = [linear_combine([draw(st.floats(-2.0, 2.0)) for _ in pick], pick)
            for pick in draw(st.lists(st.lists(st.sampled_from(built), min_size=1, max_size=3),
                                      max_size=3))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(built), st.sampled_from(built + sums)),
                          max_size=3))
    return space, built + sums, pairs


class TestBlockFormat:
    @settings(max_examples=60)
    @given(format_measures())
    def test_cross_holds_the_distances_from_positive_to_negative_atoms(self, drawn):
        # a block takes the first len(mu.pos) atoms of mu.support() as its
        # positive ones.  The package's measures hold no weight of 0
        # (_merge_atoms and prune_dense prune them), so those are exactly the
        # atoms of positive weight; a hand-built part holding an explicit 0.0
        # weight counts with its part (see small_blocks)
        space, measures, pairs = drawn
        entries = bl_metric.norm_blocks(measures, space) + bl_metric.distance_blocks(pairs, space)
        sources = measures + [linear_combine([1.0, -1.0], [mu, nu]) for mu, nu in pairs]
        assert len(entries) == len(sources)
        for mu, (scale, block) in zip(sources, entries):
            pts, w = mu.support()
            if not scale:
                assert block is None and not pts
                continue
            wts, cross = block
            p = len(mu.pos)
            assert (wts[:p] > 0.0).all() and (wts[p:] < 0.0).all()
            assert np.array_equal(wts > 0.0, w > 0.0)
            expected = bl_metric.pairwise_distances(space, pts)[np.ix_(w > 0.0, w < 0.0)]
            assert cross.shape == expected.shape and cross.tobytes() == expected.tobytes()


class TestPresolveOff:
    def test_every_solve_runs_without_presolve(self, path4, monkeypatch):
        options = []

        def recording(*args, **kwargs):
            options.append(kwargs.get("options"))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(bl_metric, "linprog", recording)
        mu = two_by_two(path4)
        bl_dual_norm(mu, path4)
        bl_norm_values([mu, mu], path4)
        assert options == [{"presolve": False}] * 2

    def test_witness_attains_the_value_in_the_unit_ball(self, lp_calls, monkeypatch):
        rng = np.random.default_rng(75)
        space = random_metric_space(rng, 40)
        sizes = list(range(2, 41, 3)) + [40]
        assert max(sizes) > bl_metric.NEAREST + 1
        for k in sizes:
            chosen = rng.choice(40, k, replace=False).tolist()
            w = rng.normal(size=k)
            mu = SignedMeasure.from_atoms(space, list(zip(chosen, (w - w.mean()).tolist())))
            value, witness = bl_dual_norm(mu, space)
            # check_feasible at LP_FEAS_TOL, the unit ball and the value attained
            assert_certificate(mu, space, value, witness, tol=bl_metric.LP_FEAS_TOL)
            assert abs(value - full_lp_value(mu, space)) <= 1e-12 * mu.tv
        # the witness of a support that takes column generation: with each
        # atom's two nearest atoms of the other sign, the first solve of this
        # 40-point support misses pairs that its optimum needs
        monkeypatch.setattr(bl_metric, "NEAREST", 2)
        mu = full_support_measure(rng, space, zero_mass=True)
        del lp_calls[:]
        value, witness = bl_dual_norm(mu, space)
        assert len(lp_calls) >= 2
        assert_certificate(mu, space, value, witness, tol=bl_metric.LP_FEAS_TOL)
        assert abs(value - full_lp_value(mu, space)) <= 1e-12 * mu.tv


@st.composite
def lattice_spaces(draw, min_size=2, max_size=6):
    """Distinct points of a coarse 2-D lattice: their Euclidean metric has
    exact triangle equalities along lattice lines."""
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
    return EnvelopeMetric(base=space, family=(g,)), points


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
    def test_each_value_matches_its_own_solve(self, lp_calls, block_solves, data):
        metric, points = data.draw(batch_metrics())
        space = getattr(metric, "base", metric)
        batch = data.draw(st.lists(batch_measures(space, points), min_size=1, max_size=6))
        del lp_calls[:], block_solves[:]
        values = bl_norm_values(batch, metric)
        # one batch; one LP if a block has two atoms of each sign (not a star)
        nonzero = sum(mu.tv > 0.0 for mu in batch)
        assert block_solves == ([nonzero] if nonzero else [])
        assert len(lp_calls) == int(any(min(len(mu.pos.points), len(mu.neg.points)) > 1
                                        for mu in batch))
        assert len(values) == len(batch)
        for mu, value in zip(batch, values):
            if mu.tv == 0.0:
                assert value == 0.0
                continue
            assert value == pytest.approx(bl_norm_values([mu], metric)[0], abs=1e-12)
            assert value == pytest.approx(primal_lp(mu, metric), abs=1e-9)

    def test_empty_and_zero_batches_solve_nothing(self, path3, lp_calls, block_solves):
        assert bl_norm_values([], path3) == []
        empty = SignedMeasure.from_atoms(path3, [])
        cancelled = SignedMeasure.from_atoms(path3, [(1, 0.5), (1, -0.5)])
        assert bl_norm_values([empty, cancelled], path3) == [0.0, 0.0]
        assert lp_calls == [] and block_solves == []

    def test_one_solve_stacks_every_nonzero_block(self, path4, lp_calls):
        a = two_by_two(path4)
        b = SignedMeasure.from_atoms(path4, [(1, 0.3)])
        empty = SignedMeasure.from_atoms(path4, [])
        values = bl_norm_values([a, empty, b, a], path4)
        # a: 4 points, the flows (0, 1), (0, 2), (3, 1), (3, 2); r+, r-,
        # flows and t per block.  b, of one sign, is a star: no columns
        assert lp_calls == [(4 + 4, 2 * (8 + 4 + 1))]
        assert values == pytest.approx([dirac_distance_exact(1.0), 0.0, 0.3,
                                        dirac_distance_exact(1.0)], abs=1e-12)

    def test_long_batches_split_into_runs_of_bounded_width(self, path4, lp_calls,
                                                           monkeypatch):
        rng = np.random.default_rng(9)
        batch = [SignedMeasure.from_atoms(path4, list(enumerate(
            (rng.permutation([1.0, 1.0, -1.0, -1.0]) * rng.uniform(0.1, 1.0, 4)).tolist())))
            for _ in range(5)]  # two atoms of each sign: 13 columns each
        expected = [bl_norm_values([mu], path4)[0] for mu in batch]
        for width, shapes in ((26, [(8, 26), (8, 26), (4, 13)]), (12, [(4, 13)] * 5)):
            monkeypatch.setattr(bl_metric, "MAX_LP_COLUMNS", width)
            del lp_calls[:]
            assert bl_norm_values(batch, path4) == pytest.approx(expected, abs=1e-12)
            assert lp_calls == shapes

    def test_failed_batch_raises(self, path4, monkeypatch):
        monkeypatch.setattr(bl_metric, "linprog", lambda *a, **kw: OptimizeResult(
            success=False, status=2, message="forced failure"))
        b = SignedMeasure.from_atoms(path4, [(1, 0.3)])
        with pytest.raises(RuntimeError, match="forced failure"):
            bl_norm_values([two_by_two(path4), b], path4)


@st.composite
def near_coincident_spaces(draw):
    """A random finite space of 2 to 8 points of R^3, some of them copies of
    an earlier point moved by 1e-9 to 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = rng.normal(size=(draw(st.integers(2, 8)), 3))
    for i in range(1, len(pts)):
        if draw(st.booleans()):
            shift = rng.normal(size=3)
            pts[i] = pts[draw(st.integers(0, i - 1))] + shift / np.linalg.norm(shift) * 10.0 ** (
                draw(st.floats(-9.0, -6.0)))
    return StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))


@st.composite
def signed_measures_on(draw, space, signs):
    """A nonzero measure on some states of ``space`` whose weights take the
    signs ``signs`` (-1, 1 or both)."""
    chosen = draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=space.size,
                           unique=True))
    w = draw(st.lists(st.floats(0.01, 1.0), min_size=len(chosen), max_size=len(chosen)))
    sign = draw(st.lists(st.sampled_from(signs), min_size=len(chosen), max_size=len(chosen)))
    return SignedMeasure.from_atoms(space, [(i, s * x) for i, s, x in zip(chosen, sign, w)])


def lower_bound(mu, metric):
    """``max_bl_distance``'s lower bound on the norm of ``mu``."""
    ((scale, block),) = bl_metric.norm_blocks([mu], metric)
    return scale * bl_metric._unit_lower_bound(*block)


class TestLowerBounds:
    @settings(max_examples=60)
    @given(st.data())
    def test_bound_norm_and_total_variation_are_ordered(self, data):
        space = data.draw(near_coincident_spaces())
        mu = data.draw(signed_measures_on(space, [-1.0, 1.0]))
        value = bl_dual_norm(mu, space)[0]
        assert lower_bound(mu, space) <= value + 1e-9 * mu.tv
        assert value <= mu.tv * (1.0 + 1e-9)

    @settings(max_examples=40)
    @given(st.data(), st.sampled_from([-1.0, 1.0]))
    def test_one_signed_bound_is_the_total_variation(self, data, sign):
        space = data.draw(near_coincident_spaces())
        mu = data.draw(signed_measures_on(space, [sign]))
        # the TV up to the order of its sum: no margin on a bound that is the norm
        assert lower_bound(mu, space) == pytest.approx(mu.tv, rel=1e-14)
        assert bl_dual_norm(mu, space)[0] == pytest.approx(mu.tv, rel=1e-9)

    @settings(max_examples=40)
    @given(st.data())
    def test_oracle_agrees_and_keeps_the_order(self, data):
        space = data.draw(near_coincident_spaces())
        mu = data.draw(signed_measures_on(space, [-1.0, 1.0]))
        assume(len(mu.support()[0]) <= bl_metric.ORACLE_MAX_SUPPORT)
        oracle = bl_dual_norm_oracle(mu, space)
        # the LP's feasibility tolerance: with three negative atoms within
        # 1.9e-7 of each other, one norm at TV 4.25 came 2.7e-8 above the
        # oracle and the dense primal LP (6.4e-9 x TV)
        assert abs(oracle - bl_dual_norm(mu, space)[0]) <= 1e-7 * mu.tv
        assert lower_bound(mu, space) <= oracle + 1e-9 * mu.tv

    def test_norm_beside_near_coincident_points_matches_the_oracle(self):
        # with a flow column on (0, 1), one pair of atoms of one sign, this
        # norm came 2.4e-9 above the oracle and the dense primal LP
        d = 2.088
        space = StateSpace.finite([[0.0, 1e-8, d], [1e-8, 0.0, d], [d, d, 0.0]])
        mu = SignedMeasure.from_atoms(space, [(2, 0.5), (0, -1.0), (1, -0.5)])
        assert abs(bl_dual_norm(mu, space)[0] - bl_dual_norm_oracle(mu, space)) <= 1e-12


@st.composite
def small_blocks(draw):
    """(metric, nonzero measure, tolerance) on 1 to NEAREST + 1 points of a
    near-coincident space, of random R^3 points, of the plane's quarter
    lattice or under an envelope metric.  The weights have one sign, zero
    net mass or neither, and one atom may keep weight 0.  The tolerance, at
    unit TV, is the LP's feasibility tolerance 1e-7 on near-coincident
    spaces (see ``test_oracle_agrees_and_keeps_the_order``), else 1e-9."""
    kind = draw(st.sampled_from(["near", "generic", "euclidean", "envelope"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, bl_metric.NEAREST + 1))
    if kind == "near":
        space = metric = draw(near_coincident_spaces())
        k = min(k, space.size)
    elif kind == "euclidean":
        space = metric = StateSpace.euclidean(2)
        lattice = [(x / 4.0, y / 4.0) for x in range(-8, 9) for y in range(-8, 9)]
    else:
        space = metric = random_metric_space(rng, k)
    if kind == "envelope":
        g = LipschitzWitness(points=tuple(range(k)), values=rng.uniform(-1.0, 1.0, k),
                             sup_bound=1.0, lip_bound=1.0)
        metric = EnvelopeMetric(base=space, family=(g,))
    chosen = rng.choice(len(lattice) if kind == "euclidean" else space.size, k, replace=False)
    points = [lattice[i] for i in chosen] if kind == "euclidean" else chosen.tolist()
    form = draw(st.sampled_from(["zero mass", "net mass", "one sign"] if k > 1 else ["one sign"]))
    w = rng.uniform(0.01, 1.0, k) * draw(st.sampled_from([-1.0, 1.0]))
    if form != "one sign":
        w = rng.normal(size=k)
        w -= w.mean() if form == "zero mass" else 0.0
    zero = k > 1 and draw(st.booleans())
    mu = SignedMeasure.from_atoms(space, list(zip(points[zero:], w[zero:].tolist())))
    if zero:  # from_atoms drops a weight of 0; a hand-built measure keeps it
        pos = PositiveMeasure(space, mu.pos.points + (space.point_key(points[0]),),
                              np.append(mu.pos.weights, 0.0))
        mu = SignedMeasure(pos=pos, neg=mu.neg)
    return metric, mu, 1e-7 if kind == "near" else 1e-9


class TestColumnRule:
    @settings(max_examples=80)
    @given(st.data())
    def test_sign_pairs_give_the_all_pairs_value_and_a_certified_witness(self, data):
        metric, mu, tol = data.draw(small_blocks())
        (_, (wts, cross)), = bl_metric.norm_blocks([mu], metric)
        src, dst = bl_metric._sign_pairs(cross)
        assert (src.tolist(), dst.tolist()) == sign_pairs(wts, len(mu.pos))
        value, witness = bl_dual_norm(mu, metric)
        assert abs(value - full_lp_value(mu, metric)) <= tol * mu.tv
        assert abs(norm_value(mu, metric) - value) <= 1e-12 * mu.tv
        assert len(witness.points) == len(wts)
        assert witness.check_feasible(metric, slack=1e-12)
        assert_certificate(mu, metric, value, witness, tol)


def nearest_sign_pairs(wts, dist, nearest):
    """Reference: a block's starting pairs from loops, as (sources, sinks)
    lists in row-major order: the (i, j) with w_i > 0 > w_j in which j is
    one of i's ``nearest`` nearest negative atoms or i one of j's nearest
    positive atoms, ties going to the lower index.  Given in cross
    coordinates: i's rank among the positive atoms, j's among the negative."""
    pos = [i for i in range(len(wts)) if wts[i] > 0.0]
    neg = [j for j in range(len(wts)) if wts[j] < 0.0]
    pairs = set()
    for i in pos:
        pairs.update((i, j) for j in sorted(neg, key=lambda j: (dist[i, j], j))[:nearest])
    for j in neg:
        pairs.update((i, j) for i in sorted(pos, key=lambda i: (dist[i, j], i))[:nearest])
    pairs = sorted((pos.index(i), neg.index(j)) for i, j in pairs)
    return [i for i, _ in pairs], [j for _, j in pairs]


@st.composite
def large_blocks(draw, kind):
    """(space, measure, NEAREST to run with, tolerance) on 18 to 40 points,
    by ``kind``: random R^3 points ("generic"), shortest paths of a grid
    graph (exact triangle equalities, "grid"), or R^3 points some of which
    copy an earlier point moved by 1e-9 to 1e-6 ("near").  The weights are normal, with zero net mass or not, on
    every point.  NEAREST is at times small enough that the LP gains columns
    in rounds.  The tolerance, at unit TV, is 1e-9, but the LP's
    feasibility tolerance 1e-7 beside near points: on 200 such supports the
    value came up to 6.7e-9 from the dense LP and the witness paired up to
    1.2e-8 below the value (4.0e-9 and 1.7e-8 with the old columns)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "grid":
        space = grid_metric(rng, draw(st.integers(3, 5)), draw(st.integers(6, 8)))
    else:
        pts = rng.normal(size=(draw(st.integers(18, 40)), 3))
        for i in range(1, len(pts) if kind == "near" else 0):
            if draw(st.integers(0, 3)) == 0:
                shift = rng.normal(size=3)
                pts[i] = pts[draw(st.integers(0, i - 1))] + shift / np.linalg.norm(
                    shift) * 10.0 ** draw(st.floats(-9.0, -6.0))
        space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    mu = full_support_measure(rng, space, zero_mass=draw(st.booleans()))
    return (space, mu, draw(st.sampled_from([2, 4, 8, bl_metric.NEAREST])),
            1e-7 if kind == "near" else 1e-9)


class TestLargeBlocks:
    @pytest.mark.parametrize("kind", ["generic", "grid", "near"])
    @settings(max_examples=20)
    @given(st.data())
    def test_sign_pairs_give_the_all_pairs_value_and_a_certified_witness(self, kind, data):
        space, mu, nearest, tol = data.draw(large_blocks(kind))
        solved, flow_lp = [], bl_metric._flow_lp
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bl_metric, "NEAREST", nearest)
            patch.setattr(bl_metric, "_flow_lp",
                          lambda blocks: solved.extend(blocks) or flow_lp(blocks))
            (_, (wts, cross)), = bl_metric.norm_blocks([mu], space)
            src, dst = bl_metric._sign_pairs(cross)
            value, witness = bl_dual_norm(mu, space)
            norm = norm_value(mu, space)
        dist = bl_metric.pairwise_distances(space, mu.support()[0])
        assert (src.tolist(), dst.tolist()) == nearest_sign_pairs(wts, dist, nearest)
        for _, cross, (src, dst) in solved:  # starting and generated columns
            assert (wts[src] > 0.0).all() and (wts[len(cross) + dst] < 0.0).all()
        full = full_lp_value(mu, space)
        assert abs(value - full) <= tol * mu.tv
        assert abs(norm - full) <= tol * mu.tv
        assert witness.check_feasible(space, slack=1e-9)
        assert abs(witness.pair(mu) - value) <= tol * mu.tv


def starting_pair_cases():
    """(name, distance matrix) per metric whose starting pairs the array rule
    must take as the loops do: commuting.json's path metric, and random R^3
    points and grid graphs (exact triangle equalities) at k = 1, 2,
    NEAREST + 1, NEAREST + 2, 40 and 200."""
    rng = np.random.default_rng(71)
    commuting = load_scenario(str(resources.files("trotterkit").joinpath(
        "scenarios/commuting.json"))).space
    cases = [("commuting", commuting.dist)]
    near = bl_metric.NEAREST
    grids = {1: (1, 1), 2: (1, 2), near + 1: (1, near + 1), near + 2: (1, near + 2),
             40: (5, 8), 200: (10, 20)}  # 1 x k grids are path graphs
    for k, shape in grids.items():
        cases += [(f"generic{k}", random_metric_space(rng, k).dist),
                  (f"grid{k}", grid_metric(rng, *shape).dist)]
    return [pytest.param(dist, id=name) for name, dist in cases]


def is_row_major(src, dst):
    return bool(np.all((src[1:] > src[:-1]) | (src[1:] == src[:-1]) & (dst[1:] > dst[:-1])))


class TestStartingPairs:
    @pytest.mark.parametrize("dist", starting_pair_cases())
    def test_array_rule_keeps_the_loops_pairs_bitwise_in_row_major_order(self, dist):
        # normal weights with and without zero net mass, and a few atoms of
        # one sign among many of the other, either way round
        rng = np.random.default_rng(len(dist))
        w = rng.normal(size=len(dist))
        few = -np.ones(len(dist))
        few[rng.permutation(len(dist))[:3]] = 1.0
        for wts in (w, w - w.mean(), few, -few):
            pos, neg = np.flatnonzero(wts > 0.0), np.flatnonzero(wts < 0.0)
            src, dst = bl_metric._sign_pairs(dist[np.ix_(pos, neg)])
            ref_src, ref_dst = nearest_sign_pairs(wts, dist, bl_metric.NEAREST)
            assert src.dtype == np.intp and dst.dtype == np.intp
            assert src.tolist() == ref_src and dst.tolist() == ref_dst
            assert is_row_major(src, dst)

    def test_only_blocks_that_reach_the_lp_get_pairs(self, path4, monkeypatch):
        calls, sign_pairs = [], bl_metric._sign_pairs  # each call's atoms of each sign
        monkeypatch.setattr(bl_metric, "_sign_pairs",
                            lambda cross: calls.append(cross.shape) or sign_pairs(cross))
        star = SignedMeasure.from_atoms(path4, [(0, 1.0), (2, -0.5), (3, -0.5)])
        one_sign = SignedMeasure.from_atoms(path4, [(1, 0.3)])
        empty = SignedMeasure.from_atoms(path4, [])
        entries = bl_metric.norm_blocks([two_by_two(path4), star, one_sign, empty], path4)
        assert calls == []  # preparing a block makes no pairs
        bl_metric.solve_blocks(entries)
        assert calls == [(2, 2)]  # nor does a star or a zero measure
        bl_dual_norm(star, path4)  # one LP, for its witness
        assert calls == [(2, 2), (1, 2)]
        # a block that the bounds settle gets none: one sign and TV 2.5
        # bound the maximum above two_by_two's TV of 2
        both = PositiveMeasure.from_atoms(path4, [(0, 1.0), (1, 1.5)])
        halves = [PositiveMeasure.from_atoms(path4, pts) for pts in ([(0, 0.5), (3, 0.5)],
                                                                     [(1, 0.5), (2, 0.5)])]
        assert max_bl_distance([(both, PositiveMeasure.from_atoms(path4, [])), halves],
                               path4) == 2.5
        assert calls == [(2, 2), (1, 2)]


@st.composite
def stars(draw):
    """(metric, star measure, tolerance): a centre atom and 1 to 7 leaves of
    the other sign (or, one time in four, of its own), on a finite space of
    R^3 points, on the plane or under an envelope metric.  Some leaves lie
    1e-9 to 1e-6 from an earlier point, and the TV is 10^-6 to 10.  The
    tolerance, at unit TV, is the all-pairs LP's: 1e-7 beside such near
    points (see ``small_blocks``), else 1e-9."""
    kind = draw(st.sampled_from(["finite", "euclidean", "envelope"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(2, 8))
    pts = rng.normal(size=(k, 2 if kind == "euclidean" else 3)) * 10.0 ** draw(
        st.floats(-3.0, 1.0))
    near = [i for i in range(1, k) if draw(st.integers(0, 3)) == 0]
    for i in near:
        shift = rng.normal(size=pts.shape[1])
        pts[i] = pts[draw(st.integers(0, i - 1))] + shift / np.linalg.norm(shift) * 10.0 ** (
            draw(st.floats(-9.0, -6.0)))
    if kind == "euclidean":
        space = metric = StateSpace.euclidean(2)
        points = pts.tolist()
    else:
        space = metric = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        points = list(range(k))
    if kind == "envelope":
        g = LipschitzWitness(points=tuple(points), values=rng.uniform(-1.0, 1.0, k),
                             sup_bound=1.0, lip_bound=1.0)
        metric = EnvelopeMetric(base=space, family=(g,))
    w = rng.uniform(0.01, 1.0, k) * draw(st.sampled_from([-1.0, 1.0]))
    centre = draw(st.integers(0, k - 1))
    if draw(st.integers(0, 3)):
        w[centre] = -w[centre]
    w *= 10.0 ** draw(st.floats(-6.0, 1.0)) / np.abs(w).sum()
    mu = SignedMeasure.from_atoms(space, list(zip(points, w.tolist())))
    return metric, mu, 1e-7 if near else 1e-9


def two_point_spaces(d):
    """Two points d apart: on the line and as a finite space."""
    return [(StateSpace.euclidean(1), [0.0], [d]),
            (StateSpace.finite([[0.0, d], [d, 0.0]]), 0, 1)]


class TestStars:
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_closed_form_matches_the_oracle_and_the_full_lp(self, lp_calls, data):
        metric, mu, tol = data.draw(stars())
        (_, block), = bl_metric.norm_blocks([mu], metric)
        assert bl_metric._star_norm(*block) is not None
        del lp_calls[:]
        value = norm_value(mu, metric)
        assert lp_calls == []
        if len(block[0]) <= bl_metric.ORACLE_MAX_SUPPORT:
            assert abs(value - bl_dual_norm_oracle(mu, metric)) <= 1e-12 * mu.tv
        # beside near points the LP read one star of one sign, whose norm is
        # its TV, 2.3e-9 x TV above it
        assert abs(value - full_lp_value(mu, metric)) <= tol * mu.tv

    @pytest.mark.parametrize("d", [1e-11, 1e-10, 1e-9, 1e-6, 1e-3, 1.0, 7.0, 1e3])
    def test_dirac_pairs_take_the_closed_form_at_every_distance(self, d):
        # the LP read 0.0 at d <= 1e-9
        for space, p, q in two_point_spaces(d):
            value = bl_distance(PositiveMeasure.dirac(space, p), PositiveMeasure.dirac(space, q),
                                space)
            assert abs(value / dirac_distance_exact(d) - 1.0) <= 1e-15

    @pytest.mark.parametrize("d", [1e-10, 0.3, 2.0, 50.0])
    @pytest.mark.parametrize("a, b", [(0.7, 0.2), (0.2, 0.7), (1.0, 1e-9), (3.0, 2.5)])
    def test_unequal_diracs(self, d, a, b):
        # max(|a - b|, (a + b) d / (2 + d)): ship min(a, b) or less
        for space, p, q in two_point_spaces(d):
            mu = SignedMeasure.from_atoms(space, [(p, a), (q, -b)])
            expected = max(abs(a - b), (a + b) * d / (2.0 + d))
            assert norm_value(mu, space) == pytest.approx(expected, rel=1e-15)

    def test_norm_beside_near_coincident_points_matches_the_oracle(self):
        # the LP put this norm 1.2e-9 above the oracle
        d = 2.088
        space = StateSpace.finite([[0.0, 1e-8, d + 5e-9], [1e-8, 0.0, d], [d + 5e-9, d, 0.0]])
        mu = SignedMeasure.from_atoms(space, [(2, 0.5), (0, -1.0), (1, -0.5)])
        assert abs(norm_value(mu, space) - bl_dual_norm_oracle(mu, space)) <= 1e-13 * mu.tv

def assert_max_of_every_distance(pairs, metric):
    """``max_bl_distance`` within 1e-9 times the largest TV of the pairs'
    max of ``bl_distances``."""
    largest = max((linear_combine([1.0, -1.0], pair).tv for pair in pairs), default=0.0)
    expected = max([0.0] + bl_distances(pairs, metric))
    assert abs(max_bl_distance(pairs, metric) - expected) <= 1e-9 * largest
    return expected


class TestMaxDistance:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_equals_the_max_of_every_distance(self, data):
        metric, points = data.draw(batch_metrics())
        space = getattr(metric, "base", metric)
        measures = st.tuples(batch_measures(space, points), batch_measures(space, points))
        assert_max_of_every_distance(data.draw(st.lists(measures, max_size=6)), metric)

    def test_empty_and_zero_lists_solve_nothing(self, path3, lp_calls, block_solves):
        a = SignedMeasure.from_atoms(path3, [(0, 1.0), (2, -0.5)])
        empty = SignedMeasure.from_atoms(path3, [])
        assert max_bl_distance([], path3) == 0.0
        assert max_bl_distance([(a, a), (empty, empty)], path3) == 0.0
        assert lp_calls == [] and block_solves == []

    def test_a_list_that_needs_no_lp(self, path3, lp_calls, block_solves):
        a, c = PositiveMeasure.dirac(path3, 0), PositiveMeasure.dirac(path3, 2)
        both = PositiveMeasure.from_atoms(path3, [(0, 1.0), (1, 1.0)])
        empty = PositiveMeasure.from_atoms(path3, [])
        # one sign, TV 2: the norm is 2; the Dirac pair has TV 2, not above it
        pairs = [(both, empty), (a, c)]
        assert max_bl_distance(pairs, path3) == 2.0
        assert lp_calls == [] and block_solves == []
        assert assert_max_of_every_distance(pairs, path3) == pytest.approx(2.0, abs=1e-9)

    def test_the_largest_tv_need_not_hold_the_maximum(self):
        x = np.array([0.0, 1e-3, 5.0, 6.0])
        space = StateSpace.finite(np.abs(x[:, None] - x[None, :]))
        near = (PositiveMeasure.dirac(space, 0), PositiveMeasure.dirac(space, 1))  # TV 2
        far = tuple(PositiveMeasure.from_atoms(space, [(i, 0.5)]) for i in (2, 3))  # TV 1
        value = assert_max_of_every_distance([near, far], space)
        assert value == pytest.approx(0.5 * dirac_distance_exact(1.0), abs=1e-9)

    def test_a_block_whose_tv_sits_on_the_bound_is_solved(self, path3, block_solves):
        # the Dirac pair 2 apart has the bound 2 * 2 / (2 + 2) = 1.0 before
        # BOUND_MARGIN, and the half-weight pair has TV 1.0: both are solved
        a, c = PositiveMeasure.dirac(path3, 0), PositiveMeasure.dirac(path3, 2)
        halves = tuple(PositiveMeasure.from_atoms(path3, [(i, 0.5)]) for i in (0, 2))
        assert max_bl_distance([(a, c), halves], path3) == pytest.approx(1.0, abs=1e-9)
        assert block_solves == [2]


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
