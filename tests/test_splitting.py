import numpy as np
import pytest

from trotterkit.bl_metric import bl_distance, bl_dual_norm
from trotterkit.measures import PositiveMeasure, SignedMeasure, StateSpace
from trotterkit.operators import SemigroupSpec, apply
from trotterkit.splitting import (
    ModulusEstimate,
    SplittingStudy,
    commutator_modulus,
    dini_integral,
    dyadic_cauchy_bounds,
    dyadic_sequence,
    estimate_limit,
    exact_reference,
    extended_commutator_constant,
    fit_rate,
    refinement_bound_check,
    sample_scheme_family,
    swap_order_limit_distance,
    trotter_iterate,
)

Q1 = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
Q2 = np.array([[-0.5, 0.0, 0.7], [0.2, -0.3, 0.3], [0.3, 0.3, -1.0]])


@pytest.fixture
def path3():
    return StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


@pytest.fixture
def pair(path3):
    return (SemigroupSpec.matrix_exponential(path3, Q1),
            SemigroupSpec.matrix_exponential(path3, Q2))


@pytest.fixture
def mu0(path3):
    return PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.3), (2, 0.2)])


class TestIterate:
    def test_preserves_tv(self, pair, mu0):
        out = trotter_iterate(*pair, 1.0, 16, mu0)
        assert out.tv == pytest.approx(mu0.tv, abs=1e-12)

    def test_order_swap_differs_at_coarse_n(self, pair, mu0, path3):
        a = trotter_iterate(*pair, 1.0, 1, mu0, "g1_first")
        b = trotter_iterate(*pair, 1.0, 1, mu0, "g2_first")
        assert bl_distance(a, b, path3) > 1e-4

    def test_converges_to_sum_generator(self, pair, mu0, path3):
        ref = exact_reference(*pair, 1.0, mu0)
        d = bl_distance(trotter_iterate(*pair, 1.0, 256, mu0), ref, path3)
        assert d < 1e-4

    def test_commuting_is_exact(self, path3, mu0):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, 2.0 * Q1)
        ref = exact_reference(g1, g2, 1.0, mu0)
        for n in (1, 4, 16):
            assert bl_distance(trotter_iterate(g1, g2, 1.0, n, mu0), ref, path3) < 1e-12


class TestRateFit:
    def test_recovers_synthetic_slope(self):
        ns = [2 ** j for j in range(4, 11)]
        ds = [3.0 / n for n in ns]
        rate, saturated = fit_rate(ns, ds)
        assert not saturated
        assert rate == pytest.approx(1.0, abs=1e-10)

    def test_detects_saturation(self):
        ns = [2 ** j for j in range(4, 11)]
        rate, saturated = fit_rate(ns, [1e-13] * len(ns))
        assert saturated and rate is None

    def test_estimate_limit_reports_rate(self, pair, mu0, path3):
        study = SplittingStudy(g1=pair[0], g2=pair[1], mu0=mu0, t=1.0,
                               schedule=tuple(2 ** j for j in range(8)))
        _, report = estimate_limit(study)
        assert report.reference_kind == "exact"
        assert report.fitted_rate == pytest.approx(1.0, abs=0.05)


class TestModulus:
    def test_values_positive_and_envelope_monotone(self, pair, mu0):
        grid = [1.0 / 2 ** j for j in range(10)]
        omega = commutator_modulus(*pair, mu0, grid)
        assert np.all(omega.values > 0.0)
        # envelope nondecreasing in t (grid stored decreasing)
        assert np.all(np.diff(omega.monotone_envelope[::-1]) >= -1e-15)

    def test_commuting_modulus_is_zero(self, path3, mu0):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, 2.0 * Q1)
        omega = commutator_modulus(g1, g2, mu0, [0.5, 0.25])
        assert np.all(omega.values < 1e-11)

    def test_envelope_lookup_is_conservative(self, pair, mu0):
        grid = [1.0 / 2 ** j for j in range(8)]
        omega = commutator_modulus(*pair, mu0, grid)
        for t in (0.3, 0.11, 0.02):
            grid_pts = [s for s in grid if s >= t]
            assert omega.envelope_at(t) == omega.envelope_at(min(grid_pts))

    def test_extended_constant_at_least_one(self, pair, mu0):
        rng = np.random.default_rng(0)
        fam = sample_scheme_family(*pair, 0.1, 3, rng)
        grid = [1.0 / 2 ** j for j in range(6)]
        omega = commutator_modulus(*pair, mu0, grid)
        c_hat, flags = extended_commutator_constant(*pair, mu0, omega, fam)
        assert c_hat >= 1.0
        assert flags == []


class TestBatchedSolves:
    def test_schedule_grid_and_family_each_solve_once(self, pair, mu0, path3, block_solves):
        study = SplittingStudy(*pair, mu0, 1.0, (1, 2, 4, 8))
        grid = [1.0 / 2 ** j for j in range(6)]
        family = sample_scheme_family(*pair, 0.1, 5, np.random.default_rng(0))
        _, report = estimate_limit(study)
        omega = commutator_modulus(*pair, mu0, grid)
        c_hat, flags = extended_commutator_constant(*pair, mu0, omega, family)
        assert len(block_solves) == 3
        ref = exact_reference(*pair, 1.0, mu0)
        assert report.distances == pytest.approx(
            [bl_distance(trotter_iterate(*pair, 1.0, n, mu0), ref, path3)
             for n in study.schedule], abs=1e-12)
        ratios = [num / den for P in family
                  for num, den in zip(commutator_modulus(*pair, apply(P, mu0), grid).values,
                                      omega.values)]
        assert flags == [] and c_hat == pytest.approx(max([1.0] + ratios), rel=1e-9)


class TestBounds:
    def test_refinement_bound_holds(self, pair, mu0, path3):
        grid = [1.0 / 2 ** j for j in range(13)]
        omega = commutator_modulus(*pair, mu0, grid)
        rng = np.random.default_rng(1)
        fam = sample_scheme_family(*pair, 1.0 / 32, 5, rng)
        c_hat, _ = extended_commutator_constant(*pair, mu0, omega, fam)
        diff = SignedMeasure.from_atoms(path3, [(0, 1.0), (2, -1.0)])
        _, f = bl_dual_norm(diff, path3)
        pairs = [(n, k) for n in (1, 2, 4, 8) for k in (2, 3, 4)]
        for lhs, rhs in refinement_bound_check(*pair, mu0, f, 1.0, pairs, c_hat, omega):
            assert lhs <= rhs + 1e-12

    def test_dyadic_cauchy_domination(self, pair, mu0, path3):
        grid = [1.0 / 2 ** j for j in range(13)]
        omega = commutator_modulus(*pair, mu0, grid)
        rng = np.random.default_rng(2)
        fam = sample_scheme_family(*pair, 1.0 / 32, 5, rng)
        c_hat, _ = extended_commutator_constant(*pair, mu0, omega, fam)
        study = SplittingStudy(g1=pair[0], g2=pair[1], mu0=mu0, t=1.0,
                               schedule=tuple(2 ** j for j in range(9)))
        diff = SignedMeasure.from_atoms(path3, [(1, 1.0), (2, -1.0)])
        _, f = bl_dual_norm(diff, path3)
        rs = dyadic_sequence(study, f)
        for i, j, lhs, rhs in dyadic_cauchy_bounds(rs, 1.0, c_hat, omega):
            assert lhs <= rhs + 1e-12

    def test_dyadic_cauchy_bounds_look_each_level_up_once(self, monkeypatch):
        grid = np.array([1.0 / 2 ** j for j in range(12)])
        env = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 12))[::-1]
        omega = ModulusEstimate(t_grid=grid, values=env, monotone_envelope=env,
                                dini_integral=0.0)
        rs, C, t = np.random.default_rng(4).normal(size=10).tolist(), 0.37, 1.0
        # the per-triple lookups, summed left to right as before
        expected = [(i, j, abs(rs[i] - rs[j]), C * (t / 2.0) * sum(
            omega.envelope_at(t / 2 ** (l + 1)) for l in range(j, i)))
            for i in range(1, 10) for j in range(i)]
        calls = []
        lookup = ModulusEstimate.envelope_at
        monkeypatch.setattr(ModulusEstimate, "envelope_at",
                            lambda self, s: calls.append(s) or lookup(self, s))
        assert dyadic_cauchy_bounds(rs, t, C, omega) == expected  # bitwise
        assert calls == [t / 2 ** (l + 1) for l in range(9)]

    def test_dyadic_sequence_rejects_non_powers(self, pair, mu0, path3):
        study = SplittingStudy(g1=pair[0], g2=pair[1], mu0=mu0, t=1.0,
                               schedule=(1, 3, 5))
        diff = SignedMeasure.from_atoms(path3, [(0, 1.0), (1, -1.0)])
        _, f = bl_dual_norm(diff, path3)
        with pytest.raises(ValueError):
            dyadic_sequence(study, f)

    def test_swap_distance_small_at_fine_n(self, pair, mu0):
        study = SplittingStudy(g1=pair[0], g2=pair[1], mu0=mu0, t=1.0,
                               schedule=(256,))
        assert swap_order_limit_distance(study) < 1e-3


class TestDini:
    def test_synthetic_linear_modulus(self):
        t = 1.0
        grid = np.array([t / 2 ** j for j in range(20)])
        omega = ModulusEstimate(t_grid=grid, values=grid.copy(),
                                monotone_envelope=grid.copy(),
                                dini_integral=float(grid[0] - grid[-1]))
        integral, tail, depth = dini_integral(omega, 0.5, t)
        analytic = sum(0.5 ** n * t for n in range(1, depth + 1))
        assert tail == pytest.approx(analytic, abs=1e-9)

    def test_tail_dominated_by_integral(self, pair, mu0):
        grid = [1.0 / 2 ** j for j in range(14)]
        omega = commutator_modulus(*pair, mu0, grid)
        a = 0.5
        integral, tail, _ = dini_integral(omega, a, 1.0)
        assert tail <= integral / (1.0 - a) + 1e-12

    def test_invalid_ratio(self, pair, mu0):
        omega = commutator_modulus(*pair, mu0, [0.5, 0.25])
        with pytest.raises(ValueError):
            dini_integral(omega, 1.5, 0.5)
