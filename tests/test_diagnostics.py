import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trotterkit import diagnostics
from trotterkit.bl_metric import bl_distance, bl_distances, dirac_distance_exact
from trotterkit.diagnostics import (
    EquicontinuityProbe,
    equicontinuity_modulus,
    feller_continuity_check,
    limit_semigroup_check,
    perturb_measure,
    perturb_measures,
    perturbations_and_distances,
    stochastic_continuity_check,
    tightness_probe,
)
from trotterkit.measures import PositiveMeasure, StateSpace
from trotterkit.operators import MarkovOperatorSpec, SemigroupSpec, apply, at_time

Q1 = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
Q2 = np.array([[-0.5, 0.0, 0.7], [0.2, -0.3, 0.3], [0.3, 0.3, -1.0]])


@pytest.fixture
def path3():
    return StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


@pytest.fixture
def mu0(path3):
    return PositiveMeasure.from_atoms(path3, [(0, 0.5), (1, 0.3), (2, 0.2)])


class TestEquicontinuity:
    def test_identity_family_is_identity_on_distances(self, path3, mu0):
        rng = np.random.default_rng(0)
        perts = [perturb_measure(mu0, d, rng) for d in (0.05, 0.01)]
        dins = [bl_distance(mu0, p, path3) for p in perts]
        probe = EquicontinuityProbe(mu0, tuple(perts), tuple(dins),
                                    (MarkovOperatorSpec.identity(path3),))
        for din, dout in equicontinuity_modulus(probe):
            assert dout == pytest.approx(din, abs=1e-10)

    def test_rebinned_output_monotone(self, path3, mu0):
        rng = np.random.default_rng(1)
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        perts = [perturb_measure(mu0, d, rng) for d in (0.1, 0.03, 0.01)]
        dins = [bl_distance(mu0, p, path3) for p in perts]
        probe = EquicontinuityProbe(mu0, tuple(perts), tuple(dins),
                                    (at_time(g1, 0.5),))
        table = equicontinuity_modulus(probe)
        outs = [d for _, d in table]
        assert outs == sorted(outs)

    def test_empty_probe_rejected(self, path3, mu0):
        with pytest.raises(ValueError):
            EquicontinuityProbe(mu0, (), (), (MarkovOperatorSpec.identity(path3),))


class TestTightness:
    def test_finite_space_all_zero(self, path3, mu0):
        tp = tightness_probe([MarkovOperatorSpec.identity(path3)], mu0, [0.5, 1.0])
        assert np.all(tp.mass_outside == 0.0)

    def test_translation_dirac_support(self):
        s = StateSpace.euclidean(1)
        g = SemigroupSpec.map_flow(s, "translation", {"velocity": [1.0]})
        family = [at_time(g, t) for t in np.linspace(0.0, 1.0, 5)]
        mu = PositiveMeasure.dirac(s, [0.0])
        tp = tightness_probe(family, mu, [0.5, 1.01, 2.0])
        assert np.all(tp.mass_outside[:, 1:] == 0.0)

    def test_mass_outside_nonincreasing(self):
        rng = np.random.default_rng(4)
        s = StateSpace.euclidean(2)
        cloud = PositiveMeasure.from_atoms(
            s, [(p, 0.01) for p in rng.normal(size=(100, 2)) * 2.0])
        g = SemigroupSpec.map_flow(s, "contraction", {"rate": 1.0})
        tp = tightness_probe([at_time(g, t) for t in (0.0, 1.0)], cloud,
                             [0.5 * r for r in range(1, 12)])
        for row in tp.mass_outside:
            assert np.all(np.diff(row) <= 1e-15)
            assert np.all(row <= cloud.tv + 1e-15)


class TestLimitLaws:
    def test_commuting_semigroup_law_exact(self, path3, mu0):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, 2.0 * Q1)
        dp, da, _ = limit_semigroup_check(g1, g2, mu0, 0.5, 0.5, 64)
        assert dp < 1e-9 and da < 1e-9

    def test_noncommuting_within_self_convergence(self, path3, mu0):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, Q2)
        dp, da, sc = limit_semigroup_check(g1, g2, mu0, 0.5, 0.5, 1024)
        assert dp <= 5.0 * sc
        assert da <= 5.0 * sc

    def test_time_zero_additive_is_zero(self, path3, mu0):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, Q2)
        dp, da, _ = limit_semigroup_check(g1, g2, mu0, 0.0, 0.0, 4)
        assert da == 0.0


class TestContinuity:
    def test_feller_identical_input_zero(self, path3, mu0):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, Q2)
        rng = np.random.default_rng(7)
        rows = feller_continuity_check(g1, g2, 1.0, mu0, [1e-1, 1e-2, 1e-3], 64, rng)
        dins = [r[0] for r in rows]
        assert dins == sorted(dins)
        assert rows[0][1] < 10.0 * rows[0][0]

    def test_stochastic_translation_closed_form(self):
        s = StateSpace.euclidean(1)
        g = SemigroupSpec.map_flow(s, "translation", {"velocity": [1.0]})
        mu = PositiveMeasure.dirac(s, [0.0])
        for h, d in stochastic_continuity_check(g, mu, [0.1, 0.01, 0.001]):
            assert d == pytest.approx(dirac_distance_exact(h), abs=1e-9)

    def test_stochastic_matrix_linear_in_h(self, path3, mu0):
        g = SemigroupSpec.matrix_exponential(path3, Q1)
        table = stochastic_continuity_check(g, mu0, [1e-3, 1e-4, 1e-5])
        ratios = [d / h for h, d in table]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=1e-2)

    def test_grid_validation(self, path3, mu0):
        g = SemigroupSpec.matrix_exponential(path3, Q1)
        with pytest.raises(ValueError):
            stochastic_continuity_check(g, mu0, [0.1, 0.2])


class TestBatchedSolves:
    def test_each_probe_solves_its_norms_at_once(self, path3, mu0, block_solves):
        g1 = SemigroupSpec.matrix_exponential(path3, Q1)
        g2 = SemigroupSpec.matrix_exponential(path3, Q2)
        sizes = [1e-1, 1e-2, 1e-3]
        rng = np.random.default_rng(5)
        perts = perturb_measures(mu0, sizes, rng)
        rounds = len(block_solves)
        del block_solves[:]
        ops = (at_time(g1, 0.1), at_time(g2, 0.1))
        rows = equicontinuity_modulus(EquicontinuityProbe(mu0, tuple(perts), tuple(sizes), ops))
        limit_semigroup_check(g1, g2, mu0, 0.5, 0.5, 64)
        stochastic_continuity_check(g1, mu0, [1e-1, 1e-2, 1e-3])
        assert len(block_solves) == 3
        worst = [max(bl_distance(apply(P, mu0), apply(P, nu), path3) for P in ops)
                 for nu in perts]
        # rows run from the smallest input distance up, as a running maximum
        assert [d for _, d in rows] == pytest.approx(
            np.maximum.accumulate(worst[::-1]).tolist(), abs=1e-12)
        del block_solves[:]
        feller_continuity_check(g1, g2, 1.0, mu0, sizes, 64, np.random.default_rng(5))
        assert len(block_solves) == rounds + 1  # the searches, then the outputs


class TestPerturbations:
    def test_weight_jitter_hits_target(self, path3, mu0):
        rng = np.random.default_rng(3)
        for target in (0.1, 0.01, 0.001):
            nu = perturb_measure(mu0, target, rng)
            assert bl_distance(mu0, nu, path3) == pytest.approx(target, rel=0.011)

    def test_bisection_verifies_its_path_in_two_solves(self, mu0, block_solves):
        # one solve of amplitudes 1 and 1/2, then one of the predicted path
        rng = np.random.default_rng(0)
        counts = []
        for target in (0.1, 0.01, 1e-3, 1e-4):
            del block_solves[:]
            perturb_measure(mu0, target, rng)
            counts.append(len(block_solves))
        assert counts == [2, 2, 2, 2]

    def test_draws_one_direction_per_call(self, mu0):
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        for target in (0.3, 1e-3):
            perturb_measure(mu0, target, rng)
            twin.uniform(-1.0, 1.0, size=len(mu0.points))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_nonpositive_target_refused_before_any_draw(self, path3, mu0):
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        with pytest.raises(ValueError, match="must be positive"):
            perturb_measures(mu0, [0.1, 0.0], rng)
        with pytest.raises(ValueError, match="must be positive"):
            feller_continuity_check(SemigroupSpec.matrix_exponential(path3, Q1),
                                    SemigroupSpec.matrix_exponential(path3, Q2),
                                    1.0, mu0, [1e-2, -1e-3], 4, rng)
        assert rng.bit_generator.state == twin.bit_generator.state


class _FixedDirections:
    """Stands in for a Generator whose draws are given directions, in order."""

    def __init__(self, directions):
        self.directions = [np.asarray(d, dtype=float) for d in directions]

    def uniform(self, low, high, size):
        return self.directions.pop(0).reshape(size).copy()


def _sequential_perturbation(mu, target_distance, rng):
    """The bracket-and-bisect search with one ``bl_distance`` solve per step."""
    space = mu.space
    direction = rng.uniform(-1.0, 1.0, size=len(mu.points))

    def candidate(amp):
        w = mu.weights * np.clip(1.0 + amp * direction, 0.05, None)
        return PositiveMeasure.from_atoms(space, list(zip(mu.points, w.tolist())))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        if bl_distance(mu, candidate(hi), space) >= target_distance:
            break
        hi *= 2.0
    else:
        raise RuntimeError("could not bracket the requested perturbation distance")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        d = bl_distance(mu, candidate(mid), space)
        if abs(d - target_distance) <= 0.01 * target_distance:
            return candidate(mid)
        if d < target_distance:
            lo = mid
        else:
            hi = mid
    return candidate(0.5 * (lo + hi))


@st.composite
def perturbation_cases(draw, max_targets=1):
    """(mu, targets, directions) on finite and Euclidean spaces, with 1 to
    ``max_targets`` targets and one direction each.  Directions may hold
    entries in [-1, -0.95], which clip at amplitude 1, and targets up to
    10**0.4 need brackets beyond amplitude 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(2, 8))
    if draw(st.booleans()):
        pts = rng.normal(size=(k, 3))
        space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        points = list(range(k))
    else:
        space = StateSpace.euclidean(draw(st.integers(1, 2)))
        points = rng.normal(size=(k, space.dim)).tolist()
    mu = PositiveMeasure.from_atoms(space, list(zip(points, rng.uniform(0.1, 1.0, k).tolist())))
    entry = st.one_of(st.floats(-1.0, 1.0), st.floats(-1.0, -0.95))
    count = draw(st.integers(1, max_targets))
    targets = [10.0 ** draw(st.floats(-4.0, 0.4)) for _ in range(count)]
    directions = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(count)]
    return mu, targets, directions


def _one_by_one(perturb):
    """A perturbation per target, from consecutive one-target calls."""
    return lambda mu, targets, rng: [perturb(mu, target, rng) for target in targets]


def _outcome(perturb_all, mu, targets, directions):
    try:
        nus = perturb_all(mu, targets, _FixedDirections(directions))
    except RuntimeError as exc:
        return str(exc)
    return [([mu.space.point_key(p) for p in nu.points], nu.weights.tobytes()) for nu in nus]


class TestPredictAndVerify:
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=perturbation_cases())
    def test_matches_the_sequential_search_bit_for_bit(self, case, block_solves):
        del block_solves[:]
        expected = _outcome(_one_by_one(_sequential_perturbation), *case)
        steps = len(block_solves)
        del block_solves[:]
        assert _outcome(_one_by_one(perturb_measure), *case) == expected
        assert len(block_solves) <= steps

    def test_clipped_direction_beyond_amplitude_one(self, block_solves):
        # amplitude 1 clips the first factor and only 4 brackets (distances
        # 0.39, 0.49, 0.69 at 1, 2, 4), so linear predictions miss
        s = StateSpace.euclidean(1)
        mu = PositiveMeasure.from_atoms(s, [([0.0], 0.5), ([1.0], 0.3), ([3.0], 0.2)])
        case = (mu, [0.6], [[-0.99, 0.3, 1.0]])
        expected = _outcome(_one_by_one(_sequential_perturbation), *case)
        steps = len(block_solves)
        del block_solves[:]
        assert _outcome(_one_by_one(perturb_measure), *case) == expected
        assert (steps, len(block_solves)) == (8, 4)


def _rounds(monkeypatch, perturb_all, mu, targets, directions):
    """The outcome of ``perturb_all`` and its number of ``bl_distances`` calls."""
    calls = []

    def counting(pairs, metric):
        calls.append(len(pairs))
        return bl_distances(pairs, metric)

    with monkeypatch.context() as m:
        m.setattr(diagnostics, "bl_distances", counting)
        outcome = _outcome(perturb_all, mu, targets, directions)
    return outcome, len(calls)


class TestLockstep:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=perturbation_cases(max_targets=4))
    def test_matches_one_search_per_target_bit_for_bit(self, case, monkeypatch):
        # one round per bl_distances call; each search alone takes as many
        # rounds as inside the lockstep, so the lockstep takes the most
        mu, targets, directions = case
        expected = _outcome(_one_by_one(_sequential_perturbation), *case)
        outcome, rounds = _rounds(monkeypatch, perturb_measures, *case)
        assert outcome == expected
        alone = [_rounds(monkeypatch, _one_by_one(perturb_measure), mu, [t], [d])[1]
                 for t, d in zip(targets, directions)]
        assert rounds == max(alone)

    def test_probe_sizes_solve_as_many_lps_as_the_longest_search(self, mu0, block_solves):
        # consecutive one-target calls draw the lockstep's directions
        sizes = [10.0 ** -e for e in range(1, 5)]
        rng, alone = np.random.default_rng(6), []
        for size in sizes:
            del block_solves[:]
            perturb_measure(mu0, size, rng)
            alone.append(len(block_solves))
        del block_solves[:]
        perturb_measures(mu0, sizes, np.random.default_rng(6))
        assert len(block_solves) == max(alone)


class TestSolvedDistances:
    def test_fallback_midpoint_gets_one_more_solve(self, mu0, monkeypatch):
        # every amplitude overshoots the target by 100 %, so the bisection
        # halves hi 80 times and returns the midpoint 2**-81, which it never
        # solved: 80 rounds (amplitudes 1 and 1/2, then one midpoint each),
        # and one more call for that one perturbation
        calls = []

        def overshooting(pairs, metric):
            calls.append(len(pairs))
            return [1.0] * len(pairs)

        monkeypatch.setattr(diagnostics, "bl_distances", overshooting)
        (alone,) = perturb_measures(mu0, [0.5], _FixedDirections([[1.0] * 3]))
        assert len(calls) == 80
        del calls[:]
        (nu,), (dist,) = perturbations_and_distances(mu0, [0.5], _FixedDirections([[1.0] * 3]))
        assert (len(calls), calls[-1], dist) == (81, 1, 1.0)
        assert nu.weights.tobytes() == alone.weights.tobytes()
