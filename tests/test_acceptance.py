"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance against an independent
reference: closed forms, a brute-force norm oracle, the summed-generator
semigroup, or self-convergence of the iterates.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from trotterkit import operators as ops_module
from trotterkit.bl_metric import (
    bl_distance,
    bl_dual_norm,
    bl_dual_norm_oracle,
    dirac_distance_exact,
)
from trotterkit.cli import build_witnesses, load_scenario, run_identities, run_study
from trotterkit.diagnostics import limit_semigroup_check, stochastic_continuity_check
from trotterkit.identities import run_identity_suite
from trotterkit.measures import PositiveMeasure, SignedMeasure, StateSpace
from trotterkit.operators import MarkovOperatorSpec, SemigroupSpec, apply, at_time
from trotterkit.splitting import (
    ModulusEstimate,
    SplittingStudy,
    commutator_modulus,
    dini_integral,
    dyadic_cauchy_bounds,
    dyadic_sequence,
    exact_reference,
    extended_commutator_constant,
    fit_rate,
    refinement_bound_check,
    sample_scheme_family,
    swap_order_limit_distance,
    trotter_iterate,
)


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _scenario(name):
    return load_scenario(
        str(resources.files("trotterkit").joinpath(f"scenarios/{name}.json")))


def _random_rate_matrix(size, rng):
    q = rng.uniform(0.0, 1.0, size=(size, size))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    return q


@pytest.fixture(scope="module")
def three_state():
    return _scenario("three_state")


@pytest.fixture(scope="module")
def modulus_and_constant(three_state):
    scn = three_state
    grid = [scn.t / 2 ** j for j in range(14)]
    omega = commutator_modulus(scn.g1, scn.g2, scn.mu0, grid)
    rng = np.random.default_rng(42)
    family = sample_scheme_family(scn.g1, scn.g2, scn.t / 32, 5, rng)
    c_hat, flags = extended_commutator_constant(scn.g1, scn.g2, scn.mu0,
                                                omega, family)
    assert flags == []
    return omega, c_hat


def test_criterion_1_dirac_distance_formula():
    start = time.time()
    rng = np.random.default_rng(1)
    space = StateSpace.euclidean(2)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-5.0, 5.0, size=2)
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        y = x + direction * rng.uniform(1e-3, 10.0 / np.sqrt(2))
        d = float(np.linalg.norm(x - y))
        mu = SignedMeasure.from_atoms(space, [(x, 1.0), (y, -1.0)])
        value, _ = bl_dual_norm(mu, space)
        worst = max(worst, abs(value - dirac_distance_exact(d)))
    elapsed = time.time() - start
    _report(1, "dirac distance closed form", worst <= 1e-9 and elapsed < 5.0,
            f"max |lp - closed form| = {worst:.2e} over 100 pairs, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(2, 6))
        pts = rng.normal(size=(size, 3))
        space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
        mu = SignedMeasure.from_atoms(
            space, [(i, float(w)) for i, w in enumerate(rng.normal(size=size))])
        lp, _ = bl_dual_norm(mu, space)
        worst = max(worst, abs(lp - bl_dual_norm_oracle(mu, space)))
    elapsed = time.time() - start
    _report(2, "norm oracle equivalence", worst <= 1e-6 and elapsed < 30.0,
            f"max |lp - oracle| = {worst:.2e} over 50 measures, {elapsed:.1f}s")


def test_criterion_3_exact_identities():
    start = time.time()
    results, failures = run_identity_suite(seed=42, trials=9, max_states=8)
    elapsed = time.time() - start
    worst = max(r.max_deviation for r in results)
    corollary_issues = [f for f in failures
                        if f["identity"].startswith("triple_sum")]
    detail = (f"{len(results)} checks, max deviation {worst:.2e}, "
              f"{len(failures)} failures, {elapsed:.1f}s")
    if corollary_issues:
        detail += f"; corollary discrepancies localized: {corollary_issues}"
    _report(3, "telescoping and swap identities",
            len(results) >= 50 and not failures and worst <= 1e-10
            and elapsed < 60.0, detail)


def test_criterion_4_classical_limit_oracle():
    start = time.time()
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(4, 3))
    space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    ns = [2 ** j for j in range(5, 11)]
    rates = []
    for _ in range(20):
        g1 = SemigroupSpec.matrix_exponential(space, _random_rate_matrix(4, rng))
        g2 = SemigroupSpec.matrix_exponential(space, _random_rate_matrix(4, rng))
        w = rng.uniform(0.1, 1.0, size=4)
        mu0 = PositiveMeasure.from_atoms(space, list(enumerate(w / w.sum())))
        ref = exact_reference(g1, g2, 1.0, mu0)
        ds = [bl_distance(trotter_iterate(g1, g2, 1.0, n, mu0), ref, space)
              for n in ns]
        rate, saturated = fit_rate(ns, ds)
        assert not saturated
        rates.append(rate)
    rate_lo, rate_hi = min(rates), max(rates)
    # commuting factors: the iterate equals the reference for every n
    g1 = SemigroupSpec.matrix_exponential(space, _random_rate_matrix(4, rng))
    g2 = SemigroupSpec.matrix_exponential(space, 2.0 * g1.Q)
    mu0 = PositiveMeasure.from_atoms(space, [(i, 0.25) for i in range(4)])
    ref = exact_reference(g1, g2, 1.0, mu0)
    worst_comm = max(bl_distance(trotter_iterate(g1, g2, 1.0, n, mu0), ref, space)
                     for n in ns)
    elapsed = time.time() - start
    _report(4, "first-order rate to summed generator",
            0.8 <= rate_lo and rate_hi <= 1.2 and worst_comm <= 1e-9
            and elapsed < 60.0,
            f"fitted rates in [{rate_lo:.3f}, {rate_hi:.3f}], "
            f"commuting max distance {worst_comm:.2e}, {elapsed:.1f}s")


def test_criterion_5_refinement_bound(three_state, modulus_and_constant):
    start = time.time()
    scn = three_state
    omega, c_hat = modulus_and_constant
    rng = np.random.default_rng(5)
    witnesses = build_witnesses(scn.space, scn.witness_specs, rng)
    pairs = [(n, k) for n in (1, 2, 4, 8) for k in (2, 3, 4)]
    worst_margin, violations = np.inf, 0
    for f in witnesses:
        for lhs, rhs in refinement_bound_check(scn.g1, scn.g2, scn.mu0,
                                               f, scn.t, pairs, c_hat, omega):
            worst_margin = min(worst_margin, rhs - lhs)
            violations += lhs > rhs
    elapsed = time.time() - start
    _report(5, "refinement bound", violations == 0 and elapsed < 30.0,
            f"C_hat = {c_hat:.3f}, {len(witnesses) * len(pairs)} cases, "
            f"min (rhs - lhs) = {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_6_dyadic_cauchy_domination(three_state, modulus_and_constant):
    start = time.time()
    scn = three_state
    omega, c_hat = modulus_and_constant
    rng = np.random.default_rng(6)
    witnesses = build_witnesses(scn.space, scn.witness_specs, rng)[:5]
    study = SplittingStudy(g1=scn.g1, g2=scn.g2, mu0=scn.mu0, t=scn.t,
                           schedule=tuple(2 ** j for j in range(11)))
    worst_margin, violations, cases = np.inf, 0, 0
    for f in witnesses:
        rs = dyadic_sequence(study, f)
        for _, _, lhs, rhs in dyadic_cauchy_bounds(rs, scn.t, c_hat, omega):
            worst_margin = min(worst_margin, rhs - lhs)
            violations += lhs > rhs
            cases += 1
    elapsed = time.time() - start
    _report(6, "dyadic cauchy domination",
            len(witnesses) == 5 and violations == 0 and elapsed < 30.0,
            f"{cases} pairs over 5 witnesses, min (rhs - lhs) = {worst_margin:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_7_dini_machinery():
    start = time.time()
    t, a = 1.0, 0.5
    grid = np.array([t / 2 ** j for j in range(24)])
    synthetic = ModulusEstimate(t_grid=grid, values=grid.copy(),
                                monotone_envelope=grid.copy(),
                                dini_integral=float(grid[0] - grid[-1]))
    _, tail, depth = dini_integral(synthetic, a, t)
    analytic = sum(a ** n * t for n in range(1, depth + 1))
    synth_err = abs(tail - analytic)

    scn = _scenario("linear_flow")
    grid = [scn.t / 2 ** j for j in range(14)]
    omega = commutator_modulus(scn.g1, scn.g2, scn.mu0, grid)
    integral, tail_m, _ = dini_integral(omega, a, scn.t)
    dominated = tail_m <= integral / (1.0 - a) + 1e-12
    elapsed = time.time() - start
    _report(7, "dini tail machinery", synth_err <= 1e-9 and dominated
            and elapsed < 5.0,
            f"synthetic tail error {synth_err:.2e}; measured tail {tail_m:.3e} "
            f"vs integral/(1-a) {integral / (1 - a):.3e}, {elapsed:.1f}s")


def test_criterion_8_order_symmetry(three_state):
    start = time.time()
    scn = three_state
    n = 2 ** 10
    study = SplittingStudy(g1=scn.g1, g2=scn.g2, mu0=scn.mu0, t=scn.t,
                           schedule=(n,))
    swap = swap_order_limit_distance(study)
    self_conv = bl_distance(
        trotter_iterate(scn.g1, scn.g2, scn.t, n, scn.mu0),
        trotter_iterate(scn.g1, scn.g2, scn.t, n // 2, scn.mu0),
        scn.space)
    comm = _scenario("commuting")
    study_c = SplittingStudy(g1=comm.g1, g2=comm.g2, mu0=comm.mu0,
                             t=comm.t, schedule=(n,))
    swap_c = swap_order_limit_distance(study_c)
    elapsed = time.time() - start
    _report(8, "factor order symmetry",
            swap <= 10.0 * self_conv and swap_c <= 1e-9 and elapsed < 30.0,
            f"swap distance {swap:.2e} vs 10x self-convergence "
            f"{10 * self_conv:.2e}; commuting {swap_c:.2e}, {elapsed:.1f}s")


def test_criterion_9_limit_semigroup_law(three_state):
    start = time.time()
    scn = three_state
    dp, da, sc = limit_semigroup_check(scn.g1, scn.g2, scn.mu0,
                                       scn.t / 2, scn.t / 2, 2 ** 10)
    comm = _scenario("commuting")
    dp_c, da_c, _ = limit_semigroup_check(comm.g1, comm.g2, comm.mu0,
                                          comm.t / 2, comm.t / 2, 2 ** 10)
    elapsed = time.time() - start
    _report(9, "limit semigroup law",
            dp <= 5.0 * sc and da <= 5.0 * sc and dp_c <= 1e-9 and da_c <= 1e-9
            and elapsed < 30.0,
            f"power {dp:.2e}, additive {da:.2e} vs 5x self-convergence "
            f"{5 * sc:.2e}; commuting ({dp_c:.2e}, {da_c:.2e}), {elapsed:.1f}s")


def test_criterion_10_markov_axioms():
    start = time.time()
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(5, 3))
    space = StateSpace.finite(np.linalg.norm(pts[:, None] - pts[None, :], axis=-1))
    plane = StateSpace.euclidean(2)

    def fresh_pair():
        return (SemigroupSpec.matrix_exponential(space, _random_rate_matrix(5, rng)),
                SemigroupSpec.matrix_exponential(space, _random_rate_matrix(5, rng)))

    def halves(p):
        return PositiveMeasure.from_atoms(space, [(p, 0.5), ((p + 1) % 5, 0.5)])

    g1, g2 = fresh_pair()
    w = rng.uniform(0.1, 1.0, size=5)
    mu = PositiveMeasure.from_atoms(space, list(enumerate(w / w.sum())))
    cloud = PositiveMeasure.from_atoms(
        plane, [(rng.normal(size=2), float(x)) for x in rng.uniform(0.1, 1.0, size=4)])
    cases = [(at_time(g1, 0.4), mu), (at_time(g2, 2.5), mu),
             (MarkovOperatorSpec(kind="kernel", space=space, kernel=halves), mu),
             (at_time(SemigroupSpec.map_flow(plane, "rotation", {"rate": 0.7}), 1.3), cloud),
             (at_time(SemigroupSpec.linear_flow_lift(plane, [[-0.2, 1.0], [-1.0, -0.2]]),
                      0.9), cloud)]
    count_before = ops_module.APPLY_COUNT
    outputs = [(nu, apply(P, nu)) for P, nu in cases]
    applied = ops_module.APPLY_COUNT - count_before
    outputs += [(mu, trotter_iterate(g1, g2, 1.0, n, mu, order))
                for n in (1, 64, 1024) for order in ("g1_first", "g2_first")]
    dense_counted = ops_module.APPLY_COUNT - count_before - applied
    drift = max(abs(out.tv - nu.tv) for nu, out in outputs)
    min_weight = min(float(out.weights.min()) for _, out in outputs)

    # corrupt a stochastic matrix after construction, past its checks; the
    # dense loop gets the same operator from the at_time memo
    refused = 0
    for make_bad, error in ((lambda m: 1.1 * m, RuntimeError),
                            (lambda m: m + np.outer([1, -1, 0, 0, 0], m[1] + 0.1), ValueError)):
        h1, h2 = fresh_pair()
        bad = at_time(h1, 0.5)
        object.__setattr__(bad, "matrix", make_bad(bad.matrix))
        for attempt in (lambda: apply(bad, mu),
                        lambda: trotter_iterate(h1, h2, 1.0, 2, mu)):
            with pytest.raises(error):
                attempt()
            refused += 1
    elapsed = time.time() - start
    _report(10, "tv preservation and positivity",
            drift <= 1e-12 and min_weight >= 0.0 and applied == len(cases)
            and dense_counted == 0 and refused == 4 and elapsed < 30.0,
            f"{len(outputs)} applications (matrix, kernel, map, lift, dense scheme): "
            f"max TV drift {drift:.2e}, min output weight {min_weight:.2e}; "
            f"{refused}/4 corrupted-matrix runs refused, {elapsed:.1f}s")


def test_criterion_11_stochastic_continuity_table():
    start = time.time()
    space = StateSpace.euclidean(1)
    g = SemigroupSpec.map_flow(space, "translation", {"velocity": [1.0]})
    mu = PositiveMeasure.dirac(space, [0.0])
    h_grid = [10.0 ** -e for e in range(1, 7)]
    worst = max(abs(d - dirac_distance_exact(h))
                for h, d in stochastic_continuity_check(g, mu, h_grid))
    elapsed = time.time() - start
    _report(11, "translation continuity closed form",
            worst <= 1e-9 and elapsed < 5.0,
            f"max error {worst:.2e} over h = 1e-1..1e-6, {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    scenario = str(resources.files("trotterkit").joinpath("scenarios/three_state.json"))
    codes = [run_study(scenario, tmp_path / sub, seed=42) for sub in ("a", "b")]
    mismatched = [f for f in ("report.csv", "summary.json", "modulus.csv", "bounds.csv")
                  if (tmp_path / "a" / f).read_bytes() != (tmp_path / "b" / f).read_bytes()]
    run_identities(42, 2, 4, tmp_path / "ids_a.json")
    run_identities(42, 2, 4, tmp_path / "ids_b.json")
    same_ids = (tmp_path / "ids_a.json").read_bytes() == (tmp_path / "ids_b.json").read_bytes()
    _report(12, "byte-identical reruns",
            codes == [0, 0] and not mismatched and same_ids,
            f"study files identical ({'none' if not mismatched else mismatched} "
            f"differ), identity reports identical: {same_ids}")
