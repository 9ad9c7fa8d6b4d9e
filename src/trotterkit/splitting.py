"""The Lie-Trotter switching scheme and its convergence machinery.

One block of the scheme at step size h applies the second factor first,
then the first: [P1 P2] mu = P1(P2 mu).  The order argument "g2_first"
swaps the roles.  Quantitative checks measure the commutator modulus, the
extended constant, the refinement bound, dyadic Cauchy domination, and the
log-integrability of the modulus.  Each function that solves norms is a
pair builder, one ``bl_distances`` call and a judge, so that a study can
solve the builders' pairs in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bl_metric import FunctionWitness, LipschitzWitness, bl_distance, bl_distances
from .measures import PositiveMeasure
from .operators import (
    SemigroupSpec,
    _apply_chain,
    apply,
    at_time,
    check_input,
    compose,
    pairing,
)


@dataclass(frozen=True)
class SplittingStudy:
    g1: SemigroupSpec
    g2: SemigroupSpec
    mu0: PositiveMeasure
    t: float
    schedule: tuple
    order: str = "g1_first"
    metric: object = None  # StateSpace or EnvelopeMetric; defaults to mu0's space

    def __post_init__(self):
        if self.t < 0.0:
            raise ValueError("time horizon must be nonnegative")
        sched = tuple(int(n) for n in self.schedule)
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly increasing")
        object.__setattr__(self, "schedule", sched)
        if self.metric is None:
            object.__setattr__(self, "metric", self.mu0.space)


@dataclass(frozen=True)
class ModulusEstimate:
    """Measured commutator modulus on a decreasing time grid."""

    t_grid: np.ndarray
    values: np.ndarray
    monotone_envelope: np.ndarray
    dini_integral: float

    def envelope_at(self, t: float) -> float:
        """Envelope value at t, by conservative lookup on the grid.

        Uses the envelope at the smallest grid point >= t (the envelope is
        nondecreasing, so this upper-bounds the interpolated value).
        """
        grid = self.t_grid  # decreasing
        if t > grid[0] + 1e-15:
            raise ValueError(f"t={t} above modulus grid range [{grid[-1]}, {grid[0]}]")
        candidates = [v for s, v in zip(grid, self.monotone_envelope) if s >= t - 1e-15]
        if not candidates:
            raise ValueError(f"t={t} below modulus grid range [{grid[-1]}, {grid[0]}]")
        return float(candidates[-1])


@dataclass
class ConvergenceReport:
    schedule: tuple
    distances: list
    fitted_rate: float | None
    rate_saturated: bool
    reference_kind: str


def _block(g1, g2, h, order):
    """Operators of one scheme block, in application order (first applied first)."""
    p1 = at_time(g1, h)
    p2 = at_time(g2, h)
    if order == "g1_first":
        return (p2, p1)  # [P1 P2] mu = P1(P2 mu)
    if order == "g2_first":
        return (p1, p2)
    raise ValueError(f"unknown order {order!r}")


def trotter_iterate(g1: SemigroupSpec, g2: SemigroupSpec, t: float, n: int,
                    mu: PositiveMeasure, order: str = "g1_first") -> PositiveMeasure:
    """[P1_{t/n} P2_{t/n}]^n mu (or the swapped composition).

    The n blocks run through the operators' chain runner: as one stack of
    dense weight vectors when both factors are stochastic matrices, and of
    point arrays when both are deterministic maps on R^dim, with one product
    per step and one deferred test of every step's checks; the first step
    that fails the test is redone as a single ``apply`` step.  Either way the
    steps keep the checks and results of ``apply`` and are not counted in
    APPLY_COUNT; a mixed pair runs one ``apply`` per factor.

    The result is memoized on ``g1`` per (g2, t, n, order, mu's point and
    weight bytes) and shared by every caller; that holds for every
    semigroup kind, because matrix exponentials and flows are deterministic
    in (t, x).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    first, second = _block(g1, g2, t / n, order)
    check_input(first, mu)  # a memo hit must still refuse a foreign space
    key = (id(g2), float(t), int(n), order, np.asarray(mu.points, dtype=float).tobytes(),
           np.asarray(mu.weights, dtype=float).tobytes())
    hit = g1._iterates.get(key)
    if hit is None:
        out = _apply_chain((first, second) * n, mu)
        out.weights.setflags(write=False)  # shared by every caller
        # holding g2 keeps its id from being reused while the entry lives
        hit = g1._iterates[key] = (g2, out)
    return hit[1]


def exact_reference(g1: SemigroupSpec, g2: SemigroupSpec, t: float,
                    mu: PositiveMeasure) -> PositiveMeasure | None:
    """Closed-form limit e^{t(Q1+Q2)} mu when both factors admit one."""
    if g1.kind == "matrix_exponential" and g2.kind == "matrix_exponential":
        g_sum = SemigroupSpec.matrix_exponential(g1.space, g1.Q + g2.Q)
        return apply(at_time(g_sum, t), mu)
    if g1.kind == "linear_flow_lift" and g2.kind == "linear_flow_lift":
        g_sum = SemigroupSpec.linear_flow_lift(g1.space, g1.A + g2.A)
        return apply(at_time(g_sum, t), mu)
    return None


RATE_SATURATION_FLOOR = 1e-9


def fit_rate(ns, distances):
    """Least-squares slope of log(distance) vs log(n) on the last half.

    Returns (rate, saturated): saturated means the distances sit at noise
    floor and no rate is fitted.
    """
    ns = np.asarray(ns, dtype=float)
    distances = np.asarray(distances, dtype=float)
    half = len(ns) - math.ceil(len(ns) / 2)
    ns, distances = ns[half:], distances[half:]
    if np.all(distances <= RATE_SATURATION_FLOOR):
        return None, True
    keep = distances > 0.0
    if keep.sum() < 2:
        return None, True
    slope, _ = np.polyfit(np.log(ns[keep]), np.log(distances[keep]), 1)
    return float(-slope), False


def estimate_limit(study: SplittingStudy) -> tuple[PositiveMeasure, ConvergenceReport]:
    """Run the schedule, measure distances to the best available reference."""
    finest, ref_kind, pairs = _limit_pairs(study)
    return finest, _limit_report(study, ref_kind, bl_distances(pairs, study.metric))


def _limit_pairs(study: SplittingStudy):
    """(finest iterate, reference kind, (iterate, reference) per schedule entry)."""
    if len(study.schedule) < 3:
        raise ValueError("schedule needs at least 3 entries")
    iterates = {n: trotter_iterate(study.g1, study.g2, study.t, n, study.mu0, study.order)
                for n in study.schedule}
    finest = iterates[study.schedule[-1]]
    reference = exact_reference(study.g1, study.g2, study.t, study.mu0)
    if reference is not None:
        ref_kind = "exact"
    else:
        reference, ref_kind = finest, "finest_iterate"
    return finest, ref_kind, [(iterates[n], reference) for n in study.schedule]


def _limit_report(study: SplittingStudy, ref_kind, distances) -> ConvergenceReport:
    """The convergence report of the schedule's solved distances."""
    if ref_kind == "finest_iterate":
        ns, ds = study.schedule[:-1], distances[:-1]
    else:
        ns, ds = study.schedule, distances
    rate, saturated = fit_rate(ns, ds)
    return ConvergenceReport(schedule=study.schedule, distances=distances,
                             fitted_rate=rate, rate_saturated=saturated,
                             reference_kind=ref_kind)


def _modulus_grid(t_grid) -> np.ndarray:
    grid = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("modulus grid times must be positive")
    return grid


def _commutator_pairs(g1, g2, mu0, grid) -> list:
    """(P1_t P2_t mu0, P2_t P1_t mu0) for each t of the grid."""
    return [(apply(at_time(g1, t), apply(at_time(g2, t), mu0)),
             apply(at_time(g2, t), apply(at_time(g1, t), mu0))) for t in grid]


def commutator_modulus(g1: SemigroupSpec, g2: SemigroupSpec, mu0: PositiveMeasure,
                       t_grid, metric=None) -> ModulusEstimate:
    """Measured omega(t) = ||P1_t P2_t mu0 - P2_t P1_t mu0||* / t on a grid."""
    metric = metric if metric is not None else mu0.space
    grid = _modulus_grid(t_grid)
    return _modulus(grid, bl_distances(_commutator_pairs(g1, g2, mu0, grid), metric))


def _modulus(grid, distances) -> ModulusEstimate:
    """The modulus estimate of the commutator distances on a decreasing grid."""
    values = np.asarray(distances) / grid
    # running maximum from small t upward; grid is stored decreasing
    envelope = np.maximum.accumulate(values[::-1])[::-1]
    dini = _log_trapezoid(grid[::-1], values[::-1])
    return ModulusEstimate(t_grid=grid, values=values,
                           monotone_envelope=envelope, dini_integral=dini)


def _log_trapezoid(ts, vals):
    """Trapezoid quadrature of vals(s)/s over an increasing grid."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    integrand = vals / ts
    return float(np.trapezoid(integrand, ts))


def extended_commutator_constant(g1, g2, mu0, omega: ModulusEstimate, family_sample,
                                 metric=None, zero_tol=1e-12):
    """Max over sampled operators P and grid t of omega(t, P mu0) / omega(t, mu0).

    ``omega`` is ``commutator_modulus`` of ``mu0`` on the grid; only the
    pushed moduli omega(., P mu0) are solved here, on its grid, in one call.
    0/0 ratios count as 1.  A ratio with zero denominator but nonzero
    numerator is flagged, not an error.  Returns (C_hat, flags).
    """
    metric = metric if metric is not None else mu0.space
    pairs = _pushed_pairs(g1, g2, mu0, omega.t_grid, family_sample)
    return _pushed_constant(omega, bl_distances(pairs, metric), zero_tol)


def _pushed_pairs(g1, g2, mu0, grid, family_sample) -> list:
    """``_commutator_pairs`` of P mu0 on the grid, for each P of the sample in turn."""
    return [pair for P in family_sample
            for pair in _commutator_pairs(g1, g2, apply(P, mu0), grid)]


def _pushed_constant(omega: ModulusEstimate, distances, zero_tol=1e-12):
    """(C_hat, flags) of the solved distances of ``_pushed_pairs``."""
    grid = omega.t_grid
    pushed = np.reshape(distances, (-1, len(grid))) / grid
    c_hat = 1.0
    flags = []
    for idx, values in enumerate(pushed):
        for t, num, den in zip(grid, values, omega.values):
            if den <= zero_tol:
                if num > zero_tol:
                    flags.append({"operator": idx, "t": float(t),
                                  "numerator": float(num), "denominator": float(den)})
                continue
            c_hat = max(c_hat, num / den)
    return float(c_hat), flags


def sample_scheme_family(g1, g2, delta, count, rng, order="g1_first"):
    """Sampled operators from P2(delta) . F(delta) . P1(delta), as compositions."""
    ops = []
    for _ in range(count):
        s = float(rng.uniform(0.0, delta))
        s2 = float(rng.uniform(0.0, delta))
        t = float(rng.uniform(0.0, delta))
        n = int(rng.integers(1, 9))
        first, second = _block(g1, g2, t / n, order)
        ops.append(compose(at_time(g2, s2), *(second, first) * n, at_time(g1, s)))
    return ops


def refinement_bound_check(g1, g2, mu0, f: LipschitzWitness | FunctionWitness, t, pairs,
                           C: float, omega: ModulusEstimate,
                           order="g1_first"):
    """Per (n, k): lhs = |<iter(n) - iter(nk), f>|, rhs = C (k-1)/2 t omega(t/nk)."""
    out = []
    for n, k in pairs:
        coarse = trotter_iterate(g1, g2, t, n, mu0, order)
        fine = trotter_iterate(g1, g2, t, n * k, mu0, order)
        lhs = abs(pairing(coarse, f) - pairing(fine, f))
        rhs = C * (k - 1) / 2.0 * t * omega.envelope_at(t / (n * k))
        out.append((float(lhs), float(rhs)))
    return out


def dyadic_sequence(study: SplittingStudy, f: LipschitzWitness | FunctionWitness):
    """r_k = <[P1 P2]^{2^k} mu0, f> along a dyadic schedule."""
    for n in study.schedule:
        if n & (n - 1):
            raise ValueError("dyadic_sequence needs a schedule of powers of two")
    return [pairing(trotter_iterate(study.g1, study.g2, study.t, n, study.mu0, study.order), f)
            for n in study.schedule]


def dyadic_cauchy_bounds(rs, t, C: float, omega: ModulusEstimate):
    """Bound |r_i - r_j| by C (t/2) sum_{l=j}^{i-1} omega_env(t / 2^{l+1}).

    Returns list of (i, j, lhs, rhs) over all pairs i > j.
    """
    env = [omega.envelope_at(t / 2 ** (l + 1)) for l in range(len(rs) - 1)]
    out = []
    for i in range(1, len(rs)):
        for j in range(i):
            lhs = abs(rs[i] - rs[j])
            rhs = C * (t / 2.0) * sum(env[j:i])
            out.append((i, j, float(lhs), float(rhs)))
    return out


def swap_order_limit_distance(study: SplittingStudy) -> float:
    """BL distance between the finest iterates of the two factor orders."""
    return bl_distance(*_swap_pair(study), study.metric)


def _swap_pair(study: SplittingStudy) -> tuple:
    """The finest iterates of the g1_first and g2_first orders."""
    if not study.schedule:
        raise ValueError("schedule must be nonempty")
    n = study.schedule[-1]
    return tuple(trotter_iterate(study.g1, study.g2, study.t, n, study.mu0, order)
                 for order in ("g1_first", "g2_first"))


def dini_integral(omega: ModulusEstimate, a: float, t: float, depth: int | None = None):
    """Quadrature of omega(s)/s plus the geometric tail sum at ratio a.

    Returns (integral, tail_sum, depth).  The tail is sum_{n=1}^{depth}
    omega_env(a^n t), truncated where the grid ends.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    t_min = float(omega.t_grid[-1])
    if depth is None:
        depth = max(1, int(math.floor(math.log(t_min / t) / math.log(a))))
    terms = []
    for n in range(1, depth + 1):
        s = a ** n * t
        if s < t_min - 1e-15:
            break
        terms.append(omega.envelope_at(s))
    tail = float(sum(terms))
    # integral over the covered range [a^depth t, t]
    grid = omega.t_grid[::-1]
    env = omega.monotone_envelope[::-1]
    lo = a ** len(terms) * t
    keep = (grid >= lo - 1e-15) & (grid <= t + 1e-15)
    integral = _log_trapezoid(grid[keep], env[keep]) if keep.sum() >= 2 else 0.0
    return float(integral), tail, len(terms)
