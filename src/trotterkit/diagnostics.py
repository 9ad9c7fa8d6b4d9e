"""Finite-sample evidence tables for the structural hypotheses behind the scheme.

Probes sample operators and perturbed measures and record distances; except
where an exact closed form is testable (identity family, two-atom Dirac
distance) the outputs are evidence tables, not pass/fail certificates of the
underlying universally quantified assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bl_metric import bl_distances
from .measures import PositiveMeasure
from .operators import SemigroupSpec, apply, at_time
from .splitting import trotter_iterate


@dataclass(frozen=True)
class EquicontinuityProbe:
    """Center measure, perturbations with input distances, operator family."""

    center: PositiveMeasure
    perturbations: tuple
    input_distances: tuple
    family: tuple

    def __post_init__(self):
        if not self.perturbations or not self.family:
            raise ValueError("probe needs at least one perturbation and one operator")
        if any(d <= 0.0 for d in self.input_distances):
            raise ValueError("input distances must be positive")


@dataclass(frozen=True)
class TightnessProbe:
    radius_grid: tuple
    labels: tuple
    mass_outside: np.ndarray  # rows: (operator, measure) results; cols: radii


def equicontinuity_modulus(probe: EquicontinuityProbe):
    """Worst output distance per input distance, monotone-rebinned.

    Returns a list of (input_distance, worst_output_distance) sorted by input
    distance, with the output column replaced by its running maximum so the
    table is a valid modulus candidate.
    """
    outs = [apply(P, probe.center) for P in probe.family]
    m = len(outs)
    inputs = list(zip(probe.perturbations, probe.input_distances))
    dists = bl_distances([(out, apply(P, nu)) for nu, _ in inputs
                          for P, out in zip(probe.family, outs)], probe.center.space)
    rows = [(float(din), max([0.0] + dists[i * m:(i + 1) * m]))
            for i, (_, din) in enumerate(inputs)]
    rows.sort(key=lambda r: r[0])
    out, running = [], 0.0
    for din, dout in rows:
        running = max(running, dout)
        out.append((din, running))
    return out


def _centroid(mu: PositiveMeasure) -> np.ndarray:
    pts = np.asarray([np.asarray(p, dtype=float) for p in mu.points])
    return np.average(pts, axis=0, weights=mu.weights)


def tightness_probe(family, mu: PositiveMeasure, radius_grid) -> TightnessProbe:
    """Mass of each P mu outside centroid-centered balls of the given radii.

    Finite state spaces are compact, so the table is identically zero there.
    """
    radius_grid = tuple(float(r) for r in radius_grid)
    labels = tuple(f"operator_{i}" for i in range(len(family)))
    if mu.space.kind == "finite":
        return TightnessProbe(radius_grid, labels,
                              np.zeros((len(family), len(radius_grid))))
    table = np.zeros((len(family), len(radius_grid)))
    for i, P in enumerate(family):
        out = apply(P, mu)
        center = _centroid(out)
        pts = np.asarray([np.asarray(p, dtype=float) for p in out.points])
        with np.errstate(over="ignore"):  # an infinite distance is outside every radius
            dists = np.linalg.norm(pts - center, axis=1)
        for j, r in enumerate(radius_grid):
            table[i, j] = float(np.sum(out.weights[dists > r]))
    return TightnessProbe(radius_grid, labels, table)


def limit_semigroup_check(g1, g2, mu, t, s, n_finest, order="g1_first"):
    """Power and additive semigroup laws of the finest-iterate limit estimate.

    distPower compares the estimate at 2t with the twice-applied estimate at
    t; distAdditive compares the estimate at t+s with the composition of the
    estimates at t and s.  Returns (dist_power, dist_additive,
    self_convergence), the last being the distance between the two finest
    iterates at t, for judging whether n_finest was large enough.
    """
    def estimate(time, measure):
        if time == 0.0:
            return measure
        return trotter_iterate(g1, g2, time, n_finest, measure, order)

    self_conv, dist_power, dist_additive = bl_distances([
        (estimate(t, mu) if t > 0 else mu,
         trotter_iterate(g1, g2, t, max(n_finest // 2, 1), mu, order) if t > 0 else mu),
        (estimate(2.0 * t, mu), estimate(t, estimate(t, mu))),
        (estimate(t + s, mu), estimate(t, estimate(s, mu))),
    ], mu.space)
    return dist_power, dist_additive, self_conv


def feller_continuity_check(g1, g2, t, mu, perturb_sizes, n_finest, rng,
                            order="g1_first"):
    """Output distance of the limit estimate under input perturbations.

    Returns a list of (input_distance, output_distance) rows, one per
    requested perturbation size, sorted by input distance; the input
    distances are the perturbation search's own.
    """
    perts, dins = perturbations_and_distances(mu, perturb_sizes, rng)
    base = trotter_iterate(g1, g2, t, n_finest, mu, order) if t > 0 else mu
    outs = [trotter_iterate(g1, g2, t, n_finest, nu, order) if t > 0 else nu for nu in perts]
    rows = list(zip(dins, bl_distances([(base, out) for out in outs], mu.space)))
    rows.sort(key=lambda r: r[0])
    return rows


def stochastic_continuity_check(g: SemigroupSpec, mu: PositiveMeasure, h_grid):
    """Table of h -> distance between P_h mu and mu over a decreasing grid."""
    h_grid = [float(h) for h in h_grid]
    if any(h <= 0.0 for h in h_grid) or any(
            h_grid[i] <= h_grid[i + 1] for i in range(len(h_grid) - 1)):
        raise ValueError("h grid must be positive and strictly decreasing")
    return list(zip(h_grid, bl_distances([(apply(at_time(g, h), mu), mu) for h in h_grid],
                                         mu.space)))


def perturb_measure(mu: PositiveMeasure, target_distance: float, rng) -> PositiveMeasure:
    """Perturbation at a requested BL distance from ``mu``: the one-target
    form of ``perturb_measures``."""
    return perturb_measures(mu, [target_distance], rng)[0]


def perturb_measures(mu: PositiveMeasure, targets, rng) -> list[PositiveMeasure]:
    """Perturbations at requested BL distances from ``mu``, one per target:
    the lockstep searches of ``_searches``, without their distances."""
    return _searches(mu, targets, rng)[0]


def perturbations_and_distances(mu: PositiveMeasure, targets, rng):
    """``perturb_measures`` and the distance from ``mu`` that each search
    solved.  A search that ends on its fallback midpoint (80 bisection
    steps never within 1 %) solved none; those get one more call."""
    perts, dists = _searches(mu, targets, rng)
    fallback = [i for i, d in enumerate(dists) if d is None]
    for i, d in zip(fallback, bl_distances([(mu, perts[i]) for i in fallback], mu.space)):
        dists[i] = d  # an empty call solves nothing
    return perts, dists


def _searches(mu: PositiveMeasure, targets, rng):
    """Perturbations at requested BL distances from ``mu``, one per target,
    and the distance the search solved for each (None if it solved none).

    Each atom weight is rescaled by a random positive factor ``1 + amp *
    direction``, clipped below at 0.05, on any space.  The amplitude comes
    from the bracket-and-bisect search of ``_amplitude_search``, so each
    sample sits within 1% of its target.  ValueError for a nonpositive
    target, before any draw; RuntimeError if a search cannot bracket its
    target.

    Every target draws its direction first, in target order, as one call
    per target would.  The searches then run in lockstep: each round solves
    every unsolved amplitude of every open search in one ``bl_distances``
    call, and replays each search on its own solved distances.

    Each search runs predict-and-verify.  ``candidate(amp) - mu`` is ``amp``
    times one fixed signed measure while no factor is clipped (every ``amp
    < 0.95``, as ``|direction| <= 1``), so by homogeneity of the norm one
    solved distance predicts the whole path.  The first round solves
    amplitudes 1 and 1/2 (the first midpoint when 1 brackets).  Each later
    round replays the search on the solved distances and predicts each
    unsolved amplitude linearly from the last solved one on the path; those
    are the search's amplitudes to solve next.  A replay that meets no
    unsolved amplitude has taken every decision on a solved distance, so
    the result is the sequential search's.  A wrong prediction (clipping)
    costs one more round, and every round solves at least one more step of
    the true path, so there are never more rounds than the sequential
    search has steps.  When 1 brackets and the prediction holds, there are
    at most two.  A search's rounds do not depend on the other searches,
    so the lockstep takes as many rounds as the target that needs the most
    alone.
    """
    targets = list(targets)
    if any(t <= 0.0 for t in targets):
        raise ValueError("target distance must be positive")
    space = mu.space
    directions = [rng.uniform(-1.0, 1.0, size=len(mu.points)) for _ in targets]

    def candidate(direction, amp):
        w = mu.weights * np.clip(1.0 + amp * direction, 0.05, None)
        return PositiveMeasure.from_atoms(space, list(zip(mu.points, w.tolist())))

    solved = [{} for _ in targets]
    unsolved = [[1.0, 0.5] for _ in targets]
    amps = [None] * len(targets)
    while any(unsolved):
        todo = [(i, a) for i, pending in enumerate(unsolved) for a in pending]
        dists = bl_distances([(mu, candidate(directions[i], a)) for i, a in todo], space)
        for (i, a), d in zip(todo, dists):
            solved[i][a] = d
        for i, target in enumerate(targets):
            if unsolved[i]:
                amps[i], unsolved[i] = _replay(solved[i], target)
    if None in amps:
        raise RuntimeError("could not bracket the requested perturbation distance")
    return ([candidate(d, a) for d, a in zip(directions, amps)],
            [known.get(a) for known, a in zip(solved, amps)])


def _replay(solved, target):
    """``_amplitude_search`` on the ``solved`` distances, each unsolved one
    predicted linearly from the last solved amplitude on the path.  Returns
    the amplitude found and the predicted amplitudes, in path order."""
    predicted, last = {}, 1.0

    def distance(amp):
        nonlocal last
        if amp in solved:
            last = amp
            return solved[amp]
        return predicted.setdefault(amp, solved[last] * amp / last)

    amp = _amplitude_search(distance, target)
    return amp, list(predicted)


def _amplitude_search(distance, target):
    """Amplitude whose ``distance`` is within 1% of ``target``, or None.

    Doubles ``hi`` from 1 until ``distance(hi) >= target`` (None if 60
    doublings do not get there), then bisects ``[0, hi]`` for at most 80
    steps and returns the first midpoint within 1%, else the last midpoint.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if distance(hi) >= target:
            break
        hi *= 2.0
    else:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        d = distance(mid)
        if abs(d - target) <= 0.01 * target:
            return mid
        if d < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

