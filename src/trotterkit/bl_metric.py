"""Exact dual bounded-Lipschitz norm on finitely supported signed measures.

The norm is the supremum of the pairing against functions f with
``sup|f| + Lip(f) <= 1``.  On a finite support the supremum is a linear
program over the function values, the sup bound M and the Lipschitz bound L;
restriction to the support is lossless because any feasible assignment
extends to the whole space by the McShane construction without increasing
``M + L``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .measures import PositiveMeasure, SignedMeasure, StateSpace

LP_FEAS_TOL = 1e-9
ORACLE_MAX_SUPPORT = 6


class OracleSupportError(ValueError):
    """Raised when the brute-force oracle is asked for too large a support."""


@dataclass(frozen=True)
class LipschitzWitness:
    """Function values on a finite point set with certified sup/Lipschitz bounds."""

    points: tuple
    values: np.ndarray
    sup_bound: float
    lip_bound: float

    def value_at(self, space, p):
        """Value at p; off the stored points, the McShane extension.

        The extension min_q(f(q) + L d(p, q)), clipped to the sup bound, is
        the canonical one that preserves both certified bounds, so
        evaluating a witness anywhere on the space stays feasible.
        """
        key = space.point_key(p)
        for q, v in zip(self.points, self.values):
            if space.point_key(q) == key:
                return float(v)
        if not self.points:
            raise KeyError(f"empty witness has no value at point {p!r}")
        ext = min(float(v) + self.lip_bound * space.distance(p, q)
                  for q, v in zip(self.points, self.values))
        return float(np.clip(ext, -self.sup_bound, self.sup_bound))

    def pair(self, mu: SignedMeasure) -> float:
        """Integral of the witness against a signed measure on its points."""
        pts, wts = mu.support()
        return float(sum(w * self.value_at(mu.space, p) for p, w in zip(pts, wts)))

    def check_feasible(self, space: StateSpace, slack: float = LP_FEAS_TOL) -> bool:
        v = np.asarray(self.values, dtype=float)
        if np.any(np.abs(v) > self.sup_bound + slack):
            return False
        for (i, p), (j, q) in combinations(enumerate(self.points), 2):
            d = space.distance(p, q)
            if abs(v[i] - v[j]) > self.lip_bound * d + slack:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "points": [list(p) if isinstance(p, tuple) else p for p in self.points],
            "values": np.asarray(self.values, dtype=float).tolist(),
            "supBound": self.sup_bound,
            "lipBound": self.lip_bound,
        }


@dataclass(frozen=True)
class FunctionWitness:
    """Witness given by a closed-form function, for continuous state spaces.

    Unlike LipschitzWitness it can be paired against measures supported
    anywhere; the sup/Lipschitz bounds are supplied by the constructor, not
    re-certified.
    """

    fn: object
    sup_bound: float
    lip_bound: float
    label: str = ""

    def value_at(self, space, p):
        return float(self.fn(np.asarray(p, dtype=float)))

    def pair(self, mu) -> float:
        pts, wts = mu.support()
        return float(sum(w * self.value_at(mu.space, p) for p, w in zip(pts, wts)))


@dataclass(frozen=True)
class EnvelopeMetric:
    """Base metric maximized against a finite family of witness functions.

    Evaluates ``max(d(x, y), max_g |g(x) - g(y)|)`` lazily per pair; a finite
    truncation of the operator-generated function family.
    """

    base: StateSpace
    family: tuple = ()

    @property
    def kind(self):
        return self.base.kind

    @property
    def space(self) -> StateSpace:
        return self.base

    def distance(self, p, q) -> float:
        d = self.base.distance(p, q)
        for g in self.family:
            d = max(d, abs(g.value_at(self.base, p) - g.value_at(self.base, q)))
        return d


def build_envelope_metric(base: StateSpace, family) -> EnvelopeMetric:
    return EnvelopeMetric(base=base, family=tuple(family))


def _metric_space(metric):
    return metric.space if isinstance(metric, EnvelopeMetric) else metric


def _support_and_distances(mu: SignedMeasure, metric):
    pts, wts = mu.support()
    k = len(pts)
    space = _metric_space(metric)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dist[i, j] = dist[j, i] = metric.distance(pts[i], pts[j])
    return pts, wts, dist, space


def bl_dual_norm(mu: SignedMeasure, metric) -> tuple[float, LipschitzWitness]:
    """Dual BL norm of ``mu`` with an attaining unit-ball witness.

    ``metric`` is the StateSpace itself or an EnvelopeMetric over it.  Ties
    between optimal witnesses are broken by preferring the smaller Lipschitz
    bound, which keeps the returned witness deterministic.
    """
    pts, wts, dist, space = _support_and_distances(mu, metric)
    k = len(pts)
    if k == 0:
        return 0.0, LipschitzWitness(points=(), values=np.zeros(0), sup_bound=0.0, lip_bound=0.0)

    # solve at unit TV scale so solver tolerances cannot swallow tiny
    # measures; the norm is exactly homogeneous
    scale = float(np.sum(np.abs(wts)))
    if scale == 0.0:
        return 0.0, LipschitzWitness(points=tuple(pts), values=np.zeros(k),
                                     sup_bound=1.0, lip_bound=0.0)
    wts = wts / scale

    # variables: f_1..f_k, M, L
    n_var = k + 2
    rows, rhs = [], []

    def add_row(coeffs, b):
        rows.append(coeffs)
        rhs.append(b)

    for i in range(k):
        r = np.zeros(n_var)
        r[i], r[k] = 1.0, -1.0  # f_i - M <= 0
        add_row(r, 0.0)
        r = np.zeros(n_var)
        r[i], r[k] = -1.0, -1.0  # -f_i - M <= 0
        add_row(r, 0.0)
    for i in range(k):
        for j in range(i + 1, k):
            r = np.zeros(n_var)
            r[i], r[j], r[k + 1] = 1.0, -1.0, -dist[i, j]
            add_row(r, 0.0)
            r = np.zeros(n_var)
            r[i], r[j], r[k + 1] = -1.0, 1.0, -dist[i, j]
            add_row(r, 0.0)
    r = np.zeros(n_var)
    r[k], r[k + 1] = 1.0, 1.0  # M + L <= 1
    add_row(r, 1.0)

    A_ub = np.asarray(rows)
    b_ub = np.asarray(rhs)
    bounds = [(None, None)] * k + [(0.0, 1.0), (0.0, 1.0)]

    c = np.zeros(n_var)
    c[:k] = -wts  # maximize <mu, f>
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"BL norm LP failed: {res.message}")
    value = -res.fun

    # second stage: among optimal witnesses, minimize L
    r = np.zeros(n_var)
    r[:k] = -wts  # -<mu, f> <= -(value - tol)
    A_ub2 = np.vstack([A_ub, r])
    b_ub2 = np.concatenate([b_ub, [-(value - 1e-11)]])
    c2 = np.zeros(n_var)
    c2[k + 1] = 1.0
    res2 = linprog(c2, A_ub=A_ub2, b_ub=b_ub2, bounds=bounds, method="highs")
    x = res2.x if res2.success else res.x

    witness = LipschitzWitness(points=tuple(pts), values=np.asarray(x[:k]),
                               sup_bound=float(x[k]), lip_bound=float(x[k + 1]))
    return float(max(value * scale, 0.0)) + 0.0, witness


def _subset_masks(k):
    """Boolean (2^k - 1, k) matrix: row b-1 marks the points of nonempty subset b."""
    bits = np.arange(1, 1 << k)[:, None]
    return (bits >> np.arange(k)[None, :]) & 1 == 1


def _max_steps(f, dist, M, L, ins, pairs):
    """Largest feasible uniform steps of every subset, up and down.

    ``ins`` is the subset mask matrix and ``pairs[s, i, j]`` marks i in
    subset s and j outside it.  Raising the subset by u keeps f <= M inside
    and (f_i + u) - f_j <= L d_ij across the cut; lowering it by u keeps
    f >= -M and f_j - (f_i - u) <= L d_ji.
    """
    up_box = np.where(ins, M - f, np.inf).min(axis=1)
    down_box = np.where(ins, f + M, np.inf).min(axis=1)
    up_cut = L * dist - (f[:, None] - f[None, :])
    down_cut = L * dist.T - (f[None, :] - f[:, None])
    up = np.minimum(up_box, np.where(pairs, up_cut, np.inf).min(axis=(1, 2)))
    down = np.minimum(down_box, np.where(pairs, down_cut, np.inf).min(axis=(1, 2)))
    return np.maximum(up, 0.0), np.maximum(down, 0.0)


def _inner_max(wts, dist, L):
    """Exact max of <c, f> over the box/Lipschitz polytope at fixed L, M=1-L.

    Improving directions of this difference-constraint polytope are uniform
    shifts of point subsets, so searching all subsets until none improves
    solves the LP exactly (support <= 6 keeps 2^k small).  Each round
    scores every subset at once and takes the best move.
    """
    k = len(wts)
    M = 1.0 - L
    f = np.zeros(k)
    ins = _subset_masks(k)
    pairs = ins[:, :, None] & ~ins[:, None, :]
    mass = ins @ wts  # signed mass of each subset
    rising = mass > 0.0
    for _ in range(10000):
        up, down = _max_steps(f, dist, M, L, ins, pairs)
        gains = np.where(rising, mass * up, -mass * down)
        best = int(np.argmax(gains))
        if not gains[best] > 1e-15:
            break
        f = f + np.where(ins[best], up[best] if rising[best] else -down[best], 0.0)
    return float(np.dot(wts, f))


def bl_dual_norm_oracle(mu: SignedMeasure, metric) -> float:
    """Brute-force BL dual norm: grid over L with exact inner maximization.

    The value is concave in L (the feasible set is jointly convex in (f, L)
    for M = 1 - L), so a coarse grid followed by ternary refinement recovers
    the optimum.  Refuses supports larger than ORACLE_MAX_SUPPORT.
    """
    pts, wts, dist, _ = _support_and_distances(mu, metric)
    k = len(pts)
    if k == 0:
        return 0.0
    if k > ORACLE_MAX_SUPPORT:
        raise OracleSupportError(f"oracle limited to supports of size <= {ORACLE_MAX_SUPPORT}")
    scale = float(np.sum(np.abs(wts)))
    if scale == 0.0:
        return 0.0
    wts = wts / scale

    def value(L):
        return _inner_max(wts, dist, L)

    grid = np.linspace(0.0, 1.0, 101)
    vals = [value(L) for L in grid]
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    for _ in range(80):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if value(m1) < value(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo < 1e-12:
            break
    best = max(vals[i], value(0.5 * (lo + hi)))
    return float(max(best * scale, 0.0)) + 0.0


def bl_distance(mu, nu, metric) -> float:
    """BL distance between two measures (positive or signed)."""
    from .measures import linear_combine

    value, _ = bl_dual_norm(linear_combine([1.0, -1.0], [mu, nu]), metric)
    return value


def dirac_distance_exact(d: float) -> float:
    """Closed form for the distance of two unit Diracs at distance d."""
    return 2.0 * d / (2.0 + d)
