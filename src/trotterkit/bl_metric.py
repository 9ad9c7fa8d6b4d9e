"""Exact dual bounded-Lipschitz norm on finitely supported signed measures.

The norm is the supremum of the pairing <w, f> against functions f with
``sup|f| + Lip(f) <= 1``.  On a finite support that is a linear program over
the values f_i, a sup bound M and a Lipschitz bound L (restriction to the
support is lossless: the McShane extension keeps ``M + L``).  It is solved in
its dual flow form (Kantorovich-Rubinstein duality for the flat metric):

    min t  s.t.  r+ - r- + div y = w,  sum(r+ + r-) <= t,  sum d_ij y_ij <= t

over r+, r- >= 0 per point, flows y_ij >= 0 on directed pairs, and t, with
(div y)_i the flow out of i minus the flow into i: k sparse equality rows and
two inequality rows.  The witness is read off the duals: f from the equality
rows, (M, L) from the two inequality rows.

Pruning: pair (i, j) gets no flow column when some point l splits it into
two strictly shorter hops with d_il + d_lj <= d_ij.  Its flow routes through
l at no extra cost, and |f_i - f_j| <= L d_ij follows from the kept pairs by
the triangle inequality (induction on d), so the optimum is unchanged.

Tie-break: ``bl_dual_norm`` returns an optimal witness of least Lipschitz
bound, picked by a second LP, the flow dual of "min L over feasible witnesses
with <w, f> >= value - 1e-11"; if that solve fails, the stage-one witness is
returned.  ``bl_norm_value`` and ``bl_distance`` solve the first LP only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .measures import SignedMeasure, StateSpace, linear_combine

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
        dist = pairwise_distances(space, self.points)
        return not np.any(np.abs(v[:, None] - v[None, :]) > self.lip_bound * dist + slack)

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


def pairwise_distances(metric, points) -> np.ndarray:
    """Distance matrix of ``points`` under a StateSpace or an EnvelopeMetric:
    read off a finite space's matrix, else one ``metric.distance`` per pair."""
    if isinstance(metric, StateSpace) and metric.kind == "finite":
        idx = np.asarray([metric.point_key(p) for p in points], dtype=np.intp)
        return metric.dist[np.ix_(idx, idx)]
    k = len(points)
    dist = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dist[i, j] = dist[j, i] = metric.distance(points[i], points[j])
    return dist


def lipschitz_constant(values, dist) -> float:
    """Largest |v_i - v_j| / d_ij over the pairs with d_ij > 0; 0 below two points."""
    v = np.asarray(values, dtype=float)
    apart = dist > 0.0
    return float(np.max(np.abs(v[:, None] - v[None, :])[apart] / dist[apart], initial=0.0))


def _unit_support(mu: SignedMeasure, metric):
    """(points, TV scale, weights at unit TV, distances).  Norms are solved at
    unit TV so solver tolerances cannot swallow tiny measures."""
    pts, wts = mu.support()
    scale = float(np.sum(np.abs(wts)))
    wts = wts / scale if scale else wts
    return pts, scale, wts, pairwise_distances(metric, pts)


def _flow_pairs(dist):
    """Directed pairs (i, j) that keep a flow column: those that no point l
    splits into two strictly shorter hops with d_il + d_lj <= d_ij."""
    k = len(dist)
    pruned = np.eye(k, dtype=bool)
    via, hop = np.empty((k, k)), np.empty((k, k))
    for l in range(k):
        np.add(dist[:, l, None], dist[None, l, :], out=via)
        np.maximum(dist[:, l, None], dist[None, l, :], out=hop)
        pruned |= (via <= dist) & (hop < dist)
    return np.nonzero(~pruned)


def _flow_lp(wts, dist, pairs, value=None):
    """Solve the flow LP of unit-TV weights over columns r+, r-, y (kept pairs)
    and t or, given its optimum ``value``, the tie-break LP (one more column s)."""
    tie = value is not None
    src, dst = pairs
    k, e = len(wts), len(src)
    t = 2 * k + e
    pts, flows = np.arange(k), np.arange(2 * k, t)
    rows, cols = [pts, pts, src, dst], [pts, k + pts, flows, flows]
    vals = [np.ones(k), -np.ones(k), np.ones(e), -np.ones(e)]
    c = np.zeros(t + 1 + tie)
    c[t] = 1.0
    if tie:
        rows, cols, vals = rows + [pts], cols + [np.full(k, t + 1)], vals + [-wts]
        c[t + 1] = -(value - 1e-11)
    A_eq = csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(k, len(c)))
    A_ub = csr_array((np.concatenate([np.ones(2 * k), dist[src, dst], [-1.0, -1.0]]),
                      (np.repeat([0, 1, 0, 1], [2 * k, e, 1, 1]),
                       np.concatenate([np.arange(2 * k), flows, [t, t]]))), shape=(2, len(c)))
    res = linprog(c, A_ub=A_ub, b_ub=[0.0, float(tie)], A_eq=A_eq,
                  b_eq=np.zeros(k) if tie else wts, method="highs")
    if not (tie or res.success):
        raise RuntimeError(f"BL norm LP failed: {res.message}")
    return res


def bl_norm_value(mu: SignedMeasure, metric) -> float:
    """Dual BL norm of ``mu`` alone: one flow LP, no witness."""
    _, scale, wts, dist = _unit_support(mu, metric)
    if scale == 0.0:
        return 0.0
    res = _flow_lp(wts, dist, _flow_pairs(dist))
    return float(max(res.fun * scale, 0.0)) + 0.0


def bl_dual_norm(mu: SignedMeasure, metric) -> tuple[float, LipschitzWitness]:
    """Dual BL norm of ``mu`` (``metric``: a StateSpace or an EnvelopeMetric over
    it) with an attaining unit-ball witness of least Lipschitz bound."""
    pts, scale, wts, dist = _unit_support(mu, metric)
    if scale == 0.0:
        return 0.0, LipschitzWitness(points=tuple(pts), values=np.zeros(len(pts)),
                                     sup_bound=float(len(pts) > 0), lip_bound=0.0)
    pairs = _flow_pairs(dist)
    res = _flow_lp(wts, dist, pairs)
    res2 = _flow_lp(wts, dist, pairs, value=res.fun)
    best = res2 if res2.success else res  # a failed tie-break keeps stage one's witness
    sup_bound, lip_bound = -best.ineqlin.marginals + 0.0
    witness = LipschitzWitness(points=tuple(pts), values=best.eqlin.marginals + 0.0,
                               sup_bound=float(sup_bound), lip_bound=float(lip_bound))
    return float(max(res.fun * scale, 0.0)) + 0.0, witness


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
    pts, scale, wts, dist = _unit_support(mu, metric)
    if len(pts) > ORACLE_MAX_SUPPORT:
        raise OracleSupportError(f"oracle limited to supports of size <= {ORACLE_MAX_SUPPORT}")
    if scale == 0.0:
        return 0.0

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
    """BL distance between two measures (positive or signed): one flow LP."""
    return bl_norm_value(linear_combine([1.0, -1.0], [mu, nu]), metric)


def dirac_distance_exact(d: float) -> float:
    """Closed form for the distance of two unit Diracs at distance d."""
    return 2.0 * d / (2.0 + d)
