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

Column generation: a block first gets flow columns only for the pairs among
each point's NEAREST nearest neighbours, pruned as above (each pair against
every l).  Up to NEAREST + 1 points that is every pair, so such a block is
final after one solve and the triangle argument certifies it.  A larger
block is checked after each solve: every pair without a column whose dual
constraint f_i - f_j <= L d_ij is broken by more than CHECK_TOL gets a
column, and the run is solved again until no block gains one (delayed
column generation, with the all-pairs dual check of Schmitzer's sparse
multiscale transport).  The final duals are feasible on every pair, so the
restricted optimum is the full one and the witness is feasible everywhere.

Batches: ``bl_norm_values`` stacks the flow LPs of many measures as
diagonal blocks, each with its own t_m, and minimizes the sum of the t_m.
The blocks share no row or column, so the optimum of the sum is the sum of
the per-block optima and each t_m is its measure's norm.  Values are within
1e-12 absolute of one solve per measure, not bitwise equal to it.  An LP
holds at most MAX_LP_COLUMNS columns of consecutive blocks; a longer batch
solves several.  ``bl_distance`` and ``bl_distances`` are its pairwise
forms.  ``bl_dual_norm`` solves one block alone and reads its witness off
the duals of its last solve, the only one for a support of at most
NEAREST + 1 points.  A failed solve raises RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array

from .measures import SignedMeasure, StateSpace, linear_combine

LP_FEAS_TOL = 1e-9
ORACLE_MAX_SUPPORT = 6
# Widest batched LP.  Solver time and memory grow faster than the width: on
# a 12-state metric, one LP of 78 blocks (12,246 columns) took 0.10 s and
# raised peak RSS by 18 MB, six LPs of at most 13 blocks 0.074 s and 3 MB.
MAX_LP_COLUMNS = 2048
# Nearest neighbours per point whose pairs get a flow column before the
# dual check.  On 40 benchmark norms (k = 96 and 200, R^3 and grid-graph
# metrics) 8 to 24 solved equally fast, 32 took 10 % longer and 64 twice
# as long; 8 took up to 3 rounds, 16 at most 2.
NEAREST = 16
# Dual slack, at unit TV, above which the check adds a pair.  At 0 the 20
# grid-graph norms of those 40 took 2 to 16 rounds, adding pairs whose
# violations were at rounding level; at 1e-12 each takes one.
CHECK_TOL = 1e-12
# Pairwise distances must lie below this: HiGHS refuses matrix entries of 1e15
# or more (large_matrix_value): three atoms 1e15 apart gave a Model error, 1e14 solved.
MAX_DISTANCE = 1e15


class OracleSupportError(ValueError):
    """Raised when the brute-force oracle is asked for too large a support."""


class DistanceRangeError(ValueError):
    """Raised when two support points are not less than MAX_DISTANCE apart."""


@dataclass(frozen=True)
class LipschitzWitness:
    """Function values on a finite point set with certified sup/Lipschitz bounds."""

    points: tuple
    values: np.ndarray
    sup_bound: float
    lip_bound: float

    @cached_property
    def _state_index(self) -> dict:
        """Position of each point's first occurrence.  On a finite space a
        state index finds exactly the points equal to it (numbers that are
        equal hash equal), as the key comparison of a scan would."""
        index = {}
        for i, q in enumerate(self.points):
            index.setdefault(q, i)
        return index

    def value_at(self, space, p):
        """Value at p; off the stored points, the McShane extension.

        The extension min_q(f(q) + L d(p, q)), clipped to the sup bound, is
        the canonical one that preserves both certified bounds, so
        evaluating a witness anywhere on the space stays feasible.
        """
        key = space.point_key(p)
        if space.kind == "finite":
            i = self._state_index.get(key)
            if i is not None:
                return float(self.values[i])
        else:  # the first stored point that atom merging would merge with p
            for q, v in zip(self.points, self.values):
                if space.points_equal(p, q):
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
    with np.errstate(over="ignore"):  # far-apart points are an infinite distance
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
    dist = pairwise_distances(metric, pts)
    if not (dist < MAX_DISTANCE).all():  # an infinite or NaN distance fails it too
        raise DistanceRangeError(f"support points lie {float(dist.max())!r} apart; the "
                                 f"BL norm LP needs distances below {MAX_DISTANCE:g}")
    return pts, scale, wts, dist


def _flow_pairs(dist):
    """Directed pairs (i, j) that start with a flow column, in row-major
    order: the pairs among each point's NEAREST nearest neighbours (either
    way round) that no point l splits into two strictly shorter hops with
    d_il + d_lj <= d_ij.  Up to NEAREST + 1 points that is every pair the
    prune keeps."""
    k = len(dist)
    if k > NEAREST + 1:
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :NEAREST + 1]
        near = np.zeros((k, k), dtype=bool)
        near[np.arange(k)[:, None], nearest] = True
        near |= near.T
    else:  # every pair is a neighbour pair; skipping the sort keeps numpy's sort
        # code unloaded, which saved 0.13 MB of a study_finite pass's peak RSS
        near = np.ones((k, k), dtype=bool)
    np.fill_diagonal(near, False)
    src, dst = np.nonzero(near)
    d, kept = dist[src, dst], np.ones(len(src), dtype=bool)
    for l in range(k):
        into, out = dist[src, l], dist[l, dst]
        kept &= ~((into + out <= d) & (np.maximum(into, out) < d))
    return src[kept], dst[kept]


def _certified_lp(blocks):
    """``_flow_lp`` with delayed column generation.  After each solve, every
    block of more than NEAREST + 1 points tests the dual constraint
    f_i - f_j <= L d_ij of every pair without a column and gains the pairs
    that break it by more than CHECK_TOL; the run is solved again until no
    block gains a pair.  Each block's duals are then feasible for its LP on
    all pairs, so its optimum is the all-pairs optimum."""
    blocks = list(blocks)
    while True:
        res, t_cols = _flow_lp(blocks)
        added, row = False, 0
        for m, (wts, dist, (src, dst)) in enumerate(blocks):
            k = len(wts)
            if k > NEAREST + 1:
                f, L = res.eqlin.marginals[row:row + k], -res.ineqlin.marginals[2 * m + 1]
                gap = f[:, None] - f[None, :] - L * dist
                gap[src, dst] = 0.0
                i, j = np.nonzero(gap > CHECK_TOL)
                if len(i):
                    blocks[m] = (wts, dist, (np.concatenate([src, i]), np.concatenate([dst, j])))
                    added = True
            row += k
        if not added:
            return res, t_cols


def _flow_lp(blocks):
    """Solve the flow LPs of ``blocks`` as one block-diagonal LP.

    A block is (unit-TV weights, distances, kept pairs) of one measure, with
    columns r+, r-, y (kept pairs) and t_m, k_m equality rows and two
    inequality rows; the objective is the sum of the t_m.  Returns the
    result and the column of each t_m.
    """
    c, A_ub, b_ub, A_eq, b_eq, t_cols = _flow_matrices(blocks)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs")
    if not res.success:
        raise RuntimeError(f"BL norm LP failed: {res.message}")
    return res, t_cols


def _flow_matrices(blocks):
    """The arrays of ``_flow_lp``'s LP.  Built here so that the triplet lists
    are freed before the solver runs."""
    rows, cols, vals, ub_rows, ub_cols, ub_vals, t_cols = [], [], [], [], [], [], []
    row = col = 0
    for m, (wts, dist, (src, dst)) in enumerate(blocks):
        k, e = len(wts), len(src)
        t = col + 2 * k + e
        pts, flows = np.arange(k), np.arange(col + 2 * k, t)
        rows += [row + pts, row + pts, row + src, row + dst]
        cols += [col + pts, col + k + pts, flows, flows]
        vals += [np.ones(k), -np.ones(k), np.ones(e), -np.ones(e)]
        ub_rows.append(np.repeat([2 * m, 2 * m + 1, 2 * m, 2 * m + 1], [2 * k, e, 1, 1]))
        ub_cols += [np.arange(col, col + 2 * k), flows, [t, t]]
        ub_vals += [np.ones(2 * k), dist[src, dst], [-1.0, -1.0]]
        t_cols.append(t)
        row, col = row + k, t + 1
    c = np.zeros(col)
    c[t_cols] = 1.0
    A_eq = csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(row, col))
    A_ub = csr_array((np.concatenate(ub_vals),
                      (np.concatenate(ub_rows), np.concatenate(ub_cols))),
                     shape=(2 * len(blocks), col))
    b_eq = np.concatenate([b[0] for b in blocks])
    return c, A_ub, np.zeros(2 * len(blocks)), A_eq, b_eq, t_cols


def bl_norm_values(measures, metric) -> list[float]:
    """Dual BL norms of ``measures``, from block-diagonal flow LPs.

    Each value is within 1e-12 absolute of its measure's own solve (the
    blocks share no row or column, so the optimum of the sum of the t_m is
    the sum of the per-block optima).  Consecutive blocks share one LP up to
    MAX_LP_COLUMNS columns of the blocks' first solve; a run is solved again
    while its large blocks gain columns.  Zero measures get 0.0 and no block;
    a list of them, or an empty list, solves nothing.
    """
    values = [0.0] * len(measures)
    blocks = []
    for i, mu in enumerate(measures):
        _, scale, wts, dist = _unit_support(mu, metric)
        if scale:
            blocks.append((i, scale, (wts, dist, _flow_pairs(dist))))
    for run in _column_runs(blocks):
        res, t_cols = _certified_lp([block for _, _, block in run])
        for (i, scale, _), t in zip(run, res.x[t_cols].tolist()):
            values[i] = float(max(t * scale, 0.0)) + 0.0
    return values


def _column_runs(blocks):
    """Consecutive runs of (index, scale, block) entries whose blocks fill at
    most MAX_LP_COLUMNS columns together; a wider block runs alone."""
    run, width = [], 0
    for entry in blocks:
        wts, _, (src, _) = entry[2]
        cols = 2 * len(wts) + len(src) + 1
        if run and width + cols > MAX_LP_COLUMNS:
            yield run
            run, width = [], 0
        run.append(entry)
        width += cols
    if run:
        yield run


def bl_dual_norm(mu: SignedMeasure, metric) -> tuple[float, LipschitzWitness]:
    """Dual BL norm of ``mu`` (``metric``: a StateSpace or an EnvelopeMetric over
    it) with an attaining unit-ball witness, both from the flow LP's last
    solve: f from the duals of its equality rows, (M, L) from those of its
    two inequality rows."""
    pts, scale, wts, dist = _unit_support(mu, metric)
    if scale == 0.0:
        return 0.0, LipschitzWitness(points=tuple(pts), values=np.zeros(len(pts)),
                                     sup_bound=float(len(pts) > 0), lip_bound=0.0)
    res, _ = _certified_lp([(wts, dist, _flow_pairs(dist))])
    sup_bound, lip_bound = -res.ineqlin.marginals + 0.0
    witness = LipschitzWitness(points=tuple(pts), values=res.eqlin.marginals + 0.0,
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


def bl_distances(pairs, metric) -> list[float]:
    """BL distances of (mu, nu) pairs of measures (positive or signed), all
    from one flow LP."""
    return bl_norm_values([linear_combine([1.0, -1.0], [mu, nu]) for mu, nu in pairs], metric)


def bl_distance(mu, nu, metric) -> float:
    """BL distance between two measures (positive or signed): one flow LP."""
    return bl_distances([(mu, nu)], metric)[0]


def dirac_distance_exact(d: float) -> float:
    """Closed form for the distance of two unit Diracs at distance d."""
    return 2.0 * d / (2.0 + d)
