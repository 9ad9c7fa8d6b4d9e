"""Exact dual bounded-Lipschitz norm on finitely supported signed measures.

The norm is the supremum of the pairing <w, f> against functions f with
``sup|f| + Lip(f) <= 1``.  On a finite support that is a linear program over
the values f_i, a sup bound M and a Lipschitz bound L (restriction to the
support is lossless: the McShane extension keeps ``M + L``).  It is solved in
its dual flow form (Kantorovich-Rubinstein duality for the flat metric):

    min t  s.t.  r+ - r- + div y = w,  sum(r+ + r-) <= t,  sum d_ij y_ij <= t

over r+, r- >= 0 per point, flows y_ij >= 0 on directed pairs, and t, with
(div y)_i the flow out of i minus the flow into i: k sparse equality rows and
two inequality rows.

Columns: every block gets flow columns only for pairs (i, j) with w_i > 0 >
w_j, since some optimum uses no other pair (Hanin, Proc. AMS 1992).  Cancel
an optimal flow's cycles and replace each source-to-sink path by its direct
pair: by the triangle inequality (``StateSpace.finite`` enforces it to
1e-12; Euclidean and envelope metrics satisfy it) that costs no more.
Where a point's net flow disagrees in sign with its weight, or exceeds it,
absorb that mass at the flow's source instead: |r|_1 stays the same and
the transport cost drops.  A block gets its columns when it reaches the
LP: first the union of two sets of those pairs, each positive atom with its
NEAREST nearest negative atoms and each negative atom with its NEAREST
nearest positive atoms (stable argsorts of the positive-by-negative
distances), in row-major order.  When a sign has at most NEAREST atoms
that is every pair, and one solve is final.  Otherwise, after each solve,
every positive-to-negative pair without a column whose dual constraint
f_i - f_j <= L d_ij is broken by more than CHECK_TOL gets one, and the run
is solved again until no block gains one (delayed column generation).  The
duals are then feasible for the LP over all positive-to-negative pairs, so
the restricted optimum is the all-pairs one.

Stars: a block in which at most one atom has one of the signs gets its
norm in closed form, without an LP (``_star_norm``).  With one sign only,
the norm is the TV: f = 1 or f = -1 is in the unit ball.  Otherwise let c
be the lone atom of its sign, a = |w_c|, and let the leaves j carry b_j =
|w_j| at d_j = d(c, j), sorted stably by d_j.  By Columns some optimum
ships flow only from c to the leaves or back.  Shipping Y <= min(a, sum b)
leaves |r|_1 = TV - 2Y, and the cheapest transport of Y fills the nearest
leaves first, at a cost C(Y) that is convex and piecewise linear.  So the
norm is min_Y max(TV - 2Y, C(Y)).  Walk the segments: on leaf j, from (Y,
C) over min(b_j, a - Y), the sides meet after s = (TV - 2Y - C) / (2 +
d_j).  If s fits in the segment the norm is C + d_j s, the transport side,
a sum of nonnegative terms; the equal TV - 2(Y + s) cancels (8e-8 off
relative at d = 1e-10).  If no segment holds the crossing, the norm is
max(TV - 2Y, C) at its end.  Two Diracs of weights a and b, d apart, get
max(|a - b|, (a + b) d / (2 + d)), ``dirac_distance_exact`` when a = b.
``bl_dual_norm`` returns a witness, so it solves the LP for stars too.

Witness: the duals of the equality rows (f) and of the inequality rows (M, L,
clipped at 0) bound f only on pairs with a column.  So, with f clipped to +-M
and N the negative atoms, ``bl_dual_norm`` takes their double c-transform: each
point outside N gets min(M, min_{j in N} f_j + L d_ij), then each j in N gets
max(-M, max_{i not in N} f_i - L d_ij).  That is feasible on every pair by
construction and, on exactly feasible duals, never lowers the pairing.

Batches: ``bl_norm_values`` stacks the flow LPs of many measures as
diagonal blocks, each with its own t_m, and minimizes the sum of the t_m.
The blocks share no row or column, so the optimum of the sum is the sum of
the per-block optima and each t_m is its measure's norm.  Values agree
with one solve per measure to the solver's tolerance, not bitwise (see
``solve_blocks``).  An LP holds at most MAX_LP_COLUMNS columns of
consecutive blocks; a longer batch solves several.  ``bl_distance`` and
``bl_distances`` are its pairwise forms.  ``norm_blocks`` and
``distance_blocks`` prepare blocks, range check included, that one
``solve_blocks`` call solves together.  ``bl_dual_norm`` solves one block
alone.  A failed solve raises RuntimeError.

Maxima: ``max_bl_distance`` is the largest of ``bl_distances`` without
solving every block.  With w the unit-TV weights, a block of one sign has
norm exactly its TV (f = 1 or f = -1 is in the unit ball).  A block of both
signs has norm at least TV max(|sum w|, c), c = dmin / (2 + dmin) with dmin
the least distance between a positive and a negative atom: f = 1 pairs to
sum w, and f = c sign(w) has sup c and Lipschitz constant 2c / dmin, so
sup + Lip = 1, and pairs to c.  With L the largest of these bounds (those
of both signs less BOUND_MARGIN), one ``solve_blocks`` call takes only the
blocks with TV above L, never one of one sign.  Any other block has norm
at most its TV <= L, and L is at most the maximum, so the maximum is
unchanged; only the LP's tolerance separates the two results.

HiGHS runs without presolve, which cost more than it saved on these LPs: on
a 2-vCPU VM the nine LPs of three 12-state studies (1,021 to 2,042 columns)
took 91 ms in all with it and 73 without, the 40 norms of the bl_norm_large
benchmark 475 and 401 ms (a generic k = 96 norm 8.2 and 6.8 ms), with equal
optimal values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .measures import SignedMeasure, StateSpace, linear_combine

LP_FEAS_TOL = 1e-9
ORACLE_MAX_SUPPORT = 6
# Widest batched LP.  Peak memory grows with the width, solver time hardly
# falls: a 12-state study's 90 blocks (5,485 columns) took 27 ms and 4.5 MB as
# one LP, 28 ms and 1.6 MB as three of <= 2,048 columns, 31 and 0.4 as six of <= 1,024.
MAX_LP_COLUMNS = 2048
# Nearest atoms of the other sign per atom whose pairs get a flow column
# before the dual check.  On 40 benchmark norms (k = 96 and 200, R^3 and
# grid-graph metrics; best of 5, interleaved) 8 to 16 solved within 7 % of
# each other, 24 took 1.2 times as long, 32 1.4, 64 twice and 4 1.6 times;
# 4 took up to 4 solves, 8 and 12 up to 2, 16 one but for one graph norm's 2.
NEAREST = 16
# Dual slack, at unit TV, above which the check adds a pair.  Those 40 norms
# took the same solves at 0; with columns between atoms of one sign and a
# triangle prune, 0 took the grid-graph norms 2 to 16 rounds, adding pairs
# whose violations were at rounding level.
CHECK_TOL = 1e-12
# Relative shrink of a two-signed block's lower bound in ``max_bl_distance``,
# so that the rounding of its sums (a few ulps) cannot lift it over the norm
# and skip a block that could hold the maximum; far below the LP's 1e-7.
BOUND_MARGIN = 1e-12
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

    def distance(self, p, q) -> float:
        d = self.base.distance(p, q)
        for g in self.family:
            d = max(d, abs(g.value_at(self.base, p) - g.value_at(self.base, q)))
        return d


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


def _unit_support(mu: SignedMeasure, metric, shared):
    """(points, TV scale, weights at unit TV, distances).  Norms are solved
    at unit TV so solver tolerances cannot swallow tiny measures.
    ``shared``, one call's dict, holds each support's distances."""
    pts, wts = mu.support()
    scale = float(np.sum(np.abs(wts)))
    if (key := tuple(pts)) not in shared:
        dist = pairwise_distances(metric, pts)
        if not (dist < MAX_DISTANCE).all():  # an infinite or NaN distance fails it too
            raise DistanceRangeError(f"support points lie {float(dist.max())!r} apart; the "
                                     f"BL norm LP needs distances below {MAX_DISTANCE:g}")
        shared[key] = dist
    return pts, scale, wts / scale if scale else wts, shared[key]


def _sign_pairs(wts, dist):
    """Starting flow columns of a block that reaches the LP, in row-major
    order: the pairs (i, j) with w_i > 0 > w_j in which j is one of i's
    NEAREST nearest negative atoms or i one of j's NEAREST nearest positive
    atoms.  That is every such pair when a sign has at most NEAREST atoms."""
    pos, neg = np.flatnonzero(wts > 0.0), np.flatnonzero(wts < 0.0)
    cross = dist[np.ix_(pos, neg)]
    near = np.zeros(cross.shape, dtype=bool)
    near[np.arange(len(pos))[:, None], np.argsort(cross, axis=1, kind="stable")[:, :NEAREST]] = True
    near[np.argsort(cross, axis=0, kind="stable")[:NEAREST], np.arange(len(neg))] = True
    i, j = np.nonzero(near)
    return pos[i], neg[j]


def _certified_lp(blocks):
    """``_flow_lp`` with delayed column generation.  After each solve, every
    block that lacks a column for some pair (i, j) with w_i > 0 > w_j tests
    the dual constraint f_i - f_j <= L d_ij of each such pair and gains the
    pairs that break it by more than CHECK_TOL; the run is solved again
    until no block gains a pair.  Each block's duals are then feasible for
    its LP on every such pair, so its optimum is the all-pairs optimum
    (Columns)."""
    blocks = list(blocks)
    while True:
        res, t_cols = _flow_lp(blocks)
        added, row = False, 0
        for m, (wts, dist, (src, dst)) in enumerate(blocks):
            k = len(wts)
            pos, neg = np.flatnonzero(wts > 0.0), np.flatnonzero(wts < 0.0)
            if len(src) < len(pos) * len(neg):
                f, L = res.eqlin.marginals[row:row + k], -res.ineqlin.marginals[2 * m + 1]
                gap = f[pos, None] - f[None, neg] - L * dist[np.ix_(pos, neg)]
                rank = np.empty(k, dtype=np.intp)
                rank[pos], rank[neg] = np.arange(len(pos)), np.arange(len(neg))
                gap[rank[src], rank[dst]] = 0.0
                i, j = np.nonzero(gap > CHECK_TOL)
                if len(i):
                    blocks[m] = (wts, dist, (np.concatenate([src, pos[i]]),
                                             np.concatenate([dst, neg[j]])))
                    added = True
            row += k
        if not added:
            return res, t_cols


def _flow_lp(blocks):
    """Solve the flow LPs of ``blocks`` as one block-diagonal LP.

    A block is (unit-TV weights, distances, flow pairs) of one measure, with
    columns r+, r-, y (its pairs) and t_m, k_m equality rows and two
    inequality rows; the objective is the sum of the t_m.  Returns the
    result and the column of each t_m.
    """
    c, A_ub, b_ub, A_eq, b_eq, t_cols = _flow_matrices(blocks)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, method="highs",
                  options={"presolve": False})
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
    A_eq = coo_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                     shape=(row, col))
    A_ub = coo_array((np.concatenate(ub_vals),
                      (np.concatenate(ub_rows), np.concatenate(ub_cols))),
                     shape=(2 * len(blocks), col))
    b_eq = np.concatenate([b[0] for b in blocks])
    return c, A_ub, np.zeros(2 * len(blocks)), A_eq, b_eq, t_cols


def bl_norm_values(measures, metric) -> list[float]:
    """Dual BL norms of ``measures``: ``solve_blocks`` of their ``norm_blocks``."""
    return solve_blocks(norm_blocks(measures, metric))


def norm_blocks(measures, metric) -> list:
    """One (TV scale, (unit-TV weights, distances)) entry per measure,
    unsolved, with no flow columns yet (DistanceRangeError here).  A zero
    measure gets scale 0 and None."""
    entries, shared = [], {}
    for mu in measures:
        _, scale, wts, dist = _unit_support(mu, metric, shared)
        entries.append((scale, (wts, dist) if scale else None))
    return entries


def solve_blocks(entries) -> list[float]:
    """Dual BL norms of ``norm_blocks`` entries (of one call or several
    joined): stars in closed form (Stars); only the other blocks get
    their starting columns (``_sign_pairs``), and block-diagonal flow LPs
    solve them.  Each LP value agrees with its measure's own solve to
    HiGHS's default tolerances (feasibility 1e-7), not bitwise: batched
    together, the 65 pushed commutator distances of linear_flow's study
    (supports of 4 points, TV 2) came up to 2.3e-9 from one solve each,
    and a support with an atom of weight about 3e-8 beside atoms of 0.3 to
    0.7 3.7e-9.  Consecutive blocks share one LP up to MAX_LP_COLUMNS
    columns of the blocks' first solve; a run is solved again while its
    blocks gain columns.  Zero measures get 0.0, and a list of them and
    stars, or an empty list, solves no LP.
    """
    values, blocks = [0.0] * len(entries), []
    for i, (scale, block) in enumerate(entries):
        star = _star_norm(*block) if scale else 0.0
        if star is None:
            blocks.append((i, scale, (*block, _sign_pairs(*block))))
        else:
            values[i] = star * scale
    for run in _column_runs(blocks):
        res, t_cols = _certified_lp([block for _, _, block in run])
        for (i, scale, _), t in zip(run, res.x[t_cols].tolist()):
            values[i] = float(max(t * scale, 0.0)) + 0.0
    return values


def _star_norm(wts, dist):
    """Norm of unit-TV weights ``wts`` on points ``dist`` apart when at most
    one atom has one of the signs (Stars), else None."""
    pos, neg = np.flatnonzero(wts > 0.0), np.flatnonzero(wts < 0.0)
    if len(pos) > 1 and len(neg) > 1:
        return None
    if not (len(pos) and len(neg)):
        return 1.0
    (c,), leaves = (pos, neg) if len(pos) == 1 else (neg, pos)
    near = dist[c, leaves]
    order = np.argsort(near, kind="stable")
    left, y, cost = abs(float(wts[c])), 0.0, 0.0  # left = a - Y
    for d, b in zip(near[order].tolist(), np.abs(wts[leaves[order]]).tolist()):
        s, step = (1.0 - 2.0 * y - cost) / (2.0 + d), min(b, left)
        if s <= step:
            return cost + d * max(s, 0.0)
        y, cost, left = y + step, cost + d * step, left - step
        if left <= 0.0:
            break
    return max(1.0 - 2.0 * y, cost)


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
    solve: the witness is the double c-transform of its duals (Witness)."""
    pts, scale, wts, dist = _unit_support(mu, metric, {})
    if scale == 0.0:
        return 0.0, LipschitzWitness(points=tuple(pts), values=np.zeros(len(pts)),
                                     sup_bound=float(len(pts) > 0), lip_bound=0.0)
    res, _ = _certified_lp([(wts, dist, _sign_pairs(wts, dist))])
    M, L = np.maximum(-res.ineqlin.marginals, 0.0) + 0.0
    neg = wts < 0.0
    cross = L * dist[np.ix_(~neg, neg)]
    f = np.clip(res.eqlin.marginals, -M, M)
    f[~neg] = np.min(f[neg] + cross, axis=1, initial=M)
    f[neg] = np.max(f[~neg][:, None] - cross, axis=0, initial=-M)
    witness = LipschitzWitness(points=tuple(pts), values=f + 0.0,
                               sup_bound=float(M), lip_bound=float(L))
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
    pts, scale, wts, dist = _unit_support(mu, metric, {})
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
    from one ``solve_blocks`` call."""
    return solve_blocks(distance_blocks(pairs, metric))


def distance_blocks(pairs, metric) -> list:
    """``norm_blocks`` of the differences mu - nu of (mu, nu) pairs."""
    return norm_blocks([linear_combine([1.0, -1.0], [mu, nu]) for mu, nu in pairs], metric)


def max_bl_distance(pairs, metric) -> float:
    """``max([0.0] + bl_distances(pairs, metric))``, solving only the blocks
    whose TV exceeds every block's lower bound (see Maxima in the module
    docstring): any other has a norm of at most the largest bound."""
    entries = [entry for entry in distance_blocks(pairs, metric) if entry[0]]
    low = max((scale * _unit_lower_bound(wts, dist) for scale, (wts, dist) in entries),
              default=0.0)
    return max([low] + solve_blocks([entry for entry in entries if entry[0] > low]))


def _unit_lower_bound(wts, dist) -> float:
    """A lower bound on the norm of unit-TV weights ``wts`` on points
    ``dist`` apart: 1.0, the norm itself, for weights of one sign, else
    max(|sum w|, dmin / (2 + dmin)) less BOUND_MARGIN."""
    pos, neg = wts > 0.0, wts < 0.0
    if not (pos.any() and neg.any()):
        return 1.0
    gap = float(dist[np.ix_(pos, neg)].min())
    return max(abs(float(wts.sum())), gap / (2.0 + gap)) * (1.0 - BOUND_MARGIN)


def bl_distance(mu, nu, metric) -> float:
    """BL distance between two measures (positive or signed): the closed
    form if their difference is a star, else one flow LP."""
    return bl_distances([(mu, nu)], metric)[0]


def dirac_distance_exact(d: float) -> float:
    """Closed form for the distance of two unit Diracs at distance d."""
    return 2.0 * d / (2.0 + d)
