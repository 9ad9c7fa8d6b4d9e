"""Numerical verification of the scheme's exact operator identities.

Each ``check_*`` states both sides of a telescoping or swap decomposition as
operator lists (never materializing operator matrices), and the one driver
``_check`` evaluates them on a panel of test measures and reports the worst
BL-norm deviation from ``max_bl_distance``: closed-form bounds settle most
distances, and one batched norm solve takes only those that can hold the
maximum.  These are exact operator identities, so deviations are pure
floating-point noise.

A side is one term ``outer (a - b) mu`` (a ``_Gap``: the two products of a
commutator or of a block gap, then the product after them), or the sum of
such terms in order.  Consecutive products of a term fuse into one operator
list (``inner`` and then ``[Pa, Pb]`` is ``[Pa, Pb] + inner``), which gives
the same bits.  Measures list their atoms as ``measures`` builds them: in
state order on a finite space, in order of first appearance on R^dim.

A check runs on one ``_Panel`` or wholly per measure.  The panel holds the
test measures as rows of two dense weight arrays over the states and runs
the terms of all sides at once.  The products ``a`` and ``b`` of every term
run in one ``_Panel.chain`` call, on term-major blocks of rows, with one
stacked product per step for every term still running; their differences
run in one ``_Panel.combine``, the products ``outer`` in a second ``chain``
call, and each sum in one combine.  Each row is bitwise what
``apply_signed``, factor by factor, and ``linear_combine`` give for its
measure.  Where the panel cannot give those bits (a space that is not
finite, a measure it does not hold, a factor that is not a stochastic
matrix on its space, a row that fails a check) it raises ``_Refused``, and
``_check`` evaluates every side on one test measure at a time with
``_value``, which raises where ``apply_signed`` and ``linear_combine`` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import operators
from .bl_metric import max_bl_distance
from .measures import PRUNE_REL_TOL, PositiveMeasure, SignedMeasure, StateSpace, linear_combine
from .operators import TV_PRESERVATION_TOL, SemigroupSpec, apply_signed, at_time

MATRIX_TOL = 1e-10
LIFT_TOL = 1e-8


@dataclass(frozen=True)
class IdentityCheckResult:
    identity_name: str
    max_deviation: float
    instances: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_json_dict(self) -> dict:
        return {"identityName": self.identity_name,
                "maxDeviation": self.max_deviation,
                "instances": self.instances,
                "tolerance": self.tolerance,
                "passed": self.passed}


class _Gap(NamedTuple):
    """The term ``outer (a - b) mu``: operator lists in written order (the
    last acts first)."""

    outer: list
    a: list
    b: list


class _Refused(Exception):
    """The panel cannot give a check's per-measure bits."""


def _check(name, g1, test_measures, pairs) -> IdentityCheckResult:
    """Worst BL distance over the (lhs, rhs) ``pairs`` of sides, for each
    signed test measure (per test measure, then per pair), from
    ``max_bl_distance``.  Each side is evaluated once: on the panel, or, if
    it refuses, on each test measure."""
    if not test_measures:
        raise ValueError(f"{name}: need at least one test measure")
    tests = [mu.as_signed() if isinstance(mu, PositiveMeasure) else mu for mu in test_measures]
    sides = list({id(side): side for pair in pairs for side in pair}.values())
    slot = {id(side): i for i, side in enumerate(sides)}
    try:
        rows = list(zip(*(value.measures() for value in _evaluate(_panel(tests, g1.space), sides))))
    except _Refused:
        rows = [[_value(side, mu) for side in sides] for mu in tests]
    measured = [(row[slot[id(lhs)]], row[slot[id(rhs)]]) for row in rows for lhs, rhs in pairs]
    deviation = max_bl_distance(measured, measured[0][0].space)
    tolerance = MATRIX_TOL if g1.kind == "matrix_exponential" else LIFT_TOL
    return IdentityCheckResult(name, deviation, len(test_measures), tolerance)


def _evaluate(panel, sides) -> list:
    """The value of each side (a ``_Gap``, or a list of them to add) on the
    rows of a panel, as a panel."""
    rows = panel.w.shape[1]
    gaps = [gap for side in sides for gap in (side if isinstance(side, list) else [side])]
    cut = len(gaps) * rows
    products = _Panel(panel.space, np.tile(panel.w, (1, 2 * len(gaps), 1))).chain(
        [g.a for g in gaps] + [g.b for g in gaps])
    cores = _Panel.combine([1.0, -1.0], [products.rows(0, cut), products.rows(cut, 2 * cut)])
    done = cores.chain([g.outer for g in gaps])
    blocks = iter([done.rows(start, start + rows) for start in range(0, cut, rows)])
    # a sum of no terms is the zero measure on the panel's space
    return [_Panel.combine([1.0] * len(side) or [0.0], [next(blocks) for _ in side] or [panel])
            if isinstance(side, list) else next(blocks) for side in sides]


def _value(side, mu):
    """The value of a side on one signed measure, as ``_evaluate`` gives it
    on a panel row."""
    if isinstance(side, list):
        return linear_combine([1.0] * len(side) or [0.0], [_value(gap, mu) for gap in side] or [mu])
    core = linear_combine([1.0, -1.0], [_signed_product(side.a, mu), _signed_product(side.b, mu)])
    return _signed_product(side.outer, core)


def _signed_product(ops, mu):
    """The product of ``ops`` in written order (the last acts first) on the
    signed measure ``mu``, one ``apply_signed`` per operator."""
    for P in reversed(ops):
        mu = apply_signed(P, mu)
    return mu


def _integers(**indices) -> None:
    """ValueError for an index that is not an integer."""
    for name, value in indices.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _commutator(pa, pb, inner=(), outer=()) -> _Gap:
    """outer (Pa Pb - Pb Pa) inner."""
    return _Gap(list(outer), [pa, pb, *inner], [pb, pa, *inner])


def _block_gap(g1, g2, h, n, k, inner=(), outer=()) -> _Gap:
    """outer ([P1(kh) P2(kh)]^n - [P1(h) P2(h)]^(nk)) inner: coarse minus
    fine blocks."""
    coarse = [at_time(g1, k * h), at_time(g2, k * h)]
    fine = [at_time(g1, h), at_time(g2, h)]
    return _Gap(list(outer), coarse * n + list(inner), fine * (n * k) + list(inner))


def _triple_sum(g1, g2, h, n, k, inner) -> list:
    """The terms [P1k P2k]^i P1(jh) P2(lh) [P1, P2] inner(i, j, l) over
    i < n, 1 <= j < k, l < j, in that order (P1k: P1 at kh; ``inner``
    gives an operator list)."""
    p1, p2 = at_time(g1, h), at_time(g2, h)
    p1k, p2k = at_time(g1, k * h), at_time(g2, k * h)
    return [_commutator(p1, p2, inner(i, j, l),
                        [p1k, p2k] * i + [at_time(g1, j * h), at_time(g2, l * h)])
            for i in range(n) for j in range(1, k) for l in range(j)]


def _displayed_triple_sum(g1, g2, h, n, k) -> list:
    """The triple sum as displayed: the trailing second-factor time is
    (j - l) h and the trailing block exponent k(n - i) - j - 1, verbatim."""
    p1, p2 = at_time(g1, h), at_time(g2, h)
    return _triple_sum(g1, g2, h, n, k, lambda i, j, l: (
        [at_time(g2, (j - l) * h)] + [p1, p2] * (k * (n - i) - j - 1)))


def check_lemma_a(g1, g2, t, m, j, test_measures) -> IdentityCheckResult:
    """Commutator of one first-factor step against j second-factor steps."""
    _integers(m=m, j=j)
    if not 1 <= j <= m:
        raise ValueError("need 1 <= j <= m")
    h = t / m
    p1 = at_time(g1, h)
    terms = [_commutator(p1, at_time(g2, h), [at_time(g2, (j - 1 - l) * h)],
                         [at_time(g2, l * h)]) for l in range(j)]
    return _check("telescoping_single_step", g1, test_measures,
                  [(_commutator(p1, at_time(g2, j * h)), terms)])


def check_lemma_b(g1, g2, t, m, k, test_measures) -> IdentityCheckResult:
    """One coarse block against the k-fold product of fine blocks."""
    _integers(m=m, k=k)
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    h = t / m
    p1, p2 = at_time(g1, h), at_time(g2, h)
    terms = [_commutator(p1, at_time(g2, j * h), [p2] + [p1, p2] * (k - 1 - j),
                         [at_time(g1, j * h)]) for j in range(1, k)]
    return _check("telescoping_block", g1, test_measures,
                  [(_block_gap(g1, g2, h, 1, k), terms)])


def check_lemma_c(g1, g2, t, n, k, test_measures) -> IdentityCheckResult:
    """n coarse blocks against nk fine blocks."""
    _integers(n=n, k=k)
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    h = t / (n * k)
    p1, p2 = at_time(g1, h), at_time(g2, h)
    p1k, p2k = at_time(g1, k * h), at_time(g2, k * h)
    terms = [_block_gap(g1, g2, h, 1, k, [p1, p2] * (k * (n - 1 - i)), [p1k, p2k] * i)
             for i in range(n)]
    return _check("telescoping_refinement", g1, test_measures,
                  [(_block_gap(g1, g2, h, n, k), terms)])


def check_corollary(g1, g2, t, n, k, test_measures) -> IdentityCheckResult:
    """Triple-sum decomposition, evaluated exactly as displayed.

    The indices are taken verbatim (see ``_displayed_triple_sum``), and the
    separate recomposition through the three telescoping checks localizes
    any discrepancy.
    """
    _integers(n=n, k=k)
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    h = t / (n * k)
    return _check("triple_sum_decomposition", g1, test_measures,
                  [(_block_gap(g1, g2, h, n, k), _displayed_triple_sum(g1, g2, h, n, k))])


def check_corollary_recomposition(g1, g2, t, n, k, test_measures) -> IdentityCheckResult:
    """Displayed triple sum against the mechanical substitution of the
    telescoping identities into one another.

    The substitution leaves the factors un-merged (trailing second-factor
    times (j-1-l)h and h kept separate, trailing block split as
    (k-1-j) + k(n-1-i)), so a typo in the displayed merged indices would
    surface here while the three telescoping checks still pass.
    """
    _integers(n=n, k=k)
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    h = t / (n * k)
    p1, p2 = at_time(g1, h), at_time(g2, h)
    recomposed = _triple_sum(g1, g2, h, n, k, lambda i, j, l: (
        [at_time(g2, (j - 1 - l) * h), p2] + [p1, p2] * (k - 1 - j)
        + [p1, p2] * (k * (n - 1 - i))))
    return _check("triple_sum_recomposition", g1, test_measures,
                  [(_displayed_triple_sum(g1, g2, h, n, k), recomposed)])


def check_swap_identity(g1, g2, t, n, test_measures) -> IdentityCheckResult:
    """Both expansions of (P1 P2)^n - (P2 P1)^n against the direct difference."""
    _integers(n=n)
    if n < 1:
        raise ValueError("need n >= 1")
    p1, p2 = at_time(g1, t), at_time(g2, t)
    direct = _Gap([], [p1, p2] * n, [p2, p1] * n)
    return _check("order_swap_expansion", g1, test_measures, [
        (direct, [_commutator(p1, p2, trailing * i, leading * (n - i - 1)) for i in range(n)])
        for leading, trailing in (([p2, p1], [p1, p2]), ([p1, p2], [p2, p1]))])


def standard_test_panel(space: StateSpace, rng) -> list:
    """Diracs at every state, the uniform measure, and 3 random ones."""
    panel = [PositiveMeasure.dirac(space, i) for i in range(space.size)]
    panel.append(PositiveMeasure.from_atoms(
        space, [(i, 1.0 / space.size) for i in range(space.size)]))
    for _ in range(3):
        w = rng.uniform(0.05, 1.0, size=space.size)
        panel.append(PositiveMeasure.from_atoms(
            space, [(i, float(w[i] / w.sum())) for i in range(space.size)]))
    return panel


def random_generator(size: int, rng, scale: float = 1.0) -> np.ndarray:
    """Random rate matrix: positive off-diagonals, zero column sums."""
    q = rng.uniform(0.0, scale, size=(size, size))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    return q


def run_identity_suite(seed: int, trials: int, max_states: int):
    """Seeded random instances across all identity checks.

    Returns (results, failures) where failures carries replay data for any
    instance exceeding tolerance.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_states < 2:
        raise ValueError("max_states must be >= 2")
    rng = np.random.default_rng(seed)
    results, failures = [], []
    for trial in range(trials):
        m_states = int(rng.integers(2, max_states + 1))
        # random metric from points in R^3 keeps the triangle inequality
        pts = rng.normal(size=(m_states, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        space = StateSpace.finite(dist)
        g1 = SemigroupSpec.matrix_exponential(space, random_generator(m_states, rng))
        g2 = SemigroupSpec.matrix_exponential(space, random_generator(m_states, rng))
        panel = standard_test_panel(space, rng)
        t = float(rng.uniform(0.2, 1.5))
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        j = int(rng.integers(1, n * k + 1))
        checks = [
            check_lemma_a(g1, g2, t, n * k, j, panel),
            check_lemma_b(g1, g2, t, n * k, min(k, n * k), panel),
            check_lemma_c(g1, g2, t, n, k, panel),
            check_corollary(g1, g2, t, min(n, 4), min(k, 4), panel),
            check_corollary_recomposition(g1, g2, t, min(n, 3), min(k, 3), panel),
            check_swap_identity(g1, g2, t / max(n, 1), n, panel),
        ]
        results.extend(checks)
        for c in checks:
            if not c.passed:
                failures.append({"trial": trial, "seed": seed, "states": m_states,
                                 "t": t, "n": n, "k": k, "j": j,
                                 "identity": c.identity_name,
                                 "deviation": c.max_deviation})
    return results, failures


_SIGNS = np.array([1.0, -1.0])[:, None, None]  # a panel's two parts from signed weights


class _Panel(NamedTuple):
    """Signed measures on one finite space, one per row.

    ``w[0]`` and ``w[1]`` are the (rows, states) weights of the positive and
    the negative parts, with disjoint supports: each part's atoms are its
    nonzero states, in state order, the atom order of ``measures``.  For
    ``chain`` with several terms, the rows are term-major: one equal block
    of rows per term (in the identity checks, one row per test measure in
    each block).
    """

    space: StateSpace
    w: np.ndarray

    def measures(self) -> list:
        """The rows as signed measures."""
        out = []
        for row in zip(*self.w):
            parts = []
            for v in row:
                (points,) = v.nonzero()
                parts.append(PositiveMeasure(self.space, tuple(points.tolist()), v[points]))
            out.append(SignedMeasure(*parts))
        return out

    def rows(self, start, stop) -> "_Panel":
        """Rows ``start:stop``."""
        return _Panel(self.space, self.w[:, start:stop])

    def chain(self, terms) -> "_Panel":
        """The product of ``terms[t]`` in written order (the last acts
        first) on the t-th of ``len(terms)`` equal blocks of rows, for every
        t, bit for bit as ``apply_signed`` factor by factor on each row:
        each factor on both nonempty parts, then the re-split.

        The terms run longest first, aligned on their first-acting factor,
        so the terms still running at a step are a leading slice; groups of
        consecutive terms in that order hold at most _STACK_SIZE floats of
        weights and of stacked matrices (a larger term runs alone).  Each
        step of a group is one stacked product of its running terms'
        (terms, 1, S, S) matrices, gathered for that step, and both parts
        of their rows, which NumPy runs as one gemv per row, the call
        ``P @ v`` of ``_dense_step`` (``MarkovOperatorSpec`` stores every
        matrix C-contiguous, so both take the same gemv).  Each row is then
        TV-checked on its left-to-right sum and pruned at PRUNE_REL_TOL
        times that sum, as ``_dense_step`` checks the ``mass`` of
        ``prune_dense`` and prunes (the zeros between the entries add
        nothing).  The re-split takes the merged weights, cuts at their
        left-to-right mass, with no cut per part (see ``jordan_parts``), and
        splits them by sign; a row with one empty part comes out of it
        unchanged, so every row takes it.  A factor that is not a stochastic
        matrix on this space, or a row that fails a check (a negative or
        non-finite weight, TV not preserved), raises ``_Refused``.
        """
        count = len(terms)
        if not count:
            return self
        size, rows = self.space.size, self.w.shape[1] // count
        w = self.w.reshape(2, count, rows, size)
        order = sorted(range(count), key=lambda t: -len(terms[t]))
        group = max(1, operators._STACK_SIZE // max(2 * rows * size, size * size, 1))
        out = np.empty_like(w)
        for start in range(0, count, group):
            members = order[start:start + group]
            out[:, members] = self._steps(w[:, members], [terms[t] for t in members])
        return _Panel(self.space, out.reshape(self.w.shape))

    def _steps(self, w, terms):
        """One group of ``chain``: the weights (2, n, rows, S) of its n
        terms' blocks, the terms longest first.  Returns them after every
        step."""
        _, n, rows, size = w.shape
        w = w.reshape(2, n * rows, size)
        tv = np.add.accumulate(w, axis=-1)[..., -1]  # each part's mass
        running = [ops[::-1] for ops in terms]  # in application order
        for step in range(len(running[0])):
            while len(running[-1]) <= step:
                running.pop()
            matrices = []
            for ops in running:
                P = ops[step]
                if P.kind != "stochastic_matrix" or (P.space is not self.space
                                                     and P.space != self.space):
                    raise _Refused
                matrices.append(P.matrix)
            m = len(running) * rows
            out = np.matmul(np.stack(matrices)[:, None],
                            w[:, :m].reshape(2, len(running), rows, size, 1)).reshape(2, m, size)
            total = np.add.accumulate(out, axis=-1)[..., -1]
            cut = PRUNE_REL_TOL * total[..., None]
            before = tv[:, :m]
            # a negative, NaN or infinite entry (a comparison with NaN is False)
            if not (np.minimum.reduce(out, None) >= 0.0 and np.maximum.reduce(cut, None) < np.inf
                    and (np.abs(total - before)
                         <= TV_PRESERVATION_TOL * np.maximum(1.0, before)).all()):
                raise _Refused
            out = np.where(out > cut, out, 0.0)
            x = _SIGNS * (out[0] - out[1])  # the merged weights, and their negatives
            cut = PRUNE_REL_TOL * np.add.accumulate(np.abs(x[0]), axis=-1)[:, -1:]
            w[:, :m] = np.where(x > cut, x, 0.0)
            tv[:, :m] = np.add.accumulate(w[:, :m], axis=-1)[..., -1]
        return w.reshape(2, n, rows, size)

    @staticmethod
    def combine(coeffs, panels) -> "_Panel":
        """``linear_combine(coeffs, measures)`` on every row.

        The weights are added in measure order (an absent atom adds an exact
        0.0), and the total, the cut and the Jordan split are taken in state
        order.  A non-finite total, on which ``linear_combine`` raises,
        raises ``_Refused``.  The panels of one check share the space that
        ``_panel`` and each factor of ``chain`` are checked against.
        """
        with np.errstate(over="ignore"):  # an overflow fails the test below
            x = float(coeffs[0]) * (panels[0].w[0] - panels[0].w[1])
            for c, p in zip(coeffs[1:], panels[1:]):
                x = x + float(c) * (p.w[0] - p.w[1])
            total = np.add.accumulate(np.abs(x), axis=-1)[:, -1:]
        if not np.isfinite(total).all():
            raise _Refused
        x = _SIGNS * np.where(np.abs(x) > PRUNE_REL_TOL * total, x, 0.0)
        return _Panel(panels[0].space, np.maximum(x, 0.0))


def _panel(measures, space: StateSpace):
    """The signed measures as one panel on ``space``; ``_Refused`` when it
    does not hold them exactly: a space that is not finite, a part on another
    space, atoms that are not distinct states (in both parts together) in
    state order within each part, with finite positive weights.  Only a
    hand-built ``PositiveMeasure`` lists its states out of order."""
    if space.kind != "finite":
        raise _Refused
    w = np.zeros((2, len(measures), space.size))
    for r, mu in enumerate(measures):
        parts = (mu.pos, mu.neg)
        if any(part.space is not space and part.space != space for part in parts):
            raise _Refused
        try:
            pos_states, neg_states = ([space.point_key(p) for p in part.points] for part in parts)
        except ValueError:
            raise _Refused
        if len(set(pos_states + neg_states)) < len(pos_states) + len(neg_states):
            raise _Refused
        for part, states, dense in zip(parts, (pos_states, neg_states), w[:, r]):
            x = np.asarray(part.weights, dtype=float)
            if (x.shape != (len(states),) or states != sorted(states)
                    or not (np.isfinite(x) & (x > 0.0)).all()):
                raise _Refused
            dense[states] = x
    return _Panel(space, w)

