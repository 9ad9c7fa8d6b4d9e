"""Numerical verification of the scheme's exact operator identities.

Each ``check_*`` states both sides of a telescoping or swap decomposition as
operator lists (never materializing operator matrices), and the one driver
``_check`` evaluates them on a panel of test measures and reports the worst
BL-norm deviation from one batched norm solve.  These are exact operator
identities, so deviations are pure floating-point noise.

A side is one term ``outer (a - b) mu`` (a ``_Gap``: the two products of a
commutator or of a block gap, then the product after them), or the sum of
such terms in order.  Consecutive products of a term fuse into one operator
list (``inner`` and then ``[Pa, Pb]`` is ``[Pa, Pb] + inner``), which gives
the same bits.  On a finite space ``_check`` runs the whole test panel as one
``operators._Panel``, with the terms of all its sides at once: the products
``a`` and ``b`` of every term in one ``_Panel.chain`` call, on term-major
blocks of rows, their differences in one ``_Panel.combine``, the products
``outer`` in a second ``chain`` call, and one combine per sum.  Each row is
bitwise what ``apply_signed`` and ``linear_combine`` give for its measure.
Anywhere else (linear-flow lifts on R^dim) the same terms run per measure,
through ``apply_signed`` and ``linear_combine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bl_metric import bl_distances
from .measures import PositiveMeasure, StateSpace, linear_combine
from .operators import SemigroupSpec, _Panel, _panel, apply_signed, at_time, compose

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


def _check(name, g1, test_measures, pairs) -> IdentityCheckResult:
    """Worst BL distance over the (lhs, rhs) ``pairs`` of sides, for each
    signed test measure (per test measure, then per pair), from one batched
    solve.  Each side is evaluated once; on a finite space, on the panel."""
    if not test_measures:
        raise ValueError(f"{name}: need at least one test measure")
    tests = [mu.as_signed() if isinstance(mu, PositiveMeasure) else mu for mu in test_measures]
    sides = list({id(side): side for pair in pairs for side in pair}.values())
    slot = {id(side): i for i, side in enumerate(sides)}
    panel = _panel(tests, g1.space)
    if panel is None:
        rows = [[value[0] for value in _evaluate([mu], sides)] for mu in tests]
    else:
        rows = list(zip(*(value.measures() for value in _evaluate(panel, sides))))
    measured = [(row[slot[id(lhs)]], row[slot[id(rhs)]]) for row in rows for lhs, rhs in pairs]
    deviation = max([0.0] + bl_distances(measured, measured[0][0].space))
    tolerance = MATRIX_TOL if g1.kind == "matrix_exponential" else LIFT_TOL
    return IdentityCheckResult(name, deviation, len(test_measures), tolerance)


def _evaluate(mu, sides) -> list:
    """The value of each side (a ``_Gap``, or a list of them to add) on mu:
    a panel of test measures, or a list of one signed measure."""
    rows = len(mu.key) if isinstance(mu, _Panel) else len(mu)
    gaps = [gap for side in sides for gap in (side if isinstance(side, list) else [side])]
    cut = len(gaps) * rows
    products = _chains(_repeat(mu, 2 * len(gaps)), [g.a for g in gaps] + [g.b for g in gaps])
    cores = _combine([1.0, -1.0], [_rows(products, 0, cut), _rows(products, cut, 2 * cut)])
    done = _chains(cores, [g.outer for g in gaps])
    blocks = iter([_rows(done, start, start + rows) for start in range(0, cut, rows)])
    return [_sum([next(blocks) for _ in side], mu) if isinstance(side, list) else next(blocks)
            for side in sides]


def _chains(stack, terms):
    """The product of ``terms[t]`` in written order (the last acts first) on
    the t-th block of rows of a panel, or on the t-th of a list of signed
    measures."""
    if isinstance(stack, _Panel):
        return stack.chain(terms)
    return [apply_signed(compose(*ops), mu) if ops else mu for mu, ops in zip(stack, terms)]


def _combine(coeffs, stacks):
    """``linear_combine`` row by row, of panels or of lists of signed measures."""
    if isinstance(stacks[0], _Panel):
        return _Panel.combine(coeffs, stacks)
    return [linear_combine(coeffs, list(row)) for row in zip(*stacks)]


def _rows(stack, start, stop):
    """Rows ``start:stop`` of a panel, or of a list of signed measures."""
    if isinstance(stack, _Panel):
        return _Panel(stack.space, stack.w[:, start:stop], stack.key[start:stop])
    return stack[start:stop]


def _repeat(mu, count):
    """``count`` copies of the rows of a panel, or of a list, one after another."""
    if isinstance(mu, _Panel):
        return _Panel(mu.space, np.tile(mu.w, (1, count, 1)), np.tile(mu.key, (count, 1)))
    return mu * count


def _sum(terms, mu):
    """The terms added in list order; the zero measure on mu's space if none."""
    return _combine([1.0] * len(terms), terms) if terms else _combine([0.0], [mu])


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
