"""Numerical verification of the scheme's exact operator identities.

Each ``check_*`` yields both sides of a telescoping or swap decomposition,
acting on one test measure (never materializing operator matrices), and the
one driver ``_check`` runs a panel of test measures through it and reports
the worst BL-norm deviation from one batched norm solve.  These are exact
operator identities, so deviations are pure floating-point noise.

The formulas are written once, over two operations: ``_chain``, a product
of operators, and ``_combine``, ``linear_combine``.  On a finite space
``_check`` runs the whole test panel through them as one
``operators._Panel``, the runner that ``apply_signed`` uses for products of
stochastic matrices, with one row per test measure: each row is bitwise
what ``apply_signed`` and ``linear_combine`` give for its measure.
Anywhere else (linear-flow lifts on R^dim) the same formulas run per
measure, through ``apply_signed`` and ``linear_combine``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check(name, g1, test_measures, sides) -> IdentityCheckResult:
    """Worst BL distance over the (lhs, rhs) pairs that ``sides`` yields for
    each signed test measure (per test measure, then per pair), from one
    batched solve.  On a finite space ``sides`` runs once, on the panel."""
    if not test_measures:
        raise ValueError(f"{name}: need at least one test measure")
    tests = [mu.as_signed() if isinstance(mu, PositiveMeasure) else mu for mu in test_measures]
    panel = _panel(tests, g1.space)
    if panel is None:
        pairs = [pair for mu in tests for pair in sides(mu)]
    else:
        columns = [(lhs.measures(), rhs.measures()) for lhs, rhs in sides(panel)]
        pairs = [(lhs[r], rhs[r]) for r in range(len(tests)) for lhs, rhs in columns]
    deviation = max([0.0] + bl_distances(pairs, pairs[0][0].space))
    tolerance = MATRIX_TOL if g1.kind == "matrix_exponential" else LIFT_TOL
    return IdentityCheckResult(name, deviation, len(test_measures), tolerance)


def _chain(mu, ops):
    """The product of ``ops`` in written order (the last acts first) on mu."""
    if not ops:
        return mu
    return mu.chain(ops) if isinstance(mu, _Panel) else apply_signed(compose(*ops), mu)


def _combine(coeffs, measures):
    """``linear_combine`` of signed measures, or of panels row by row."""
    if isinstance(measures[0], _Panel):
        return _Panel.combine(coeffs, measures)
    return linear_combine(coeffs, measures)


def _sum(terms, mu):
    """The terms added in list order; the zero measure on mu's space if none."""
    return _combine([1.0] * len(terms), terms) if terms else _combine([0.0], [mu])


def _integers(**indices) -> None:
    """ValueError for an index that is not an integer."""
    for name, value in indices.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _commutator(mu, pa, pb):
    """(Pa Pb - Pb Pa) mu."""
    return _combine([1.0, -1.0], [_chain(mu, [pa, pb]), _chain(mu, [pb, pa])])


def _block_gap(mu, g1, g2, h, n, k):
    """([P1(kh) P2(kh)]^n - [P1(h) P2(h)]^(nk)) mu: coarse minus fine blocks."""
    coarse = [at_time(g1, k * h), at_time(g2, k * h)]
    fine = [at_time(g1, h), at_time(g2, h)]
    return _combine([1.0, -1.0], [_chain(mu, coarse * n), _chain(mu, fine * (n * k))])


def _triple_sum(mu, g1, g2, h, n, k, inner):
    """Sum of [P1k P2k]^i P1(jh) P2(lh) [P1, P2] inner(i, j, l) over i < n,
    1 <= j < k, l < j, term by term in that order (P1k: P1 at kh)."""
    p1, p2 = at_time(g1, h), at_time(g2, h)
    p1k, p2k = at_time(g1, k * h), at_time(g2, k * h)
    terms = []
    for i in range(n):
        for j in range(1, k):
            for l in range(j):
                core = _commutator(inner(i, j, l), p1, p2)
                core = _chain(core, [at_time(g2, l * h)])
                core = _chain(core, [at_time(g1, j * h)])
                terms.append(_chain(core, [p1k, p2k] * i))
    return _sum(terms, mu)


def _displayed_triple_sum(mu, g1, g2, h, n, k):
    """The triple sum as displayed: the trailing second-factor time is
    (j - l) h and the trailing block exponent k(n - i) - j - 1, verbatim."""
    p1, p2 = at_time(g1, h), at_time(g2, h)
    return _triple_sum(mu, g1, g2, h, n, k, lambda i, j, l: _chain(
        mu, [at_time(g2, (j - l) * h)] + [p1, p2] * (k * (n - i) - j - 1)))


def check_lemma_a(g1, g2, t, m, j, test_measures) -> IdentityCheckResult:
    """Commutator of one first-factor step against j second-factor steps."""
    _integers(m=m, j=j)
    if not 1 <= j <= m:
        raise ValueError("need 1 <= j <= m")
    h = t / m
    p1 = at_time(g1, h)

    def sides(mu):
        lhs = _commutator(mu, p1, at_time(g2, j * h))
        terms = []
        for l in range(j):
            core = _commutator(_chain(mu, [at_time(g2, (j - 1 - l) * h)]),
                               p1, at_time(g2, h))
            terms.append(_chain(core, [at_time(g2, l * h)]))
        yield lhs, _sum(terms, mu)

    return _check("telescoping_single_step", g1, test_measures, sides)


def check_lemma_b(g1, g2, t, m, k, test_measures) -> IdentityCheckResult:
    """One coarse block against the k-fold product of fine blocks."""
    _integers(m=m, k=k)
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    h = t / m
    p1, p2 = at_time(g1, h), at_time(g2, h)

    def sides(mu):
        lhs = _block_gap(mu, g1, g2, h, 1, k)
        terms = []
        for j in range(1, k):
            inner = _chain(mu, [p1, p2] * (k - 1 - j))
            inner = _chain(inner, [p2])
            core = _commutator(inner, p1, at_time(g2, j * h))
            terms.append(_chain(core, [at_time(g1, j * h)]))
        yield lhs, _sum(terms, mu)

    return _check("telescoping_block", g1, test_measures, sides)


def check_lemma_c(g1, g2, t, n, k, test_measures) -> IdentityCheckResult:
    """n coarse blocks against nk fine blocks."""
    _integers(n=n, k=k)
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    h = t / (n * k)
    p1, p2 = at_time(g1, h), at_time(g2, h)
    p1k, p2k = at_time(g1, k * h), at_time(g2, k * h)

    def sides(mu):
        lhs = _block_gap(mu, g1, g2, h, n, k)
        terms = []
        for i in range(n):
            tail = _chain(mu, [p1, p2] * (k * (n - 1 - i)))
            terms.append(_chain(_block_gap(tail, g1, g2, h, 1, k), [p1k, p2k] * i))
        yield lhs, _sum(terms, mu)

    return _check("telescoping_refinement", g1, test_measures, sides)


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

    def sides(mu):
        yield _block_gap(mu, g1, g2, h, n, k), _displayed_triple_sum(mu, g1, g2, h, n, k)

    return _check("triple_sum_decomposition", g1, test_measures, sides)


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

    def sides(mu):
        lhs = _displayed_triple_sum(mu, g1, g2, h, n, k)
        yield lhs, _triple_sum(mu, g1, g2, h, n, k, lambda i, j, l: _chain(
            mu, [at_time(g2, (j - 1 - l) * h), p2]
            + [p1, p2] * (k - 1 - j) + [p1, p2] * (k * (n - 1 - i))))

    return _check("triple_sum_recomposition", g1, test_measures, sides)


def check_swap_identity(g1, g2, t, n, test_measures) -> IdentityCheckResult:
    """Both expansions of (P1 P2)^n - (P2 P1)^n against the direct difference."""
    _integers(n=n)
    if n < 1:
        raise ValueError("need n >= 1")
    p1, p2 = at_time(g1, t), at_time(g2, t)

    def sides(mu):
        direct = _combine(
            [1.0, -1.0], [_chain(mu, [p1, p2] * n), _chain(mu, [p2, p1] * n)])
        for leading, trailing in (([p2, p1], [p1, p2]), ([p1, p2], [p2, p1])):
            terms = []
            for i in range(n):
                inner = _chain(mu, trailing * i)
                core = _commutator(inner, p1, p2)
                terms.append(_chain(core, leading * (n - i - 1)))
            yield direct, _sum(terms, mu)

    return _check("order_swap_expansion", g1, test_measures, sides)


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
