"""Markov operators and semigroups on finitely supported measures.

Four operator kinds share one interface: column-stochastic matrices on a
finite space, deterministic-map lifts (Dirac pushforwards), kernels that
send each point to a probability measure, and products of operators
(``compose``).  Stochastic-matrix steps on positive measures run in
``_apply_chain``: each run of two or more of them on one space fills one
stack of dense weight vectors with one product per step, and one
vectorised prune and TV test over the stack (``_dense_kept_steps``) finds
the first step that must prune or raise; that step alone, and every single
step, runs ``_dense_step``.  Signed measures run in ``_Panel.chain``, as
rows of two dense weight arrays, for ``apply_signed`` and the identity
checks alike.  Chains of deterministic maps on R^dim run in ``_map_chain``
the same way: the flows carry an array form of their map, each run of them
fills one stack of point arrays with one call per step, and one finiteness
and coincidence test over the stack (``_kept_steps``) finds the first step
that must merge atoms or raise; that step alone runs ``point_map`` point by
point and ``from_atoms``.  Every kind of step checks TV on the merged mass
before the prune.  Semigroups are generated by a rate matrix (matrix
exponential), a linear flow on R^dim, or a named closed-form flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .bl_metric import LipschitzWitness
from .measures import (
    COINCIDENCE_TOL,
    PRUNE_REL_TOL,
    PositiveMeasure,
    SignedMeasure,
    SpaceMismatchError,
    StateSpace,
    linear_combine,
    mass,
    merged_positive,
    prune_dense,
)

STOCHASTICITY_TOL = 1e-12
TV_PRESERVATION_TOL = 1e-12

# Running count of operator applications; every one is checked inline for
# TV preservation and positivity, so the count doubles as an audit trail.
APPLY_COUNT = 0


class GeneratorError(ValueError):
    """Raised for rate matrices that are not valid Markov generators."""


@dataclass(frozen=True)
class MarkovOperatorSpec:
    """A TV-preserving positive map on measures, with a dual action on functions.

    kind is one of "stochastic_matrix" (column-stochastic ``matrix``),
    "deterministic_map" (``point_map`` sends points to points), "kernel"
    (``kernel`` sends points to unit-mass PositiveMeasures), or "composite"
    (``factors`` on the same space, in written order: the last acts first).

    The flows on R^dim (``at_time`` of a linear-flow lift or a named flow,
    and ``identity``) also carry ``_array_map(src, dst)``: ``point_map`` on
    every point of ``src`` at once, (m, dim, 1) arrays, bit for bit.
    """

    kind: str
    space: StateSpace
    matrix: np.ndarray | None = None
    point_map: object = None
    kernel: object = None
    factors: tuple = ()
    _array_map: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "stochastic_matrix":
            a = np.asarray(self.matrix, dtype=float)
            if a.shape != (self.space.size, self.space.size):
                raise ValueError("matrix shape does not match state space size")
            if not np.isfinite(a).all():
                raise ValueError("stochastic matrix has non-finite entries")
            if not np.all(a >= -STOCHASTICITY_TOL):
                raise ValueError("stochastic matrix has negative entries")
            colsums = a.sum(axis=0)
            if not np.all(np.abs(colsums - 1.0) <= STOCHASTICITY_TOL):
                raise ValueError(
                    f"columns not stochastic: max deviation {np.max(np.abs(colsums - 1.0)):.3e}"
                )
            object.__setattr__(self, "matrix", a)
        elif self.kind == "deterministic_map":
            if self.point_map is None:
                raise ValueError("deterministic_map needs a point map")
        elif self.kind == "kernel":
            if self.kernel is None:
                raise ValueError("kernel operator needs a kernel")
        elif self.kind == "composite":
            if not self.factors:
                raise ValueError("composite operator needs at least one factor")
            for F in self.factors:
                _check_space(F, self.space)
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @staticmethod
    def identity(space: StateSpace) -> "MarkovOperatorSpec":
        if space.kind == "finite":
            return MarkovOperatorSpec(kind="stochastic_matrix", space=space,
                                      matrix=np.eye(space.size))
        return _flow_operator(space, lambda x: x, lambda src, dst: np.copyto(dst, src))


def compose(*ops: MarkovOperatorSpec) -> MarkovOperatorSpec:
    """The product ``ops[0] ... ops[-1]``: ``apply(compose(A, B), mu)`` is
    ``apply(A, apply(B, mu))`` bit for bit (factors are never multiplied)."""
    return MarkovOperatorSpec(kind="composite", space=ops[0].space if ops else None,
                              factors=ops)


def _flow_operator(space: StateSpace, point_map, array_map) -> MarkovOperatorSpec:
    """A deterministic map on R^dim; ``array_map`` None takes single points only."""
    P = MarkovOperatorSpec(kind="deterministic_map", space=space, point_map=point_map)
    object.__setattr__(P, "_array_map", array_map)
    return P


def _check_space(P: MarkovOperatorSpec, space: StateSpace) -> None:
    # identity first: StateSpace.__eq__ compares the distance matrices
    if space is not P.space and space != P.space:
        raise SpaceMismatchError("measure and operator live on different spaces")


def _check_tv(P: MarkovOperatorSpec, tv_in: float, tv_out: float) -> None:
    if abs(tv_out - tv_in) > TV_PRESERVATION_TOL * max(1.0, tv_in):
        raise RuntimeError(
            f"TV not preserved: {tv_in} -> {tv_out} under {P.kind} operator")


def check_input(P: MarkovOperatorSpec, mu: PositiveMeasure) -> None:
    """The input checks of ``apply``: same space, nonnegative weights."""
    _check_space(P, mu.space)
    if np.any(mu.weights < 0.0):
        raise ValueError("apply takes positive measures; split signed input first")


def apply(P: MarkovOperatorSpec, mu: PositiveMeasure) -> PositiveMeasure:
    """Push a positive measure through the operator; preserves TV to 1e-12."""
    global APPLY_COUNT
    APPLY_COUNT += 1
    check_input(P, mu)
    if P.kind == "composite":
        return _apply_chain(P.factors[::-1], mu)
    if P.kind == "stochastic_matrix" or (
            P.kind == "deterministic_map" and P.space.kind == "euclidean"):
        return _apply_chain((P,), mu)
    if P.kind == "deterministic_map":
        space, atoms = P.space, [(P.point_map(p), w) for p, w in zip(mu.points, mu.weights)]
    else:
        if not len(mu):
            return mu
        parts = []
        for p in mu.points:
            kp = P.kernel(p)
            if abs(kp.tv - 1.0) > STOCHASTICITY_TOL:
                raise ValueError(f"kernel at {p!r} has mass {kp.tv}, expected 1")
            parts.append(kp)
        # the space check and the weights of linear_combine(mu.weights, parts)
        space = parts[0].space
        if any(kp.space is not space and kp.space != space for kp in parts):
            raise SpaceMismatchError("measures live on different state spaces")
        atoms = [atom for kp, w in zip(parts, mu.weights) for atom in zip(
            kp.points, (float(w) * np.asarray(kp.weights, dtype=float)).tolist())]
    out, total = merged_positive(space, atoms)
    _check_tv(P, mu.tv, total)  # the merged mass, before the prune, as _dense_step
    return out


def _apply_chain(ops, mu: PositiveMeasure) -> PositiveMeasure:
    """Apply the nonempty sequence ``ops`` to the positive measure ``mu``,
    first operator first, bit for bit as one ``apply`` per operator.

    Stochastic matrices run on one dense weight vector.  Each maximal run of
    two or more of them on this space (at most _STACK_SIZE weights) fills
    one (steps + 1, states) stack, one ``np.matmul`` per step, the product
    ``P.matrix @ v`` of ``_dense_step``.  One test over the stack
    (``_dense_kept_steps``) then finds the first step that ``_dense_step``
    would not leave as it is: a weight to prune, a negative or non-finite
    weight, or TV not preserved.  The steps before it are kept; that step
    runs ``_dense_step``, which prunes, raises and warns as ``apply``, and
    the chain goes on stacking from there, with shorter stacks and more
    single steps after each failing stack (see the loop).  A one-step run,
    a factor on another space (which ``_dense_step`` refuses) and every
    single ``apply`` take ``_dense_step`` alone.  Deterministic maps on
    R^dim run on one point array the same way (see ``_map_chain``).  These steps keep
    the checks and exceptions of ``apply`` and are not counted in
    APPLY_COUNT.  Any other chain is one ``apply`` per operator.  The
    callers have run ``check_input`` on ``(ops[0], mu)``.
    """
    if mu.space.kind == "euclidean" and all(P.kind == "deterministic_map" for P in ops):
        return _map_chain(ops, mu)
    if any(P.kind != "stochastic_matrix" for P in ops):
        for P in ops:
            mu = apply(P, mu)
        return mu
    space, v, tv = mu.space, mu.weight_vector(), mu.tv
    idx = None  # the result's states and weights when the last step was a _dense_step
    i, span, wait = 0, len(ops), 1
    while i < len(ops):
        end = i
        if len(v):  # a space of no states has no weights to stack
            limit = min(len(ops), i + span, i + _STACK_SIZE // len(v))
            while end < limit and (ops[end].space is space or ops[end].space == space):
                end += 1
        singles = 1
        if end - i > 1:
            S = np.empty((end - i + 1, len(v)))
            S[0] = v
            rows = list(S)
            with np.errstate(all="ignore"):  # a failing step warns in _dense_step below
                for P, src, dst in zip(ops[i:end], rows, rows[1:]):
                    np.matmul(P.matrix, src, out=dst)  # the gemv of P.matrix @ v
            kept, totals = _dense_kept_steps(S, tv)
            if kept:
                v, tv, idx = S[kept], float(totals[kept - 1]), None
                space = ops[i + kept - 1].space
                i += kept
            # Restacking the rest of the chain after each failing step would be
            # quadratic in a chain that prunes at every step.  So the next stack
            # takes at most 2 * (kept + 1) steps, and the k-th failing stack is
            # followed by 2^(k-1) single steps, the failing one first: at most
            # log2(steps) + 1 stacks of a chain fail.
            span = 2 * (kept + 1)
            if i == end:
                continue
            singles, wait = wait, 2 * wait
        for P in ops[i:i + singles]:
            v, tv, idx, w = _dense_step(P, v, tv, space)
            space = P.space
        i += singles
    if idx is None:
        idx = v.nonzero()[0]
        w = v[idx]
    return PositiveMeasure(space=space, points=tuple(idx.tolist()), weights=w)


def _dense_kept_steps(S, tv: float):
    """How many leading steps of the weight stack ``S`` (steps + 1, states),
    whose row 0 has mass ``tv``, ``_dense_step`` would leave as they are,
    and the mass of every step.

    A step is kept when each of its weights is 0 or above PRUNE_REL_TOL
    times its left-to-right total (the zeros add exactly nothing, so that is
    ``prune_dense``'s ``mass``), so that there is nothing to prune; a
    negative, NaN or infinite weight fails that.  And its total must be
    within the TV tolerance of the previous step's, as ``_check_tv`` asks.
    """
    X = S[1:]
    with np.errstate(all="ignore"):
        totals = np.add.accumulate(X, axis=1)[:, -1]
        before = np.concatenate(([tv], totals[:-1]))
        ok = np.logical_and.reduce((X == 0.0) | (X > PRUNE_REL_TOL * totals[:, None]), axis=1)
        ok &= np.abs(totals - before) <= TV_PRESERVATION_TOL * np.maximum(1.0, before)
    return (len(ok) if np.logical_and.reduce(ok) else int(ok.argmin())), totals


# The most coordinates that one run of array steps in ``_apply_chain`` or
# ``_map_chain`` stacks.
_STACK_SIZE = 1 << 16


def _map_chain(ops, mu: PositiveMeasure) -> PositiveMeasure:
    """Push a positive measure on R^dim through the deterministic maps
    ``ops``, first operator first, bit for bit as one ``apply`` per operator.

    The atoms run as one (m, dim) point array and the weight array.  Each
    maximal run of operators with an ``_array_map`` on this space fills one
    (steps + 1, m, dim, 1) stack, one array call per step, under
    ``np.errstate(all="ignore")``.  One test over the stack
    (``_kept_steps``) then finds the first step that ``apply`` would not
    leave as it is: a non-finite image, or two images within
    COINCIDENCE_TOL in every coordinate.  The steps before it move points
    only, and since the weights clear the prune cut, ``apply``'s merge,
    prune and TV check would change nothing there.  The steps from it on are
    discarded, and the chain goes on from the last kept step with one
    ``point_map`` step.  An array call that raises ends its run the same way.

    A ``point_map`` step calls the map once per point, in order, and runs
    the same test on its one-step stack.  When it fails (a coincidence, a
    bad image, weights the prune would change, points that are not an
    (m, dim) array), the step runs ``from_atoms`` and the TV check as
    ``apply`` does, so it merges, prunes, warns and raises as ``apply``.
    """
    space, points, weights = mu.space, mu.points, mu.weights
    X = _point_array(points, weights, space.dim)
    out = None  # the result when the last step ran from_atoms
    i = 0
    while i < len(ops):
        end = i
        if X is not None:
            limit = min(len(ops), i + max(1, _STACK_SIZE // X.size))
            while end < limit and ops[end]._array_map is not None and (
                    ops[end].space is space or ops[end].space == space):
                end += 1
        if end > i:
            S = np.empty((end - i + 1,) + X.shape + (1,))
            S[0, :, :, 0] = X
            with np.errstate(all="ignore"):
                for k, P in enumerate(ops[i:end]):
                    try:
                        P._array_map(S[k], S[k + 1])
                    except (ArithmeticError, ValueError):  # point_map raises it below
                        S = S[:k + 1]
                        break
            kept = _kept_steps(S[1:, ..., 0])
            if kept:
                X, out, space = S[kept, ..., 0], None, ops[i + kept - 1].space
                i += kept
            if i == end:
                continue
        P = ops[i]
        i += 1
        _check_space(P, space)
        space = P.space
        if X is None:
            moved = [(P.point_map(np.asarray(p, dtype=float)), w)
                     for p, w in zip(points, weights)]
        else:
            images = [P.point_map(x) for x in X]
            try:
                Y = np.array(images, dtype=float)
            except (TypeError, ValueError):  # ragged images make no array
                Y = None
            if Y is not None and Y.shape == X.shape and _kept_steps(Y[None]):
                X, out = Y, None
                continue
            moved = list(zip(images, weights))
        out, total = merged_positive(space, moved)
        _check_tv(P, mass(weights.tolist()), total)
        points, weights = out.points, out.weights
        X = _point_array(points, weights, space.dim)
    if out is not None:
        return out
    return PositiveMeasure(space=space, points=tuple(map(tuple, X.tolist())),
                           weights=weights.copy())


def _point_array(points, weights, dim: int):
    """The points as an (m, dim) float array, when a step without a
    coincidence leaves these atoms as they are: m >= 1 float weights, all
    above the prune cut (``prune_dense``'s test).  None otherwise."""
    m = len(points)
    if not (m and isinstance(weights, np.ndarray) and weights.dtype == float
            and weights.shape == (m,)):
        return None
    listed = weights.tolist()
    if not min(listed) > PRUNE_REL_TOL * mass(listed):
        return None
    try:
        X = np.array(points, dtype=float)
    except (TypeError, ValueError):
        return None
    return X if X.shape == (m, dim) else None


def _kept_steps(Y) -> int:
    """How many leading steps of the image stack ``Y`` (steps, m, dim) a
    ``from_atoms`` would leave as they are: the left-to-right sum of each
    step's coordinates is finite (a NaN or infinity, or an overflowing sum,
    fails it), and no two of its images are equal points
    (``StateSpace.points_equal``)."""
    steps, m, dim = Y.shape
    with np.errstate(all="ignore"):
        finite = np.isfinite(np.add.accumulate(Y.reshape(steps, m * dim), axis=1)[:, -1])
        stop = steps if np.logical_and.reduce(finite) else int(finite.argmin())
        if m == 1:  # one image per step: no pair to coincide
            return stop
        # two equal points have first coordinates within the tolerance, and
        # then so have two neighbours in sorted order
        first = Y[:stop, :, 0].copy()
        first.sort(axis=1)
        near = np.logical_or.reduce(first[:, 1:] - first[:, :-1] < COINCIDENCE_TOL, axis=1)
        for k in near.nonzero()[0].tolist():
            close = (np.abs(Y[k][:, None, :] - Y[k][None, :, :]) < COINCIDENCE_TOL).all(axis=2)
            if np.count_nonzero(close) > m:  # the diagonal is always close
                return k
    return stop


def _dense_step(P: MarkovOperatorSpec, v: np.ndarray, tv_in: float, space: StateSpace):
    """One stochastic-matrix step of ``apply`` on the dense weights ``v`` of
    mass ``tv_in`` on ``space``: the product, ``prune_dense``'s checks and
    prune, and the TV check of the product's mass before the prune (the
    prune drops up to PRUNE_REL_TOL of the mass per atom, more than the TV
    tolerance over several atoms).  Dense steps only output positive
    weights, so the sign check of ``apply`` is not repeated.  Returns the
    dense weights, the mass and the (points, weights) of the result.
    """
    _check_space(P, space)
    idx, w, total = prune_dense(P.matrix @ v)
    _check_tv(P, tv_in, total)
    if len(w) < P.space.size:
        v = np.zeros(P.space.size)
        v[idx] = w
    else:
        v = w
    return v, mass(w.tolist()), idx, w


def apply_signed(P: MarkovOperatorSpec, mu: SignedMeasure) -> SignedMeasure:
    """Extend the operator to signed measures through the Jordan pair.

    Both nonempty parts go through the operator, and the results are merged
    and re-split into a Jordan pair (``linear_combine([1, -1], [pos,
    neg])``).  A composite re-splits after every factor, so
    ``apply_signed(compose(A, B), mu)`` is ``apply_signed(A, apply_signed(B,
    mu))`` bit for bit.

    A stochastic matrix, or a product of them, runs ``mu`` as a one-row
    ``_Panel``, which adds nothing to APPLY_COUNT.  A measure that a panel
    cannot hold (a repeated state or a zero weight in a part, a state in
    both parts, a part on another space) runs one counted ``apply`` per
    nonempty part and factor instead.  A product with other factors runs
    one ``apply_signed`` per factor, so only its kernel and map factors
    are counted.
    """
    if P.kind == "composite" and any(F.kind != "stochastic_matrix" for F in P.factors):
        for F in reversed(P.factors):
            mu = apply_signed(F, mu)
        return mu
    factors = P.factors if P.kind == "composite" else (P,)
    panel = _panel([mu], mu.space) if P.kind in ("composite", "stochastic_matrix") else None
    if panel is None:
        return _signed_steps(factors, mu)
    return panel.chain(factors).measures()[0]


def _signed_steps(ops, mu: SignedMeasure) -> SignedMeasure:
    """The product of ``ops`` in written order on ``mu``, one factor at a
    time: ``apply`` on each nonempty part, then the re-split."""
    for P in reversed(ops):
        pos = apply(P, mu.pos) if len(mu.pos) else mu.pos
        neg = apply(P, mu.neg) if len(mu.neg) else mu.neg
        mu = linear_combine([1.0, -1.0], [pos, neg])
    return mu


_SIGNS = np.array([1.0, -1.0])[:, None, None]  # a panel's two parts from signed weights


class _Panel(NamedTuple):
    """Signed measures on one finite space, one per row.

    ``w[0]`` and ``w[1]`` are the (rows, states) weights of the positive and
    the negative parts, with disjoint supports.  Within each part, a row
    lists its atoms in increasing ``key`` (rows, states): that is the order
    of the atoms of its measure.  ``tv`` (2, rows) is each part's ``mass``
    in that order, when known.
    """

    space: StateSpace
    w: np.ndarray
    key: np.ndarray
    tv: np.ndarray | None = None

    def measures(self) -> list:
        """The rows as signed measures."""
        out = []
        for order, pos, neg in zip(self.key.argsort(axis=-1), *self.w):
            parts = []
            for v in (pos, neg):
                points = order[v[order] != 0.0]
                parts.append(PositiveMeasure(self.space, tuple(points.tolist()), v[points]))
            out.append(SignedMeasure(*parts))
        return out

    def chain(self, ops) -> "_Panel":
        """The product of ``ops`` in written order (the last acts first) on
        every row, bit for bit as ``_signed_steps``: each factor on both
        nonempty parts, then the re-split.

        Each factor is one stacked product of both parts, which NumPy runs as
        one gemv per row, the call ``P @ v`` of ``_dense_step``.  Each row is
        then TV-checked on its left-to-right sum and pruned at PRUNE_REL_TOL
        times that sum, as ``_dense_step`` checks the ``mass`` of
        ``prune_dense`` and prunes (the zeros between the entries add nothing).
        The re-split merges the parts in ``linear_combine``'s order, the
        positive part's states and then the rest, each in index order, and cuts
        at the merged mass, with no cut per part (see ``jordan_parts``); a row
        with one empty part comes out of it unchanged, so every row takes it.
        A row that fails a check (a factor that is not a stochastic matrix on
        this space, a negative or non-finite weight, TV not preserved) sends
        the panel through ``_signed_steps``, which raises as it does, for the
        first failing measure.
        """
        w, key = self.w, self.key
        rows = np.arange(len(key))[:, None]
        tv = self.tv if self.tv is not None else np.add.accumulate(
            w[:, rows, key.argsort(axis=-1)], axis=-1)[..., -1]
        for P in reversed(ops):
            if P.kind != "stochastic_matrix" or (P.space is not self.space
                                                 and P.space != self.space):
                return self._per_measure(ops)
            out = np.matmul(P.matrix, w[..., None])[..., 0]
            total = np.add.accumulate(out, axis=-1)[..., -1]
            cut = PRUNE_REL_TOL * total[..., None]
            # a negative, NaN or infinite entry (a comparison with NaN is False)
            if not (np.minimum.reduce(out, None) >= 0.0 and np.maximum.reduce(cut, None) < np.inf
                    and (np.abs(total - tv) <= TV_PRESERVATION_TOL * np.maximum(1.0, tv)).all()):
                return self._per_measure(ops)
            out = np.where(out > cut, out, 0.0)
            # the merge order: the positive part's states, then the rest
            order = rows, (out[0] == 0.0).argsort(axis=-1, kind="stable")
            key = order[1].argsort(axis=-1)
            x = _SIGNS * (out[0] - out[1])  # the merged weights, and their negatives
            cut = PRUNE_REL_TOL * np.add.accumulate(np.abs(x[0])[order], axis=-1)[:, -1:]
            w = np.where(x > cut, x, 0.0)
            tv = np.add.accumulate(w[:, rows, order[1]], axis=-1)[..., -1]
        return _Panel(self.space, w, key, tv)

    @staticmethod
    def combine(coeffs, panels) -> "_Panel":
        """``linear_combine(coeffs, measures)`` on every row.

        The weights are added in measure order (an absent atom adds an exact
        0.0), atoms keep their first appearance (a measure's positive part,
        then its negative part), and the total, the cut and the Jordan split
        are taken in that order.  A non-finite total sends the rows through
        ``linear_combine``, which raises.  The panels of one check share the
        space that ``_panel`` and each factor of ``chain`` are checked against.
        """
        space = panels[0].space
        S = space.size
        rows = np.arange(len(panels[0].key))[:, None]
        # keys are below 2S: measure m's atoms take keys from 4Sm on, its
        # negative part after its positive part, and its first appearance wins
        first = np.full(panels[0].key.shape, 4 * S * len(panels))
        for m in reversed(range(len(panels))):
            pos, neg = panels[m].w > 0.0
            first = np.where(pos | neg, 4 * S * m + 2 * S * neg + panels[m].key, first)
        order = first.argsort(axis=-1)
        with np.errstate(over="ignore"):  # an overflow fails the test below
            x = float(coeffs[0]) * (panels[0].w[0] - panels[0].w[1])
            for c, p in zip(coeffs[1:], panels[1:]):
                x = x + float(c) * (p.w[0] - p.w[1])
            total = np.add.accumulate(np.abs(x)[rows, order], axis=-1)[:, -1:]
        if not np.isfinite(total).all():
            return _per_row(lambda *mus: linear_combine(coeffs, mus), panels)
        x = _SIGNS * np.where(np.abs(x) > PRUNE_REL_TOL * total, x, 0.0)
        return _Panel(space, np.maximum(x, 0.0), order.argsort(axis=-1))

    def _per_measure(self, ops) -> "_Panel":
        return _per_row(lambda mu: _signed_steps(ops, mu), [self])


def _panel(measures, space: StateSpace):
    """The signed measures as one panel on ``space``, or None when it does
    not hold them exactly: a space that is not finite, a part on another
    space, or atoms that are not distinct states (in both parts together)
    with finite positive weights.  Those run per measure, which raises where
    it raises."""
    if space.kind != "finite":
        return None
    w = np.zeros((2, len(measures), space.size))
    key = np.zeros((len(measures), space.size), dtype=np.intp)
    for r, mu in enumerate(measures):
        parts = (mu.pos, mu.neg)
        if any(part.space is not space and part.space != space for part in parts):
            return None
        try:
            pos_states, neg_states = ([space.point_key(p) for p in part.points] for part in parts)
        except ValueError:
            return None
        if len(set(pos_states + neg_states)) < len(pos_states) + len(neg_states):
            return None
        for part, states, dense in zip(parts, (pos_states, neg_states), w[:, r]):
            x = np.asarray(part.weights, dtype=float)
            if x.shape != (len(states),) or not (np.isfinite(x) & (x > 0.0)).all():
                return None
            dense[states] = x
            key[r, states] = np.arange(len(states))
    return _Panel(space, w, key)


def _per_row(fn, panels) -> _Panel:
    """``fn`` on each row's measures, one row at a time: the path of a
    panel that fails a check, so that it raises as the per-measure path does."""
    return _panel([fn(*row) for row in zip(*(p.measures() for p in panels))],
                  panels[0].space)


def pairing(mu, f: LipschitzWitness) -> float:
    """<mu, f> for a positive or signed measure."""
    if isinstance(mu, PositiveMeasure):
        mu = mu.as_signed()
    return f.pair(mu)


_NAMED_FLOWS = {
    "translation": lambda params: (lambda t, x: x + t * np.asarray(params.get("velocity", [1.0]))),
    "contraction": lambda params: (lambda t, x: math.exp(-params.get("rate", 1.0) * t) * x),
    "rotation": lambda params: (lambda t, x: _rotate(params.get("rate", 1.0) * t, x)),
}


def _rotate(angle, x):
    """Rotate the first two coordinates of a point, or of each row of an
    array of points."""
    x = np.asarray(x, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    out = x.copy()
    out[..., 0] = c * x[..., 0] - s * x[..., 1]
    out[..., 1] = s * x[..., 0] + c * x[..., 1]
    return out


@dataclass(frozen=True)
class SemigroupSpec:
    """Time-indexed operator family P_t.

    kind "matrix_exponential": generator ``Q`` with zero column sums and
    nonnegative off-diagonals; P_t = e^{tQ}.  kind "linear_flow_lift":
    matrix ``A``, P_t pushes atoms forward by e^{tA}.  kind "map_flow":
    named closed-form flow with parameters.

    ``Q`` and ``A`` are stored as read-only copies, because each instance
    memoizes results computed from them: ``at_time`` operators per t, and
    ``splitting.trotter_iterate`` results.
    """

    kind: str
    space: StateSpace
    Q: np.ndarray | None = None
    A: np.ndarray | None = None
    flow: object = None
    flow_name: str = ""
    flow_params: dict = field(default_factory=dict)
    _operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _iterates: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # a named flow takes an array of points as it takes one point
    _named: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "matrix_exponential":
            q = _read_only(self.Q)
            if q.shape != (self.space.size, self.space.size):
                raise GeneratorError("generator shape does not match space size")
            if not np.isfinite(q).all():
                raise GeneratorError("generator has non-finite entries")
            off = q[~np.eye(self.space.size, dtype=bool)]
            if not np.all(off >= -STOCHASTICITY_TOL):
                raise GeneratorError("generator has negative off-diagonal entries")
            if not np.all(np.abs(q.sum(axis=0)) <= 1e-10):
                raise GeneratorError("generator columns do not sum to zero")
            object.__setattr__(self, "Q", q)
        elif self.kind == "linear_flow_lift":
            a = _read_only(self.A)
            if a.shape != (self.space.dim, self.space.dim):
                raise ValueError("flow matrix shape does not match space dim")
            if not np.isfinite(a).all():
                raise ValueError("flow matrix has non-finite entries")
            object.__setattr__(self, "A", a)
        elif self.kind == "map_flow":
            if self.flow is None:
                if self.flow_name not in _NAMED_FLOWS:
                    raise ValueError(f"unknown flow {self.flow_name!r}")
                if self.space.kind != "euclidean":  # named flows move coordinates
                    raise ValueError(f"{self.flow_name} flow needs a Euclidean space, "
                                     f"not a {self.space.kind} one")
                dim = self.space.dim
                velocity = np.asarray(self.flow_params.get("velocity", [1.0]), dtype=float)
                if (self.flow_name == "rotation" and dim < 2) or (
                        self.flow_name == "translation"
                        and velocity.shape not in ((), (1,), (dim,))):
                    raise ValueError(f"{self.flow_name} flow {self.flow_params} does not fit "
                                     f"a space of dim {dim}")
                if not (np.isfinite(velocity).all()
                        and math.isfinite(self.flow_params.get("rate", 1.0))):
                    raise ValueError(f"{self.flow_name} flow {self.flow_params} has a "
                                     "non-finite velocity or rate")
                object.__setattr__(self, "flow", _NAMED_FLOWS[self.flow_name](self.flow_params))
                object.__setattr__(self, "_named", True)
        else:
            raise ValueError(f"unknown semigroup kind {self.kind!r}")

    @staticmethod
    def matrix_exponential(space: StateSpace, Q) -> "SemigroupSpec":
        return SemigroupSpec(kind="matrix_exponential", space=space, Q=Q)

    @staticmethod
    def linear_flow_lift(space: StateSpace, A) -> "SemigroupSpec":
        return SemigroupSpec(kind="linear_flow_lift", space=space, A=A)

    @staticmethod
    def map_flow(space: StateSpace, name: str, params=None) -> "SemigroupSpec":
        return SemigroupSpec(kind="map_flow", space=space, flow_name=name,
                             flow_params=dict(params or {}))


def _read_only(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def at_time(G: SemigroupSpec, t: float) -> MarkovOperatorSpec:
    """The operator P_t; errors on negative t or a non-stochastic exponential.

    Each semigroup instance memoizes its operators by t, so repeated calls
    return one shared operator (stochastic matrices are read-only).
    Failures are raised on every call and never memoized.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"semigroup is defined for finite t >= 0 only, got {t!r}")
    key = float(t)
    P = G._operators.get(key)
    if P is None:
        P = G._operators[key] = _operator_at(G, t)
    return P


def _operator_at(G: SemigroupSpec, t: float) -> MarkovOperatorSpec:
    if G.kind == "matrix_exponential":
        E = expm(t * G.Q)
        colsums = E.sum(axis=0)
        if not (np.all(np.abs(colsums - 1.0) <= 1e-12) and np.all(E >= -1e-12)):
            # never renormalize silently: a failure here means a generator bug
            raise GeneratorError(
                f"e^(tQ) not column-stochastic at t={t}: "
                f"max column deviation {np.max(np.abs(colsums - 1.0)):.3e}")
        E = np.clip(E, 0.0, None)
        E = E / E.sum(axis=0, keepdims=True)
        E.setflags(write=False)
        return MarkovOperatorSpec(kind="stochastic_matrix", space=G.space, matrix=E)
    if G.kind == "linear_flow_lift":
        Et = expm(t * G.A)
        # NumPy runs the stacked product as one gemv per point, the call E @ x
        return _flow_operator(G.space, lambda x, _E=Et: _E @ np.asarray(x, dtype=float),
                              lambda src, dst, _E=Et: np.matmul(_E, src, out=dst))
    flow = G.flow
    return _flow_operator(
        G.space, lambda x, _t=t: flow(_t, np.asarray(x, dtype=float)),
        (lambda src, dst, _t=t: np.copyto(dst[..., 0], flow(_t, src[..., 0])))
        if G._named else None)  # a given flow may take single points only


def semigroup_from_json(space: StateSpace, spec: dict) -> SemigroupSpec:
    """Build a SemigroupSpec from its JSON wire form.

    ``auxiliaryNormWeight`` is accepted and checked, but nothing reads it.
    """
    kind = spec["kind"]
    aux = spec.get("auxiliaryNormWeight")
    if aux and aux not in ("one", "euclidean_norm"):
        raise ValueError(f"unknown auxiliaryNormWeight {aux!r}")
    if kind == "matrix_exponential":
        return SemigroupSpec.matrix_exponential(space, np.asarray(spec["Q"], dtype=float))
    if kind == "linear_flow_lift":
        return SemigroupSpec.linear_flow_lift(space, np.asarray(spec["A"], dtype=float))
    if kind == "map_flow":
        return SemigroupSpec.map_flow(space, spec["map"], spec.get("params"))
    raise ValueError(f"unknown semigroup kind {kind!r}")
