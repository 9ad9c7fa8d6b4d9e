"""Markov operators and semigroups on finitely supported measures.

Four operator kinds share one interface: column-stochastic matrices on a
finite space, deterministic-map lifts (Dirac pushforwards), kernels that
send each point to a probability measure, and products of operators
(``compose``), which run through one chain runner.  Semigroups are generated
by a rate matrix (matrix exponential), a linear flow on R^dim, or a named
closed-form flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    jordan_parts,
    linear_combine,
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
    """

    kind: str
    space: StateSpace
    matrix: np.ndarray | None = None
    point_map: object = None
    kernel: object = None
    factors: tuple = ()

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
        return MarkovOperatorSpec(kind="deterministic_map", space=space,
                                  point_map=lambda x: x)


def compose(*ops: MarkovOperatorSpec) -> MarkovOperatorSpec:
    """The product ``ops[0] ... ops[-1]``: ``apply(compose(A, B), mu)`` is
    ``apply(A, apply(B, mu))`` bit for bit (factors are never multiplied)."""
    return MarkovOperatorSpec(kind="composite", space=ops[0].space if ops else None,
                              factors=ops)


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
    if P.kind == "deterministic_map" and P.space.kind == "euclidean":
        return _map_chain((P,), mu)
    tv_in = mu.tv
    if P.kind == "stochastic_matrix":
        out = PositiveMeasure.from_weight_vector(P.space, P.matrix @ mu.weight_vector())
    elif P.kind == "deterministic_map":
        out = PositiveMeasure.from_atoms(
            P.space, [(P.point_map(p), w) for p, w in zip(mu.points, mu.weights)])
    else:
        parts, coeffs = [], []
        for p, w in zip(mu.points, mu.weights):
            kp = P.kernel(p)
            if abs(kp.tv - 1.0) > STOCHASTICITY_TOL:
                raise ValueError(f"kernel at {p!r} has mass {kp.tv}, expected 1")
            parts.append(kp)
            coeffs.append(w)
        if not parts:
            return mu
        combined = linear_combine(coeffs, parts)
        out = combined.pos
    _check_tv(P, tv_in, out.tv)
    return out


def _apply_chain(ops, mu):
    """Apply the nonempty sequence ``ops`` to ``mu``, first operator first.

    ``mu`` is a positive measure, or a signed one, which runs as its Jordan
    pair and is re-split after every operator exactly as ``apply_signed``
    re-splits after one.  Stochastic matrices run on dense weight vectors:
    each part takes the checks and exceptions of ``apply`` (matching spaces,
    nonnegative input, the ``PRUNE_REL_TOL`` prune, TV preservation) and
    bitwise its weights, then the pair takes the merge and prunes of
    ``linear_combine([1, -1], [pos, neg])`` (see ``_resplit``).  A positive
    measure on R^dim runs through deterministic maps on one point array (see
    ``_map_chain``).  These steps are not counted in APPLY_COUNT.  Any other
    chain is one ``apply`` (``apply_signed``) per operator.
    """
    signed = isinstance(mu, SignedMeasure)
    if not signed and mu.space.kind == "euclidean" and all(
            P.kind == "deterministic_map" for P in ops):
        return _map_chain(ops, mu)
    if any(P.kind != "stochastic_matrix" for P in ops):
        step = apply_signed if signed else apply
        for P in ops:
            mu = step(P, mu)
        return mu
    # The pair (pos, neg): the caller's parts until their first step, then
    # _dense_step's tuples.  None is an empty part of a signed measure, which
    # apply_signed skips; a positive measure is the pair (mu, None), and its
    # one part always runs, as in apply.
    if signed:
        pos = mu.pos if len(mu.pos) else None
        neg = mu.neg if len(mu.neg) else None
        pos_space, neg_space = mu.pos.space, mu.neg.space
    else:
        pos, neg = mu, None
    space = mu.space
    for P in ops:
        if pos is not None:
            pos = _dense_step(P, pos, space)
        if neg is not None:
            neg = _dense_step(P, neg, space)
        if not signed:
            space = P.space
            continue
        # linear_combine([1, -1], [pos, neg]) puts both on the positive part's space
        pos_space = P.space if pos is not None else pos_space
        neg_space = P.space if neg is not None else neg_space
        if neg_space is not pos_space and neg_space != pos_space:
            raise SpaceMismatchError("measures live on different state spaces")
        space = neg_space = pos_space
        pos = pos if pos is not None and len(pos[3]) else None
        neg = neg if neg is not None and len(neg[3]) else None
        if pos is not None and neg is not None:
            pos, neg = [_dense_part(space, *cut) for cut in _resplit(*pos[2:], *neg[2:])]
    if not signed:
        return _measure(space, pos)
    return SignedMeasure(pos=_measure(space, pos), neg=_measure(space, neg))


def _map_chain(ops, mu: PositiveMeasure) -> PositiveMeasure:
    """Push a positive measure on R^dim through the deterministic maps
    ``ops``, first operator first, bit for bit as one ``apply`` per operator.

    The atoms run as one (m, dim) point array and the weight array.  Each
    step calls ``point_map`` once per point, in order: separate products
    keep linear flows bitwise, where one batched product would not.  One
    test over all images checks that they are finite and that no two lie
    within COINCIDENCE_TOL in every coordinate; such a step moves points
    only.  When the weights also clear the prune cut, ``apply``'s merge,
    prune and TV check would change nothing, and the step skips them.
    Every other step (a coincidence, a bad image, weights the prune would
    change, points that are not an (m, dim) array) runs ``from_atoms`` and
    the TV check as ``apply`` does, so it merges, prunes and raises as
    ``apply``.
    """
    check_input(ops[0], mu)
    space, points, weights = mu.space, mu.points, mu.weights
    X = _point_array(points, weights, space.dim)
    out = None  # the result when the last step ran from_atoms
    for P in ops:
        _check_space(P, space)
        space = P.space
        if X is None:
            moved = [(P.point_map(np.asarray(p, dtype=float)), w)
                     for p, w in zip(points, weights)]
        else:
            images = [P.point_map(x) for x in X]
            Y = _apart(images, X.shape)
            if Y is not None:
                X, out = Y, None
                continue
            moved = list(zip(images, weights))
        out = PositiveMeasure.from_atoms(space, moved)
        _check_tv(P, float(np.sum(weights)), out.tv)
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
    if not min(listed) > PRUNE_REL_TOL * sum(listed):
        return None
    try:
        X = np.array(points, dtype=float)
    except (TypeError, ValueError):
        return None
    return X if X.shape == (m, dim) else None


def _apart(images, shape):
    """The images as an array of ``shape``, when every coordinate is finite
    and no two images are equal points (``StateSpace.points_equal``).
    None otherwise."""
    try:
        Y = np.array(images, dtype=float)
    except (TypeError, ValueError):
        return None
    if Y.shape != shape:
        return None
    flat = Y.ravel().tolist()
    if not math.isfinite(sum(flat)):  # a NaN or infinity, or an overflowing sum
        return None
    # two equal points have first coordinates within the tolerance, and then
    # so have two neighbours in sorted order
    first = sorted(flat[::shape[1]])
    if any(b - a < COINCIDENCE_TOL for a, b in zip(first, first[1:])):
        close = (np.abs(Y[:, None, :] - Y[None, :, :]) < COINCIDENCE_TOL).all(axis=2)
        if np.count_nonzero(close) > len(Y):  # the diagonal is always close
            return None
    return Y


def _dense_step(P: MarkovOperatorSpec, part, space: StateSpace):
    """One stochastic-matrix step of ``apply`` on one part of a chain.

    ``part`` is the caller's measure, which gets ``apply``'s input checks, or
    a (dense weights, tv, points, weights) tuple on ``space``; dense steps
    only output positive weights, so the sign check is not repeated.
    Returns the tuple of the result.
    """
    if isinstance(part, PositiveMeasure):
        check_input(P, part)
        v, tv_in = part.weight_vector(), part.tv
    else:
        _check_space(P, space)
        v, tv_in = part[0], part[1]
    idx, w = prune_dense(P.matrix @ v)
    tv = float(w.sum())
    _check_tv(P, tv_in, tv)
    if len(w) < P.space.size:
        v = np.zeros(P.space.size)
        v[idx] = w
    else:
        v = w
    return v, tv, idx, w


def _resplit(pos_points, pos_weights, neg_points, neg_weights):
    """``linear_combine([1, -1], [pos, neg])`` of two nonempty dense-step
    outputs, as (points, weights) lists of the new positive and negative part.

    Atoms merge in first-appearance order: the positive part's points, then
    the points only in the negative part.  The cut is PRUNE_REL_TOL times
    the builtin ``sum`` of ``|w|`` in that order, and ``jordan_parts``
    splits and prunes the merged atoms as ``linear_combine`` does.
    """
    merged = dict(zip(pos_points.tolist(), pos_weights.tolist()))
    for i, x in zip(neg_points.tolist(), neg_weights.tolist()):
        merged[i] = merged[i] - x if i in merged else -x
    cut = PRUNE_REL_TOL * sum(abs(x) for x in merged.values())
    return jordan_parts(merged.keys(), merged.values(), cut)


def _dense_part(space: StateSpace, points: list, weights: list):
    """A re-split part as a ``_dense_step`` tuple, or None when it is empty."""
    if not points:
        return None
    w = np.array(weights)
    v = np.zeros(space.size)
    v[points] = w
    return (v, float(w.sum()), points, w)


def _measure(space: StateSpace, part) -> PositiveMeasure:
    if part is None:
        return PositiveMeasure(space=space)
    points = part[2]
    return PositiveMeasure(space=space, weights=part[3], points=tuple(
        points.tolist() if isinstance(points, np.ndarray) else points))


def apply_signed(P: MarkovOperatorSpec, mu: SignedMeasure) -> SignedMeasure:
    """Extend the operator to signed measures through the Jordan pair.

    Both parts go through the operator, and the results are merged and
    re-split into a Jordan pair.  A composite re-splits after every factor,
    so ``apply_signed(compose(A, B), mu)`` is ``apply_signed(A,
    apply_signed(B, mu))`` bit for bit; stochastic matrices and their
    products run through the dense chain runner.
    """
    if P.kind == "composite":
        return _apply_chain(P.factors[::-1], mu)
    if P.kind == "stochastic_matrix":
        return _apply_chain((P,), mu)
    pos = apply(P, mu.pos) if len(mu.pos) else mu.pos
    neg = apply(P, mu.neg) if len(mu.neg) else mu.neg
    return linear_combine([1.0, -1.0], [pos, neg])


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
    x = np.asarray(x, dtype=float)
    c, s = math.cos(angle), math.sin(angle)
    out = x.copy()
    out[0] = c * x[0] - s * x[1]
    out[1] = s * x[0] + c * x[1]
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
        return MarkovOperatorSpec(
            kind="deterministic_map", space=G.space,
            point_map=lambda x, _E=Et: _E @ np.asarray(x, dtype=float))
    flow = G.flow
    return MarkovOperatorSpec(
        kind="deterministic_map", space=G.space,
        point_map=lambda x, _t=t: flow(_t, np.asarray(x, dtype=float)))


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
