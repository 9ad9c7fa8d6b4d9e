"""Markov operators and semigroups on finitely supported measures.

Three operator kinds share one interface: column-stochastic matrices on a
finite space, deterministic-map lifts (Dirac pushforwards), and kernels that
send each point to a probability measure.  Semigroups are generated by a
rate matrix (matrix exponential), a linear flow on R^dim, or a named
closed-form flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.linalg import expm

from .bl_metric import LipschitzWitness
from .measures import (
    PositiveMeasure,
    SignedMeasure,
    SpaceMismatchError,
    StateSpace,
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
    "deterministic_map" (``point_map`` sends points to points), or "kernel"
    (``kernel`` sends points to unit-mass PositiveMeasures).
    """

    kind: str
    space: StateSpace
    matrix: np.ndarray | None = None
    point_map: object = None
    kernel: object = None

    def __post_init__(self):
        if self.kind == "stochastic_matrix":
            a = np.asarray(self.matrix, dtype=float)
            if a.shape != (self.space.size, self.space.size):
                raise ValueError("matrix shape does not match state space size")
            if np.any(a < -STOCHASTICITY_TOL):
                raise ValueError("stochastic matrix has negative entries")
            colsums = a.sum(axis=0)
            if np.any(np.abs(colsums - 1.0) > STOCHASTICITY_TOL):
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
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @staticmethod
    def identity(space: StateSpace) -> "MarkovOperatorSpec":
        if space.kind == "finite":
            return MarkovOperatorSpec(kind="stochastic_matrix", space=space,
                                      matrix=np.eye(space.size))
        return MarkovOperatorSpec(kind="deterministic_map", space=space,
                                  point_map=lambda x: x)


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
    tv_in = mu.tv
    if P.kind == "stochastic_matrix":
        out = PositiveMeasure.from_weight_vector(P.space, P.matrix @ mu.weight_vector())
    elif P.kind == "deterministic_map":
        if P.space.kind == "euclidean":
            moved = [(P.point_map(np.asarray(p, dtype=float)), w)
                     for p, w in zip(mu.points, mu.weights)]
        else:
            moved = [(P.point_map(p), w) for p, w in zip(mu.points, mu.weights)]
        out = PositiveMeasure.from_atoms(P.space, moved)
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


def apply_dense(ops, n: int, mu: PositiveMeasure) -> PositiveMeasure:
    """(ops[-1] ... ops[0])^n mu for stochastic matrices, on one dense vector.

    Every step gets the checks ``apply`` makes, with the same exceptions:
    matching spaces, nonnegative output, the ``PRUNE_REL_TOL`` prune and TV
    preservation.  The weights are bitwise those of ``n * len(ops)``
    chained ``apply`` calls; atoms are built once, at the end.  Steps are
    not counted in APPLY_COUNT, which counts ``apply`` calls only.
    """
    if n < 1 or not ops:
        raise ValueError("need n >= 1 and at least one operator")
    if any(P.kind != "stochastic_matrix" for P in ops):
        raise ValueError("apply_dense takes stochastic-matrix operators only")
    check_input(ops[0], mu)
    space = mu.space
    tv = mu.tv
    v = mu.weight_vector()
    for _ in range(n):
        for P in ops:
            _check_space(P, space)
            idx, w = prune_dense(P.matrix @ v)
            tv_out = float(w.sum())
            _check_tv(P, tv, tv_out)
            space, tv = P.space, tv_out
            if len(w) < space.size:
                v = np.zeros(space.size)
                v[idx] = w
            else:
                v = w
    return PositiveMeasure(space=space, points=tuple(idx.tolist()), weights=w)


def apply_signed(P: MarkovOperatorSpec, mu: SignedMeasure) -> SignedMeasure:
    """Extend the operator to signed measures through the Jordan pair."""
    pos = apply(P, mu.pos) if len(mu.pos) else mu.pos
    neg = apply(P, mu.neg) if len(mu.neg) else mu.neg
    return linear_combine([1.0, -1.0], [pos, neg])


def pairing(mu, f: LipschitzWitness) -> float:
    """<mu, f> for a positive or signed measure."""
    if isinstance(mu, PositiveMeasure):
        mu = mu.as_signed()
    return f.pair(mu)


def dual_apply(P: MarkovOperatorSpec, f: LipschitzWitness) -> LipschitzWitness:
    """Dual action (Uf)(x) = <P delta_x, f> with re-certified bounds.

    On finite spaces the Lipschitz bound is re-certified by an exhaustive
    pairwise scan; on Euclidean spaces it is set to the conservative
    ``2 * supBound / min pairwise distance`` over the witness points.
    """
    if P.space.kind == "finite":
        points = tuple(range(P.space.size))
    else:
        points = f.points
    values = []
    for x in points:
        px = apply(P, PositiveMeasure.dirac(P.space, x))
        values.append(pairing(px, f))
    values = np.asarray(values)
    sup_bound = f.sup_bound
    if P.space.kind == "finite":
        lip = 0.0
        for (i, p), (j, q) in combinations(enumerate(points), 2):
            d = P.space.distance(p, q)
            if d > 0.0:
                lip = max(lip, abs(values[i] - values[j]) / d)
        lip_bound = lip
    else:
        dmin = math.inf
        for p, q in combinations(points, 2):
            dmin = min(dmin, P.space.distance(p, q))
        lip_bound = 2.0 * sup_bound / dmin if math.isfinite(dmin) and dmin > 0 else f.lip_bound
    return LipschitzWitness(points=points, values=values,
                            sup_bound=sup_bound, lip_bound=lip_bound)


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
    named closed-form flow with parameters.  ``aux_norm_weight`` optionally
    realizes the per-point weight of the auxiliary seminorm for lifts.

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
    aux_norm_weight: object = None
    _operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _iterates: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "matrix_exponential":
            q = _read_only(self.Q)
            if q.shape != (self.space.size, self.space.size):
                raise GeneratorError("generator shape does not match space size")
            off = q[~np.eye(self.space.size, dtype=bool)]
            if off.size and np.any(off < -STOCHASTICITY_TOL):
                raise GeneratorError("generator has negative off-diagonal entries")
            if np.any(np.abs(q.sum(axis=0)) > 1e-10):
                raise GeneratorError("generator columns do not sum to zero")
            object.__setattr__(self, "Q", q)
        elif self.kind == "linear_flow_lift":
            a = _read_only(self.A)
            if a.shape != (self.space.dim, self.space.dim):
                raise ValueError("flow matrix shape does not match space dim")
            object.__setattr__(self, "A", a)
        elif self.kind == "map_flow":
            if self.flow is None:
                if self.flow_name not in _NAMED_FLOWS:
                    raise ValueError(f"unknown flow {self.flow_name!r}")
                object.__setattr__(self, "flow", _NAMED_FLOWS[self.flow_name](self.flow_params))
        else:
            raise ValueError(f"unknown semigroup kind {self.kind!r}")

    @staticmethod
    def matrix_exponential(space: StateSpace, Q) -> "SemigroupSpec":
        return SemigroupSpec(kind="matrix_exponential", space=space, Q=Q)

    @staticmethod
    def linear_flow_lift(space: StateSpace, A, aux_norm_weight=None) -> "SemigroupSpec":
        return SemigroupSpec(kind="linear_flow_lift", space=space, A=A,
                             aux_norm_weight=aux_norm_weight)

    @staticmethod
    def map_flow(space: StateSpace, name: str, params=None, aux_norm_weight=None) -> "SemigroupSpec":
        return SemigroupSpec(kind="map_flow", space=space, flow_name=name,
                             flow_params=dict(params or {}), aux_norm_weight=aux_norm_weight)


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
    if t < 0.0:
        raise ValueError("semigroup is defined for t >= 0 only")
    key = float(t)
    P = G._operators.get(key)
    if P is None:
        P = G._operators[key] = _operator_at(G, t)
    return P


def _operator_at(G: SemigroupSpec, t: float) -> MarkovOperatorSpec:
    if G.kind == "matrix_exponential":
        E = expm(t * G.Q)
        colsums = E.sum(axis=0)
        if np.any(np.abs(colsums - 1.0) > 1e-12) or np.any(E < -1e-12):
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


def m0_seminorm(G: SemigroupSpec, mu: PositiveMeasure) -> float:
    """Weighted total mass: sum of atom weights times the per-point weight."""
    if G.aux_norm_weight is None:
        raise ValueError("semigroup has no auxiliary norm weight")
    return float(sum(w * float(G.aux_norm_weight(np.asarray(p, dtype=float)))
                     for p, w in zip(mu.points, mu.weights)))


AUX_NORM_WEIGHTS = {
    "one": lambda x: 1.0,
    "euclidean_norm": lambda x: float(np.linalg.norm(x)),
}


def semigroup_from_json(space: StateSpace, spec: dict) -> SemigroupSpec:
    """Build a SemigroupSpec from its JSON wire form."""
    kind = spec["kind"]
    aux = spec.get("auxiliaryNormWeight")
    aux_fn = AUX_NORM_WEIGHTS[aux] if aux else None
    if kind == "matrix_exponential":
        return SemigroupSpec.matrix_exponential(space, np.asarray(spec["Q"], dtype=float))
    if kind == "linear_flow_lift":
        return SemigroupSpec.linear_flow_lift(space, np.asarray(spec["A"], dtype=float),
                                              aux_norm_weight=aux_fn)
    if kind == "map_flow":
        return SemigroupSpec.map_flow(space, spec["map"], spec.get("params"),
                                      aux_norm_weight=aux_fn)
    raise ValueError(f"unknown semigroup kind {kind!r}")
