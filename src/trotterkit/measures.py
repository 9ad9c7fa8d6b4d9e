"""Finitely supported measures over a metric state space.

Positive measures are atom lists with nonnegative weights; signed measures
are stored as an explicit (positive, negative) pair so that the Jordan
decomposition and the total variation norm are structural rather than
computed.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

# Relative prune threshold for atom weights, and the coordinate tolerance
# under which two Euclidean points are treated as the same atom location.
PRUNE_REL_TOL = 1e-12
COINCIDENCE_TOL = 1e-12


def mass(weights) -> float:
    """Left-to-right sum of floats, 0.0 for none: the total of every prune cut and
    TV check (the builtin ``sum`` compensates from CPython 3.12 on)."""
    return functools.reduce(operator.add, weights, 0.0)


class SpaceMismatchError(ValueError):
    """Raised when measures or operators live on incompatible state spaces."""


class InvalidMetricError(ValueError):
    """Raised when a distance matrix fails the metric axioms."""


@dataclass(frozen=True)
class StateSpace:
    """A finite metric space (distance matrix) or a Euclidean point domain.

    For ``kind == "finite"`` points are integer indices ``0..size-1`` and
    ``dist`` is the full distance matrix.  For ``kind == "euclidean"`` points
    are coordinate arrays of length ``dim`` and the metric is Euclidean.
    """

    kind: str
    size: int = 0
    dim: int = 0
    dist: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "finite":
            d = np.asarray(self.dist, dtype=float)
            if d.shape != (self.size, self.size):
                raise InvalidMetricError(
                    f"distance matrix shape {d.shape} does not match size {self.size}"
                )
            if not np.allclose(d, d.T, rtol=0.0, atol=0.0):
                raise InvalidMetricError("distance matrix is not symmetric")
            if np.any(np.diag(d) != 0.0):
                raise InvalidMetricError("distance matrix has nonzero diagonal")
            off = d[~np.eye(self.size, dtype=bool)]
            if off.size and np.any(off <= 0.0):
                raise InvalidMetricError("off-diagonal distances must be positive")
            # triangle inequality, exhaustive: d_ik <= d_ij + d_jk, one middle
            # point j at a time so memory stays O(size^2)
            for j in range(self.size):
                if np.any(d > d[:, j, None] + d[None, j, :] + 1e-12):
                    raise InvalidMetricError("triangle inequality violated")
            object.__setattr__(self, "dist", d)
        elif self.kind == "euclidean":
            if self.dim < 1:
                raise InvalidMetricError("euclidean space needs dim >= 1")
        else:
            raise InvalidMetricError(f"unknown space kind {self.kind!r}")

    @staticmethod
    def finite(dist) -> "StateSpace":
        d = np.asarray(dist, dtype=float)
        return StateSpace(kind="finite", size=d.shape[0], dist=d)

    @staticmethod
    def euclidean(dim: int) -> "StateSpace":
        return StateSpace(kind="euclidean", dim=dim)

    def distance(self, p, q) -> float:
        if self.kind == "finite":
            return float(self.dist[self.point_key(p), self.point_key(q)])
        return float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))

    def points_equal(self, p, q) -> bool:
        if self.kind == "finite":
            return self.point_key(p) == self.point_key(q)
        x, y = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        with np.errstate(over="ignore"):  # an infinite difference is never below the tolerance
            return bool((np.abs(x - y) < COINCIDENCE_TOL).all())

    def point_key(self, p):
        """Hashable canonical form of a point, for atom merging.

        On finite spaces that is the state index, on Euclidean spaces the
        coordinate tuple; ValueError for a point that is not an integer in
        ``0..size-1``, or not ``dim`` finite coordinates.
        """
        if self.kind == "finite":
            i = int(p)
            if i != p or not 0 <= i < self.size:
                raise ValueError(f"{p!r} is not a state of a {self.size}-state space")
            return i
        x = np.asarray(p, dtype=float)
        if x.shape != (self.dim,) or not np.isfinite(x).all():
            raise ValueError(f"{p!r} is not a point of R^{self.dim}")
        return tuple(x.tolist())

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "finite":
            return self.size == other.size and np.array_equal(self.dist, other.dist)
        return self.dim == other.dim

    def __hash__(self):
        if self.kind == "finite":
            return hash(("finite", self.size, self.dist.tobytes()))
        return hash(("euclidean", self.dim))


def _merge_atoms(space: StateSpace, points, weights):
    """Merge coincident atoms and drop those below the prune tolerance.

    On Euclidean spaces, points within the coincidence tolerance count as the
    same atom even when their exact keys differ.  Returns the ``point_key``
    of each kept atom's first point, its weight, and the total mass of the
    merged atoms that the prune cuts at.  Raises ValueError when a weight is
    NaN or infinite (or the total mass overflows).
    """
    merged: dict = {}
    order: list = []
    for p, w in zip(points, weights):
        key = space.point_key(p)
        if key not in merged and space.kind == "euclidean":
            for existing, q in order:
                if space.points_equal(p, q):
                    key = existing
                    break
        if key in merged:
            merged[key] += float(w)
        else:
            merged[key] = float(w)
            order.append((key, p))
    total = mass(map(abs, merged.values()))
    if not math.isfinite(total):  # a NaN or infinite weight would fail every cut
        raise ValueError(f"atom weights must be finite, got total mass {total!r}")
    cut = PRUNE_REL_TOL * total
    out_k, out_w = [], []
    for key, _ in order:
        w = merged[key]
        if abs(w) > cut and w != 0.0:
            out_k.append(key)
            out_w.append(w)
    return out_k, out_w, total


def prune_dense(v: np.ndarray):
    """Nonzero entries of a dense weight vector, pruned as ``_merge_atoms`` prunes.

    Returns (indices, weights) of the kept entries in index order, and the
    total before the prune: the ``mass`` of the nonzero entries, the same
    float ``_merge_atoms`` computes.  The cut is PRUNE_REL_TOL times that
    total, so the kept weights are bitwise those of the atom path.  Raises
    ValueError on a negative or non-finite entry, as ``from_atoms`` does.
    """
    idx = v.nonzero()[0]
    w = v[idx]
    listed = w.tolist()
    total = mass(listed)
    cut = PRUNE_REL_TOL * total
    # all kept implies all positive: a negative entry never clears the cut.
    # The list minimum is the cheap test on these small supports; it is
    # False when a NaN or infinite entry makes the cut NaN or infinite.
    if listed and not min(listed) > cut:
        if not math.isfinite(cut):
            raise ValueError(f"atom weights must be finite, got total mass {total!r}")
        if (w < 0.0).any():
            raise ValueError("positive measure cannot carry negative weights")
        keep = w > cut  # w >= 0 here, so w > cut is |w| > cut
        idx, w = idx[keep], w[keep]
    return idx, w, total


@dataclass(frozen=True)
class PositiveMeasure:
    """A finitely supported positive measure: parallel atom/weight lists."""

    space: StateSpace
    points: tuple = ()
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @staticmethod
    def from_atoms(space: StateSpace, atoms) -> "PositiveMeasure":
        return merged_positive(space, atoms)[0]

    @staticmethod
    def dirac(space: StateSpace, point, weight: float = 1.0) -> "PositiveMeasure":
        return PositiveMeasure.from_atoms(space, [(point, weight)])

    @property
    def tv(self) -> float:
        return mass(self.weights.tolist())

    def __len__(self):
        return len(self.points)

    def as_signed(self) -> "SignedMeasure":
        return SignedMeasure(pos=self, neg=PositiveMeasure(space=self.space))

    def weight_vector(self) -> np.ndarray:
        """Dense weight vector over all states (finite spaces only)."""
        if self.space.kind != "finite":
            raise ValueError("dense weight vector only exists for finite spaces")
        v = np.zeros(self.space.size)
        np.add.at(v, np.asarray(self.points, dtype=np.intp), self.weights)
        return v

    @staticmethod
    def from_weight_vector(space: StateSpace, v) -> "PositiveMeasure":
        """Atoms of a dense weight vector, merged and pruned as ``from_atoms`` does."""
        idx, w, _ = prune_dense(np.asarray(v, dtype=float))
        return PositiveMeasure(space=space, points=tuple(idx.tolist()), weights=w)

    def to_json_dict(self) -> dict:
        return self.as_signed().to_json_dict()


def merged_positive(space: StateSpace, atoms):
    """``PositiveMeasure.from_atoms(space, atoms)``, and the total mass of
    the merged atoms before the prune: the mass an operator's TV check
    compares, as ``prune_dense`` returns it for dense weights."""
    points = [p for p, _ in atoms]
    weights = [float(w) for _, w in atoms]
    if any(w < 0.0 for w in weights):
        raise ValueError("positive measure cannot carry negative weights")
    keys, w, total = _merge_atoms(space, points, weights)
    return PositiveMeasure(space=space, points=tuple(keys),
                           weights=np.asarray(w, dtype=float)), total


@dataclass(frozen=True)
class SignedMeasure:
    """Jordan-style pair of positive measures with disjoint supports."""

    pos: PositiveMeasure
    neg: PositiveMeasure

    @property
    def space(self) -> StateSpace:
        return self.pos.space

    @property
    def tv(self) -> float:
        return self.pos.tv + self.neg.tv

    @staticmethod
    def from_atoms(space: StateSpace, atoms) -> "SignedMeasure":
        points = [p for p, _ in atoms]
        weights = [float(w) for _, w in atoms]
        return _build_signed(space, points, weights)

    def support(self):
        """Union support: list of points and the signed weight vector."""
        pts = list(self.pos.points) + list(self.neg.points)
        wts = np.concatenate([self.pos.weights, -self.neg.weights]) if pts else np.zeros(0)
        return pts, wts

    def to_json_dict(self) -> dict:
        pts, wts = self.support()
        return {"atoms": [{"point": _point_json(self.space, p), "weight": w}
                          for p, w in zip(pts, wts.tolist())]}


def _point_json(space: StateSpace, p):
    if space.kind == "finite":
        return int(p)
    return list(p)


def _build_signed(space, points, weights) -> SignedMeasure:
    keys, w, _ = _merge_atoms(space, points, weights)
    pos, neg = (PositiveMeasure(space, tuple(part_points), np.asarray(part_weights, dtype=float))
                for part_points, part_weights in jordan_parts(keys, w))
    return SignedMeasure(pos=pos, neg=neg)


def jordan_parts(points, weights):
    """Merged atoms split by sign: (points, weights) lists of the positive
    and the negative part, both with positive weights; zero weights are
    dropped.  No part needs a prune of its own: its ``mass`` adds a
    subsequence of the merged terms left to right, so (rounding being
    monotone) neither it nor its cut exceeds that of ``_merge_atoms``."""
    parts = ([], []), ([], [])
    for p, x in zip(points, weights):
        if x > 0.0:
            parts[0][0].append(p)
            parts[0][1].append(x)
        elif x < 0.0:
            parts[1][0].append(p)
            parts[1][1].append(-x)
    return parts


def linear_combine(coeffs, measures) -> SignedMeasure:
    """Atomwise weighted sum of signed (or positive) measures."""
    if len(coeffs) != len(measures):
        raise ValueError("coefficient and measure lists differ in length")
    if not measures:
        raise ValueError("need at least one measure")
    space = measures[0].space
    points: list = []
    weights: list = []
    for c, m in zip(coeffs, measures):
        if isinstance(m, PositiveMeasure):
            m = m.as_signed()
        # identity first: StateSpace.__eq__ compares the distance matrices
        if m.space is not space and m.space != space:
            raise SpaceMismatchError("measures live on different state spaces")
        pts, wts = m.support()
        points.extend(pts)
        weights.extend((float(c) * wts).tolist())
    return _build_signed(space, points, weights)


def measure_to_json(mu, *, indent=None) -> str:
    """Serialize with >= 15 significant digits on weights (repr round-trips)."""
    return json.dumps(mu.to_json_dict(), indent=indent)


def measure_from_json(space: StateSpace, text: str) -> SignedMeasure:
    d = json.loads(text)
    return SignedMeasure.from_atoms(space, [(a["point"], float(a["weight"])) for a in d["atoms"]])
