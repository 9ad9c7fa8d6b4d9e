import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trotterkit.measures import (
    COINCIDENCE_TOL,
    PRUNE_REL_TOL,
    InvalidMetricError,
    PositiveMeasure,
    SignedMeasure,
    SpaceMismatchError,
    StateSpace,
    _build_signed,
    _merge_atoms,
    linear_combine,
    mass,
    measure_from_json,
)
from trotterkit.operators import MarkovOperatorSpec, apply


@pytest.fixture
def path3():
    return StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


class TestStateSpace:
    def test_finite_validates_symmetry(self):
        with pytest.raises(InvalidMetricError):
            StateSpace.finite([[0.0, 1.0], [2.0, 0.0]])

    def test_finite_validates_diagonal(self):
        with pytest.raises(InvalidMetricError):
            StateSpace.finite([[0.5, 1.0], [1.0, 0.0]])

    def test_finite_validates_positivity(self):
        with pytest.raises(InvalidMetricError):
            StateSpace.finite([[0.0, 0.0], [0.0, 0.0]])

    def test_finite_validates_triangle(self):
        with pytest.raises(InvalidMetricError):
            StateSpace.finite([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])

    def test_finite_validates_triangle_at_large_size(self):
        # a path metric on 60 points with one shortcut broken: only the middle
        # point 31 exposes d(30, 32) > d(30, 31) + d(31, 32)
        pts = np.arange(60, dtype=float)
        d = np.abs(pts[:, None] - pts[None, :])
        StateSpace.finite(d)
        d[30, 32] = d[32, 30] = 2.0 + 1e-9
        with pytest.raises(InvalidMetricError, match="triangle"):
            StateSpace.finite(d)

    def test_triangle_check_keeps_its_tolerance(self):
        eps = 5e-13  # within the 1e-12 slack of the check
        StateSpace.finite([[0.0, 1.0, 2.0 + eps], [1.0, 0.0, 1.0], [2.0 + eps, 1.0, 0.0]])
        with pytest.raises(InvalidMetricError):
            StateSpace.finite([[0.0, 1.0, 2.0 + 4 * eps], [1.0, 0.0, 1.0],
                               [2.0 + 4 * eps, 1.0, 0.0]])

    @pytest.mark.parametrize("point", [-1, 3, 7])
    def test_finite_rejects_out_of_range_points(self, path3, point):
        with pytest.raises(ValueError, match="not a state"):
            path3.point_key(point)
        with pytest.raises(ValueError, match="not a state"):
            path3.distance(0, point)
        with pytest.raises(ValueError, match="not a state"):
            PositiveMeasure.from_atoms(path3, [(point, 1.0)])

    @pytest.mark.parametrize("point", [1.7, -0.5, np.float64(2.25)])
    def test_finite_rejects_non_integral_points(self, path3, point):
        with pytest.raises(ValueError, match="not a state"):
            path3.point_key(point)
        with pytest.raises(ValueError, match="not a state"):
            path3.distance(point, 0)
        with pytest.raises(ValueError, match="not a state"):
            path3.points_equal(point, 1)
        with pytest.raises(ValueError, match="not a state"):
            SignedMeasure.from_atoms(path3, [(0, 1.0), (point, -1.0)])

    def test_finite_accepts_integral_points_of_any_type(self, path3):
        mu = PositiveMeasure.from_atoms(path3, [(np.int64(2), 0.5), (2.0, 0.25), (0, 0.25)])
        assert mu.points == (0, 2)
        assert mu.weight_vector().tolist() == [0.25, 0.0, 0.75]
        assert path3.distance(np.int64(0), 2.0) == 2.0

    @pytest.mark.parametrize("point", [True, False, np.bool_(True), np.bool_(False)])
    def test_finite_rejects_booleans(self, path3, point):
        with pytest.raises(ValueError, match="not a state"):
            path3.point_key(point)
        with pytest.raises(ValueError, match="not a state"):
            PositiveMeasure.from_atoms(path3, [(point, 1.0)])

    def test_euclidean_distance(self):
        s = StateSpace.euclidean(2)
        assert s.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    @pytest.mark.parametrize("point", [[1.0, 0.0, 5.0], [1.0], 1.0, [[1.0, 0.0]],
                                       [np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]])
    def test_euclidean_rejects_points_of_wrong_shape_or_not_finite(self, point):
        plane = StateSpace.euclidean(2)
        with pytest.raises(ValueError, match="not a point of R\\^2"):
            plane.point_key(point)
        with pytest.raises(ValueError, match="not a point of R\\^2"):
            PositiveMeasure.dirac(plane, point)
        with pytest.raises(ValueError, match="not a point of R\\^2"):
            SignedMeasure.from_atoms(plane, [([0.0, 0.0], 1.0), (point, -1.0)])

    def test_euclidean_accepts_points_of_any_sequence_type(self):
        plane = StateSpace.euclidean(2)
        for point in ([1, 2], (1.0, 2.0), np.array([1.0, 2.0]), np.array([1, 2], dtype=np.int32)):
            assert plane.point_key(point) == (1.0, 2.0)
        mu = PositiveMeasure.from_atoms(StateSpace.euclidean(1), [([0.5], 1.0), ((0.5,), 1.0)])
        assert mu.points == ((0.5,),) and mu.tv == 2.0

    def test_equality_and_hash(self, path3):
        other = StateSpace.finite([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert path3 == other
        assert hash(path3) == hash(other)
        assert path3 != StateSpace.euclidean(2)


class TestPositiveMeasure:
    def test_rejects_negative_weight(self, path3):
        with pytest.raises(ValueError):
            PositiveMeasure.from_atoms(path3, [(0, -0.5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, path3, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            PositiveMeasure.from_atoms(path3, [(0, bad), (1, 0.5)])
        with pytest.raises(ValueError, match="weights must be finite"):
            PositiveMeasure.from_weight_vector(path3, [bad, 0.5, 0.5])

    def test_merges_coincident_atoms(self, path3):
        mu = PositiveMeasure.from_atoms(path3, [(1, 0.25), (1, 0.75)])
        assert len(mu) == 1
        assert mu.tv == pytest.approx(1.0)

    def test_euclidean_coincidence_merge(self):
        s = StateSpace.euclidean(1)
        mu = PositiveMeasure.from_atoms(s, [([1.0], 0.5), ([1.0 + 1e-14], 0.5)])
        assert len(mu) == 1
        # a merged atom keeps its first point's key bit for bit, -0.0 included
        zeros = PositiveMeasure.from_atoms(s, [(np.array([-0.0]), 0.5), ([0.0], 0.5)])
        assert mu.points == ((1.0,),) and type(zeros.points[0][0]) is float
        assert np.asarray(zeros.points).tobytes() == np.array([[-0.0]]).tobytes()

    def test_far_apart_atoms_kept_without_a_warning(self):
        # their difference overflows to inf, which is never a coincidence
        s = StateSpace.euclidean(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu = PositiveMeasure.from_atoms(s, [([1e308, 1e308], 0.5), ([-1e308, 1e308], 0.5)])
        assert mu.points == ((1e308, 1e308), (-1e308, 1e308))

    @settings(max_examples=300)
    @given(st.data())
    def test_euclidean_merge_matches_points_equal_loop(self, data):
        """The merge compares coordinate floats as ``points_equal`` compares
        the points: chains within the tolerance, points exactly the
        tolerance apart, signed zeros and overflowing differences."""
        dim = data.draw(st.integers(1, 2))
        space = StateSpace.euclidean(dim)
        pool = [[x] * dim for x in (0.0, -0.0, 0.6 * COINCIDENCE_TOL, 1.2 * COINCIDENCE_TOL,
                                    COINCIDENCE_TOL, 1.0, 1.0 + 0.6 * COINCIDENCE_TOL,
                                    1e308, -1e308)]
        idx = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(idx), max_size=len(idx)))
        points = [pool[i] for i in idx]
        keys, w, total = _merge_atoms(space, points, weights)
        ref = merge_with_points_equal(space, points, weights)
        assert repr((keys, w, total)) == repr(ref)  # repr tells -0.0 from 0.0

    def test_weight_vector_round_trip(self, path3):
        mu = PositiveMeasure.from_atoms(path3, [(0, 0.5), (2, 0.5)])
        v = mu.weight_vector()
        assert np.allclose(v, [0.5, 0.0, 0.5])
        back = PositiveMeasure.from_weight_vector(path3, v)
        assert back.tv == pytest.approx(mu.tv)


class TestSignedMeasure:
    def test_jordan_decomposition_is_structural(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (1, -0.4)])
        assert mu.pos.tv == pytest.approx(1.0)
        assert mu.neg.tv == pytest.approx(0.4)
        assert mu.tv == pytest.approx(1.4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, path3, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            SignedMeasure.from_atoms(path3, [(0, bad), (1, -0.5)])
        with pytest.raises(ValueError, match="weights must be finite"):
            linear_combine([1.0, bad], [PositiveMeasure.dirac(path3, 0),
                                        PositiveMeasure.dirac(path3, 1)])

    def test_overflowing_coefficient_raises_without_a_warning(self, path3):
        """A coefficient times a weight past the float range is an infinite
        weight: refused with the error above, and no overflow warning first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="weights must be finite, got total mass inf"):
                linear_combine([1e308, 1.0], [PositiveMeasure.dirac(path3, 0, 5.0),
                                              PositiveMeasure.dirac(path3, 1)])

    def test_opposite_signs_cancel(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (0, -1.0)])
        assert mu.tv == 0.0

    def test_linear_combine(self, path3):
        a = PositiveMeasure.dirac(path3, 0)
        b = PositiveMeasure.dirac(path3, 1)
        diff = linear_combine([1.0, -1.0], [a, b])
        assert diff.tv == pytest.approx(2.0)

    def test_linear_combine_space_mismatch(self, path3):
        a = PositiveMeasure.dirac(path3, 0)
        b = PositiveMeasure.dirac(StateSpace.euclidean(1), [0.0])
        with pytest.raises(SpaceMismatchError):
            linear_combine([1.0, 1.0], [a, b])

    def test_linear_combine_compares_spaces_by_identity_first(self, path3, monkeypatch):
        a = PositiveMeasure.dirac(path3, 0)
        twin = PositiveMeasure.dirac(StateSpace.finite(path3.dist.copy()), 1)
        out = linear_combine([1.0, -1.0], [a, twin])  # distinct but equal: accepted
        assert (out.pos.points, out.neg.points) == ((0,), (1,))
        other = PositiveMeasure.dirac(StateSpace.finite(2.0 * path3.dist), 1)
        with pytest.raises(SpaceMismatchError):
            linear_combine([1.0, -1.0], [a, other])
        monkeypatch.setattr(StateSpace, "__eq__", lambda *_: pytest.fail("compared by value"))
        assert linear_combine([1.0, 1.0], [a, a]).pos.weights.tolist() == [2.0]

    def test_from_atoms_prunes_dust(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 1.0), (1, 1e-16)])
        assert len(mu.pos) == 1

    @settings(max_examples=300)
    @given(st.data())
    def test_one_merge_builds_the_parts_of_two(self, data):
        space, points, weights = data.draw(signed_atoms())
        new, old = _build_signed(space, points, weights), merge_twice(space, points, weights)
        for part, ref in ((new.pos, old.pos), (new.neg, old.neg)):
            assert repr(part.points) == repr(ref.points)  # repr tells -0.0 from 0.0
            assert (part.weights.dtype, part.weights.tobytes()) == (
                ref.weights.dtype, ref.weights.tobytes())


def merge_with_points_equal(space, points, weights):
    """Reference: ``_merge_atoms`` on R^dim as a loop that compares each new
    point with the first point of every atom so far by ``points_equal``."""
    merged, order = {}, []
    for p, w in zip(points, weights):
        key = space.point_key(p)
        if key not in merged:
            key = next((k for k, q in order if space.points_equal(p, q)), key)
        if key not in merged:
            order.append((key, p))
        merged[key] = merged[key] + float(w) if key in merged else float(w)
    total = mass(map(abs, merged.values()))
    kept = [(k, x) for k, x in merged.items() if abs(x) > PRUNE_REL_TOL * total and x != 0.0]
    return [k for k, _ in kept], [x for _, x in kept], total


def merge_twice(space, points, weights):
    """Reference: signed atoms merged, split by sign, and each part merged
    again through ``PositiveMeasure.from_atoms``."""
    keys, w, _ = _merge_atoms(space, points, weights)
    return SignedMeasure(
        pos=PositiveMeasure.from_atoms(space, [(x, v) for x, v in zip(keys, w) if v > 0.0]),
        neg=PositiveMeasure.from_atoms(space, [(x, -v) for x, v in zip(keys, w) if v < 0.0]))


@st.composite
def signed_atoms(draw):
    """(space, points, weights): states of a 5-point path, or points of the
    plane, some of them repeated or within the coincidence tolerance; atoms
    that cancel exactly; and each sign scaled by up to 1e-15, so that a part
    may lie wholly below the prune cut."""
    if draw(st.booleans()):
        space = StateSpace.finite(np.abs(np.arange(5.0)[:, None] - np.arange(5.0)[None, :]))
        pool = list(range(5))
    else:
        space = StateSpace.euclidean(2)
        base = [[0.0, 0.0], [1.0, -0.5], [0.25, 2.0]]
        near = [[x + COINCIDENCE_TOL / 2, y - COINCIDENCE_TOL / 2] for x, y in base]
        pool = base + near + [[-0.0, 0.0]]
    idx = draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))
    scales = st.sampled_from([1.0, 1e-6, 1e-12, 1e-13, 1e-15])
    part_scale = {True: draw(scales), False: draw(scales)}
    weights = []
    for _ in idx:
        w = draw(st.floats(-1.0, 1.0)) * draw(st.sampled_from([1.0, 1e-13]))
        weights.append(w * part_scale[w > 0.0])
    points = [pool[i] for i in idx]
    if points and draw(st.booleans()):  # the first atom again, cancelled
        points.append(points[0])
        weights.append(-weights[0])
    return space, points, weights


class TestSerialization:
    def test_parses_finite_measure(self, path3):
        mu = SignedMeasure.from_atoms(path3, [(0, 0.123456789012345), (2, -0.4)])
        back = measure_from_json(
            path3, '{"atoms": [{"point": 0, "weight": 0.123456789012345},'
                   ' {"point": 2, "weight": -0.4}]}')
        assert linear_combine([1.0, -1.0], [mu, back]).tv == 0.0

    def test_parses_euclidean_measure(self):
        s = StateSpace.euclidean(2)
        mu = PositiveMeasure.from_atoms(s, [([0.1, 0.2], 0.7), ([1.0, -1.0], 0.3)])
        back = measure_from_json(
            s, '{"atoms": [{"point": [0.1, 0.2], "weight": 0.7},'
               ' {"point": [1.0, -1.0], "weight": 0.3}]}')
        assert back.pos.points == mu.points and back.pos.weights.tolist() == [0.7, 0.3]
        assert back.tv == pytest.approx(1.0)

    def test_rejects_non_finite_weight(self, path3):
        with pytest.raises(ValueError):
            measure_from_json(path3, '{"atoms": [{"point": 0, "weight": NaN}]}')


class TestStateOrder:
    """Every measure on a finite space lists its atoms in state order,
    whatever order its atoms come in, and its mass adds them in that order."""

    @staticmethod
    def assert_state_order(mu):
        for part in (mu.pos, mu.neg) if isinstance(mu, SignedMeasure) else (mu,):
            assert list(part.points) == sorted(part.points)
            assert part.tv == mass(part.weight_vector().tolist())

    @settings(max_examples=100)
    @given(st.data())
    def test_every_finite_constructor(self, data):
        k = data.draw(st.integers(2, 9))
        space = StateSpace.finite(np.ones((k, k)) - np.eye(k))
        states = data.draw(st.permutations(range(k)))
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
        signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=k, max_size=k))
        atoms = list(zip(states, weights))
        signed = [(i, s * w) for (i, w), s in zip(atoms, signs)]
        mu = PositiveMeasure.from_atoms(space, atoms)
        ordered = PositiveMeasure.from_atoms(space, sorted(atoms))
        assert mu.points == tuple(range(k))
        assert mu.weights.tobytes() == ordered.weights.tobytes()
        self.assert_state_order(mu)
        self.assert_state_order(SignedMeasure.from_atoms(space, signed))
        halves = [PositiveMeasure.from_atoms(space, atoms[:k // 2]),
                  SignedMeasure.from_atoms(space, signed[k // 2:])]
        self.assert_state_order(linear_combine([1.0, -0.5], halves))
        self.assert_state_order(measure_from_json(space, json.dumps(
            {"atoms": [{"point": i, "weight": w} for i, w in signed]})))
        # a kernel and a map that send the states to the drawn order
        kernel = MarkovOperatorSpec(kind="kernel", space=space, kernel=lambda p: (
            PositiveMeasure(space, (states[p], states[-1 - p]), np.array([0.5, 0.5]))
            if states[p] != states[-1 - p] else PositiveMeasure.dirac(space, states[p])))
        shuffle = MarkovOperatorSpec(kind="deterministic_map", space=space,
                                     point_map=lambda p: states[p])
        for P in (kernel, shuffle):
            self.assert_state_order(apply(P, mu))
