"""Benchmark objective values against independent hand computations."""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmtopo.objectives import (
    OBJECTIVE_NAMES,
    ObjectiveSpec,
    _sum_rows,
    default_spec,
    shekel_params,
)

# brute-force sum over the parameter table, pure Python floats
SHEKEL_AT_4444 = 10.531929251218955


def _shekel_reference(x) -> float:
    params = shekel_params()
    total = 0.0
    for center, height in zip(params.centers, params.heights):
        square = 0.0
        for xj, aj in zip(x, center):
            square += (float(xj) - float(aj)) ** 2
        total += 1.0 / (float(height) + square)
    return total


def _shekel_rows(points: np.ndarray) -> np.ndarray:
    """Oracle: the point-major form, an (N, m) array of squared distances
    built one coordinate column at a time, then summed along each row of
    m by numpy's own reduction."""
    params = shekel_params()
    centers = params.centers
    sq = (points[:, 0:1] - centers[:, 0]) ** 2
    for j in range(1, centers.shape[1]):
        sq += (points[:, j : j + 1] - centers[:, j]) ** 2
    return (1.0 / (params.heights + sq)).sum(axis=1)


# a coordinate of magnitude 1e-8 to 1e8, of either sign, or a center's
# coordinate nudged by such an amount
_COORDINATES = st.one_of(
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
        st.integers(min_value=-8, max_value=7),
    ),
    st.builds(
        lambda center, offset: float(shekel_params().centers.flat[center]) + offset,
        st.integers(min_value=0, max_value=39),
        st.floats(min_value=-1e-8, max_value=1e-8),
    ),
)


class TestShekel:
    def test_params_table(self):
        params = shekel_params()
        assert params.centers.shape == (10, 4)
        assert params.heights.shape == (10,)
        assert (params.heights > 0).all()
        assert params.centers.flags.writeable is False
        assert shekel_params() is params  # cached

    def test_value_at_first_center(self):
        spec = default_spec("shekel")
        value = spec.evaluate([4.0, 4.0, 4.0, 4.0])
        reference = _shekel_reference([4.0, 4.0, 4.0, 4.0])
        assert abs(value - reference) <= 1e-12 * abs(reference)
        assert abs(value - SHEKEL_AT_4444) < 1e-11

    def test_matches_reference_at_random_points(self):
        spec = default_spec("shekel")
        rng = np.random.default_rng(0)
        for point in rng.uniform(0.0, 10.0, size=(50, 4)):
            ref = _shekel_reference(point)
            assert abs(spec.evaluate(point) - ref) <= 1e-12 * abs(ref)

    def test_batch_equals_broadcast_reduction_bit_for_bit(self):
        # the (N, m, 4) broadcast form reduces each squared distance over
        # its length-4 axis; the kernel's column sums must give the same bits
        spec = default_spec("shekel")
        params = shekel_params()
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 10.0, 1e4):
            points = rng.normal(4.0, scale, size=(257, 4))
            diffs = points[:, None, :] - params.centers[None, :, :]
            squares = (diffs * diffs).sum(axis=2)
            expected = (1.0 / (params.heights[None, :] + squares)).sum(axis=1)
            assert np.array_equal(spec.evaluate_many(points), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(_COORDINATES, min_size=4, max_size=4), min_size=1, max_size=40)
    )
    def test_centres_major_kernel_matches_row_formula(self, points):
        points = np.array(points)
        assert np.array_equal(default_spec("shekel").evaluate_many(points), _shekel_rows(points))

    @pytest.mark.parametrize("m", [*range(1, 41), 64, 128, 129, 200])
    def test_row_sum_follows_numpy_pairwise_order(self, m):
        # if a numpy upgrade changes how it sums a contiguous row, this
        # fails, and with it the Shekel kernel's bytes
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((m, 501)) * 10.0 ** rng.uniform(-8, 8, size=(m, 501))
        assert np.array_equal(_sum_rows(rows), np.ascontiguousarray(rows.T).sum(axis=1))

    def test_row_sum_order_is_not_left_to_right(self):
        # the pin above has teeth: from 8 rows on, a left-to-right sum gives
        # other bits on a good share of the columns
        rows = np.random.default_rng(10).uniform(0.0, 1.0, size=(10, 1000))
        assert (_sum_rows(rows) != rows.sum(axis=0)).sum() > 100

    def test_first_center_beats_million_random_samples(self):
        spec = default_spec("shekel")
        best = spec.optimum_value
        rng = np.random.default_rng(2024)
        remaining = 1_000_000
        while remaining:
            chunk = min(remaining, 100_000)
            values = spec.evaluate_many(rng.uniform(0.0, 10.0, size=(chunk, 4)))
            assert values.max() < best
            remaining -= chunk

    def test_first_center_is_axis_local_max(self):
        spec = default_spec("shekel")
        center = spec.optimum_location
        base = spec.evaluate(center)
        for axis in range(4):
            for sign in (-1.0, 1.0):
                probe = center.copy()
                probe[axis] += sign * 0.1
                assert spec.evaluate(probe) < base

    def test_locked_to_four_dimensions(self):
        with pytest.raises(ValueError):
            default_spec("shekel", dimension=2)
        # built directly too: a 2-D spec would otherwise fail in the kernel
        with pytest.raises(ValueError):
            ObjectiveSpec("shekel", 2)


class TestSeparableObjectives:
    def test_zero_at_origin(self):
        # ackley carries ~2 ulp of libm noise at the origin
        for name in ("rastrigin", "ackley", "griewank"):
            spec = default_spec(name)
            assert abs(spec.evaluate(np.zeros(spec.dimension))) <= 1e-12

    def test_schwefel_optimum(self):
        spec = default_spec("schwefel")
        assert abs(spec.evaluate([420.9687, 420.9687])) <= 1e-3
        assert abs(spec.optimum_value) <= 1e-3

    def test_hand_computed_values(self):
        # rastrigin([1,1]) = 2 + 2*10*(1 - cos(2*pi)) = 2
        assert abs(default_spec("rastrigin").evaluate([1.0, 1.0]) - 2.0) < 1e-9
        # griewank at (pi, pi): sum term + product term by hand
        x = np.array([np.pi, np.pi])
        expected = float(
            (x**2).sum() / 4000.0
            - math.cos(np.pi / math.sqrt(1)) * math.cos(np.pi / math.sqrt(2))
            + 1.0
        )
        assert abs(default_spec("griewank").evaluate(x) - expected) < 1e-12
        # schwefel([0,0]) = 418.9829*2 exactly (sin(0)=0)
        assert abs(default_spec("schwefel").evaluate([0.0, 0.0]) - 2 * 418.9829) < 1e-9
        # ackley([1,1]): direct transcription
        a, b, c = 20.0, 0.2, 2 * np.pi
        expected = float(
            -a * math.exp(-b * 1.0) - math.exp(math.cos(c)) + a + math.e
        )
        assert abs(default_spec("ackley").evaluate([1.0, 1.0]) - expected) < 1e-12

    def test_nonnegative_on_box(self):
        rng = np.random.default_rng(5)
        for name in ("rastrigin", "ackley", "griewank"):
            spec = default_spec(name)
            pts = rng.uniform(spec.lower, spec.upper, size=(2000, spec.dimension))
            assert (spec.evaluate_many(pts) >= -1e-12).all()

    def test_dimension_override(self):
        spec = default_spec("rastrigin", dimension=5)
        assert spec.dimension == 5
        assert spec.evaluate(np.zeros(5)) == 0.0


def _row_formula(name: str, points: np.ndarray) -> np.ndarray:
    """Oracle: each separable objective written point-major, as its
    textbook formula summed along the contiguous rows of a C-order
    ``(N, d)`` array by numpy's own reduction."""
    points = np.ascontiguousarray(points)
    d = points.shape[1]
    if name == "ackley":
        radial = np.sqrt((points * points).sum(axis=1) / d)
        cosine = np.cos(2.0 * np.pi * points).sum(axis=1) / d
        return -20.0 * np.exp(-0.2 * radial) - np.exp(cosine) + 20.0 + np.e
    if name == "griewank":
        idx = np.sqrt(np.arange(1, d + 1, dtype=np.float64))
        return (
            (points * points).sum(axis=1) / 4000.0
            - np.cos(points / idx).prod(axis=1)
            + 1.0
        )
    if name == "schwefel":
        return 418.9829 * d - (points * np.sin(np.sqrt(np.abs(points)))).sum(axis=1)
    assert name == "rastrigin"
    return 10.0 * d + (points * points - 10.0 * np.cos(2.0 * np.pi * points)).sum(axis=1)


_LAYOUT_CASES = [("shekel", 4)] + [
    (name, d)
    for name in ("ackley", "griewank", "schwefel", "rastrigin")
    for d in (1, 2, 3, 7, 8, 9, 16, 17, 129)
]


class TestMemoryOrder:
    """The engine hands the objectives coordinate-major ``(P, d)`` views;
    the bits must not depend on the memory order of the points."""

    @pytest.mark.parametrize("name,d", _LAYOUT_CASES)
    def test_score_many_is_bit_equal_in_every_layout(self, name, d):
        spec = default_spec(name, d)
        rng = np.random.default_rng(d)
        points = rng.uniform(spec.lower, spec.upper, size=(600, d))
        expected = spec.score_many(points).tobytes()
        for layout in (np.asfortranarray(points), np.ascontiguousarray(points.T).T):
            assert spec.score_many(layout).tobytes() == expected
        if name != "shekel":
            sign = 1.0 if spec.direction == "max" else -1.0
            assert (sign * _row_formula(name, points)).tobytes() == expected

    @pytest.mark.parametrize("name,d", _LAYOUT_CASES)
    def test_evaluate_matches_its_batch_row(self, name, d):
        spec = default_spec(name, d)
        rng = np.random.default_rng(100 + d)
        points = np.ascontiguousarray(
            rng.uniform(spec.lower, spec.upper, size=(d, 40))
        ).T
        values = spec.evaluate_many(points)
        scores = spec.score_many(points)
        sign = 1.0 if spec.direction == "max" else -1.0
        for point, value, score in zip(points, values, scores):
            assert spec.evaluate(point) == value
            assert sign * spec.evaluate(point) == score

    def test_row_formula_differs_in_column_order(self):
        # the test above has teeth: at d = 10 numpy sums a column-ordered
        # array's rows left to right, not in its pairwise order, and a good
        # share of the values change bits
        spec = default_spec("rastrigin", 10)
        points = np.random.default_rng(3).uniform(-5.12, 5.12, size=(3000, 10))
        terms = points * points - 10.0 * np.cos(2.0 * np.pi * points)
        column_sums = np.asfortranarray(terms).sum(axis=1)
        assert (100.0 + column_sums != spec.evaluate_many(points)).sum() > 10


class TestSpecContainer:
    def test_table_defaults(self):
        expectations = {
            "shekel": (4, 0.0, 10.0, "max"),
            "ackley": (2, -15.0, 30.0, "min"),
            "griewank": (2, -600.0, 600.0, "min"),
            "schwefel": (2, -500.0, 500.0, "min"),
            "rastrigin": (2, -5.12, 5.12, "min"),
        }
        assert set(OBJECTIVE_NAMES) == set(expectations)
        for name, (dim, lower, upper, direction) in expectations.items():
            spec = default_spec(name)
            assert (spec.dimension, spec.lower, spec.upper, spec.direction) == (
                dim,
                lower,
                upper,
                direction,
            )
            assert spec.optimum_value == spec.evaluate(spec.optimum_location)

    def test_range_diagonal(self):
        assert default_spec("shekel").range_diagonal() == 20.0
        assert abs(
            default_spec("ackley").range_diagonal() - math.sqrt(2) * 45.0
        ) < 1e-12

    def test_score_many_direction(self):
        pts = np.array([[1.0, 2.0], [0.5, -0.5]])
        mini = default_spec("rastrigin")
        assert np.array_equal(mini.score_many(pts), -mini.evaluate_many(pts))
        shek = default_spec("shekel")
        pts4 = np.array([[4.0, 4.0, 4.0, 4.0]])
        assert np.array_equal(shek.score_many(pts4), shek.evaluate_many(pts4))

    def test_shape_and_finite_checks(self):
        spec = default_spec("ackley")
        with pytest.raises(ValueError):
            spec.evaluate([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spec.evaluate([np.nan, 0.0])
        with pytest.raises(ValueError):
            spec.evaluate_many(np.zeros((3, 5)))

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            default_spec("banana")
        with pytest.raises(ValueError):
            ObjectiveSpec("banana", 2)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            ObjectiveSpec("ackley", 0)
        with pytest.raises(ValueError):
            default_spec("ackley", 0)

    @pytest.mark.parametrize("dimension", [2.0, True, "2"])
    def test_rejects_a_dimension_that_is_not_an_integer(self, dimension):
        # these once built and raised TypeError at optimum_location
        message = f"dimension must be an integer, got {dimension!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ObjectiveSpec("rastrigin", dimension)
        spec = ObjectiveSpec("rastrigin", np.int64(2))
        assert type(spec.dimension) is int and spec == default_spec("rastrigin")

    def test_a_spec_is_its_name_and_dimension(self):
        assert [f.name for f in dataclasses.fields(ObjectiveSpec)] == ["name", "dimension"]
        spec = default_spec("ackley")
        assert spec == ObjectiveSpec("ackley", 2)
        assert hash(spec) == hash(ObjectiveSpec("ackley", 2))
        assert spec != default_spec("ackley", 3)

    def test_pickle_round_trip(self):
        # process-pool workers receive their specs by pickle, with or
        # without the optimum already computed
        for name in OBJECTIVE_NAMES:
            spec = default_spec(name, 4)
            fresh = pickle.loads(pickle.dumps(spec))
            value = spec.optimum_value
            cached = pickle.loads(pickle.dumps(spec))
            for copy in (fresh, cached):
                assert copy == spec and hash(copy) == hash(spec)
                assert struct.pack("<d", copy.optimum_value) == struct.pack("<d", value)

    def test_optimum_location_is_read_only(self):
        spec = default_spec("schwefel")
        with pytest.raises(ValueError):
            spec.optimum_location[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.optimum_location = np.zeros(2)
        assert np.array_equal(spec.optimum_location, [420.9687, 420.9687])
