"""Tests for repro.mdp.grid — axes and multilinear interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mdp.grid import Grid, UniformAxis


class TestUniformAxis:
    def test_points_and_step(self):
        axis = UniformAxis("x", 0.0, 10.0, 6)
        np.testing.assert_allclose(axis.points, [0, 2, 4, 6, 8, 10])
        assert axis.step == pytest.approx(2.0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            UniformAxis("x", 0.0, 1.0, 1)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            UniformAxis("x", 1.0, 0.0, 5)

    def test_rejects_axis_finer_than_float64(self):
        # Spacing below one ulp of the values: points collapse, and no
        # placement could bracket a value between two distinct points.
        with pytest.raises(ValueError, match="too fine"):
            UniformAxis("x", 1.0, 1.0 + 1e-15, 50)

    def test_clip(self):
        axis = UniformAxis("x", -1.0, 1.0, 3)
        np.testing.assert_allclose(axis.clip(np.array([-5, 0, 5])), [-1, 0, 1])

    def test_index_of_grid_point(self):
        axis = UniformAxis("x", 0.0, 4.0, 5)
        assert axis.index_of(3.0) == 3

    def test_index_of_off_grid_raises(self):
        axis = UniformAxis("x", 0.0, 4.0, 5)
        with pytest.raises(ValueError):
            axis.index_of(2.5)


def interp_1d(low, high, num, values):
    """``(indices, weights)`` of *values* on a one-axis grid: columns
    are the lower and upper bracketing point."""
    grid = Grid([UniformAxis("x", low, high, num)])
    return grid.interp_table(np.asarray(values, dtype=float)[:, None])


class TestInterpWeights1d:
    def test_at_grid_points(self):
        indices, weights = interp_1d(0.0, 2.0, 3, [0.0, 1.0, 2.0])
        points = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            (points[indices] * weights).sum(axis=1), [0.0, 1.0, 2.0]
        )

    def test_midpoint(self):
        indices, weights = interp_1d(0.0, 2.0, 2, [1.0])
        assert indices[0].tolist() == [0, 1]
        assert weights[0, 1] == pytest.approx(0.5)

    def test_clipping_below_and_above(self):
        __, weights = interp_1d(0.0, 1.0, 2, [-3.0, 9.0])
        assert weights[0, 1] == pytest.approx(0.0)
        assert weights[1, 1] == pytest.approx(1.0)

    @given(st.floats(-20, 20))
    def test_weight_always_in_unit_interval(self, value):
        __, weights = interp_1d(-5.0, 5.0, 11, [value])
        assert 0.0 <= weights[0, 1] <= 1.0


@pytest.fixture
def grid_2d():
    return Grid(
        [UniformAxis("a", 0.0, 1.0, 3), UniformAxis("b", -1.0, 1.0, 5)]
    )


class TestGrid:
    def test_shape_and_size(self, grid_2d):
        assert grid_2d.shape == (3, 5)
        assert grid_2d.size == 15
        assert grid_2d.ndim == 2

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            Grid([])

    def test_axis_lookup(self, grid_2d):
        assert grid_2d.axis("b").num == 5
        with pytest.raises(KeyError):
            grid_2d.axis("missing")

    def test_flat_and_multi_index_round_trip(self, grid_2d):
        flat = np.arange(grid_2d.size)
        multi = grid_2d.multi_index(flat)
        recovered = grid_2d.flat_index(multi)
        np.testing.assert_array_equal(recovered, flat)

    def test_points_cover_grid(self, grid_2d):
        points = grid_2d.points()
        assert points.shape == (15, 2)
        # First axis varies slowest (C order).
        np.testing.assert_allclose(points[0], [0.0, -1.0])
        np.testing.assert_allclose(points[-1], [1.0, 1.0])

    def test_interpolate_exact_at_grid_points(self, grid_2d):
        values = np.arange(grid_2d.size, dtype=float)
        points = grid_2d.points()
        result = grid_2d.interpolate(values, points)
        np.testing.assert_allclose(result, values, atol=1e-12)

    def test_interpolate_linear_function_exactly(self, grid_2d):
        # Multilinear interpolation reproduces affine functions exactly.
        points = grid_2d.points()
        values = 2.0 * points[:, 0] - 3.0 * points[:, 1] + 0.5
        queries = np.array([[0.3, 0.2], [0.9, -0.7], [0.5, 0.0]])
        expected = 2.0 * queries[:, 0] - 3.0 * queries[:, 1] + 0.5
        np.testing.assert_allclose(
            grid_2d.interpolate(values, queries), expected, atol=1e-12
        )

    def test_weights_sum_to_one(self, grid_2d):
        queries = np.array([[0.123, 0.456], [-9.0, 9.0], [0.5, -0.5]])
        __, weights = grid_2d.interp_table(queries)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_interp_table_is_corners_point_major(self, grid_2d):
        queries = np.array([[0.123, 0.456], [-9.0, 9.0], [0.5, -0.5]])
        indices, weights = grid_2d.interp_table(queries)
        corner_indices, corner_weights = grid_2d.corners(queries)
        assert indices.flags.c_contiguous and weights.flags.c_contiguous
        assert corner_indices.flags.c_contiguous
        assert corner_indices.shape == (4, 3)
        np.testing.assert_array_equal(indices, corner_indices.T)
        np.testing.assert_array_equal(weights, corner_weights.T)

    def test_out_of_range_clipped(self, grid_2d):
        values = np.arange(grid_2d.size, dtype=float)
        inside = grid_2d.interpolate(values, np.array([[1.0, 1.0]]))
        outside = grid_2d.interpolate(values, np.array([[99.0, 99.0]]))
        np.testing.assert_allclose(inside, outside)

    def test_wrong_dimension_raises(self, grid_2d):
        with pytest.raises(ValueError):
            grid_2d.interp_table(np.zeros((2, 3)))

    def test_wrong_value_count_raises(self, grid_2d):
        with pytest.raises(ValueError):
            grid_2d.interpolate(np.zeros(3), np.zeros((1, 2)))

    @settings(max_examples=50)
    @given(
        st.floats(-0.5, 1.5),
        st.floats(-1.5, 1.5),
    )
    def test_interpolation_within_value_bounds(self, qa, qb, ):
        grid = Grid(
            [UniformAxis("a", 0.0, 1.0, 4), UniformAxis("b", -1.0, 1.0, 4)]
        )
        rng = np.random.default_rng(0)
        values = rng.uniform(-10, 10, size=grid.size)
        result = grid.interpolate(values, np.array([[qa, qb]]))
        assert values.min() - 1e-9 <= result[0] <= values.max() + 1e-9

    def test_repr(self, grid_2d):
        assert "a[0.0:1.0:3]" in repr(grid_2d)
