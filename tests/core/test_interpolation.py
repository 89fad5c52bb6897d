"""Tests for grid interpolation, sub-sampling and the LUT delay model."""

import numpy as np
import pytest

from repro.core.interpolation import (BilinearStencil, GridInterpolator,
                                      LutDelayModel, subsample)
from repro.units import FF


def simple_grid():
    x = np.asarray([0.0, 1.0, 2.0])
    y = np.asarray([0.0, 2.0])
    values = np.asarray([[0.0, 2.0], [1.0, 3.0], [2.0, 4.0]])  # x + y
    return GridInterpolator(x, y, values)


class TestBilinearStencil:
    """Located once, applied to stacks, bit-identical to the interpolator."""

    @pytest.mark.parametrize("shape", [(5, 4), (7, 1), (1, 3)])
    def test_stack_matches_interpolator_bitwise(self, shape, rng):
        x = np.sort(rng.uniform(0, 1, shape[0]))
        y = np.sort(rng.uniform(0, 1, shape[1]))
        queries_x = np.linspace(-0.1, 1.1, 17)  # includes clamped queries
        queries_y = np.linspace(0.0, 1.0, 9)
        values = rng.normal(size=(6,) + shape)
        stencil = BilinearStencil(x, y, queries_x, queries_y)
        stacked = stencil(values)
        assert stacked.shape == (6, 17, 9)
        for grid, got in zip(values, stacked):
            expected = GridInterpolator(x, y, grid)(
                queries_x[:, None], queries_y[None, :])
            np.testing.assert_array_equal(got, expected)


class TestGridInterpolator:
    def test_exact_at_samples(self):
        interp = simple_grid()
        assert interp(1.0, 2.0) == pytest.approx(3.0)
        assert interp(0.0, 0.0) == pytest.approx(0.0)

    def test_bilinear_midpoints(self):
        interp = simple_grid()
        assert interp(0.5, 1.0) == pytest.approx(1.5)

    def test_linear_function_reproduced_everywhere(self, rng):
        interp = simple_grid()
        xs = rng.uniform(0, 2, 50)
        ys = rng.uniform(0, 2, 50)
        np.testing.assert_allclose(interp(xs, ys), xs + ys, rtol=1e-12)

    def test_clamped_extrapolation(self):
        interp = simple_grid()
        assert interp(-1.0, 0.0) == pytest.approx(0.0)
        assert interp(5.0, 5.0) == pytest.approx(4.0)

    def test_broadcasting(self):
        interp = simple_grid()
        result = interp(np.asarray([[0.0], [1.0]]), np.asarray([[0.0, 2.0]]))
        assert result.shape == (2, 2)

    @pytest.mark.parametrize("x, y, z", [
        (np.asarray([]), np.asarray([0.0, 1.0]), np.zeros((0, 2))),
        (np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0]), np.zeros((3, 2))),
        (np.asarray([1.0, 0.0]), np.asarray([0.0, 1.0]), np.zeros((2, 2))),
    ])
    def test_invalid_grids(self, x, y, z):
        with pytest.raises(ValueError):
            GridInterpolator(x, y, z)

    def test_single_row_grid_is_flat_along_x(self):
        # The adaptive sampler starts from partial grids; a lone voltage
        # line must interpolate as a constant along the missing axis.
        interp = GridInterpolator(np.asarray([0.5]), np.asarray([0.0, 1.0]),
                                  np.asarray([[1.0, 3.0]]))
        for x in (-1.0, 0.0, 0.5, 2.0):
            assert interp(x, 0.5) == pytest.approx(2.0)
        np.testing.assert_allclose(
            interp(np.asarray([0.0, 1.0]), np.asarray([0.0, 1.0])),
            [1.0, 3.0])

    def test_single_column_grid_is_flat_along_y(self):
        interp = GridInterpolator(np.asarray([0.0, 2.0]), np.asarray([0.7]),
                                  np.asarray([[1.0], [5.0]]))
        assert interp(1.0, -3.0) == pytest.approx(3.0)
        assert interp(1.0, 9.0) == pytest.approx(3.0)

    def test_single_point_grid(self):
        interp = GridInterpolator(np.asarray([0.3]), np.asarray([0.7]),
                                  np.asarray([[4.2]]))
        assert interp(0.0, 0.0) == pytest.approx(4.2)
        assert interp(1.0, 1.0) == pytest.approx(4.2)


class TestSubsample:
    def test_preserves_original_samples(self):
        interp = simple_grid()
        x, y, values = subsample(interp, 4)
        for i, xv in enumerate(interp.x_axis):
            for j, yv in enumerate(interp.y_axis):
                xi = int(np.argmin(np.abs(x - xv)))
                yi = int(np.argmin(np.abs(y - yv)))
                assert values[xi, yi] == pytest.approx(interp.values[i, j])

    def test_density(self):
        interp = simple_grid()
        x, y, values = subsample(interp, 4)
        assert len(x) == (len(interp.x_axis) - 1) * 4 + 1
        assert len(y) == (len(interp.y_axis) - 1) * 4 + 1
        assert values.shape == (len(x), len(y))

    def test_factor_one_is_identity(self):
        interp = simple_grid()
        x, y, values = subsample(interp, 1)
        np.testing.assert_array_equal(x, interp.x_axis)
        np.testing.assert_allclose(values, interp.values)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            subsample(simple_grid(), 0)

    def test_linear_surface_interpolated_exactly(self):
        interp = simple_grid()
        x, y, values = subsample(interp, 3)
        expected = x[:, None] + y[None, :]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_round_trip_through_densified_grid(self):
        # Subsampling, re-wrapping, and querying at the original nodes
        # must reproduce the original values exactly: the densified grid
        # contains the original samples as knots.
        interp = simple_grid()
        dense = GridInterpolator(*subsample(interp, 4))
        queried = dense(interp.x_axis[:, None], interp.y_axis[None, :])
        np.testing.assert_allclose(queried, interp.values, rtol=1e-12)

    def test_single_row_grid_subsamples(self):
        interp = GridInterpolator(np.asarray([0.5]), np.asarray([0.0, 1.0]),
                                  np.asarray([[1.0, 3.0]]))
        x, y, values = subsample(interp, 4)
        assert len(x) == 1
        assert len(y) == 5
        np.testing.assert_allclose(values[0], [1.0, 1.5, 2.0, 2.5, 3.0])


class TestLutDelayModel:
    def test_matches_grid_samples(self, spice, library):
        from repro.cells.cell import DrivePolarity
        cell = library["NAND2_X1"]
        grid = spice.sweep(cell, cell.pins[0], DrivePolarity.RISE)
        lut = LutDelayModel(grid.voltages, grid.loads, grid.delays)
        assert lut.delay(0.8, 2 * FF) == pytest.approx(grid.delay_at(0.8, 2 * FF))
        assert lut.table_entries == grid.delays.size

    def test_interpolates_between_loads_logarithmically(self, spice, library):
        from repro.cells.cell import DrivePolarity
        cell = library["INV_X1"]
        grid = spice.sweep(cell, cell.pins[0], DrivePolarity.FALL)
        lut = LutDelayModel(grid.voltages, grid.loads, grid.delays)
        between = lut.delay(0.8, np.sqrt(2.0 * 4.0) * FF)  # log-midpoint of 2,4 fF
        bounds = sorted([grid.delay_at(0.8, 2 * FF), grid.delay_at(0.8, 4 * FF)])
        assert bounds[0] <= between <= bounds[1]
        mid = 0.5 * (bounds[0] + bounds[1])
        assert between == pytest.approx(mid, rel=1e-6)
