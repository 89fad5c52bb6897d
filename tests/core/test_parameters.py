"""Tests for operating points, parameter space and normalizations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.parameters import OperatingPoint, ParameterSpace
from repro.errors import ParameterError
from repro.units import FF


class TestOperatingPoint:
    def test_valid(self):
        point = OperatingPoint(voltage=0.8, load=2 * FF)
        assert "0.800 V" in str(point)

    @pytest.mark.parametrize("v, c", [(0.0, 1e-15), (-0.5, 1e-15), (0.8, 0.0)])
    def test_invalid(self, v, c):
        with pytest.raises(ParameterError):
            OperatingPoint(voltage=v, load=c)

    def test_ordering(self):
        assert OperatingPoint(0.6, 1e-15) < OperatingPoint(0.8, 1e-15)


class TestParameterSpace:
    def test_paper_default(self, space):
        assert space.v_min == 0.55
        assert space.v_max == 1.10
        assert space.v_nom == 0.80
        assert space.c_min == pytest.approx(0.5 * FF)
        assert space.c_max == pytest.approx(128 * FF)

    @pytest.mark.parametrize("kwargs", [
        {"v_min": 0.9, "v_max": 0.8},
        {"c_min": 2e-15, "c_max": 1e-15},
        {"v_nom": 1.5},
    ])
    def test_invalid_spaces(self, kwargs):
        with pytest.raises(ParameterError):
            ParameterSpace(**kwargs)

    def test_contains_and_require(self, space):
        inside = OperatingPoint(0.8, 4 * FF)
        outside = OperatingPoint(1.3, 4 * FF)
        assert space.contains(inside)
        assert not space.contains(outside)
        assert space.require(inside) is inside
        with pytest.raises(ParameterError, match="outside"):
            space.require(outside)

    def test_require_voltage_arrays(self, space):
        edges = np.array([space.v_min, space.v_max])
        assert space.require(edges) is edges
        space.require(edges + np.array([-5e-10, 5e-10]))  # within 1e-9
        space.require(np.array([]))
        for bad in ([0.8, 1.3], [0.3], [space.v_min - 2e-9], [np.nan]):
            with pytest.raises(ParameterError,
                               match=r"outside the characterized box "
                                     r"\[0.55, 1.1\] V"):
                space.require(np.array(bad))
        with pytest.raises(ParameterError, match="supply 1.3 V"):
            space.require(np.array([0.8, 1.3, 2.0]))


class TestNormalizations:
    def test_voltage_endpoints(self, space):
        assert space.normalize_voltage(0.55) == pytest.approx(0.0)
        assert space.normalize_voltage(1.10) == pytest.approx(1.0)

    def test_load_endpoints_logarithmic(self, space):
        assert space.normalize_load(0.5 * FF) == pytest.approx(0.0)
        assert space.normalize_load(128 * FF) == pytest.approx(1.0)
        # geometric midpoint 8 fF maps to the middle of [0, 1]
        assert space.normalize_load(8 * FF) == pytest.approx(0.5)

    @given(st.floats(min_value=0.55, max_value=1.10))
    def test_voltage_round_trip(self, v):
        space = ParameterSpace.paper_default()
        assert float(space.denormalize_voltage(space.normalize_voltage(v))) == \
            pytest.approx(v, rel=1e-12)

    @given(st.floats(min_value=0.5e-15, max_value=128e-15))
    def test_load_round_trip(self, c):
        space = ParameterSpace.paper_default()
        assert float(space.denormalize_load(space.normalize_load(c))) == \
            pytest.approx(c, rel=1e-9)

    def test_delay_deviation(self, space):
        assert space.normalize_delay(1.2e-12, 1.0e-12) == pytest.approx(0.2)
        assert space.normalize_delay(1.0e-12, 1.0e-12) == pytest.approx(0.0)

    def test_delay_round_trip_is_eq9(self, space):
        d_nom = 3.3e-12
        deviation = space.normalize_delay(4.0e-12, d_nom)
        assert float(space.denormalize_delay(deviation, d_nom)) == \
            pytest.approx(4.0e-12)

    def test_normalize_point(self, space):
        nv, nc = space.normalize_point(OperatingPoint(0.8, 8 * FF))
        assert 0.0 <= nv <= 1.0
        assert nc == pytest.approx(0.5)


class TestGrids:
    def test_voltage_grid(self, space):
        grid = space.voltage_grid(12)
        assert len(grid) == 12
        assert grid[0] == pytest.approx(0.55)
        assert grid[-1] == pytest.approx(1.10)

    def test_load_grid_log_spaced(self, space):
        grid = space.load_grid(9)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_evaluation_grid_shapes(self, space):
        voltages, loads = space.evaluation_grid(64)
        assert len(voltages) == 64
        assert len(loads) == 64

    def test_tiny_grid_rejected(self, space):
        with pytest.raises(ParameterError):
            space.voltage_grid(1)
