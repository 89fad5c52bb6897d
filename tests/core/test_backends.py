"""Tests for the alternative delay-model backends."""

import numpy as np
import pytest

from repro.cells.cell import DrivePolarity
from repro.core.backends import AnalyticalDelayBackend
from repro.electrical.model import TransistorCorner
from repro.errors import ParameterError
from repro.netlist.generate import random_circuit
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.units import FF


@pytest.fixture(scope="module")
def analytical_backend(characterization):
    return AnalyticalDelayBackend.from_corner(
        TransistorCorner.typical(), characterization.space)


def batch_query(backend, kernel_table, rng, voltages):
    gates = 12
    type_ids = rng.integers(0, kernel_table.num_types, size=gates)
    loads = rng.uniform(1, 100, size=gates) * FF
    nominal = rng.uniform(1, 20, size=(gates, kernel_table.max_pins, 2)) * 1e-12
    return backend.delays_for_gates(type_ids, loads, nominal,
                                    np.asarray(voltages))


class TestLutBackend:
    def test_shape_contract(self, lut_backend, kernel_table, rng):
        result = batch_query(lut_backend, kernel_table, rng, [0.6, 0.8, 1.0])
        assert result.shape == (12, kernel_table.max_pins, 2, 3)
        assert np.all(result > 0)

    def test_matches_reference_at_grid_points(self, lut_backend,
                                              characterization):
        """On sweep grid points the LUT reproduces the reference exactly."""
        entry = characterization.entry("NOR2_X2", "A1", DrivePolarity.RISE)
        type_id = lut_backend.type_names.index("NOR2_X2")
        d_nom = 7e-12
        for v in (0.6, 0.8, 1.05):
            for c in (2 * FF, 32 * FF):
                got = lut_backend.delays_for_gates(
                    np.asarray([type_id]), np.asarray([c]),
                    np.full((1, 4, 2), d_nom), np.asarray([v]))[0, 0, 0, 0]
                reference = d_nom * (1.0 + entry.reference(
                    float(characterization.space.normalize_voltage(v)),
                    float(characterization.space.normalize_load(c))))
                assert got == pytest.approx(reference, rel=1e-9)

    def test_agrees_with_polynomial_kernels(self, lut_backend, kernel_table,
                                            rng):
        poly = batch_query(kernel_table, kernel_table, rng, [0.6, 0.9])
        rng2 = np.random.default_rng(12345)
        lut = batch_query(lut_backend, kernel_table, rng2, [0.6, 0.9])
        relative = np.abs(poly / lut - 1.0)
        assert np.median(relative) < 0.01
        assert relative.max() < 0.1

    def test_memory_cost_exceeds_kernels(self, lut_backend, kernel_table):
        """The Sec. II trade-off: LUT storage dwarfs the coefficients."""
        assert lut_backend.memory_bytes > 5 * kernel_table.memory_bytes

    def test_drop_in_for_simulation(self, lut_backend, kernel_table, library):
        """The parallel engine accepts the LUT backend unchanged, and its
        waveforms match the polynomial kernels to sub-picosecond shifts."""
        from repro.analysis.compare import compare_results
        circuit = random_circuit("lutsim", 8, 80, seed=41)
        compiled = compile_circuit(circuit, library)
        rng = np.random.default_rng(41)
        pairs = [PatternPair.random(8, rng) for _ in range(5)]
        config = SimulationConfig(record_all_nets=True)
        sim = GpuWaveSim(circuit, library, config=config, compiled=compiled)
        with_poly = sim.run(pairs, voltage=0.65, kernel_table=kernel_table)
        with_lut = sim.run(pairs, voltage=0.65, kernel_table=lut_backend)
        report = compare_results(with_poly, with_lut, time_tolerance=2e-12)
        assert report.shape_clean or not report.mismatches

    @pytest.mark.parametrize("edge, outward", [(0, -1), (-1, 1)])
    def test_box_edge(self, lut_backend, edge, outward):
        """A supply on the box edge reads the grid's edge row exactly; one
        just past it raises instead of being clamped onto that row."""
        space = lut_backend.space
        v = (space.v_min, space.v_max)[edge]
        type_id = lut_backend.type_names.index("NOR2_X2")
        d_nom = 7e-12
        load = float(space.denormalize_load(lut_backend.nc_axis[3]))

        def query(voltage):
            return lut_backend.delays_for_gates(
                np.asarray([type_id]), np.asarray([load]),
                np.full((1, 4, 2), d_nom), np.asarray([voltage]))

        got = query(v)[0, :, :, 0]
        row = lut_backend.grids[type_id, :4, :, edge, 3]
        np.testing.assert_array_equal(got, d_nom * (1.0 + row))
        with pytest.raises(ParameterError, match="characterized box"):
            query(v + outward * 1e-6)

    @pytest.mark.parametrize("edge, outward", [(0, -1), (-1, 1)])
    def test_load_box_edge(self, lut_backend, edge, outward):
        """A load on the box edge reads the grid's edge column exactly;
        one just past it raises instead of being clamped onto that
        column."""
        space = lut_backend.space
        load = (space.c_min, space.c_max)[edge]
        type_id = lut_backend.type_names.index("NOR2_X2")
        d_nom = 7e-12

        def query(c):
            return lut_backend.delays_for_gates(
                np.asarray([type_id]), np.asarray([c]),
                np.full((1, 4, 2), d_nom), np.asarray([space.v_min]))

        got = query(load)[0, :, :, 0]
        column = lut_backend.grids[type_id, :4, :, 0, edge]
        np.testing.assert_array_equal(got, d_nom * (1.0 + column))
        outside = load * (1.0 + outward * 1e-6)
        with pytest.raises(ParameterError,
                           match=r"load .* fF is outside the characterized "
                                 r"box \[0.5, 128\] fF"):
            query(outside)

    def test_engine_rejects_out_of_box_supply(self, lut_backend, library):
        circuit = random_circuit("lutbox", 6, 40, seed=5)
        sim = GpuWaveSim(circuit, library)
        rng = np.random.default_rng(5)
        pairs = [PatternPair.random(6, rng) for _ in range(2)]
        with pytest.raises(ParameterError, match="supply 2 V"):
            sim.run(pairs, voltage=2.0, kernel_table=lut_backend)
        assert sim.run(pairs, voltage=lut_backend.space.v_max,
                       kernel_table=lut_backend).num_slots == 2


class TestAnalyticalBackend:
    def test_shape_contract(self, analytical_backend, kernel_table, rng):
        result = batch_query(analytical_backend, kernel_table, rng,
                             [0.55, 0.8, 1.1])
        assert result.shape == (12, kernel_table.max_pins, 2, 3)

    def test_zero_deviation_at_nominal(self, analytical_backend, rng,
                                       kernel_table):
        nominal = rng.uniform(1, 20, size=(3, 4, 2)) * 1e-12
        result = analytical_backend.delays_for_gates(
            np.arange(3), np.full(3, 4 * FF), nominal, np.asarray([0.8]))
        np.testing.assert_allclose(result[..., 0], nominal, rtol=1e-12)

    @pytest.mark.parametrize("edge, outward", [(0, -1), (-1, 1)])
    def test_box_edge(self, analytical_backend, edge, outward):
        """A supply on the box edge derates as the α-power fit says; one
        just past it raises instead of extrapolating the fit."""
        space = analytical_backend.space
        v = (space.v_min, space.v_max)[edge]
        nominal = np.full((1, 4, 2), 5e-12)

        def query(voltage):
            return analytical_backend.delays_for_gates(
                np.arange(1), np.full(1, 4 * FF), nominal,
                np.asarray([voltage]))

        deviation = np.asarray([
            params(np.asarray([v])) / params(space.v_nom) - 1.0
            for params in (analytical_backend.rise,
                           analytical_backend.fall)])[:, 0]
        expected = nominal * (1.0 + deviation)
        np.testing.assert_array_equal(query(v)[..., 0], expected)
        with pytest.raises(ParameterError, match="characterized box"):
            query(v + outward * 1e-6)

    def test_monotone_in_voltage(self, analytical_backend, kernel_table, rng):
        result = batch_query(analytical_backend, kernel_table, rng,
                             [0.55, 0.7, 0.9, 1.1])
        assert np.all(np.diff(result, axis=-1) < 0)

    def test_coarser_than_polynomial(self, analytical_backend, kernel_table,
                                     lut_backend, rng):
        """The analytical model ignores load dependence, so it deviates
        more from the LUT reference than the learned polynomials do —
        the accuracy gap the paper's approach closes."""
        seeds = np.random.default_rng(7)
        gates = 40
        type_ids = seeds.integers(0, kernel_table.num_types, size=gates)
        loads = seeds.uniform(1, 120, size=gates) * FF
        nominal = np.full((gates, kernel_table.max_pins, 2), 5e-12)
        voltages = np.asarray([0.55, 1.1])
        reference = lut_backend.delays_for_gates(type_ids, loads, nominal,
                                                 voltages)
        poly = kernel_table.delays_for_gates(type_ids, loads, nominal,
                                             voltages)
        analytic = analytical_backend.delays_for_gates(type_ids, loads,
                                                       nominal, voltages)
        err_poly = np.abs(poly / reference - 1.0).mean()
        err_analytic = np.abs(analytic / reference - 1.0).mean()
        assert err_poly < err_analytic
