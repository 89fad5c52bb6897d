"""Tests for the AnalyticalSpice sweep front end."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cells.cell import DrivePolarity
from repro.electrical.model import TransistorCorner
from repro.electrical.spice import (
    NOMINAL_VOLTAGE,
    PAPER_LOADS,
    PAPER_VOLTAGES,
    AnalyticalSpice,
    DelayGrid,
)
from repro.errors import ParameterError
from repro.netlist.generate import random_circuit
from repro.netlist.sdf import nominal_delay_array
from repro.units import FF

#: The process corners a stack must be invisible at: the three named
#: ones, a temperature derating and a ripple-free model.
CORNERS = (
    TransistorCorner.typical(), TransistorCorner.slow(), TransistorCorner.fast(),
    TransistorCorner.typical().at_temperature(125),
    dataclasses.replace(TransistorCorner.typical(), name="noiseless", noise=0.0),
)


class TestPaperGrids:
    def test_voltage_grid_matches_paper(self):
        assert PAPER_VOLTAGES[0] == 0.55
        assert PAPER_VOLTAGES[-1] == 1.10
        assert len(PAPER_VOLTAGES) == 12
        steps = np.diff(PAPER_VOLTAGES)
        assert np.allclose(steps, 0.05)
        assert NOMINAL_VOLTAGE in PAPER_VOLTAGES

    def test_load_grid_matches_paper(self):
        assert len(PAPER_LOADS) == 9
        assert PAPER_LOADS[0] == pytest.approx(0.5 * FF)
        assert PAPER_LOADS[-1] == pytest.approx(128 * FF)
        ratios = np.asarray(PAPER_LOADS[1:]) / np.asarray(PAPER_LOADS[:-1])
        assert np.allclose(ratios, 2.0)


class TestDelayGrid:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DelayGrid(voltages=np.asarray([0.6, 0.8]),
                      loads=np.asarray([1e-15]),
                      delays=np.zeros((3, 1)))

    def test_axis_monotonicity_required(self):
        with pytest.raises(ValueError, match="increasing"):
            DelayGrid(voltages=np.asarray([0.8, 0.6]),
                      loads=np.asarray([1e-15, 2e-15]),
                      delays=np.zeros((2, 2)))

    def test_delay_at_and_column(self, spice, library):
        cell = library["NAND2_X1"]
        grid = spice.sweep(cell, cell.pins[0], DrivePolarity.RISE)
        value = grid.delay_at(0.8, 2 * FF)
        column = grid.column(2 * FF)
        v_index = list(PAPER_VOLTAGES).index(0.8)
        assert column[v_index] == pytest.approx(value)
        with pytest.raises(KeyError):
            grid.delay_at(0.81, 2 * FF)
        with pytest.raises(KeyError):
            grid.column(3 * FF)


class TestSweep:
    def test_sweep_shape_and_values(self, library):
        spice = AnalyticalSpice()
        cell = library["NOR2_X2"]
        pin = cell.pins[1]
        grid = spice.sweep(cell, pin, DrivePolarity.FALL)
        assert grid.shape == (12, 9)
        direct = spice.model.pin_delay(cell, pin, DrivePolarity.FALL, 0.7, 8 * FF)
        assert grid.delay_at(0.7, 8 * FF) == pytest.approx(direct)

    def test_transient_run_accounting(self, library):
        spice = AnalyticalSpice()
        cell = library["INV_X1"]
        spice.measure(cell, cell.pins[0], DrivePolarity.RISE, 0.8, 2 * FF)
        assert spice.transient_runs == 1
        spice.sweep(cell, cell.pins[0], DrivePolarity.RISE)
        assert spice.transient_runs == 1 + 12 * 9

    def test_delay_evaluation_counter(self, library):
        spice = AnalyticalSpice()
        cell = library["INV_X1"]
        assert spice.delay_evaluations == 0
        spice.measure(cell, cell.pins[0], DrivePolarity.RISE, 0.8, 2 * FF)
        assert spice.delay_evaluations == 1
        spice.sweep(cell, cell.pins[0], DrivePolarity.FALL)
        assert spice.delay_evaluations == 1 + 12 * 9


class TestDelaysAt:
    def test_matches_pointwise_measurements(self, library):
        spice = AnalyticalSpice()
        cell = library["NAND2_X1"]
        pin = cell.pins[1]
        points = np.asarray([[0.6, 1 * FF], [0.8, 4 * FF], [1.05, 64 * FF]])
        batched = spice.delays_at(cell, pin, DrivePolarity.RISE, points)
        assert batched.shape == (3,)
        for k, (v, c) in enumerate(points):
            direct = spice.model.pin_delay(cell, pin, DrivePolarity.RISE, v, c)
            assert batched[k] == pytest.approx(direct)
        assert spice.delay_evaluations == 3

    def test_matches_sweep_grid(self, library):
        spice = AnalyticalSpice()
        cell = library["NOR2_X2"]
        pin = cell.pins[0]
        grid = spice.sweep(cell, pin, DrivePolarity.FALL)
        vv, cc = np.meshgrid(grid.voltages, grid.loads, indexing="ij")
        points = np.column_stack([vv.ravel(), cc.ravel()])
        batched = spice.delays_at(cell, pin, DrivePolarity.FALL, points)
        np.testing.assert_allclose(batched.reshape(grid.shape), grid.delays)

    def test_rejects_bad_point_shapes(self, library):
        spice = AnalyticalSpice()
        cell = library["INV_X1"]
        for bad in (np.zeros(4), np.zeros((2, 3)), np.zeros((2, 2, 1))):
            with pytest.raises(ValueError, match="shape"):
                spice.delays_at(cell, cell.pins[0], DrivePolarity.RISE, bad)
            with pytest.raises(ValueError, match="shape"):
                spice.delays_at([cell], [cell.pins[0]], [DrivePolarity.RISE], bad)

    def test_rejects_ragged_stacks(self, library):
        spice = AnalyticalSpice()
        cell = library["NAND2_X1"]
        points = [(0.8, 2 * FF)]
        for cells, pins, polarities in (
                ([cell, cell], [cell.pins[0]], [DrivePolarity.RISE] * 2),
                ([cell], list(cell.pins), [DrivePolarity.RISE]),
                ([cell], [cell.pins[0]], list(DrivePolarity)),
                ([], [], [])):
            with pytest.raises(ValueError, match="stack"):
                spice.delays_at(cells, pins, polarities, points)
        assert spice.delay_evaluations == spice.transient_runs == 0

    @pytest.mark.parametrize("corner", CORNERS, ids=lambda corner: corner.name)
    def test_stack_is_one_at_a_time_bit_for_bit(self, library, corner):
        """Any stack, any order, any width: row b is entry b's own call."""
        entries = [(cell, pin, polarity) for cell in library
                   for pin in cell.pins for polarity in DrivePolarity]
        rng = np.random.default_rng(24)
        for m in (1, 3, 5, 15, 108):
            points = np.column_stack([
                rng.uniform(0.55, 1.1, m), np.exp2(rng.uniform(-1, 7, m)) * FF])
            order = [entries[i] for i in rng.permutation(len(entries))]
            spice = AnalyticalSpice(corner)
            stack = spice.delays_at(*zip(*order), points)
            assert stack.shape == (len(order), m)
            assert spice.delay_evaluations == spice.transient_runs == len(order) * m
            alone = np.stack([spice.delays_at(*entry, points) for entry in order])
            assert np.array_equal(stack, alone)
            assert spice.delay_evaluations == 2 * len(order) * m

    def test_pin_delay_forms_are_pinned(self, library):
        """Scalar, broadcast and per-cell load-vector calls of the one-entry
        form, recorded before ``pin_delay`` became the stack of one."""
        model = AnalyticalSpice().model
        cell = library["AOI21_X2"]
        pin = cell.pins[1]
        scalar = model.pin_delay(cell, pin, DrivePolarity.FALL, 0.7, 3 * FF)
        assert isinstance(scalar, float)
        assert scalar.hex() == "0x1.5fb8edf8e5760p-37"
        grid = model.pin_delay(cell, pin, DrivePolarity.RISE,
                               np.asarray(PAPER_VOLTAGES)[:, None],
                               np.asarray(PAPER_LOADS)[None, :])
        assert grid.shape == (12, 9)
        assert hashlib.sha256(grid.tobytes()).hexdigest() == \
            "bcc109fc32eb51d2563148ba86e4de32c2def70d9083c6481360ef0eef452b8c"
        circuit = random_circuit("pinned", 8, 300, seed=7)
        delays = nominal_delay_array(circuit.gates_by_cell(library),
                                     circuit.gate_loads(library))
        assert hashlib.sha256(delays.tobytes()).hexdigest() == \
            "05ee7fb3d946ca316cf81d41a5c4276d64ad6e4ef4872741e1f24372ea93a1a3"

    def test_a_call_that_raises_counts_nothing(self, library):
        spice = AnalyticalSpice()
        cells = [library["INV_X1"], library["NOR2_X1"]]
        pins = [cell.pins[0] for cell in cells]
        polarities = [DrivePolarity.RISE, DrivePolarity.FALL]
        good = [(0.8, 2 * FF), (0.6, 8 * FF), (1.0, 1 * FF)]
        assert spice.delays_at(cells, pins, polarities, good).shape == (2, 3)
        assert spice.delay_evaluations == spice.transient_runs == 6
        with pytest.raises(ValueError, match="positive"):
            spice.delays_at(cells, pins, polarities, good + [(0.8, 0.0)])
        with pytest.raises(ParameterError, match="threshold"):
            spice.delays_at(cells[0], pins[0], polarities[0], [(0.2, 2 * FF)])
        with pytest.raises(ParameterError, match="threshold"):
            spice.measure(cells[0], pins[0], polarities[0], 0.2, 2 * FF)
        assert spice.delay_evaluations == spice.transient_runs == 6

    def test_sweep_cell_covers_all_entries(self, library):
        spice = AnalyticalSpice()
        cell = library["NAND3_X1"]
        entries = list(spice.sweep_cell(cell))
        assert len(entries) == 3 * 2  # pins x polarities
        pins = [pin.name for pin, _, _ in entries]
        assert pins == ["A1", "A1", "A2", "A2", "A3", "A3"]
        polarities = [pol for _, pol, _ in entries[:2]]
        assert polarities == [DrivePolarity.RISE, DrivePolarity.FALL]
