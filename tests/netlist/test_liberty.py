"""Tests for Liberty export of per-voltage library views."""

import numpy as np
import pytest

from repro.cells.cell import DrivePolarity
from repro.errors import ParameterError, ParseError
from repro.netlist.liberty import parse_liberty, write_liberty
from repro.units import FF


@pytest.fixture(scope="module")
def nominal_lib(characterization):
    return write_liberty(characterization)


class TestWrite:
    def test_header(self, nominal_lib):
        assert nominal_lib.startswith("library (nangate15_0p80v)")
        assert 'time_unit : "1ps";' in nominal_lib
        assert "voltage_map (VDD, 0.80);" in nominal_lib

    def test_all_cells_present(self, nominal_lib, library):
        for cell in library:
            assert f"cell ({cell.name})" in nominal_lib

    def test_voltage_out_of_range(self, characterization):
        with pytest.raises(ParameterError, match="outside"):
            write_liberty(characterization, voltage=1.5)

    @pytest.mark.parametrize("edge", ["v_min", "v_max"])
    def test_box_edges_and_one_microvolt_past_them(self, characterization,
                                                   edge):
        space = characterization.space
        voltage = getattr(space, edge)
        assert f"voltage_map (VDD, {voltage:.2f});" in write_liberty(
            characterization, voltage=voltage, table_points=2)
        past = voltage + (1e-6 if edge == "v_max" else -1e-6)
        with pytest.raises(ParameterError,
                           match=rf"supply {past:.10g} V is outside the "
                                 r"characterized box \[0.55, 1.1\] V"):
            write_liberty(characterization, voltage=past)


class TestRoundTrip:
    def test_pin_caps_survive(self, nominal_lib, library):
        parsed = parse_liberty(nominal_lib)
        nand = parsed["NAND2_X1"]
        cell = library["NAND2_X1"]
        assert nand["pins"]["A1"] == pytest.approx(cell.pins[0].input_cap,
                                                   rel=1e-3)

    def test_delays_match_kernels(self, nominal_lib, characterization):
        parsed = parse_liberty(nominal_lib)
        loads = parsed["__loads__"]
        entry = characterization.entry("NOR2_X2", "A1", DrivePolarity.RISE)
        table = parsed["NOR2_X2"]["timing"]["A1"]["rise"]
        expected = np.asarray([entry.delay(0.8, c) for c in loads])
        np.testing.assert_allclose(table, expected, rtol=1e-3)

    def test_per_voltage_views_differ_consistently(self, characterization):
        low = parse_liberty(write_liberty(characterization, voltage=0.6))
        high = parse_liberty(write_liberty(characterization, voltage=1.0))
        slow = low["INV_X1"]["timing"]["A"]["fall"]
        fast = high["INV_X1"]["timing"]["A"]["fall"]
        assert np.all(slow > fast)
        # the low-voltage view is slower by the physical ~30-60% range
        ratio = slow / fast
        assert np.all(ratio > 1.1) and np.all(ratio < 2.5)

    def test_monotone_in_load(self, nominal_lib):
        parsed = parse_liberty(nominal_lib)
        values = parsed["AND3_X1"]["timing"]["A2"]["rise"]
        assert np.all(np.diff(values) > 0)


class TestParseErrors:
    def test_not_liberty(self):
        with pytest.raises(ParseError):
            parse_liberty("hello world")

    def test_missing_template(self):
        with pytest.raises(ParseError, match="index_1"):
            parse_liberty("library (x) { }")
