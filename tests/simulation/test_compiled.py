"""Tests for netlist compilation (flat arrays, truth tables, levels)."""

import numpy as np
import pytest

from repro.netlist.generate import c17, random_circuit
from repro.netlist.sdf import annotate_nominal
from repro.simulation.compiled import _pad_truth_table, _truth_table, compile_circuit


class TestTruthTables:
    def test_nand2_table(self, library):
        table = _truth_table(library["NAND2_X1"])
        # index bit i = pin i: outputs 1,1,1,0 for 00,01,10,11
        assert table == 0b0111

    def test_mux_table(self, library):
        table = _truth_table(library["MUX2_X1"])
        # pins (A, B, S): index = A + 2B + 4S
        for idx in range(8):
            a, b, s = idx & 1, (idx >> 1) & 1, (idx >> 2) & 1
            expected = b if s else a
            assert (table >> idx) & 1 == expected

    def test_pad_preserves_function(self, library):
        base = _truth_table(library["NAND2_X1"])
        padded = _pad_truth_table(base, 2, 4)
        for idx in range(16):
            assert (padded >> idx) & 1 == (base >> (idx & 0b11)) & 1

    def test_pad_identity_when_same_arity(self):
        assert _pad_truth_table(0b0110, 2, 2) == 0b0110


class TestCompiledStructure:
    @pytest.fixture(scope="class")
    def compiled(self, library):
        return compile_circuit(c17(), library)

    def test_net_numbering(self, compiled):
        # inputs first, then gate outputs in insertion order
        assert compiled.net_id("G1") == 0
        assert compiled.num_nets == 5 + 6
        np.testing.assert_array_equal(compiled.input_net_ids, range(5))

    def test_gate_arrays(self, compiled):
        assert compiled.num_gates == 6
        assert compiled.max_pins == 2
        assert np.all(compiled.gate_arity == 2)
        assert np.all(compiled.gate_loads > 0)
        assert np.all(compiled.nominal_delays[:, :2, :] > 0)

    def test_dummy_net_and_padding(self, library):
        circuit = random_circuit("pad", 8, 60, seed=4)  # mixed arities
        compiled = compile_circuit(circuit, library)
        assert compiled.dummy_net_id == compiled.num_nets
        narrow = np.where(compiled.gate_arity < compiled.max_pins)[0]
        assert narrow.size > 0
        for gate_index in narrow[:5]:
            arity = int(compiled.gate_arity[gate_index])
            assert np.all(
                compiled.padded_inputs[gate_index, arity:]
                == compiled.dummy_net_id)
            # spare pins are don't-care: padded table restricted to the
            # real pins equals the original
            base = int(compiled.truth_tables[gate_index])
            padded = int(compiled.padded_truth_tables[gate_index])
            for idx in range(1 << arity):
                assert (padded >> idx) & 1 == (base >> idx) & 1

    def test_levels_partition_gates(self, library):
        circuit = random_circuit("lvl", 8, 120, seed=5)
        compiled = compile_circuit(circuit, library)
        seen = np.concatenate(compiled.levels)
        assert sorted(seen.tolist()) == list(range(compiled.num_gates))
        # every level plan's arity runs cover the level exactly
        for level, plan in zip(compiled.levels, compiled.plans().levels):
            assert sorted(plan.gate_indices.tolist()) == sorted(level.tolist())
            assert plan.group_offsets[0] == 0
            assert plan.group_offsets[-1] == plan.num_gates
            for run, arity in enumerate(plan.group_arity):
                rows = slice(*plan.group_offsets[run:run + 2])
                assert np.all(compiled.gate_arity[plan.gate_indices[rows]]
                              == arity)

    def test_custom_annotation_respected(self, library):
        circuit = c17()
        annotation = annotate_nominal(circuit, library)
        # perturb one delay and verify it lands in the arrays
        gate = circuit.gates[0]
        rise, fall = annotation.delays[gate.name][0]
        annotation.delays[gate.name] = ((rise * 2, fall),) + \
            annotation.delays[gate.name][1:]
        compiled = compile_circuit(circuit, library, annotation=annotation)
        assert compiled.nominal_delays[0, 0, 0] == pytest.approx(rise * 2)
        assert compiled.nominal_delays[0, 0, 1] == pytest.approx(fall)

    def test_invalid_circuit_rejected(self, library):
        from repro.errors import NetlistError
        from repro.netlist.circuit import Circuit
        bad = Circuit("bad")
        bad.add_input("a")
        bad.add_gate("g0", "NAND2_X1", ["a", "ghost"], "y")
        bad.add_output("y")
        with pytest.raises(NetlistError):
            compile_circuit(bad, library)
