"""Tests for netlist compilation (flat arrays, truth tables, levels)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.netlist.sdf as sdf_module
import repro.simulation.compiled as compiled_module
from repro.electrical.model import ElectricalModel
from repro.errors import ParameterError, ParseError
from repro.netlist import generate
from repro.netlist.generate import c17, random_circuit
from repro.netlist.sdf import (SdfAnnotation, annotate_nominal, parse_sdf,
                               write_sdf)
from repro.netlist.suite import build_suite_circuit
from repro.simulation.compiled import _pad_truth_table, _truth_table, compile_circuit
from tests.netlist import reference


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


def per_gate_compile(circuit, library, annotation, loads):
    """Every array of a :class:`CompiledCircuit`, one gate at a time.

    The loop ``compile_circuit`` ran before it went per-cell (one
    ``_truth_table`` call and one dict lookup per pin *per gate*), kept
    here as the reference the columnar build is held to.  ``annotation``
    is an :class:`SdfAnnotation`, ``loads`` a net → farads dict.
    """
    net_index = {}
    for net in circuit.inputs:
        net_index[net] = len(net_index)
    for gate in circuit.gates:
        net_index[gate.output] = len(net_index)
    num_gates = circuit.num_gates
    max_pins = max((len(g.inputs) for g in circuit.gates), default=1)
    fields = {
        "gate_type_ids": np.zeros(num_gates, dtype=np.int64),
        "gate_arity": np.zeros(num_gates, dtype=np.int64),
        "gate_inputs": np.full((num_gates, max_pins), -1, dtype=np.int64),
        "gate_output": np.zeros(num_gates, dtype=np.int64),
        "gate_loads": np.zeros(num_gates, dtype=np.float64),
        "nominal_delays": np.zeros((num_gates, max_pins, 2), dtype=np.float64),
        "truth_tables": np.zeros(num_gates, dtype=np.uint32),
        "padded_truth_tables": np.zeros(num_gates, dtype=np.uint32),
    }
    for index, gate in enumerate(circuit.gates):
        fields["gate_type_ids"][index] = library.type_id(gate.cell)
        fields["gate_arity"][index] = len(gate.inputs)
        for pin, net in enumerate(gate.inputs):
            fields["gate_inputs"][index, pin] = net_index[net]
        fields["gate_output"][index] = net_index[gate.output]
        fields["gate_loads"][index] = loads[gate.output]
        for pin, (rise, fall) in enumerate(annotation.gate_delays(gate.name)):
            fields["nominal_delays"][index, pin, 0] = rise
            fields["nominal_delays"][index, pin, 1] = fall
        table = _truth_table(library[gate.cell])
        fields["truth_tables"][index] = table
        fields["padded_truth_tables"][index] = _pad_truth_table(
            table, len(gate.inputs), max_pins)
    dummy = len(net_index)
    fields["padded_inputs"] = np.where(fields["gate_inputs"] < 0, dummy,
                                       fields["gate_inputs"])
    fields["truth_tables_i64"] = fields["truth_tables"].astype(np.int64)
    fields["padded_truth_tables_i64"] = \
        fields["padded_truth_tables"].astype(np.int64)
    fields["input_net_ids"] = np.asarray(
        [net_index[n] for n in circuit.inputs], dtype=np.int64)
    fields["output_net_ids"] = np.asarray(
        [net_index[n] for n in circuit.outputs], dtype=np.int64)
    return fields, net_index, dummy, reference.dict_levelize(circuit)


def assert_compiled_equals_reference(compiled, circuit, library, annotation,
                                     loads):
    fields, net_index, dummy, levels = per_gate_compile(
        circuit, library, annotation, loads)
    array_fields = {f.name for f in dataclasses.fields(compiled)} - {
        "circuit", "library", "net_index", "num_nets", "dummy_net_id", "levels"}
    assert set(fields) == array_fields      # no field escapes the comparison
    for name, expected in fields.items():
        actual = getattr(compiled, name)
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        assert actual.tobytes() == expected.tobytes(), name
    assert compiled.circuit is circuit and compiled.library is library
    assert list(compiled.net_index.items()) == list(net_index.items())
    assert compiled.num_nets == len(net_index)
    assert compiled.dummy_net_id == dummy
    assert [level.dtype for level in compiled.levels] == [np.int64] * len(levels)
    assert [level.tolist() for level in compiled.levels] == levels


class TestColumnarCompileIsThePerGateLoop:
    @settings(max_examples=32, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), num_inputs=st.integers(3, 8),
           num_gates=st.integers(1, 60), custom_loads=st.booleans())
    @example(seed=4, num_inputs=8, num_gates=60, custom_loads=True)
    def test_every_field_model_derived(self, seed, num_inputs, num_gates,
                                       custom_loads, library):
        circuit = random_circuit("cols", num_inputs, num_gates, seed=seed)
        loads = reference.dict_net_loads(circuit, library)
        if custom_loads:
            rng = np.random.default_rng(seed)
            loads = {net: load * rng.uniform(0.3, 3.0)
                     for net, load in loads.items()}
        compiled = compile_circuit(circuit, library,
                                   loads=loads if custom_loads else None)
        annotation = SdfAnnotation(circuit.name, reference.scalar_annotation(
            circuit, library, ElectricalModel(), 0.8, loads))
        assert_compiled_equals_reference(compiled, circuit, library,
                                         annotation, loads)

    @pytest.mark.parametrize("build", [
        c17, lambda: generate.ripple_carry_adder(3),
        lambda: generate.array_multiplier(3), lambda: generate.parity_tree(7),
        lambda: generate.decoder(3), lambda: generate.barrel_shifter(4)])
    def test_structured_circuits(self, build, library):
        circuit = build()
        loads = reference.dict_net_loads(circuit, library)
        annotation = SdfAnnotation(circuit.name, reference.scalar_annotation(
            circuit, library, ElectricalModel(), 0.8, loads))
        assert_compiled_equals_reference(compile_circuit(circuit, library),
                                         circuit, library, annotation, loads)

    def test_parsed_sdf_round_trip(self, library):
        circuit = random_circuit("rt", 6, 40, seed=7)
        annotation = parse_sdf(
            write_sdf(circuit, library, annotate_nominal(circuit, library)),
            library)
        assert_compiled_equals_reference(
            compile_circuit(circuit, library, annotation=annotation),
            circuit, library, annotation,
            reference.dict_net_loads(circuit, library))

    def test_hand_built_annotation(self, library):
        circuit = random_circuit("hand", 5, 25, seed=8)
        annotation = SdfAnnotation(design="hand")
        for index, gate in enumerate(circuit.gates):
            annotation.delays[gate.name] = tuple(
                ((index + 1) * 1e-12 + pin * 1e-13, (index + 1) * 2e-12)
                for pin in range(len(gate.inputs)))
        loads = {net: 1.5e-15 for net in circuit.nets()}
        assert_compiled_equals_reference(
            compile_circuit(circuit, library, annotation=annotation,
                            loads=loads),
            circuit, library, annotation, loads)


class TestAnnotationIsNotTruthTested:
    def test_empty_annotation_raises_like_a_partial_one(self, library):
        circuit = c17()
        assert not SdfAnnotation(design="x")          # falsy: __len__ == 0
        with pytest.raises(ParseError, match="no SDF annotation for "
                                             f"instance '{circuit.gates[0].name}'"):
            compile_circuit(circuit, library, annotation=SdfAnnotation(design="x"))

    def test_partial_annotation_raises(self, library):
        circuit = c17()
        annotation = annotate_nominal(circuit, library)
        del annotation.delays[circuit.gates[2].name]
        with pytest.raises(ParseError, match=circuit.gates[2].name):
            compile_circuit(circuit, library, annotation=annotation)

    def test_empty_loads_raise(self, library):
        with pytest.raises(ParameterError, match="gate g0: no load"):
            compile_circuit(c17(), library, loads={})

    def test_non_positive_load_names_instance_and_net(self, library):
        circuit = c17()
        loads = circuit.net_loads(library)
        gate = circuit.gates[4]
        loads[gate.output] = -1e-15
        with pytest.raises(ParameterError,
                           match=f"gate {gate.name}: load capacitance of net "
                                 f"'{gate.output}' must be positive"):
            compile_circuit(circuit, library, loads=loads)


class TestSetUpWorkIsPerCell:
    """The gain as a count: model evaluations and truth-table builds
    follow the number of distinct *cells*, not the number of gates."""

    @staticmethod
    def counted_compile(circuit, library, monkeypatch):
        calls = {"pin_delay": 0, "truth_table": 0}

        class CountingModel(ElectricalModel):
            def pin_delay(self, *args, **kwargs):
                calls["pin_delay"] += 1
                return super().pin_delay(*args, **kwargs)

        def counting_truth_table(cell):
            calls["truth_table"] += 1
            return _truth_table(cell)

        monkeypatch.setattr(sdf_module, "ElectricalModel", CountingModel)
        monkeypatch.setattr(compiled_module, "_truth_table", counting_truth_table)
        compile_circuit(circuit, library)
        return calls

    def test_counts_follow_cells_not_gates(self, library, monkeypatch):
        small = build_suite_circuit("b17", scale=0.05)
        large = build_suite_circuit("b17", scale=0.1)
        assert large.num_gates >= 2 * small.num_gates - 2
        cells = {gate.cell for gate in small.gates}
        assert cells == {gate.cell for gate in large.gates}
        pins = sum(library[cell].num_inputs for cell in cells)
        expected = {"pin_delay": 2 * pins, "truth_table": len(cells)}
        assert self.counted_compile(small, library, monkeypatch) == expected
        assert self.counted_compile(large, library, monkeypatch) == expected
        assert expected["pin_delay"] < small.num_gates
