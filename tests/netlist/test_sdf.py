"""Tests for the SDF writer/parser and nominal annotation."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cells.cell import DrivePolarity
from repro.electrical.model import ElectricalModel, TransistorCorner
from repro.errors import ParameterError, ParseError
from repro.netlist.generate import c17, random_circuit
from repro.netlist.sdf import (annotate_nominal, nominal_delay_array,
                               parse_sdf, write_sdf)
from repro.units import PS
from tests.netlist import reference


class TestAnnotate:
    def test_nominal_matches_electrical_model(self, library):
        circuit = c17()
        model = ElectricalModel()
        loads = circuit.net_loads(library)
        annotation = annotate_nominal(circuit, library, model=model, loads=loads)
        gate = circuit.gates[0]
        cell = library[gate.cell]
        rise, fall = annotation.gate_delays(gate.name)[0]
        assert rise == pytest.approx(
            model.pin_delay(cell, cell.pins[0], DrivePolarity.RISE, 0.8,
                            loads[gate.output]))
        assert fall == pytest.approx(
            model.pin_delay(cell, cell.pins[0], DrivePolarity.FALL, 0.8,
                            loads[gate.output]))

    def test_every_gate_annotated(self, library):
        circuit = random_circuit("sdf", num_inputs=6, num_gates=50, seed=1)
        annotation = annotate_nominal(circuit, library)
        assert len(annotation) == circuit.num_gates

    def test_missing_instance_raises(self, library):
        annotation = annotate_nominal(c17(), library)
        with pytest.raises(ParseError, match="no SDF annotation"):
            annotation.gate_delays("ghost")


class TestRoundTrip:
    def test_values_survive(self, library):
        circuit = random_circuit("sdf", num_inputs=6, num_gates=30, seed=2)
        annotation = annotate_nominal(circuit, library)
        text = write_sdf(circuit, library, annotation)
        parsed = parse_sdf(text, library)
        assert parsed.design == circuit.name
        assert len(parsed) == len(annotation)
        for gate in circuit.gates:
            for (r1, f1), (r2, f2) in zip(annotation.gate_delays(gate.name),
                                          parsed.gate_delays(gate.name)):
                # writer quantizes to 0.1 fs at 1 ps timescale
                assert r2 == pytest.approx(r1, abs=0.001 * PS)
                assert f2 == pytest.approx(f1, abs=0.001 * PS)

    def test_sdf_header_fields(self, library):
        circuit = c17()
        text = write_sdf(circuit, library, annotate_nominal(circuit, library))
        assert '(SDFVERSION "3.0")' in text
        assert "(TIMESCALE 1ps)" in text
        assert "(IOPATH A1 ZN" in text


class TestParseEdgeCases:
    def test_not_sdf(self, library):
        with pytest.raises(ParseError, match="DELAYFILE"):
            parse_sdf("hello", library)

    def test_nanosecond_timescale(self, library):
        circuit = c17()
        text = write_sdf(circuit, library, annotate_nominal(circuit, library))
        # Rescale to ns: same numbers now mean 1000x the delay.
        text_ns = text.replace("(TIMESCALE 1ps)", "(TIMESCALE 1ns)")
        ps_val = parse_sdf(text, library).gate_delays("g0")[0][0]
        ns_val = parse_sdf(text_ns, library).gate_delays("g0")[0][0]
        assert ns_val == pytest.approx(1000 * ps_val)

    def test_unknown_celltype(self, library):
        text = (
            '(DELAYFILE (SDFVERSION "3.0") (DESIGN "x") (TIMESCALE 1ps)\n'
            '  (CELL (CELLTYPE "MYSTERY_X1") (INSTANCE u0)\n'
            "    (DELAY (ABSOLUTE (IOPATH A Z (1:1:1) (1:1:1)))))\n)"
        )
        with pytest.raises(ParseError, match="unknown CELLTYPE"):
            parse_sdf(text, library)

    def test_missing_iopath(self, library):
        text = (
            '(DELAYFILE (SDFVERSION "3.0") (DESIGN "x") (TIMESCALE 1ps)\n'
            '  (CELL (CELLTYPE "NAND2_X1") (INSTANCE u0)\n'
            "    (DELAY (ABSOLUTE (IOPATH A1 ZN (1:1:1) (1:1:1)))))\n)"
        )
        with pytest.raises(ParseError, match="missing IOPATH"):
            parse_sdf(text, library)

    def test_single_value_triple(self, library):
        text = (
            '(DELAYFILE (SDFVERSION "3.0") (DESIGN "x") (TIMESCALE 1ps)\n'
            '  (CELL (CELLTYPE "INV_X1") (INSTANCE u0)\n'
            "    (DELAY (ABSOLUTE (IOPATH A ZN (2.5) (3.5)))))\n)"
        )
        parsed = parse_sdf(text, library)
        rise, fall = parsed.gate_delays("u0")[0]
        assert rise == pytest.approx(2.5 * PS)
        assert fall == pytest.approx(3.5 * PS)


CORNERS = {
    "typical": TransistorCorner.typical(),
    "slow": TransistorCorner.slow(),
    "fast": TransistorCorner.fast(),
    "hot": TransistorCorner.typical().at_temperature(125),
}

#: sha256 of ``write_sdf(c17, annotate_nominal(c17))``, recorded with the
#: per-gate scalar loop at the parent commit of the columnar annotation.
C17_SDF_SHA256 = "29383cd10effb070ff030093842f95f9c1f6218929a7add504e3668013f5a880"


def as_bits(delays):
    """Every float of an annotation dict (gate order, pin order, rise
    then fall) as its ``uint64`` bit pattern."""
    flat = [value for pins in delays.values() for pair in pins for value in pair]
    return np.asarray(flat, dtype=np.float64).view(np.uint64).tolist()


class TestColumnarIsTheScalarModel:
    """``annotate_nominal`` evaluates ``pin_delay`` once per (cell, pin,
    polarity) over a load vector; the scalar call per (gate, pin,
    polarity) is the reference, and the two must agree in every bit."""

    @settings(max_examples=48, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), num_inputs=st.integers(3, 8),
           num_gates=st.integers(1, 60), corner=st.sampled_from(sorted(CORNERS)),
           noisy=st.booleans(), v_nom=st.sampled_from([0.8, 0.65]),
           custom_loads=st.booleans())
    @example(seed=0, num_inputs=5, num_gates=40, corner="hot", noisy=True,
             v_nom=0.65, custom_loads=True)
    def test_bits_equal_scalar_pin_delay(self, seed, num_inputs, num_gates,
                                         corner, noisy, v_nom, custom_loads,
                                         library):
        circuit = random_circuit("bits", num_inputs, num_gates, seed=seed)
        corner = CORNERS[corner]
        model = ElectricalModel(corner if noisy else replace(corner, noise=0.0))
        loads = None
        if custom_loads:
            rng = np.random.default_rng(seed)
            loads = {net: load * rng.uniform(0.3, 3.0)
                     for net, load in circuit.net_loads(library).items()}
        annotation = annotate_nominal(circuit, library, model=model,
                                      v_nom=v_nom, loads=loads)
        expected = reference.scalar_annotation(
            circuit, library, model, v_nom,
            loads if custom_loads else reference.dict_net_loads(circuit, library))
        assert list(annotation.delays) == list(expected)
        assert annotation.delays == expected
        assert as_bits(annotation.delays) == as_bits(expected)
        assert all(type(value) is float for pins in annotation.delays.values()
                   for pair in pins for value in pair)

    def test_default_model_and_voltage(self, library):
        circuit = random_circuit("dflt", 6, 80, seed=9)
        assert as_bits(annotate_nominal(circuit, library).delays) == as_bits(
            reference.scalar_annotation(circuit, library, ElectricalModel(), 0.8,
                                        reference.dict_net_loads(circuit, library)))

    def test_c17_sdf_text_is_pinned(self, library):
        circuit = c17()
        text = write_sdf(circuit, library, annotate_nominal(circuit, library))
        assert hashlib.sha256(text.encode()).hexdigest() == C17_SDF_SHA256

    def test_array_is_the_annotation(self, library):
        circuit = random_circuit("arr", 6, 50, seed=3)
        delays = nominal_delay_array(circuit.gates_by_cell(library),
                                     circuit.gate_loads(library))
        annotation = annotate_nominal(circuit, library)
        assert delays.shape == (50, max(len(g.inputs) for g in circuit.gates), 2)
        for index, gate in enumerate(circuit.gates):
            arity = len(gate.inputs)
            assert tuple(map(tuple, delays[index, :arity].tolist())) == \
                annotation.gate_delays(gate.name)
            assert not delays[index, arity:].any()

    def test_falsy_model_is_still_the_model(self, library):
        class Falsy(ElectricalModel):
            def __bool__(self):
                return False

        circuit = c17()
        slow = Falsy(TransistorCorner.slow())
        assert annotate_nominal(circuit, library, model=slow).delays == \
            annotate_nominal(circuit, library,
                             model=ElectricalModel(TransistorCorner.slow())).delays

    def test_empty_loads_are_not_the_default(self, library):
        with pytest.raises(ParameterError, match="gate g0: no load"):
            annotate_nominal(c17(), library, loads={})

    def test_non_positive_load_names_instance_and_net(self, library):
        circuit = c17()
        loads = circuit.net_loads(library)
        gate = circuit.gates[3]
        loads[gate.output] = 0.0
        with pytest.raises(ParameterError,
                           match=f"gate {gate.name}: load capacitance of net "
                                 f"'{gate.output}' must be positive"):
            annotate_nominal(circuit, library, loads=loads)
