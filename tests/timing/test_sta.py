"""Tests for static timing analysis."""

import numpy as np
import pytest

from repro.core.parameters import ParameterSpace
from repro.errors import ParameterError, TimingError
from repro.netlist.circuit import Circuit
from repro.netlist.generate import random_circuit
from repro.netlist.sdf import SdfAnnotation
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.timing.sta import StaticTimingAnalysis


def chain_with_known_delays(library):
    """INV -> INV chain with hand-set rise/fall delays."""
    circuit = Circuit("chain")
    circuit.add_input("a")
    circuit.add_gate("g0", "INV_X1", ["a"], "n0")
    circuit.add_gate("g1", "INV_X1", ["n0"], "n1")
    circuit.add_output("n1")
    annotation = SdfAnnotation(design="chain")
    annotation.delays["g0"] = ((2e-12, 3e-12),)  # rise, fall
    annotation.delays["g1"] = ((5e-12, 7e-12),)
    compiled = compile_circuit(circuit, library, annotation=annotation)
    return circuit, compiled


class TestHandComputed:
    def test_inverting_chain_arrivals(self, library):
        circuit, compiled = chain_with_known_delays(library)
        sta = StaticTimingAnalysis(circuit, library, compiled=compiled)
        arrivals = sta.analyze()
        # n0 rise comes from a falling (negative unate): 0 + 2ps
        assert arrivals.rise["n0"] == pytest.approx(2e-12)
        assert arrivals.fall["n0"] == pytest.approx(3e-12)
        # n1 rise <- n0 fall + 5ps = 8ps ; n1 fall <- n0 rise + 7ps = 9ps
        assert arrivals.rise["n1"] == pytest.approx(8e-12)
        assert arrivals.fall["n1"] == pytest.approx(9e-12)
        assert arrivals.longest_path == pytest.approx(9e-12)
        assert arrivals.critical_output == "n1"
        assert arrivals.worst("n1") == pytest.approx(9e-12)

    def test_binate_uses_worst_input(self, library):
        circuit = Circuit("binate")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g0", "XOR2_X1", ["a", "b"], "y")
        circuit.add_output("y")
        annotation = SdfAnnotation(design="binate")
        annotation.delays["g0"] = ((1e-12, 2e-12), (3e-12, 4e-12))
        compiled = compile_circuit(circuit, library, annotation=annotation)
        arrivals = StaticTimingAnalysis(circuit, library,
                                        compiled=compiled).analyze()
        assert arrivals.rise["y"] == pytest.approx(3e-12)
        assert arrivals.fall["y"] == pytest.approx(4e-12)


class TestBoundsSimulation:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sta_bounds_transport_simulation(self, library, seed, rng):
        circuit = random_circuit(f"sta{seed}", 10, 150, seed=seed)
        compiled = compile_circuit(circuit, library)
        sta = StaticTimingAnalysis(circuit, library, compiled=compiled)
        longest = sta.longest_path_delay()
        sim = GpuWaveSim(circuit, library, compiled=compiled,
                         config=SimulationConfig(pulse_filtering="transport"))
        pairs = [PatternPair.random(10, rng) for _ in range(30)]
        result = sim.run(pairs)
        worst = max(result.latest_arrival(s, circuit.outputs)
                    for s in range(30))
        assert worst <= longest + 1e-18

    def test_sta_pessimism_gap(self, library, medium_circuit, rng):
        """Table II shape: simulation arrives earlier than STA predicts."""
        compiled = compile_circuit(medium_circuit, library)
        longest = StaticTimingAnalysis(medium_circuit, library,
                                       compiled=compiled).longest_path_delay()
        sim = GpuWaveSim(medium_circuit, library, compiled=compiled)
        pairs = [PatternPair.random(len(medium_circuit.inputs), rng)
                 for _ in range(30)]
        worst = max(sim.run(pairs).latest_arrival(s, medium_circuit.outputs)
                    for s in range(30))
        assert worst < longest


class TestParametric:
    def test_voltage_derating_monotone(self, library, small_circuit,
                                       kernel_table):
        sta = StaticTimingAnalysis(small_circuit, library)
        delays = [sta.longest_path_delay(v, kernel_table)
                  for v in (0.55, 0.7, 0.9, 1.1)]
        assert delays == sorted(delays, reverse=True)

    def test_nominal_parametric_close_to_static(self, library, small_circuit,
                                                kernel_table):
        sta = StaticTimingAnalysis(small_circuit, library)
        static = sta.longest_path_delay()
        parametric = sta.longest_path_delay(0.8, kernel_table)
        assert parametric == pytest.approx(static, rel=0.02)

    def test_parametric_needs_voltage(self, library, small_circuit,
                                      kernel_table):
        sta = StaticTimingAnalysis(small_circuit, library)
        with pytest.raises(TimingError, match="voltage"):
            sta.analyze(kernel_table=kernel_table)


class TestVoltageBox:
    """Parametric STA derates through the polynomial table, which is
    fitted over the characterized box only: a supply past it raises
    instead of extrapolating."""

    def test_box_edges_are_unchanged(self, library, small_circuit,
                                     kernel_table, monkeypatch):
        sta = StaticTimingAnalysis(small_circuit, library)
        space = kernel_table.space
        edges = (space.v_min, space.v_max)
        guarded = [sta.longest_path_delay(v, kernel_table) for v in edges]
        monkeypatch.setattr(ParameterSpace, "require",
                            lambda self, point: point)
        unguarded = [sta.longest_path_delay(v, kernel_table) for v in edges]
        assert guarded == unguarded

    @pytest.mark.parametrize("edge, step", [("v_min", -1e-6),
                                            ("v_max", 1e-6)])
    def test_one_microvolt_outside_raises(self, library, small_circuit,
                                          kernel_table, edge, step):
        sta = StaticTimingAnalysis(small_circuit, library)
        space = kernel_table.space
        voltage = getattr(space, edge) + step
        with pytest.raises(ParameterError,
                           match=rf"supply {voltage:.10g} V is outside the "
                                 rf"characterized box \[{space.v_min:g}, "
                                 rf"{space.v_max:g}\] V"):
            sta.longest_path_delay(voltage, kernel_table)
