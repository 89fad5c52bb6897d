"""Tests for the circuit graph and levelization."""

import numpy as np
import pytest

from repro.errors import NetlistError, ParameterError
from repro.netlist import generate
from repro.netlist.circuit import Circuit
from tests.netlist import reference


def as_bits(values):
    """Floats as their ``uint64`` bit patterns: equal means identical."""
    return np.fromiter(values, dtype=np.float64).view(np.uint64).tolist()


def chain_circuit() -> Circuit:
    """a -> INV -> n0 -> INV -> n1 (output)."""
    circuit = Circuit("chain")
    circuit.add_input("a")
    circuit.add_gate("g0", "INV_X1", ["a"], "n0")
    circuit.add_gate("g1", "INV_X1", ["n0"], "n1")
    circuit.add_output("n1")
    return circuit


def diamond_circuit() -> Circuit:
    """Two parallel inverters reconverging in a NAND."""
    circuit = Circuit("diamond")
    circuit.add_input("a")
    circuit.add_gate("u", "INV_X1", ["a"], "top")
    circuit.add_gate("v", "INV_X2", ["a"], "bot")
    circuit.add_gate("w", "NAND2_X1", ["top", "bot"], "out")
    circuit.add_output("out")
    return circuit


class TestConstruction:
    def test_counts(self):
        circuit = diamond_circuit()
        assert circuit.num_gates == 3
        assert circuit.num_nodes == 1 + 3 + 1  # PI + cells + PO

    def test_duplicate_gate_name(self):
        circuit = chain_circuit()
        with pytest.raises(NetlistError, match="duplicate gate name"):
            circuit.add_gate("g0", "INV_X1", ["a"], "n9")

    def test_net_double_drive(self):
        circuit = chain_circuit()
        with pytest.raises(NetlistError, match="already driven"):
            circuit.add_gate("g9", "INV_X1", ["a"], "n0")
        with pytest.raises(NetlistError, match="already driven"):
            circuit.add_input("n1")

    def test_duplicate_output(self):
        circuit = chain_circuit()
        with pytest.raises(NetlistError, match="duplicate output"):
            circuit.add_output("n1")

    def test_gate_lookup(self):
        circuit = chain_circuit()
        assert circuit.gate("g1").cell == "INV_X1"
        with pytest.raises(NetlistError):
            circuit.gate("nope")

    def test_driver(self):
        circuit = chain_circuit()
        assert circuit.driver("a") is None
        assert circuit.driver("n0").name == "g0"
        assert circuit.is_input("a")
        assert not circuit.is_input("n0")
        with pytest.raises(NetlistError, match="undriven"):
            circuit.driver("ghost")


class TestLevelization:
    def test_chain_levels(self):
        levels = chain_circuit().levelize()
        assert [len(level) for level in levels] == [1, 1]
        assert chain_circuit().depth == 2

    def test_diamond_levels(self):
        circuit = diamond_circuit()
        levels = circuit.levelize()
        assert len(levels) == 2
        assert sorted(circuit.gates[i].name for i in levels[0]) == ["u", "v"]
        assert [circuit.gates[i].name for i in levels[1]] == ["w"]

    def test_topological_order_respects_dependencies(self):
        circuit = diamond_circuit()
        seen = set(circuit.inputs)
        for gate in circuit.topological_gates():
            assert all(net in seen for net in gate.inputs)
            seen.add(gate.output)

    def test_cycle_detection(self):
        circuit = Circuit("cyc")
        circuit.add_input("a")
        circuit.add_gate("g0", "NAND2_X1", ["a", "n1"], "n0")
        circuit.add_gate("g1", "INV_X1", ["n0"], "n1")
        circuit.add_output("n1")
        with pytest.raises(NetlistError, match="cycle"):
            circuit.levelize()

    def test_levels_cached_and_invalidated(self):
        circuit = chain_circuit()
        first = circuit.levelize()
        assert circuit.levelize() is first
        circuit.add_gate("g2", "INV_X1", ["n1"], "n2")
        assert circuit.depth == 3


class TestValidation:
    def test_undriven_input_net(self, library):
        circuit = Circuit("bad")
        circuit.add_input("a")
        circuit.add_gate("g0", "NAND2_X1", ["a", "ghost"], "n0")
        circuit.add_output("n0")
        with pytest.raises(NetlistError, match="undriven"):
            circuit.validate(library)

    def test_arity_mismatch(self, library):
        circuit = Circuit("bad")
        circuit.add_input("a")
        circuit.add_gate("g0", "NAND2_X1", ["a"], "n0")
        circuit.add_output("n0")
        with pytest.raises(NetlistError, match="pins"):
            circuit.validate(library)

    def test_no_outputs(self, library):
        circuit = Circuit("bad")
        circuit.add_input("a")
        circuit.add_gate("g0", "INV_X1", ["a"], "n0")
        with pytest.raises(NetlistError, match="no outputs"):
            circuit.validate(library)

    def test_undriven_output(self, library):
        circuit = Circuit("bad")
        circuit.add_input("a")
        circuit.add_gate("g0", "INV_X1", ["a"], "n0")
        circuit.add_output("n0")
        circuit.add_output("ghost")
        with pytest.raises(NetlistError, match="output net"):
            circuit.validate(library)


class TestLoadsAndFanout:
    def test_fanout_map(self):
        circuit = diamond_circuit()
        fanout = circuit.fanout()
        assert len(fanout["a"]) == 2
        assert {(g.name, pin) for g, pin in fanout["top"]} == {("w", 0)}
        assert fanout["out"] == []

    def test_net_loads(self, library):
        circuit = diamond_circuit()
        loads = circuit.net_loads(library)
        # 'a' drives two inverter pins plus two wire stubs.
        inv1 = library["INV_X1"].pins[0].input_cap
        inv2 = library["INV_X2"].pins[0].input_cap
        from repro.netlist.circuit import WIRE_CAP_PER_FANOUT, OUTPUT_PORT_CAP
        assert loads["a"] == pytest.approx(inv1 + inv2 + 2 * WIRE_CAP_PER_FANOUT)
        # output net carries the port capacitance
        assert loads["out"] == pytest.approx(OUTPUT_PORT_CAP)

    def test_copy_is_equal_structure(self):
        circuit = diamond_circuit()
        clone = circuit.copy("clone")
        assert clone.name == "clone"
        assert clone.num_nodes == circuit.num_nodes
        assert [g.name for g in clone.gates] == [g.name for g in circuit.gates]


def shuffled(circuit: Circuit, seed: int) -> Circuit:
    """The same netlist declared in a random order — gates before the
    gates and inputs that drive them (forward references)."""
    rng = np.random.default_rng(seed)
    clone = Circuit(circuit.name)
    steps = ([("input", net) for net in circuit.inputs]
             + [("gate", gate) for gate in circuit.gates])
    for index in rng.permutation(len(steps)):
        kind, item = steps[index]
        if kind == "input":
            clone.add_input(item)
        else:
            clone.add_gate(item.name, item.cell, item.inputs, item.output)
    for net in circuit.outputs:
        clone.add_output(net)
    return clone


def drawn_circuits(seed: int):
    """Small circuits of every generator, each also in shuffled order."""
    circuits = [
        generate.random_circuit("rnd", 4 + seed % 5, 5 + seed % 60, seed=seed),
        generate.c17(),
        generate.ripple_carry_adder(2 + seed % 3),
        generate.array_multiplier(2 + seed % 2),
        generate.parity_tree(3 + seed % 6),
        generate.decoder(2 + seed % 2),
        generate.equality_comparator(2 + seed % 4),
        generate.barrel_shifter(4),
    ]
    return circuits + [shuffled(circuit, seed) for circuit in circuits]


class TestWiringAgainstDictReferences:
    """The integer pass (``Circuit.wiring``) behind ``levelize``,
    ``net_loads`` and ``gate_loads`` against the name-keyed loops in
    ``tests/netlist/reference.py``."""

    @pytest.mark.parametrize("seed", range(12))
    def test_levels_and_loads(self, seed, library):
        for circuit in drawn_circuits(seed):
            circuit.validate(library)
            assert circuit.levelize() == reference.dict_levelize(circuit)
            expected = reference.dict_net_loads(circuit, library)
            loads = circuit.net_loads(library)
            assert list(loads) == list(expected)       # same net order
            assert as_bits(loads.values()) == as_bits(expected.values())
            assert as_bits(circuit.gate_loads(library)) == as_bits(
                expected[gate.output] for gate in circuit.gates)
            custom = circuit.net_loads(library, wire_cap_per_fanout=0.31e-15,
                                       output_port_cap=1.7e-15)
            assert as_bits(custom.values()) == as_bits(reference.dict_net_loads(
                circuit, library, 0.31e-15, 1.7e-15).values())

    def test_wiring_numbers_inputs_then_gate_outputs(self):
        circuit = shuffled(diamond_circuit(), seed=3)
        wiring = circuit.wiring()
        assert list(wiring.net_index) == circuit.inputs + [
            gate.output for gate in circuit.gates]
        assert wiring.arity.tolist() == [len(g.inputs) for g in circuit.gates]
        assert wiring.pin_gates.tolist() == [
            index for index, gate in enumerate(circuit.gates)
            for _ in gate.inputs]
        names = list(wiring.net_index)
        assert [names[net] for net in wiring.pin_nets] == [
            net for gate in circuit.gates for net in gate.inputs]
        assert {cell: gates.tolist() for cell, gates in
                wiring.cell_gates.items()} == {
            cell: [i for i, g in enumerate(circuit.gates) if g.cell == cell]
            for cell in {g.cell for g in circuit.gates}}

    def test_wiring_cached_and_invalidated(self):
        circuit = chain_circuit()
        first = circuit.wiring()
        assert circuit.wiring() is first
        circuit.add_gate("g2", "INV_X1", ["n1"], "n2")
        assert circuit.wiring() is not first
        assert circuit.wiring().pin_nets.size == 3

    def test_wiring_does_not_travel(self):
        import pickle
        circuit = chain_circuit()
        levels = circuit.levelize()
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._wiring is None and clone.levelize() == levels
        assert clone.wiring().net_index == circuit.wiring().net_index

    def test_undriven_net_levelizes_as_a_primary_input(self):
        circuit = Circuit("open")
        circuit.add_input("a")
        circuit.add_gate("g0", "NAND2_X1", ["a", "ghost"], "n0")
        circuit.add_gate("g1", "INV_X1", ["n0"], "n1")
        assert circuit.levelize() == reference.dict_levelize(circuit) == [[0], [1]]

    def test_gate_fed_twice_by_one_driver(self):
        circuit = Circuit("twice")
        circuit.add_input("a")
        circuit.add_gate("g0", "INV_X1", ["a"], "n0")
        circuit.add_gate("g1", "NAND2_X1", ["n0", "n0"], "n1")
        circuit.add_gate("g2", "NAND2_X1", ["n1", "n0"], "n2")
        assert circuit.levelize() == reference.dict_levelize(circuit) == [
            [0], [1], [2]]

    def test_cycle_names_the_gates_left_over(self):
        circuit = Circuit("cyc")
        circuit.add_input("a")
        circuit.add_gate("g0", "INV_X1", ["a"], "n0")
        circuit.add_gate("g1", "NAND2_X1", ["n0", "n2"], "n1")
        circuit.add_gate("g2", "INV_X1", ["n1"], "n2")
        assert reference.dict_levelize(circuit) is None
        with pytest.raises(NetlistError, match=r"cycle involving \['g1', 'g2'\]"):
            circuit.levelize()

    def test_empty_circuit(self, library):
        circuit = Circuit("empty")
        circuit.add_input("a")
        assert circuit.levelize() == []
        assert circuit.net_loads(library) == reference.dict_net_loads(
            circuit, library)
        assert circuit.gate_loads(library).shape == (0,)

    def test_net_loads_rejects_an_undriven_net(self, library):
        circuit = Circuit("bad")
        circuit.add_input("a")
        circuit.add_gate("g0", "NAND2_X1", ["a", "ghost"], "n0")
        with pytest.raises(NetlistError, match="g0 reads undriven net 'ghost'"):
            circuit.net_loads(library)

    def test_first_offender_is_named(self, library):
        circuit = generate.random_circuit("bad", 5, 30, seed=2)
        late, early = circuit.gates[20], circuit.gates[7]
        circuit.gates[20] = type(late)(late.name, late.cell,
                                       late.inputs + ("extra",), late.output)
        circuit.gates[7] = type(early)(early.name, "INV_X1",
                                       early.inputs[:1] * 2, early.output)
        circuit._wiring = None
        with pytest.raises(NetlistError, match=f"gate {late.name} reads undriven"):
            circuit.validate(library)
        circuit.add_input("extra")
        with pytest.raises(NetlistError,
                           match=f"gate {early.name} connects 2 nets to "
                                 r"INV_X1 \(1 pins\)"):
            circuit.validate(library)


class TestCallerSuppliedLoads:
    def test_passed_through_in_gate_order(self, library):
        circuit = diamond_circuit()
        loads = {"top": 3e-15, "bot": 1e-15, "out": 2e-15, "unused": -1.0}
        assert circuit.gate_loads(library, loads).tolist() == [3e-15, 1e-15, 2e-15]

    @pytest.mark.parametrize("value", [0.0, -2e-15])
    def test_non_positive_load_names_instance_and_net(self, library, value):
        circuit = diamond_circuit()
        loads = dict(circuit.net_loads(library), bot=value)
        with pytest.raises(ParameterError,
                           match="gate v: load capacitance of net 'bot' "
                                 "must be positive"):
            circuit.gate_loads(library, loads)

    def test_missing_load_names_instance_and_net(self, library):
        circuit = diamond_circuit()
        loads = circuit.net_loads(library)
        del loads["out"]
        with pytest.raises(ParameterError,
                           match="gate w: no load capacitance for its "
                                 "output net 'out'"):
            circuit.gate_loads(library, loads)

    def test_empty_loads_are_not_the_default(self, library):
        with pytest.raises(ParameterError, match="gate u: no load"):
            diamond_circuit().gate_loads(library, {})
