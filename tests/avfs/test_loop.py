"""Tests for the closed-loop AVFS scenario engine."""

from dataclasses import replace

import numpy as np
import pytest

from repro import faults
from repro.analysis.arrival import latest_arrivals
from repro.avfs.controller import AvfsController
from repro.avfs.explorer import DesignSpaceExplorer
from repro.avfs.loop import (ClosedLoopRunner, LoopConfig, LoopStep,
                             TemperatureDrift, VoltageDroop)
from repro.avfs.scaling import VoltageFrequencyTable
from repro.errors import CheckpointError, InjectedFaultError, ParameterError
from repro.faults.plan import WorkerDeathError
from repro.netlist.generate import random_circuit
from repro.simulation.base import PatternPair
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.pool import clear_engine_pool
from repro.simulation.variation import (ProcessVariation,
                                        StateDependentVariation)

VOLTAGES = [0.55, 0.7, 0.8, 1.0]

#: Per-step ``(delta_used, lanes_spliced, gate_evaluations)`` of a
#: 12-step trajectory under :func:`revisiting_disturbances`, as recorded
#: while every splice still copied its base: ``f`` a full run of 120
#: gates x 6 slots, ``s`` an exact revisit spliced whole.
LOOP_COUNTERS = [{"f": (False, 0, 720), "s": (True, 720, 0)}[step]
                 for step in "fffsffsfssss"]


def revisiting_disturbances():
    """Droop and drift under which the loop wanders over 0.675-0.69 V
    and revisits most of those supplies (energy recording on)."""
    return [VoltageDroop(0.01, reference_activity=50.0, jitter=0.01,
                         seed=11),
            TemperatureDrift(0.005)]


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def setup(library, kernel_table):
    circuit = random_circuit("loop", 10, 120, seed=21)
    rng = np.random.default_rng(5)
    pairs = [PatternPair.random(10, rng) for _ in range(6)]
    explorer = DesignSpaceExplorer(circuit, library, kernel_table)
    table = explorer.voltage_frequency_table(pairs, VOLTAGES, guardband=0.05)
    return circuit, pairs, explorer, table


def make_runner(setup, library, kernel_table, config, **kwargs):
    circuit, pairs, explorer, table = setup
    return ClosedLoopRunner(circuit, library, kernel_table,
                            AvfsController(table), config, **kwargs)


def loose_period(table, voltage=0.7, margin=1.10):
    """A period comfortably met at ``voltage`` (guardband included)."""
    point = next(p for p in table if np.isclose(p.voltage, voltage))
    return point.critical_delay * (1.0 + point.guardband) * margin


class TestConvergence:
    def test_steps_down_to_vmin_and_settles(self, setup, library,
                                            kernel_table):
        circuit, pairs, explorer, table = setup
        period = loose_period(table, voltage=0.7)
        runner = make_runner(setup, library, kernel_table,
                             LoopConfig(period=period, max_iterations=12,
                                        settle_iterations=2,
                                        record_energy=False))
        report = runner.run(pairs)
        assert report.converged_at is not None
        # The loop's resting point matches the explorer's static answer.
        vmin = explorer.find_vmin(pairs, VOLTAGES, period, guardband=0.05)
        assert report.final_voltage == pytest.approx(vmin)
        assert report.violations == 0
        assert not report.resumed
        # Convergence stops the loop early.
        assert report.num_iterations < 12

    def test_tight_period_stays_at_top(self, setup, library, kernel_table):
        circuit, pairs, explorer, table = setup
        top = table.points[-1]
        period = top.critical_delay * (1.0 + top.guardband) * 1.02
        runner = make_runner(setup, library, kernel_table,
                             LoopConfig(period=period, max_iterations=6,
                                        settle_iterations=2,
                                        record_energy=False))
        report = runner.run(pairs)
        assert report.final_voltage == pytest.approx(top.voltage)

    def test_energy_accounting(self, setup, library, kernel_table):
        circuit, pairs, explorer, table = setup
        runner = make_runner(setup, library, kernel_table,
                             LoopConfig(period=loose_period(table),
                                        max_iterations=4,
                                        settle_iterations=2))
        report = runner.run(pairs)
        assert all(s.energy_per_pattern > 0 for s in report.steps)
        assert report.total_energy > 0
        # Energy drops as the supply steps down (E ~ V^2).
        assert (report.steps[-1].energy_per_pattern
                < report.steps[0].energy_per_pattern)

    def test_empty_pairs_rejected(self, setup, library, kernel_table):
        runner = make_runner(setup, library, kernel_table,
                             LoopConfig(period=1e-9, record_energy=False))
        with pytest.raises(ParameterError):
            runner.run([])

    def test_table_box_edges(self, setup, library, kernel_table):
        """A V-f table reaching the box edges runs — a step at the top
        edge measures a plain engine run's arrival — and one with a
        point just outside either edge raises before any step."""
        circuit, pairs, explorer, _ = setup
        space = kernel_table.space
        table = explorer.voltage_frequency_table(
            pairs, [space.v_min, 0.8, space.v_max], guardband=0.05)
        config = LoopConfig(period=1.0, max_iterations=1,
                            record_energy=False)
        report = ClosedLoopRunner(circuit, library, kernel_table,
                                  AvfsController(table), config).run(pairs)
        plan = SlotPlan.uniform(len(pairs), space.v_max)
        result = GpuWaveSim(circuit, library).run(
            pairs, plan=plan, kernel_table=kernel_table)
        assert report.steps[0].effective_voltage == space.v_max
        assert report.steps[0].raw_arrival == latest_arrivals(
            result, circuit, plan=plan).at(space.v_max)
        for position, outside in ((0, space.v_min - 1e-6),
                                  (-1, space.v_max + 1e-6)):
            points = list(table.points)
            points[position] = replace(points[position], voltage=outside)
            shifted = VoltageFrequencyTable(points)
            runner = ClosedLoopRunner(circuit, library, kernel_table,
                                      AvfsController(shifted), config)
            with pytest.raises(ParameterError, match="outside"):
                runner.run(pairs)

    def test_report_round_trip(self, setup, library, kernel_table):
        circuit, pairs, explorer, table = setup
        runner = make_runner(setup, library, kernel_table,
                             LoopConfig(period=loose_period(table),
                                        max_iterations=4,
                                        settle_iterations=2,
                                        record_energy=False))
        report = runner.run(pairs)
        payload = report.to_dict()
        assert payload["circuit_name"] == circuit.name
        assert len(payload["steps"]) == report.num_iterations
        step = LoopStep.from_dict(report.steps[0].to_dict())
        assert step == report.steps[0]
        assert "iter" in report.summary()


class TestDisturbances:
    def test_droop_lowers_effective_voltage(self, setup, library,
                                            kernel_table):
        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=5,
                            settle_iterations=6, record_energy=False)
        runner = make_runner(setup, library, kernel_table, config,
                             disturbances=[VoltageDroop(0.03)])
        report = runner.run(pairs)
        for step in report.steps:
            assert (step.effective_voltage
                    <= step.commanded_voltage + 1e-12)
        assert any(s.effective_voltage < s.commanded_voltage
                   for s in report.steps)

    def test_drift_inflates_measurement(self, setup, library, kernel_table):
        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=4,
                            settle_iterations=5, record_energy=False)
        runner = make_runner(setup, library, kernel_table, config,
                             disturbances=[TemperatureDrift(0.02)])
        report = runner.run(pairs)
        for i, step in enumerate(report.steps):
            expected = step.raw_arrival * (1.0 + min(0.02 * i, 0.10))
            assert step.measured_arrival == pytest.approx(expected)

    def test_jittered_droop_is_deterministic_under_seed(self, setup, library,
                                                        kernel_table):
        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=6,
                            settle_iterations=7, record_energy=False)

        def trajectory(seed):
            runner = make_runner(
                setup, library, kernel_table, config,
                disturbances=[VoltageDroop(0.01, jitter=0.02, seed=seed)])
            return [(s.effective_voltage, s.raw_arrival)
                    for s in runner.run(pairs).steps]

        assert trajectory(11) == trajectory(11)
        assert trajectory(11) != trajectory(12)

    def test_disturbance_validation(self):
        with pytest.raises(ParameterError):
            VoltageDroop(-0.1)
        with pytest.raises(ParameterError):
            TemperatureDrift(-0.01)


class TestDeltaReuse:
    def test_delta_matches_full_bit_identically(self, setup, library,
                                                kernel_table):
        circuit, pairs, explorer, table = setup
        disturbances = [VoltageDroop(0.02), TemperatureDrift(0.005)]
        reports = {}
        for use_delta in (False, True):
            config = LoopConfig(period=loose_period(table),
                                max_iterations=10, settle_iterations=11,
                                use_delta=use_delta, record_energy=False)
            runner = make_runner(setup, library, kernel_table, config,
                                 disturbances=disturbances)
            reports[use_delta] = runner.run(pairs)
        full, delta = reports[False], reports[True]
        assert [s.raw_arrival for s in full.steps] == \
               [s.raw_arrival for s in delta.steps]
        assert [s.effective_voltage for s in full.steps] == \
               [s.effective_voltage for s in delta.steps]
        assert full.delta_reuse_fraction == 0.0
        assert delta.delta_reuse_fraction > 0.0
        assert delta.run_report.lanes_spliced > 0
        assert delta.delta_iterations > 0
        assert any(s.delta_used for s in delta.steps)

    def test_delta_with_state_dependent_variation(self, setup, library,
                                                  kernel_table):
        circuit, pairs, explorer, table = setup
        variation = StateDependentVariation(
            sigma=0.04, seed=3, voltage_sensitivity=1.5, v_ref=1.0)
        reports = {}
        for use_delta in (False, True):
            config = LoopConfig(period=loose_period(table, margin=1.2),
                                max_iterations=8, settle_iterations=9,
                                use_delta=use_delta, record_energy=False)
            runner = make_runner(setup, library, kernel_table, config,
                                 variation=variation)
            reports[use_delta] = runner.run(pairs)
        assert [s.raw_arrival for s in reports[False].steps] == \
               [s.raw_arrival for s in reports[True].steps]
        assert reports[True].delta_iterations > 0

    def test_exact_revisits_answer_from_the_ring_base(
            self, setup, library, kernel_table, monkeypatch):
        """An exact revisit is answered with its ring base's payload, not
        a copy of it, and the trajectory does not change: measurements
        equal a full re-simulation's, step counters the pinned ones."""
        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=12,
                            settle_iterations=13)
        disturbances = revisiting_disturbances()
        full = make_runner(setup, library, kernel_table,
                           replace(config, use_delta=False),
                           disturbances=disturbances).run(pairs)

        shared = []
        run = GpuWaveSim.run

        def spy(engine, *args, **kwargs):
            result = run(engine, *args, **kwargs)
            delta = kwargs.get("delta")
            if delta is not None:
                assert delta.base_slot.tolist() == list(range(len(pairs)))
                shared.append(np.shares_memory(result.plane.times,
                                               delta.base.plane.times))
            return result

        monkeypatch.setattr(GpuWaveSim, "run", spy)
        report = make_runner(setup, library, kernel_table, config,
                             disturbances=disturbances).run(pairs)

        revisits = [s for s in report.steps
                    if s.delta_used and s.gate_evaluations == 0]
        assert len(revisits) == len(shared) > 0
        assert all(shared)

        def measured(steps):
            return [(s.raw_arrival, s.energy_per_pattern,
                     s.activity_per_pattern) for s in steps]

        assert measured(report.steps) == measured(full.steps)
        assert [(s.delta_used, s.lanes_spliced, s.gate_evaluations)
                for s in report.steps] == LOOP_COUNTERS

    def test_variation_changes_measurement(self, setup, library,
                                           kernel_table):
        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=2,
                            settle_iterations=3, record_energy=False)
        plain = make_runner(setup, library, kernel_table, config).run(pairs)
        varied = make_runner(
            setup, library, kernel_table, config,
            variation=StateDependentVariation(sigma=0.08, seed=9)).run(pairs)
        assert plain.steps[0].raw_arrival != varied.steps[0].raw_arrival


class TestCheckpointing:
    def fast_config(self, table, **kwargs):
        kwargs.setdefault("max_iterations", 6)
        kwargs.setdefault("settle_iterations", 2)
        kwargs.setdefault("record_energy", False)
        return LoopConfig(period=loose_period(table), **kwargs)

    def test_resume_after_injected_crash(self, setup, library, kernel_table,
                                         tmp_path):
        circuit, pairs, explorer, table = setup
        config = self.fast_config(table)
        baseline = make_runner(setup, library, kernel_table, config).run(pairs)

        with faults.injected("loop.step:raise@n=3"):
            with pytest.raises(InjectedFaultError):
                make_runner(setup, library, kernel_table, config,
                            checkpoint_dir=tmp_path).run(pairs)
        # Two completed iterations survived the crash.
        assert (tmp_path / "step_00001.json").exists()
        assert not (tmp_path / "step_00002.json").exists()

        report = make_runner(setup, library, kernel_table, config,
                             checkpoint_dir=tmp_path).run(pairs)
        assert report.resumed
        assert sum(1 for s in report.steps if s.from_checkpoint) == 2
        assert [(s.effective_voltage, s.raw_arrival, s.next_voltage)
                for s in report.steps] == \
               [(s.effective_voltage, s.raw_arrival, s.next_voltage)
                for s in baseline.steps]
        assert report.converged_at == baseline.converged_at

    def test_resume_after_worker_death(self, setup, library, kernel_table,
                                       tmp_path):
        circuit, pairs, explorer, table = setup
        config = self.fast_config(table)
        with faults.injected("loop.step:die@n=2"):
            with pytest.raises(WorkerDeathError):
                make_runner(setup, library, kernel_table, config,
                            checkpoint_dir=tmp_path).run(pairs)
        report = make_runner(setup, library, kernel_table, config,
                             checkpoint_dir=tmp_path).run(pairs)
        assert report.resumed
        assert report.steps[0].from_checkpoint
        assert report.converged_at is not None

    def test_completed_loop_replays_from_checkpoint(self, setup, library,
                                                    kernel_table, tmp_path):
        circuit, pairs, explorer, table = setup
        config = self.fast_config(table)
        first = make_runner(setup, library, kernel_table, config,
                            checkpoint_dir=tmp_path).run(pairs)
        second = make_runner(setup, library, kernel_table, config,
                             checkpoint_dir=tmp_path).run(pairs)
        assert second.resumed
        assert all(s.from_checkpoint for s in second.steps)
        assert second.run_report.gate_evaluations == 0
        assert [s.raw_arrival for s in second.steps] == \
               [s.raw_arrival for s in first.steps]

    def test_foreign_checkpoint_refused(self, setup, library, kernel_table,
                                        tmp_path):
        circuit, pairs, explorer, table = setup
        config = self.fast_config(table)
        make_runner(setup, library, kernel_table, config,
                    checkpoint_dir=tmp_path).run(pairs)
        other = LoopConfig(period=config.period * 2.0, max_iterations=6,
                           settle_iterations=2, record_energy=False)
        with pytest.raises(CheckpointError, match="fingerprint"):
            make_runner(setup, library, kernel_table, other,
                        checkpoint_dir=tmp_path).run(pairs)

    def test_corrupt_step_degrades_to_recomputation(self, setup, library,
                                                    kernel_table, tmp_path):
        circuit, pairs, explorer, table = setup
        config = self.fast_config(table)
        baseline = make_runner(setup, library, kernel_table, config,
                               checkpoint_dir=tmp_path).run(pairs)
        (tmp_path / "step_00001.json").write_text("{ not json")
        report = make_runner(setup, library, kernel_table, config,
                             checkpoint_dir=tmp_path).run(pairs)
        assert sum(1 for s in report.steps if s.from_checkpoint) == 1
        assert [s.raw_arrival for s in report.steps] == \
               [s.raw_arrival for s in baseline.steps]


class TestServiceMode:
    def test_service_trajectory_matches_local(self, setup, library,
                                              kernel_table):
        from repro.service import SimulationService

        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=5,
                            settle_iterations=2, record_energy=False)
        local = make_runner(setup, library, kernel_table, config).run(pairs)
        with SimulationService() as service:
            report = make_runner(setup, library, kernel_table, config,
                                 service=service).run(pairs)
        assert report.service_metrics is not None
        assert [s.raw_arrival for s in report.steps] == \
               [s.raw_arrival for s in local.steps]
        assert report.final_voltage == local.final_voltage
        # The service path reports what the local one does, not just
        # its lane counts.
        run, local_run = report.run_report, local.run_report
        assert run.backend == local_run.backend != ""
        assert run.phase_seconds.keys() == local_run.phase_seconds.keys()
        assert run.phase_seconds
        executed = [(chunk.attempts[0], local_chunk.attempts[0])
                    for chunk, local_chunk, step, local_step in zip(
                        run.chunks, local_run.chunks, report.steps,
                        local.steps)
                    if step.gate_evaluations and local_step.gate_evaluations]
        assert executed
        for attempt, local_attempt in executed:
            assert attempt.waveform_capacity == local_attempt.waveform_capacity
            assert attempt.engine_retries == local_attempt.engine_retries

    @pytest.mark.parametrize("cache_entries", [1, 256])
    def test_service_steps_report_their_splices(self, setup, library,
                                                kernel_table, cache_entries):
        """Each step carries its job's lane counters: an executed step
        covers every lane by evaluation alone, a result-cache hit none.
        The service has no delta path, so no step splices — not even a
        revisit of a supply a one-entry result cache has forgotten."""
        from repro.service import ServiceConfig, SimulationService

        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=12,
                            settle_iterations=13)
        with SimulationService(
                ServiceConfig(cache_entries=cache_entries)) as service:
            runner = make_runner(setup, library, kernel_table, config,
                                 service=service,
                                 disturbances=revisiting_disturbances())
            report = runner.run(pairs)
        lanes = runner._compiled.num_gates * len(pairs)
        hits = report.service_metrics["cache"]["hits"]
        executed = [s for s in report.steps if s.gate_evaluations]
        assert len(executed) == len(report.steps) - hits
        assert all(step.lanes_spliced == 0 for step in report.steps)
        for step in executed:
            assert step.gate_evaluations == lanes
        assert report.delta_iterations == 0
        assert report.run_report.lanes_spliced == 0

    def test_cache_hit_reuses_the_measurement(self, setup, library,
                                              kernel_table, monkeypatch):
        """A result-cache hit is bit-identical to the first run at its
        supply, so the service-backed loop reuses that run's measurement:
        the trajectory equals a local one step for step, and arrivals
        are extracted once per cache miss."""
        from repro.avfs.loop import runner as runner_module
        from repro.service import SimulationService

        circuit, pairs, explorer, table = setup
        config = LoopConfig(period=loose_period(table), max_iterations=12,
                            settle_iterations=13)
        local = make_runner(setup, library, kernel_table, config,
                            disturbances=revisiting_disturbances()).run(pairs)
        calls = []
        extract = runner_module.latest_arrivals

        def spy(*args, **kwargs):
            calls.append(args)
            return extract(*args, **kwargs)

        monkeypatch.setattr(runner_module, "latest_arrivals", spy)
        with SimulationService() as service:
            report = make_runner(
                setup, library, kernel_table, config, service=service,
                disturbances=revisiting_disturbances()).run(pairs)

        def trajectory(loop_report):
            return [(step.raw_arrival, step.next_voltage,
                     step.energy_per_pattern, step.activity_per_pattern)
                    for step in loop_report.steps]

        assert trajectory(report) == trajectory(local)
        cache = report.service_metrics["cache"]
        assert cache["hits"] > 0
        assert len(calls) == cache["misses"]


class TestEngineSharing:
    def test_loop_and_explorer_share_pooled_engine(self, library,
                                                   kernel_table):
        clear_engine_pool()
        circuit = random_circuit("loop-pool", 8, 80, seed=4)
        rng = np.random.default_rng(8)
        pairs = [PatternPair.random(8, rng) for _ in range(4)]
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        table = explorer.voltage_frequency_table(pairs, VOLTAGES,
                                                 guardband=0.05)
        period = loose_period(table)
        runner = ClosedLoopRunner(
            circuit, library, kernel_table, AvfsController(table),
            LoopConfig(period=period, max_iterations=3, settle_iterations=2,
                       record_energy=False))
        assert runner.simulator is explorer.simulator
        report = runner.run(pairs)
        # The pooled-engine hit and warm level plans show up in the
        # report's cache accounting.
        assert report.run_report.plan_cache_hits > 0

    def test_pool_hit_does_not_recompile(self, library, kernel_table,
                                         monkeypatch):
        """Two runners on one circuit compile it once: the pool memoizes
        the compiled form per live (circuit, library) pair, so the
        second runner's pool hit costs a lookup, not a compile."""
        import repro.simulation.pool as pool

        clear_engine_pool()
        compiles = []
        compile_circuit = pool.compile_circuit
        monkeypatch.setattr(
            pool, "compile_circuit",
            lambda *args: compiles.append(1) or compile_circuit(*args))
        circuit = random_circuit("pool-memo", 8, 80, seed=5)
        table = DesignSpaceExplorer(
            circuit, library, kernel_table).voltage_frequency_table(
                [PatternPair.random(8, np.random.default_rng(3))], VOLTAGES,
                guardband=0.05)
        config = LoopConfig(period=loose_period(table), max_iterations=2,
                            record_energy=False)
        runners = [ClosedLoopRunner(circuit, library, kernel_table,
                                    AvfsController(table), config)
                   for _ in range(2)]
        assert len(compiles) == 1
        assert runners[0].simulator is runners[1].simulator
        stats = pool.engine_pool_stats()
        assert (stats["misses"], stats["hits"]) == (1, 2)
        # A grown netlist is a different circuit, not a stale hit.
        circuit.add_output(circuit.gates[0].output)
        pool.pooled_engine(circuit, library)
        assert len(compiles) == 2

    def test_explorer_second_sweep_hits_plan_cache(self, library,
                                                   kernel_table):
        clear_engine_pool()
        circuit = random_circuit("pool-sweep", 8, 80, seed=6)
        rng = np.random.default_rng(2)
        pairs = [PatternPair.random(8, rng) for _ in range(4)]
        DesignSpaceExplorer(circuit, library, kernel_table).sweep(
            pairs, VOLTAGES)
        explorer = DesignSpaceExplorer(circuit, library, kernel_table)
        explorer.sweep(pairs, VOLTAGES)
        assert explorer.last_report is not None
        assert explorer.last_report.plan_cache_hits > 0


class TestStateDependentVariation:
    def test_sigma_grows_below_reference(self):
        model = StateDependentVariation(sigma=0.05, voltage_sensitivity=2.0,
                                        v_ref=1.0)
        assert model.sigma_at(1.0) == pytest.approx(0.05)
        assert model.sigma_at(1.2) == pytest.approx(0.05)  # no shrink above
        assert model.sigma_at(0.6) == pytest.approx(0.05 * (1 + 2.0 * 0.4))

    def test_zero_sensitivity_matches_process_variation(self):
        state = StateDependentVariation(sigma=0.05, seed=7).bound(
            [0.7, 0.9, 1.1])
        plain = ProcessVariation(sigma=0.05, seed=7)
        slots = np.arange(3)
        assert np.array_equal(state.factors(12, slots),
                              plain.factors(12, slots))

    def test_lower_voltage_widens_factors(self):
        model = StateDependentVariation(sigma=0.05, seed=1,
                                        voltage_sensitivity=3.0, v_ref=1.0)
        high = model.bound([1.0]).factors(64, np.array([0]))
        low = model.bound([0.6]).factors(64, np.array([0]))
        # Same noise stream, rescaled spread — strictly wider at 0.6 V.
        assert np.std(np.log(low)) > np.std(np.log(high))

    def test_bound_respects_global_slots(self):
        model = StateDependentVariation(sigma=0.04, seed=2,
                                        voltage_sensitivity=1.0)
        bound = model.bound([0.6, 0.8], global_slots=np.array([5, 2]))
        assert bound.slot_voltages[5] == 0.6
        assert bound.slot_voltages[2] == 0.8
        direct = model.bound([0.6]).factors(8, np.array([0]))
        # Factors depend on the *global* slot, not the batch position.
        assert not np.array_equal(
            direct, bound.factors(8, np.array([5])))

    def test_validation(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            StateDependentVariation(sigma=0.05, voltage_sensitivity=-1.0)
        with pytest.raises(SimulationError):
            StateDependentVariation(sigma=0.05, v_ref=0.0)
