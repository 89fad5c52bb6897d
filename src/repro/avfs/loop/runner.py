"""Closed-loop AVFS scenario engine: simulate → measure → decide → repeat.

The runner closes the loop the paper's design-space exploration only
opens: instead of sweeping a static grid, it *plays* an AVFS system —
each iteration simulates the full pattern set at the currently commanded
(and disturbance-perturbed) supply, measures the latest transition
arrival and switching energy, and hands the measurement to the
:class:`~repro.avfs.controller.AvfsController`, whose
:meth:`~repro.avfs.controller.AvfsController.decide` policy walks the
regulator one characterized grid level up or down.  The trajectory of
``(voltage, frequency, slack, energy, violations)`` is the result.

Performance leans on the PR 5–8 stack end to end:

* the engine comes from the process-wide pool
  (:func:`~repro.simulation.pool.pooled_engine`), so level plans and
  waveform arenas stay warm across iterations and across an explorer
  characterization of the same circuit;
* every simulated operating point is captured as a
  :class:`~repro.simulation.delta.BaseArena`, one per quantized supply;
  when the trajectory revisits a supply — every iteration once the loop
  settles — the engine splices that base slot for slot instead of
  simulating, bit-identical by construction (a new supply runs in full);
* disturbances are applied so the splice stays legal: droop perturbs the
  *commanded* voltage (quantized to the regulator step, so disturbed
  supplies repeat exactly), drift scales the *measurement* (see
  :mod:`repro.avfs.loop.disturbance`).

Fault tolerance mirrors the campaign runner: each iteration crosses the
``loop.step`` fault seam and is checkpointed as one JSON step file under
a fingerprint-pinned manifest, so a crashed (or fault-injected) loop
resumes mid-trajectory.  Cached base arenas are deliberately *not*
persisted — a resumed loop re-warms its delta ring, trading a few full
iterations for a checkpoint format that stays small and
corruption-tolerant.
"""

from __future__ import annotations

import json
import math
import os
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro import faults
from repro.analysis.activity import switching_activity
from repro.analysis.arrival import latest_arrivals
from repro.analysis.power import dynamic_power, load_vector
from repro.avfs.controller import AvfsController
from repro.avfs.loop.disturbance import DisturbanceModel
from repro.avfs.loop.report import LoopReport, LoopStep
from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import CheckpointError, ParameterError
from repro.netlist.circuit import Circuit
from repro.runtime.fingerprint import (Fingerprinter, feed_compiled,
                                       feed_config, feed_kernel_table,
                                       feed_stimuli, feed_variation)
from repro.runtime.report import AttemptReport, ChunkReport, RunReport
from repro.simulation.base import (PatternPair, SimulationConfig,
                                   SimulationResult)
from repro.simulation.delta import DeltaPlan
# Importable here because the ledger's ``avfs_loop`` workload wraps
# ``repro.avfs.loop.runner.select_delta`` by name under ``--trace``.
from repro.simulation.delta import select_delta  # noqa: F401
from repro.simulation.gpu import EngineStats, GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.pool import PlanCacheMeter, pooled_engine
from repro.store import LruCache, atomic_write, read_manifest, write_manifest

__all__ = ["LoopConfig", "ClosedLoopRunner", "LOOP_MANIFEST_NAME"]

LOOP_MANIFEST_NAME = "loop_manifest.json"

#: Bumped whenever the step or manifest layout changes incompatibly.
LOOP_FORMAT_VERSION = 1

#: Base arenas the delta ring keeps, one per visited supply (LRU).
MAX_BASES = 4

#: Supply quantization (volts): disturbed voltages snap to this grid,
#: like a real regulator's discrete levels — and exactly repeating
#: levels are what makes delta reuse possible.
REGULATOR_STEP = 0.005


@dataclass(frozen=True)
class LoopConfig:
    """Policy knobs of one closed-loop run.

    Attributes
    ----------
    period:
        Clock period the system must meet (seconds).
    max_iterations:
        Iteration budget; the loop stops here even without convergence.
    settle_iterations:
        Consecutive stable, violation-free iterations (controller
        commands the same supply it measured at) that count as
        convergence.  Set it above ``max_iterations`` to force a
        full-length trajectory (benchmarks do).
    use_delta:
        Splice cached base arenas when the trajectory revisits an
        operating point (bit-identical; off = always simulate fully).
    record_energy:
        Record all nets and account per-iteration switching energy
        (needed by activity-coupled droop models).
    """

    period: float
    max_iterations: int = 20
    settle_iterations: int = 3
    use_delta: bool = True
    record_energy: bool = True

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ParameterError("clock period must be positive")
        if self.max_iterations < 1:
            raise ParameterError("need at least one iteration")
        if self.settle_iterations < 1:
            raise ParameterError("settle_iterations must be >= 1")


class ClosedLoopRunner:
    """Drive an :class:`AvfsController` against the simulator in a loop.

    Parameters
    ----------
    controller:
        The decision policy; its table also supplies the vth-floor /
        boost-cap clamps every disturbed operating point passes through.
    disturbances:
        :class:`~repro.avfs.loop.disturbance.DisturbanceModel` instances
        applied every iteration.
    variation:
        Optional Monte-Carlo model.  A
        :class:`~repro.simulation.variation.StateDependentVariation` is
        bound to each iteration's slot plane automatically (per-pattern
        sigma scales with the iteration's supply); the per-die noise
        stays keyed on the fixed global slot index, so delta splicing
        stays bit-identical.
    simulator:
        Explicit engine; default is the shared pooled engine for
        (circuit, config) — the same instance a
        :class:`~repro.avfs.explorer.DesignSpaceExplorer` of this
        circuit uses.
    service:
        A running :class:`~repro.service.SimulationService`; iterations
        are then submitted as service jobs (the service's result cache
        answers exact revisits; it has no delta path, so every other
        iteration runs in full) and the loop report carries a
        service-metrics snapshot.
    checkpoint_dir:
        Trajectory checkpoint directory (resumable); ``None`` disables
        checkpointing.
    backend:
        Compute-backend override for the loop's engine (``None`` defers
        to ``REPRO_BACKEND`` / auto-detection); ignored when an explicit
        ``simulator`` or ``service`` is supplied.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        kernel_table: DelayKernelTable,
        controller: AvfsController,
        config: LoopConfig,
        disturbances: Sequence[DisturbanceModel] = (),
        variation=None,
        simulator: Optional[GpuWaveSim] = None,
        service=None,
        checkpoint_dir=None,
        backend: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.kernel_table = kernel_table
        self.controller = controller
        self.config = config
        self.disturbances = list(disturbances)
        self.variation = variation
        self.service = service
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)

        self.sim_config = SimulationConfig(
            record_all_nets=config.record_energy, backend=backend)
        self._plan_cache = PlanCacheMeter()
        if service is not None:
            self.simulator = None
            self._circuit_key = service.register_circuit(circuit, library)
            self._compiled = service.circuit(self._circuit_key)
        else:
            if simulator is None:
                with self._plan_cache:
                    simulator = pooled_engine(circuit, library,
                                              config=self.sim_config)
            self.simulator = simulator
            self._compiled = simulator.compiled
        # Energy is accounted over every recorded net, every iteration:
        # the loads are resolved once, aligned with the result planes.
        self._loads = (load_vector(circuit.net_loads(library),
                                   self._compiled.result_nets(True))
                       if config.record_energy else None)
        # Base-arena ring keyed by quantized supply — stimuli never
        # change across iterations, so one base per voltage is complete.
        self._bases: "LruCache[float, object]" = LruCache(MAX_BASES)
        # Measurement memo keyed the same way: a fully spliced iteration
        # (or a service result-cache hit) is bit-identical to the first
        # run at its supply, so its arrival / activity extraction
        # (python-side, all nets) is too — reuse it.
        self._measurements: dict = {}

    # -- voltage helpers ------------------------------------------------------

    def _quantize(self, voltage: float) -> float:
        return round(round(voltage / REGULATOR_STEP) * REGULATOR_STEP, 9)

    def _effective_voltage(self, commanded: float, iteration: int,
                           activity: Optional[float]) -> float:
        offset = sum(d.voltage_offset(iteration, activity)
                     for d in self.disturbances)
        table = self.controller.table
        return self._quantize(table.clamp_voltage(commanded + offset))

    def _drift_scale(self, iteration: int) -> float:
        scale = 1.0
        for model in self.disturbances:
            scale *= model.delay_scale(iteration)
        return scale

    # -- simulation -----------------------------------------------------------

    def _bound_variation(self, plan: SlotPlan, global_slots: np.ndarray):
        variation = self.variation
        if variation is None:
            return None
        bound = getattr(variation, "bound", None)
        if bound is None:
            return variation
        return bound(plan.voltages, global_slots)

    def _simulate(self, pairs: Sequence[PatternPair], plan: SlotPlan,
                  voltage: float, global_slots: np.ndarray):
        """One iteration's engine (or service) run.

        Returns ``(result, stats, delta_used, replayed)``; ``stats`` is
        an :class:`~repro.simulation.gpu.EngineStats` either way — a
        service job's is its share of its batch's, all zeros on a
        result-cache hit (neither simulated nor spliced).  ``replayed``:
        a full splice or a cache hit, the first run at this supply.
        """
        variation = self._bound_variation(plan, global_slots)
        if self.service is not None:
            result = self.service.submit(
                self._circuit_key, pairs, plan=plan, config=self.sim_config,
                kernel_table=self.kernel_table, variation=variation).result()
            return (result, result.stats, result.stats.lanes_spliced > 0,
                    result.cache_hit)

        delta = None
        base = self._bases.get(voltage) if self.config.use_delta else None
        if base is not None:
            # Exact revisit: stimuli and slot order never change within
            # a run, so the base captured at this supply matches
            # slot-for-slot — build the full-splice plan directly.  A
            # miss has nothing to splice: the plan is uniform at this
            # supply and every other base holds another one, so no base
            # slot is eligible.
            delta = DeltaPlan(base, np.arange(plan.num_slots,
                                              dtype=np.int64))
        capture = self.config.use_delta and base is None
        result = self.simulator.run(
            pairs, plan=plan, kernel_table=self.kernel_table,
            variation=variation, global_slots=global_slots,
            delta=delta, capture_base=capture)
        if capture and result.base_arena is not None:
            self._bases.put(voltage, result.base_arena)
        stats = self.simulator.last_stats
        return (result, stats, delta is not None,
                delta is not None and stats.gate_evaluations == 0)

    # -- checkpointing --------------------------------------------------------

    def _fingerprint(self, pairs: Sequence[PatternPair]) -> str:
        fp = Fingerprinter()
        feed_compiled(fp, self._compiled)
        feed_stimuli(fp, pairs)
        feed_config(fp, self.sim_config)
        feed_kernel_table(fp, self.kernel_table)
        feed_variation(fp, self.variation)
        table = self.controller.table
        fp.feed_json("loop", {
            "period": self.config.period,
            "max_iterations": self.config.max_iterations,
            "settle_iterations": self.config.settle_iterations,
            # Retired settings, kept at their one value so checkpoints
            # written while they were fields still resume.
            "initial_voltage": None,
            "regulator_step": REGULATOR_STEP,
            "record_energy": self.config.record_energy,
            "aging_derate": self.controller.aging_derate,
            "table": [[p.voltage, p.critical_delay, p.guardband]
                      for p in table],
            "vth_floor": table.vth_floor,
            "boost_cap": table.boost_cap,
            "nominal_voltage": table.nominal_voltage,
            "disturbances": [d.describe() for d in self.disturbances],
        })
        return fp.hexdigest()

    def _step_path(self, iteration: int) -> Path:
        return self.checkpoint_dir / f"step_{iteration:05d}.json"

    def _load_checkpoint(self, fingerprint: str) -> List[LoopStep]:
        """Restore the completed trajectory prefix (may be empty)."""
        store = self.checkpoint_dir
        manifest_path = store / LOOP_MANIFEST_NAME
        manifest = read_manifest(manifest_path, LOOP_FORMAT_VERSION, "loop")
        if manifest is None:
            store.mkdir(parents=True, exist_ok=True)
            write_manifest(manifest_path, LOOP_FORMAT_VERSION, {
                "fingerprint": fingerprint,
                "circuit": self.circuit.name,
            })
            return []
        if manifest.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint directory {store} belongs to a different "
                "closed-loop campaign (fingerprint mismatch) — refusing "
                "to resume")
        steps: List[LoopStep] = []
        # A contiguous prefix only: a gap means a later step file was
        # lost, and the loop state past the gap cannot be trusted.
        for iteration in range(self.config.max_iterations):
            path = self._step_path(iteration)
            if not path.exists():
                break
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    payload = json.load(stream)
                steps.append(LoopStep.from_dict(payload,
                                                from_checkpoint=True))
            except (OSError, ValueError, KeyError):
                # Corrupt step: drop it and everything after — those
                # iterations re-execute (degrade to recomputation, never
                # to a wrong trajectory).
                try:
                    os.unlink(path)
                except OSError:
                    pass
                break
        return steps

    def _save_step(self, step: LoopStep) -> None:
        if self.checkpoint_dir is None:
            return
        atomic_write(self._step_path(step.iteration),
                     json.dumps(step.to_dict(), indent=2).encode("utf-8"))

    # -- the loop -------------------------------------------------------------

    def run(self, pairs: Sequence[PatternPair]) -> LoopReport:
        """Play the closed loop over ``pairs``; returns the trajectory."""
        pairs = list(pairs)
        if not pairs:
            raise ParameterError("need at least one pattern pair")
        table = self.controller.table
        self.kernel_table.space.require([point.voltage for point in table])

        started = _time.perf_counter()
        # One die trajectory stepping through time: the global slot of a
        # pattern is fixed across iterations, so Monte-Carlo factors —
        # and with them delta eligibility — repeat whenever a supply
        # level repeats.
        global_slots = np.arange(len(pairs), dtype=np.int64)

        # The loop starts at the table's top point.
        voltage = self._quantize(table.clamp_voltage(
            table.points[-1].voltage))

        steps: List[LoopStep] = []
        resumed = False
        if self.checkpoint_dir is not None:
            steps = self._load_checkpoint(self._fingerprint(pairs))
            resumed = bool(steps)
            if steps:
                voltage = self._quantize(
                    table.clamp_voltage(steps[-1].next_voltage))

        activity_per_pattern = (steps[-1].activity_per_pattern
                                if steps else None)
        settled, converged_at = self._replay_convergence(steps)

        chunks: List[ChunkReport] = [
            ChunkReport(index=s.iteration, num_slots=len(pairs),
                        from_checkpoint=True) for s in steps]
        engine = EngineStats()

        for iteration in range(len(steps), self.config.max_iterations):
            if converged_at is not None:
                break
            faults.trip("loop.step")
            step_start = _time.perf_counter()
            v_eff = self._effective_voltage(voltage, iteration,
                                            activity_per_pattern)
            drift = self._drift_scale(iteration)
            plan = SlotPlan.uniform(len(pairs), v_eff)
            with self._plan_cache:
                result, stats, delta_used, replayed = self._simulate(
                    pairs, plan, v_eff, global_slots)
            engine += stats

            # A replayed iteration reproduced the first run at its supply
            # bit-for-bit (same stimuli, supply and Monte-Carlo slots),
            # so the arrival / activity extraction — a python walk over
            # every recorded waveform — is reproduced too: reuse it.
            memo = self._measurements.get(v_eff) if replayed else None
            if memo is None:
                arrivals = latest_arrivals(result, self.circuit, plan=plan)
                raw_arrival = arrivals.at(v_eff)
                if not math.isfinite(raw_arrival):
                    raw_arrival = 0.0
                energy = None
                if self.config.record_energy:
                    activity = switching_activity(result)
                    power = dynamic_power(activity, self._loads, v_eff,
                                          frequency=1.0 / self.config.period)
                    energy = power.energy_per_pattern
                    activity_per_pattern = (activity.total_toggles
                                            / activity.num_slots)
                self._measurements[v_eff] = (raw_arrival, energy,
                                             activity_per_pattern)
            else:
                raw_arrival, energy, activity_per_pattern = memo
            measured = raw_arrival * drift

            guardband = table.points[0].guardband
            slack = self.config.period - measured * (1.0 + guardband)
            violation = slack < 0
            # Decide from the *commanded* set-point: the measurement
            # already carries the disturbance, and stepping relative to
            # the drooped supply would re-command the level the droop
            # just invalidated (a persistent-violation livelock).
            next_voltage = self._quantize(self.controller.decide(
                voltage, measured, self.config.period))
            seconds = _time.perf_counter() - step_start

            step = LoopStep(
                iteration=iteration,
                commanded_voltage=voltage,
                effective_voltage=v_eff,
                frequency=table.clamp_frequency(1.0 / self.config.period),
                measured_arrival=measured,
                raw_arrival=raw_arrival,
                slack=slack,
                violation=violation,
                next_voltage=next_voltage,
                energy_per_pattern=energy,
                activity_per_pattern=activity_per_pattern,
                delta_used=delta_used,
                lanes_spliced=stats.lanes_spliced,
                gate_evaluations=stats.gate_evaluations,
                seconds=seconds,
            )
            self._save_step(step)
            steps.append(step)

            chunks.append(ChunkReport(
                index=iteration, num_slots=plan.num_slots,
                attempts=[AttemptReport.ran(result.engine, seconds, stats)]))

            settled, converged_at = self._advance_convergence(
                settled, converged_at, step)
            voltage = next_voltage

        wall = _time.perf_counter() - started
        hits, misses = self._plan_cache.take()
        run_report = RunReport(
            circuit_name=self.circuit.name,
            num_slots=len(pairs) * len(steps),
            chunk_slots=len(pairs),
            chunks=chunks,
            wall_seconds=wall,
            resumed=resumed,
            plan_cache_hits=hits,
            plan_cache_misses=misses,
        )
        run_report.fold(engine)
        return LoopReport(
            circuit_name=self.circuit.name,
            period=self.config.period,
            steps=steps,
            converged_at=converged_at,
            resumed=resumed,
            wall_seconds=wall,
            backend=run_report.backend,
            run_report=run_report,
            service_metrics=(self.service.metrics().to_dict()
                             if self.service is not None else None),
        )

    # -- convergence ----------------------------------------------------------

    def _advance_convergence(self, settled: int, converged_at: Optional[int],
                             step: LoopStep):
        """Fold one step into the (settled counter, converged-at) state."""
        if converged_at is not None:
            return settled, converged_at
        stable = (not step.violation
                  and abs(step.next_voltage - step.commanded_voltage) < 1e-9)
        settled = settled + 1 if stable else 0
        if settled >= self.config.settle_iterations:
            converged_at = step.iteration
        return settled, converged_at

    def _replay_convergence(self, steps: Sequence[LoopStep]):
        """Recompute convergence state from a restored prefix."""
        settled, converged_at = 0, None
        for step in steps:
            settled, converged_at = self._advance_convergence(
                settled, converged_at, step)
        return settled, converged_at
