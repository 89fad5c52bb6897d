"""Fault-tolerant campaign runner for slot-plane sweeps.

Huge campaigns — thousands of stimuli × operating points, split into
chunks across worker processes — run for hours, and at that scale
partial failure is the norm: a worker segfaults or is OOM-killed, a
chunk overflows its waveform memory, the whole job is interrupted.
:class:`CampaignRunner` wraps the existing engines with the three
mechanisms that keep such a campaign alive:

1. **retry with backoff and degradation** — a failed chunk is retried
   with doubled waveform capacity and a halved memory budget (the
   engine itself recovers from overflow per *slot*, re-running only the
   slots that overflowed; this ladder takes over when it may not —
   ``grow_on_overflow=False`` — or gave up at ``MAX_CAPACITY``, and the
   ``WaveformOverflowError`` it records names the slots); a chunk
   that keeps killing workers falls back to in-process
   :class:`~repro.simulation.gpu.GpuWaveSim` execution and, as a last
   resort, to the event-driven reference engine.  Every attempt is
   recorded in the run report, so degraded chunks are visible, not
   silent.
2. **checkpoint/resume** — completed chunks are persisted to a campaign
   directory (:mod:`repro.runtime.checkpoint`); an interrupted sweep
   re-runs only the missing chunks, after the manifest fingerprint
   proves the directory belongs to the same campaign.
3. **preflight validation** (:mod:`repro.runtime.preflight`) — the
   campaign is checked for knowable failure modes before the first
   worker spawns.

Chunk results are bit-identical to an uninterrupted single-device run
regardless of which path produced them: capacity growth re-runs are
exact, the engines agree float-for-float, and Monte-Carlo die factors
follow *global* slot indices through every fallback.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import CampaignError, CheckpointError, ChunkExecutionError
from repro.faults.plan import WorkerDeathError
from repro.netlist.circuit import Circuit
from repro.runtime.checkpoint import CheckpointStore, campaign_fingerprint
from repro.runtime.preflight import validate_campaign
from repro.runtime.report import (
    ENGINE_EVENT_DRIVEN,
    ENGINE_IN_PROCESS,
    ENGINE_WORKER,
    AttemptReport,
    ChunkReport,
    RunReport,
)
from repro.simulation.backend import resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig, SimulationResult
from repro.simulation.compiled import CompiledCircuit, compile_circuit
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import (
    DEFAULT_MEMORY_BUDGET,
    MAX_CAPACITY,
    GpuWaveSim,
    _BatchStats,
)
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import WaveformPlane

__all__ = ["CampaignConfig", "CampaignRunner"]

#: Longest the runner waits for *any* in-flight chunk to finish.  Past
#: it the workers are declared stuck and killed, which fails their
#: chunks as a broken pool — the crash path the retry ladder absorbs.
WORKER_WAIT_SECONDS = 900.0


@dataclass(frozen=True)
class CampaignConfig:
    """Operational policy of a campaign run.

    None of these knobs affect the computed waveforms — they only decide
    how the slot plane is partitioned, parallelized and healed — so they
    are excluded from the checkpoint fingerprint and may differ between
    the original run and a resume.

    Attributes
    ----------
    chunk_slots:
        Slots per chunk (the checkpointing and retry granularity).
    num_workers:
        Worker-process count; ``None`` uses the CPU count, ``0`` runs
        every chunk in-process (no pool).
    max_worker_attempts:
        Worker-process attempts per chunk before degrading in-process.
    backoff_seconds / backoff_factor:
        Delay before retry ``k`` is ``backoff_seconds * backoff_factor**k``.
    degrade_in_process / degrade_event_driven:
        Enable the two fallback engines of the degradation ladder.
    preflight:
        Run :func:`~repro.runtime.preflight.validate_campaign` first.
    worker_fault:
        Test-only fault-injection hook, called as ``hook(chunk_index,
        attempt)`` inside the worker before simulating; it may raise or
        kill the process to exercise the recovery paths.  Must be
        picklable.
    """

    chunk_slots: int = 64
    num_workers: Optional[int] = None
    max_worker_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    degrade_in_process: bool = True
    degrade_event_driven: bool = True
    preflight: bool = True
    worker_fault: Optional[Callable[[int, int], None]] = None

    def __post_init__(self) -> None:
        if self.chunk_slots < 1:
            raise CampaignError("chunk_slots must be positive")
        if self.num_workers is not None and self.num_workers < 0:
            raise CampaignError("num_workers must be >= 0")
        if self.max_worker_attempts < 0:
            raise CampaignError("max_worker_attempts must be >= 0")
        if self.backoff_seconds < 0 or self.backoff_factor < 1:
            raise CampaignError("invalid backoff policy")


def _campaign_chunk(
    compiled: CompiledCircuit,
    config: SimulationConfig,
    memory_budget: int,
    kernel_table: Optional[DelayKernelTable],
    pairs: Sequence[PatternPair],
    pattern_indices: np.ndarray,
    voltages: np.ndarray,
    variation,
    global_slots: np.ndarray,
    fault: Optional[Callable[[int, int], None]],
    chunk_index: int,
    attempt: int,
):
    """Worker entry point: one chunk through the public engine API."""
    if fault is not None:
        fault(chunk_index, attempt)
    engine = GpuWaveSim(compiled.circuit, compiled.library, config=config,
                        compiled=compiled, memory_budget=memory_budget)
    plan = SlotPlan(pattern_indices=pattern_indices, voltages=voltages)
    try:
        result = engine.run(pairs, plan=plan, kernel_table=kernel_table,
                            variation=variation, global_slots=global_slots)
    except WorkerDeathError:
        # Injected worker death (``die`` fault kind): make it real.  The
        # hard exit surfaces to the parent as a broken process pool —
        # exactly the failure the campaign retry ladder already absorbs.
        os._exit(1)
    return result.plane, engine.last_stats


class CampaignRunner:
    """Checkpointing, self-healing executor for slot-plane sweeps.

    Same result contract as :meth:`GpuWaveSim.run`; additionally the
    returned :class:`SimulationResult` carries a
    :class:`~repro.runtime.report.RunReport` in ``result.report``.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        config: Optional[SimulationConfig] = None,
        campaign: Optional[CampaignConfig] = None,
        compiled: Optional[CompiledCircuit] = None,
        memory_budget: int = DEFAULT_MEMORY_BUDGET,
    ) -> None:
        self.config = config or SimulationConfig()
        self.campaign = campaign or CampaignConfig()
        self.compiled = compiled or compile_circuit(circuit, library)
        self.memory_budget = memory_budget

    # -- public API -----------------------------------------------------------

    def run(
        self,
        pairs: Sequence[PatternPair],
        plan: Optional[SlotPlan] = None,
        voltage: float = 0.8,
        kernel_table: Optional[DelayKernelTable] = None,
        variation=None,
        checkpoint_dir: Optional[str] = None,
    ) -> SimulationResult:
        """Run (or resume) a campaign over the slot plane.

        With ``checkpoint_dir`` the run is durable: completed chunks are
        persisted there and a re-invocation with the same inputs resumes
        by executing only the missing chunks.  A directory written by a
        *different* campaign (mismatching manifest fingerprint) raises
        :class:`~repro.errors.CheckpointError` instead of silently
        mixing results.
        """
        if not pairs:
            raise CampaignError("need at least one pattern pair")
        pairs = list(pairs)
        plan = plan or SlotPlan.uniform(len(pairs), voltage)
        if self.campaign.preflight:
            validate_campaign(self.compiled, pairs, plan, config=self.config,
                              kernel_table=kernel_table,
                              memory_budget=self.memory_budget)
        start = _time.perf_counter()

        chunk_slots = self.campaign.chunk_slots
        store: Optional[CheckpointStore] = None
        resumed = False
        if checkpoint_dir is not None:
            store = CheckpointStore(checkpoint_dir)
            fingerprint = campaign_fingerprint(
                self.compiled, pairs, plan, self.config, kernel_table,
                variation)
            manifest = store.load_manifest()
            if manifest is not None:
                if manifest.get("fingerprint") != fingerprint:
                    raise CheckpointError(
                        f"checkpoint directory {checkpoint_dir} belongs to a "
                        "different campaign (manifest fingerprint mismatch)"
                    )
                chunk_slots = int(manifest["chunk_slots"])
                resumed = True
            else:
                store.write_manifest({
                    "fingerprint": fingerprint,
                    "circuit": self.compiled.circuit.name,
                    "num_slots": plan.num_slots,
                    "chunk_slots": chunk_slots,
                    "num_chunks": -(-plan.num_slots // chunk_slots),
                    "pulse_filtering": self.config.pulse_filtering,
                    "record_all_nets": self.config.record_all_nets,
                    "delay_mode": ("static" if kernel_table is None
                                   else "parametric"),
                    "variation": variation is not None,
                })

        chunks = list(plan.batches(chunk_slots))
        report = RunReport(
            circuit_name=self.compiled.circuit.name,
            num_slots=plan.num_slots,
            chunk_slots=chunk_slots,
            chunks=[ChunkReport(index=i, num_slots=indices.size)
                    for i, (indices, _sub) in enumerate(chunks)],
            resumed=resumed,
            backend=resolve_backend(self.config.backend).name,
        )

        totals = _BatchStats()
        execution = _Execution(self, pairs, kernel_table, variation, chunks,
                               report, totals, store)
        pending = deque()
        for index, (indices, _sub) in enumerate(chunks):
            loaded = (store.try_load_chunk(index, indices.size)
                      if store is not None else None)
            if loaded is not None:
                report.chunks[index].from_checkpoint = True
                execution.stitch(index, loaded)
            else:
                pending.append((index, 0))
        execution.execute(pending)

        report.wall_seconds = _time.perf_counter() - start
        report.gate_evaluations = totals.gate_evaluations
        report.lanes_skipped = totals.lanes_skipped
        report.phase_seconds = totals.phase_seconds()
        report.backend_demotions = list(totals.demotions)
        return SimulationResult(
            circuit_name=self.compiled.circuit.name,
            slot_labels=plan.labels(),
            waveforms=WaveformPlane.concat(execution.planes),
            runtime_seconds=report.wall_seconds,
            gate_evaluations=totals.gate_evaluations,
            engine=f"campaign[{execution.workers}]",
            report=report,
        )


class _Execution:
    """Mutable state of one campaign run (chunk queue, pool, results)."""

    def __init__(self, runner: CampaignRunner, pairs, kernel_table, variation,
                 chunks, report: RunReport, totals: _BatchStats,
                 store: Optional[CheckpointStore]) -> None:
        self.runner = runner
        self.campaign = runner.campaign
        self.pairs = pairs
        self.kernel_table = kernel_table
        self.variation = variation
        self.chunks = chunks
        self.report = report
        #: One result plane per chunk, in slot order (chunks are
        #: contiguous slot ranges), all over the same net rows.
        self.planes: List[Optional[WaveformPlane]] = [None] * len(chunks)
        self.nets = runner.compiled.result_nets(
            runner.config.record_all_nets)
        self.totals = totals
        self.store = store
        workers = self.campaign.num_workers
        if workers is None:
            workers = max(1, os.cpu_count() or 1)
        self.workers = min(workers, len(chunks))
        self.pool: Optional[ProcessPoolExecutor] = None

    # -- bookkeeping ----------------------------------------------------------

    def stitch(self, index: int, chunk_waveforms) -> None:
        """Record one finished chunk — a worker's / checkpoint's plane,
        or the event-driven fallback's per-slot dicts."""
        self.planes[index] = WaveformPlane.from_waveforms(chunk_waveforms,
                                                          self.nets)

    def checkpoint(self, index: int, chunk_waveforms) -> None:
        if self.store is None:
            return
        try:
            self.store.save_chunk(index, chunk_waveforms)
        except OSError as error:
            # Degrade gracefully: the campaign finishes in memory, it is
            # just no longer resumable.
            self.report.warnings.append(
                f"checkpointing disabled after chunk {index}: {error}")
            self.store = None

    def attempt_params(self, attempt: int):
        """Per-attempt engine settings: capacity doubles (recovery
        from an overflow the engine's own per-slot recovery did not
        absorb), memory budget halves (OOM recovery)."""
        base = self.runner.config
        capacity = min(base.waveform_capacity << attempt, MAX_CAPACITY)
        config = (base if capacity == base.waveform_capacity
                  else replace(base, waveform_capacity=capacity))
        floor = (self.runner.compiled.num_nets + 1) * capacity * 8
        budget = max(self.runner.memory_budget >> attempt, floor)
        return config, budget

    def backoff(self, attempt: int) -> None:
        seconds = (self.campaign.backoff_seconds
                   * self.campaign.backoff_factor ** attempt)
        if seconds > 0:
            _time.sleep(seconds)

    # -- main loop ------------------------------------------------------------

    def execute(self, pending: deque) -> None:
        in_flight: Dict = {}
        try:
            while pending or in_flight:
                while pending and len(in_flight) < max(self.workers, 1):
                    index, attempt = pending.popleft()
                    if (self.workers < 1
                            or attempt >= self.campaign.max_worker_attempts):
                        self.run_degraded(index, attempt)
                        continue
                    self.submit(index, attempt, in_flight)
                if not in_flight:
                    continue
                done, _ = wait(list(in_flight), timeout=WORKER_WAIT_SECONDS,
                               return_when=FIRST_COMPLETED)
                if not done:
                    # Stuck workers: kill them.  Every in-flight future
                    # then fails as a broken pool and its chunk re-enters
                    # the retry ladder like after any worker crash.
                    self.kill_workers()
                    continue
                pool_broken = False
                for future in done:
                    pool_broken |= self.collect(future, in_flight.pop(future),
                                                pending)
                if pool_broken:
                    # The pool is dead; every remaining future fails fast.
                    remaining, _ = wait(list(in_flight),
                                        timeout=WORKER_WAIT_SECONDS)
                    for future in remaining:
                        self.collect(future, in_flight.pop(future), pending)
                    # wait=True: every future is already collected, and an
                    # async teardown races the interpreter-exit hook on the
                    # pool's wakeup pipe (spurious EBADF traceback).
                    self.pool.shutdown(wait=True)
                    self.pool = None
        finally:
            if self.pool is not None:
                if in_flight:
                    self.kill_workers()
                self.pool.shutdown(wait=True, cancel_futures=True)
                self.pool = None

    def kill_workers(self) -> None:
        # ProcessPoolExecutor has no public kill before Python 3.14.
        for process in list(getattr(self.pool, "_processes", {}).values()):
            process.kill()

    def submit(self, index: int, attempt: int, in_flight: Dict) -> None:
        if self.pool is None:
            # Spawned, never forked: the parent has usually run an
            # OpenMP kernel already, and a forked child deadlocks in
            # libgomp on its first parallel region.
            self.pool = ProcessPoolExecutor(
                max_workers=max(self.workers, 1),
                mp_context=multiprocessing.get_context("spawn"))
        config, budget = self.attempt_params(attempt)
        indices, sub = self.chunks[index]
        future = self.pool.submit(
            _campaign_chunk, self.runner.compiled, config, budget,
            self.kernel_table, self.pairs, sub.pattern_indices, sub.voltages,
            self.variation, indices, self.campaign.worker_fault, index,
            attempt,
        )
        in_flight[future] = (index, attempt, _time.perf_counter(), config,
                             budget)

    def collect(self, future, meta, pending: deque) -> bool:
        """Fold one finished future into the run; True if the pool broke."""
        index, attempt, started, config, budget = meta
        elapsed = _time.perf_counter() - started
        attempts = self.report.chunks[index].attempts
        try:
            chunk_waveforms, stats = future.result()
        except BrokenProcessPool as error:
            attempts.append(AttemptReport(
                ENGINE_WORKER, config.waveform_capacity, budget, elapsed,
                f"worker crashed: {error or type(error).__name__}"))
            pending.append((index, attempt + 1))
            self.backoff(attempt)
            return True
        except Exception as error:  # noqa: BLE001 - any failure retries
            attempts.append(AttemptReport(
                ENGINE_WORKER, config.waveform_capacity, budget, elapsed,
                f"{type(error).__name__}: {error}"))
            pending.append((index, attempt + 1))
            self.backoff(attempt)
            return False
        attempts.append(AttemptReport(
            ENGINE_WORKER, config.waveform_capacity, budget, elapsed))
        self.totals.merge(stats)
        self.stitch(index, chunk_waveforms)
        self.checkpoint(index, chunk_waveforms)
        return False

    # -- degradation ladder ---------------------------------------------------

    def run_degraded(self, index: int, attempt: int) -> None:
        """In-process fallback, then the event-driven last resort."""
        indices, sub = self.chunks[index]
        attempts = self.report.chunks[index].attempts
        runner = self.runner

        if self.campaign.degrade_in_process:
            config, budget = self.attempt_params(attempt)
            started = _time.perf_counter()
            try:
                engine = GpuWaveSim(
                    runner.compiled.circuit, runner.compiled.library,
                    config=config, compiled=runner.compiled,
                    memory_budget=budget)
                result = engine.run(self.pairs, plan=sub,
                                    kernel_table=self.kernel_table,
                                    variation=self.variation,
                                    global_slots=indices)
            except Exception as error:  # noqa: BLE001 - fall through
                attempts.append(AttemptReport(
                    ENGINE_IN_PROCESS, config.waveform_capacity, budget,
                    _time.perf_counter() - started,
                    f"{type(error).__name__}: {error}"))
            else:
                attempts.append(AttemptReport(
                    ENGINE_IN_PROCESS, config.waveform_capacity, budget,
                    _time.perf_counter() - started))
                self.totals.merge(engine.last_stats)
                self.stitch(index, result.plane)
                self.checkpoint(index, result.plane)
                return

        if self.campaign.degrade_event_driven:
            started = _time.perf_counter()
            try:
                chunk_waveforms, evaluations = self.run_event_driven(
                    sub, indices)
            except Exception as error:  # noqa: BLE001 - reported below
                attempts.append(AttemptReport(
                    ENGINE_EVENT_DRIVEN, 0, 0,
                    _time.perf_counter() - started,
                    f"{type(error).__name__}: {error}"))
            else:
                attempts.append(AttemptReport(
                    ENGINE_EVENT_DRIVEN, 0, 0,
                    _time.perf_counter() - started))
                self.totals.gate_evaluations += evaluations
                self.stitch(index, chunk_waveforms)
                self.checkpoint(index, chunk_waveforms)
                return

        raise ChunkExecutionError(
            index, "failed on every engine of the degradation ladder",
            attempts)

    def run_event_driven(self, sub: SlotPlan, indices: np.ndarray):
        """Last resort: the serial reference engine, one voltage at a
        time, with die factors still following global slot indices."""
        runner = self.runner
        engine = EventDrivenSimulator(
            runner.compiled.circuit, runner.compiled.library,
            config=runner.config, compiled=runner.compiled)
        chunk: List[Optional[Dict]] = [None] * sub.num_slots
        evaluations = 0
        for voltage in sub.distinct_voltages():
            slots = np.where(sub.voltages == voltage)[0]
            sub_pairs = [self.pairs[int(sub.pattern_indices[s])]
                         for s in slots]
            result = engine.run(sub_pairs, voltage=float(voltage),
                                kernel_table=self.kernel_table,
                                variation=self.variation,
                                slot_indices=indices[slots])
            evaluations += result.gate_evaluations
            for local, slot in enumerate(slots):
                chunk[int(slot)] = result.waveforms[local]
        return chunk, evaluations
