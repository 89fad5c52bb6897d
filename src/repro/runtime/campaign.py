"""Checkpointed campaign runner for slot-plane sweeps.

Huge campaigns — thousands of stimuli × operating points — run for
hours, and at that scale an interruption is the norm.  The slot plane
is a set of independent (stimulus, operating point) problems (paper
Sec. IV-B), so :class:`CampaignRunner` cuts it into contiguous chunks
and keeps only what a campaign needs on top of the engines:

1. **preflight validation** (:mod:`repro.runtime.preflight`) — the
   campaign is checked for knowable failure modes before any chunk
   runs;
2. **checkpoint/resume** — completed chunks are persisted to a campaign
   directory (:mod:`repro.runtime.checkpoint`); an interrupted sweep
   re-runs only the missing chunks, after the manifest fingerprint
   proves the directory belongs to the same campaign;
3. **a run report** — every chunk's outcome, engine counters and
   failure, on ``result.report``.

Execution is a job list on a :class:`~repro.service.core.SimulationService`
the runner owns for the run: each missing chunk is one job, and one
batch of its own (``max_batch_slots`` is the chunk size).  Everything
between submit and result — in-process or sharded execution, the
engine's per-slot overflow recovery and backend demotion, shard death
and hang recovery, requeue-once — is the service's.  A chunk whose job
fails anyway is recorded on its :class:`~repro.runtime.report.ChunkReport`;
the other chunks still run and checkpoint, then the run raises
:class:`~repro.errors.ChunkExecutionError` and a re-run resumes only the
failed chunks.

Each job carries its chunk's first slot (``submit(first_slot=...)``), so
Monte-Carlo die factors follow *global* slot indices and a campaign is
bit-identical to a whole-plane :meth:`GpuWaveSim.run` on either
transport, fresh or resumed.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cells.library import CellLibrary
from repro.core.delay_kernel import DelayKernelTable
from repro.errors import (
    CampaignError,
    CheckpointError,
    ChunkExecutionError,
    CircuitOpenError,
)
from repro.netlist.circuit import Circuit
from repro.runtime.checkpoint import CheckpointStore, campaign_fingerprint
from repro.runtime.preflight import validate_campaign
from repro.runtime.report import AttemptReport, ChunkReport, RunReport
from repro.simulation.backend import resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig, SimulationResult
from repro.simulation.compiled import CompiledCircuit, compile_circuit
from repro.simulation.grid import SlotPlan
from repro.waveform.plane import WaveformPlane

__all__ = ["CampaignConfig", "CampaignRunner"]

#: The service's hang bound for one chunk: a batch executing longer is
#: declared hung, its worker abandoned and the chunk re-queued once.
WORKER_WAIT_SECONDS = 900.0

#: Chunks submitted but not yet checkpointed.  Results are taken in
#: submission order, so this bounds the result planes held in memory.
IN_FLIGHT_CHUNKS = 8


@dataclass(frozen=True)
class CampaignConfig:
    """Operational policy of a campaign run.

    Neither knob affects the computed waveforms — they decide how the
    slot plane is partitioned and where it executes — so both are
    excluded from the checkpoint fingerprint and may differ between the
    original run and a resume.

    Attributes
    ----------
    chunk_slots:
        Slots per chunk (the job and checkpoint granularity).
    num_workers:
        Shard processes of the service the chunks run on
        (``ServiceConfig.shards``); ``0`` runs every chunk in-process.
    """

    chunk_slots: int = 64
    num_workers: int = 0

    def __post_init__(self) -> None:
        if self.chunk_slots < 1:
            raise CampaignError("chunk_slots must be positive")
        if self.num_workers < 0:
            raise CampaignError("num_workers must be >= 0")


class CampaignRunner:
    """Checkpointing executor for slot-plane sweeps.

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
    ) -> None:
        self.config = config or SimulationConfig()
        self.campaign = campaign or CampaignConfig()
        self.compiled = compiled or compile_circuit(circuit, library)

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
        validate_campaign(self.compiled, pairs, plan, config=self.config,
                          kernel_table=kernel_table)
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
        # One result plane per chunk, in slot order (chunks are
        # contiguous slot ranges).
        planes: List[Optional[WaveformPlane]] = [None] * len(chunks)
        missing = []
        for index, (indices, _sub) in enumerate(chunks):
            loaded = (store.try_load_chunk(index, indices.size)
                      if store is not None else None)
            if loaded is not None:
                report.chunks[index].from_checkpoint = True
                planes[index] = loaded
            else:
                missing.append(index)
        if missing:
            self._execute(missing, chunks, planes, pairs, kernel_table,
                          variation, store, report)

        report.wall_seconds = _time.perf_counter() - start
        failed = [chunk for chunk in report.chunks if not chunk.completed]
        if failed:
            attempts = failed[0].attempts
            raise ChunkExecutionError(failed[0].index, attempts[-1].error,
                                      attempts)
        return SimulationResult(
            circuit_name=self.compiled.circuit.name,
            slot_labels=plan.labels(),
            waveforms=WaveformPlane.concat(planes),
            runtime_seconds=report.wall_seconds,
            gate_evaluations=report.gate_evaluations,
            engine=f"campaign[{self.campaign.num_workers}]",
            report=report,
        )

    def _execute(self, missing: List[int], chunks, planes, pairs,
                 kernel_table, variation, store: Optional[CheckpointStore],
                 report: RunReport) -> None:
        """Run the missing chunks as service jobs and fold each result
        into ``planes``, the checkpoint and the report."""
        # Imported here: ``import repro`` stays off the service.
        from repro.service import ServiceConfig, SimulationService

        def fail(index: int, submitted: float, error: Exception) -> None:
            report.chunks[index].attempts.append(AttemptReport(
                engine="service", waveform_capacity=0,
                seconds=_time.perf_counter() - submitted,
                error=f"{type(error).__name__}: {error}"))

        def settle(index: int, submitted: float, handle) -> None:
            nonlocal store
            try:
                job = handle.result()
            except Exception as error:  # noqa: BLE001 - recorded on the chunk
                fail(index, submitted, error)
                return
            # One chunk per batch: the job's stats are its batch's,
            # whole, so the campaign totals are exact sums.
            report.chunks[index].attempts.extend(
                job.report.chunks[0].attempts)
            report.fold(job.stats)
            planes[index] = job.plane
            if store is None:
                return
            try:
                store.save_chunk(index, job.plane)
            except OSError as error:
                # The campaign finishes in memory, it is just no longer
                # resumable.
                report.warnings.append(
                    f"checkpointing disabled after chunk {index}: {error}")
                store = None

        service = SimulationService(ServiceConfig(
            shards=min(self.campaign.num_workers, len(missing)),
            max_batch_slots=report.chunk_slots, cache_entries=0,
            hang_timeout_s=WORKER_WAIT_SECONDS))
        try:
            key = service.register_circuit(
                self.compiled.circuit, self.compiled.library,
                compiled=self.compiled)
            in_flight: deque = deque()
            for index in missing:
                indices, sub = chunks[index]
                # Only the chunk's own stimuli travel with its job.
                used, local = np.unique(sub.pattern_indices,
                                        return_inverse=True)
                submitted = _time.perf_counter()
                try:
                    handle = service.submit(
                        key, [pairs[i] for i in used.tolist()],
                        plan=SlotPlan(local, sub.voltages),
                        config=self.config, kernel_table=kernel_table,
                        variation=variation, first_slot=int(indices[0]))
                except CircuitOpenError as error:
                    fail(index, submitted, error)
                    continue
                in_flight.append((index, submitted, handle))
                if len(in_flight) >= IN_FLIGHT_CHUNKS:
                    settle(*in_flight.popleft())
            while in_flight:
                settle(*in_flight.popleft())
        finally:
            service.close(drain=False)
