"""Service observability: counters, occupancy histogram, latency quantiles.

A :class:`MetricsRecorder` accumulates under a lock on the hot path
(cheap integer updates plus a bounded latency window);
:meth:`MetricsRecorder.snapshot` materializes an immutable
:class:`ServiceMetrics` for reporting.  The quantities are the ones that
tell you whether dynamic batching is *working*:

* **batch occupancy histogram** — how full the shared slot planes were
  when they dispatched (all-ones means coalescing never happened),
* **coalesce factor** — jobs per engine dispatch (the headline number:
  sequential submission has factor 1.0),
* **cache hit rate** — fraction of lookups served without any dispatch,
* **latency percentiles** — p50/p95/p99 over the recent completion
  window, because batching trades tail latency for throughput and the
  trade must be visible.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.simulation.gpu import EngineStats

__all__ = ["MetricsRecorder", "ServiceMetrics"]

#: Upper edges of the batch-occupancy buckets (slots per dispatched
#: batch); the last bucket is open-ended.
OCCUPANCY_EDGES = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Completed-job latencies kept for the percentile window.
LATENCY_WINDOW = 4096


def _bucket_label(index: int) -> str:
    if index == 0:
        return "1"
    if index >= len(OCCUPANCY_EDGES):
        return f">{OCCUPANCY_EDGES[-1]}"
    low = OCCUPANCY_EDGES[index - 1] + 1
    high = OCCUPANCY_EDGES[index]
    return str(high) if low == high else f"{low}-{high}"


@dataclass(frozen=True)
class ServiceMetrics:
    """Immutable snapshot of one service's lifetime counters."""

    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    jobs_rejected: int
    queue_depth: int
    batches_dispatched: int
    jobs_batched: int
    slots_dispatched: int
    occupancy_histogram: Dict[str, int]
    cache: Dict[str, float]
    latency_p50_ms: Optional[float]
    latency_p95_ms: Optional[float]
    latency_p99_ms: Optional[float]
    retry_after_seconds: float = 0.0
    #: Batches waiting in the supervisor's one queue for a free worker
    #: (thread or shard) at the snapshot.
    batches_queued: int = 0
    #: Engine wall time per phase (``delay`` / ``merge`` / ``pack``)
    #: summed over every dispatched batch — the per-phase
    #: breakdown surfaced by ``repro bench`` and the service CLI.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Failure-domain counters (see ``docs/architecture.md`` §10):
    #: deadline expiries, caller cancellations, circuit-breaker
    #: refusals, supervisor worker replacements (``workers_hung`` of
    #: them abandoned as hung), batches re-queued after a worker loss,
    #: and engine backend demotions observed on dispatched batches.
    jobs_timed_out: int = 0
    jobs_cancelled: int = 0
    breaker_rejections: int = 0
    workers_replaced: int = 0
    workers_hung: int = 0
    batches_requeued: int = 0
    backend_demotions: int = 0
    #: Per-compatibility-group breaker snapshots, keyed by the first 12
    #: hex chars of the compat fingerprint.
    breakers: Dict[str, dict] = field(default_factory=dict)
    #: Sharded-service counters (all zero / empty without sharding).
    #: ``shards`` maps shard index (as a string) to that
    #: shard's occupancy and transport counters (in-flight batches,
    #: dispatches, respawns, per-shard IPC bytes, …);
    #: ``shard_latency_ms`` holds per-shard p50/p95/p99 over the recent
    #: completion window — the shard dimension of the latency
    #: percentiles.  ``ipc_*_bytes`` count the pickled bytes over the
    #: shards' control pipes: registrations, batch stimuli out, packed
    #: result planes back.
    shard_errors: int = 0
    ipc_tx_bytes: int = 0
    ipc_rx_bytes: int = 0
    shards: Dict[str, dict] = field(default_factory=dict)
    shard_latency_ms: Dict[str, Dict[str, float]] = field(
        default_factory=dict)
    #: Lanes actually dispatched vs lanes served by splicing a cached
    #: base arena, summed over every dispatched batch.  The service has
    #: no delta path, so ``delta_fraction`` (the evaluated share) reads
    #: 1.0.
    lanes_evaluated: int = 0
    lanes_spliced: int = 0

    @property
    def delta_fraction(self) -> float:
        """Evaluated share of (evaluated + spliced) lanes."""
        total = self.lanes_evaluated + self.lanes_spliced
        return 1.0 if total == 0 else self.lanes_evaluated / total

    @property
    def base_hits(self) -> int:
        """Always 0: the service keeps no delta bases.  Read by the
        ledger's ``service_stream`` workload on every op."""
        return 0

    @property
    def integrity_evictions(self) -> int:
        """Cache entries evicted on checksum mismatch (served as misses)."""
        return int(self.cache.get("integrity_evictions", 0))

    @property
    def coalesce_factor(self) -> float:
        """Jobs per engine dispatch (1.0 = no coalescing happened)."""
        if self.batches_dispatched == 0:
            return 1.0
        return self.jobs_batched / self.batches_dispatched

    @property
    def mean_occupancy(self) -> float:
        """Slots per dispatched batch."""
        if self.batches_dispatched == 0:
            return 0.0
        return self.slots_dispatched / self.batches_dispatched

    def to_dict(self) -> dict:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_rejected": self.jobs_rejected,
            "queue_depth": self.queue_depth,
            "batches_dispatched": self.batches_dispatched,
            "jobs_batched": self.jobs_batched,
            "slots_dispatched": self.slots_dispatched,
            "coalesce_factor": self.coalesce_factor,
            "mean_occupancy": self.mean_occupancy,
            "occupancy_histogram": dict(self.occupancy_histogram),
            "cache": dict(self.cache),
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "phase_seconds": dict(self.phase_seconds),
            "jobs_timed_out": self.jobs_timed_out,
            "jobs_cancelled": self.jobs_cancelled,
            "breaker_rejections": self.breaker_rejections,
            "workers_replaced": self.workers_replaced,
            "workers_hung": self.workers_hung,
            "batches_requeued": self.batches_requeued,
            "backend_demotions": self.backend_demotions,
            "integrity_evictions": self.integrity_evictions,
            "breakers": {key: dict(value)
                         for key, value in self.breakers.items()},
            "batches_queued": self.batches_queued,
            "shard_errors": self.shard_errors,
            "ipc_tx_bytes": self.ipc_tx_bytes,
            "ipc_rx_bytes": self.ipc_rx_bytes,
            "shards": {key: dict(value)
                       for key, value in self.shards.items()},
            "shard_latency_ms": {key: dict(value)
                                 for key, value in
                                 self.shard_latency_ms.items()},
            "lanes_evaluated": self.lanes_evaluated,
            "lanes_spliced": self.lanes_spliced,
            "delta_fraction": self.delta_fraction,
        }

    def summary(self) -> str:
        """Human-readable digest for the CLI."""
        lines = [
            f"service: {self.jobs_submitted} submitted, "
            f"{self.jobs_completed} completed, {self.jobs_failed} failed, "
            f"{self.jobs_rejected} rejected, queue depth {self.queue_depth}",
            f"  batching: {self.batches_dispatched} dispatches, "
            f"{self.batches_queued} batches queued, "
            f"coalesce factor {self.coalesce_factor:.2f}, "
            f"mean occupancy {self.mean_occupancy:.1f} slots",
        ]
        occupied = {k: v for k, v in self.occupancy_histogram.items() if v}
        if occupied:
            lines.append("  occupancy (slots/batch): "
                         + ", ".join(f"{k}: {v}"
                                     for k, v in occupied.items()))
        if self.cache:
            lines.append(
                f"  cache: {self.cache.get('hits', 0):.0f} hits / "
                f"{self.cache.get('misses', 0):.0f} misses "
                f"(rate {self.cache.get('hit_rate', 0.0):.2f}), "
                f"{self.cache.get('evictions', 0):.0f} evictions")
        if self.latency_p50_ms is not None:
            lines.append(
                f"  latency: p50 {self.latency_p50_ms:.1f} ms, "
                f"p95 {self.latency_p95_ms:.1f} ms, "
                f"p99 {self.latency_p99_ms:.1f} ms")
        if any(self.phase_seconds.values()):
            lines.append("  engine phases: " + ", ".join(
                f"{name} {seconds:.3f}s"
                for name, seconds in self.phase_seconds.items()))
        faults_line = []
        if self.jobs_timed_out:
            faults_line.append(f"{self.jobs_timed_out} timed out")
        if self.jobs_cancelled:
            faults_line.append(f"{self.jobs_cancelled} cancelled")
        if self.breaker_rejections:
            faults_line.append(
                f"{self.breaker_rejections} breaker rejections")
        if self.workers_replaced:
            faults_line.append(
                f"{self.workers_replaced} workers replaced "
                f"({self.workers_hung} hung), "
                f"{self.batches_requeued} batches re-queued")
        if self.backend_demotions:
            faults_line.append(f"{self.backend_demotions} backend demotions")
        if self.integrity_evictions:
            faults_line.append(
                f"{self.integrity_evictions} integrity evictions")
        if faults_line:
            lines.append("  failures: " + ", ".join(faults_line))
        open_breakers = {key: value["state"]
                         for key, value in self.breakers.items()
                         if value.get("state") != "closed"}
        if open_breakers:
            lines.append("  breakers: " + ", ".join(
                f"{key}: {state}" for key, state in open_breakers.items()))
        if self.shards:
            lines.append(
                f"  shards: {len(self.shards)} processes, "
                f"ipc {self.ipc_tx_bytes + self.ipc_rx_bytes} B")
            for key in sorted(self.shards, key=int):
                entry = self.shards[key]
                pcts = self.shard_latency_ms.get(key)
                tail = (f", p95 {pcts['p95']:.1f} ms"
                        if pcts else "")
                lines.append(
                    f"    shard {key}: {entry.get('dispatches', 0)} "
                    f"dispatches, {entry.get('jobs', 0)} jobs, "
                    f"{entry.get('inflight', 0)} in flight, "
                    f"{entry.get('respawns', 0)} respawns{tail}")
        return "\n".join(lines)


@dataclass
class MetricsRecorder:
    """Thread-safe accumulator behind :meth:`SimulationService.metrics`."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_rejected: int = 0
    jobs_timed_out: int = 0
    jobs_cancelled: int = 0
    breaker_rejections: int = 0
    batches_dispatched: int = 0
    jobs_batched: int = 0
    slots_dispatched: int = 0
    _occupancy: List[int] = field(
        default_factory=lambda: [0] * (len(OCCUPANCY_EDGES) + 1))
    _latencies: deque = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW))
    #: Per-shard completion-latency windows (shard index -> deque).
    _shard_latencies: Dict[int, deque] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Exponential moving average of per-job service seconds (the
    #: admission controller's retry-after estimator).
    ema_job_seconds: float = 0.0
    #: Every dispatched batch's engine stats, summed.
    _engine: EngineStats = field(default_factory=EngineStats)

    def record_submitted(self, jobs: int = 1) -> None:
        with self._lock:
            self.jobs_submitted += jobs

    def record_rejected(self) -> None:
        with self._lock:
            self.jobs_rejected += 1

    def record_batch(self, num_jobs: int, num_slots: int) -> None:
        with self._lock:
            self.batches_dispatched += 1
            self.jobs_batched += num_jobs
            self.slots_dispatched += num_slots
            bucket = len(OCCUPANCY_EDGES)
            for index, edge in enumerate(OCCUPANCY_EDGES):
                if num_slots <= edge:
                    bucket = index
                    break
            self._occupancy[bucket] += 1

    def record_engine(self, stats: EngineStats) -> None:
        """Add one dispatched batch's engine stats."""
        with self._lock:
            self._engine += stats

    def record_completed(self, latencies: Sequence[float],
                         shard: Optional[int] = None) -> None:
        """Completed jobs of one settled batch (or one cache hit)."""
        alpha = 0.2
        with self._lock:
            self.jobs_completed += len(latencies)
            self._latencies.extend(latencies)
            if shard is not None:
                window = self._shard_latencies.get(shard)
                if window is None:
                    window = self._shard_latencies[shard] = deque(
                        maxlen=LATENCY_WINDOW)
                window.extend(latencies)
            ema = self.ema_job_seconds
            for latency in latencies:
                ema = (latency if ema == 0.0
                       else (1 - alpha) * ema + alpha * latency)
            self.ema_job_seconds = ema

    def record_failed(self) -> None:
        with self._lock:
            self.jobs_failed += 1

    def record_timed_out(self) -> None:
        with self._lock:
            self.jobs_timed_out += 1

    def record_cancelled(self) -> None:
        with self._lock:
            self.jobs_cancelled += 1

    def record_breaker_rejected(self) -> None:
        with self._lock:
            self.breaker_rejections += 1

    def retry_after(self, backlog: int, workers: int) -> float:
        """Backpressure hint: expected drain time of the current backlog."""
        with self._lock:
            per_job = self.ema_job_seconds or 0.001
        return max(0.001, backlog * per_job / max(workers, 1))

    def snapshot(self, queue_depth: int,
                 cache_stats: Optional[dict] = None,
                 pool_stats: Optional[dict] = None,
                 breakers: Optional[Dict[str, dict]] = None,
                 batches_queued: int = 0) -> ServiceMetrics:
        pool_stats = pool_stats or {}
        with self._lock:
            latencies = np.asarray(self._latencies, dtype=np.float64)
            percentiles = (
                np.percentile(latencies, [50, 95, 99]) * 1e3
                if latencies.size else None)
            shard_latency_ms: Dict[str, Dict[str, float]] = {}
            for shard, window in self._shard_latencies.items():
                values = np.asarray(window, dtype=np.float64)
                if not values.size:
                    continue
                p50, p95, p99 = np.percentile(values, [50, 95, 99]) * 1e3
                shard_latency_ms[str(shard)] = {
                    "p50": float(p50), "p95": float(p95), "p99": float(p99)}
            return ServiceMetrics(
                jobs_submitted=self.jobs_submitted,
                jobs_completed=self.jobs_completed,
                jobs_failed=self.jobs_failed,
                jobs_rejected=self.jobs_rejected,
                queue_depth=queue_depth,
                batches_dispatched=self.batches_dispatched,
                jobs_batched=self.jobs_batched,
                slots_dispatched=self.slots_dispatched,
                occupancy_histogram={
                    _bucket_label(i): count
                    for i, count in enumerate(self._occupancy)},
                cache=dict(cache_stats or {}),
                latency_p50_ms=(float(percentiles[0])
                                if percentiles is not None else None),
                latency_p95_ms=(float(percentiles[1])
                                if percentiles is not None else None),
                latency_p99_ms=(float(percentiles[2])
                                if percentiles is not None else None),
                phase_seconds=self._engine.phase_seconds(),
                jobs_timed_out=self.jobs_timed_out,
                jobs_cancelled=self.jobs_cancelled,
                breaker_rejections=self.breaker_rejections,
                backend_demotions=len(self._engine.demotions),
                workers_replaced=pool_stats.get("workers_replaced", 0),
                workers_hung=pool_stats.get("workers_hung", 0),
                batches_requeued=pool_stats.get("batches_requeued", 0),
                breakers=dict(breakers or {}),
                batches_queued=batches_queued,
                shard_errors=pool_stats.get("shard_errors", 0),
                ipc_tx_bytes=pool_stats.get("ipc_tx_bytes", 0),
                ipc_rx_bytes=pool_stats.get("ipc_rx_bytes", 0),
                shards=dict(pool_stats.get("shards", {})),
                shard_latency_ms=shard_latency_ms,
                lanes_evaluated=self._engine.gate_evaluations,
                lanes_spliced=self._engine.lanes_spliced,
            )
