"""Simulation service layer (the inference-server-shaped front door).

Aggregates fine-grained simulation jobs from many callers into the wide
slot planes the engines need: admission control and dynamic batching at
submit (the submitting thread folds its job into its group and flushes
a full batch itself; a clock thread flushes on age / idle), a
supervised worker pool dispatching through the existing engines
(dead/hung workers replaced, their batch re-queued once), per-job
result demultiplexing with deadlines and cancellation,
per-compatibility-group circuit breakers, and a checksummed
fingerprinted LRU result cache of exact repeats (the service has no
delta path; a near-duplicate job re-simulates in full).  With ``ServiceConfig(shards=N)`` the
worker pool is replaced by a multi-process shard router: spawned worker
processes take batches from the same one queue, a free shard first,
each batch's stimuli and packed result plane crossing the
shard's control pipe (:mod:`repro.service.router`,
:mod:`repro.service.shard`).  The service imports the router only when
it starts shards, so ``import repro.service`` loads no process
machinery.  See :mod:`repro.service.core` for the execution model and
the bit-identity contract, and ``docs/architecture.md`` §9–§11 for the
design.
"""

from repro.service.batcher import DynamicBatcher, PendingBatch
from repro.service.breaker import CircuitBreaker
from repro.service.cache import CachedResult, ResultCache, waveform_checksum
from repro.service.client import ServiceClient, serve_jsonl
from repro.service.core import SimulationService
from repro.service.jobs import JobHandle, JobResult, ServiceConfig
from repro.service.metrics import MetricsRecorder, ServiceMetrics
from repro.service.pool import EnginePool

__all__ = [
    "CachedResult",
    "CircuitBreaker",
    "DynamicBatcher",
    "EnginePool",
    "JobHandle",
    "JobResult",
    "MetricsRecorder",
    "PendingBatch",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "SimulationService",
    "serve_jsonl",
    "waveform_checksum",
]
