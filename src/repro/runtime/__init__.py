"""Campaign runtime (preflight, checkpoint/resume, run reports).

The production layer above the simulation engines: it validates a
campaign before any chunk runs, partitions its slot plane into chunks,
submits them as jobs to a :class:`~repro.service.core.SimulationService`
and persists completed chunks to a resumable checkpoint directory.  See
:mod:`repro.runtime.campaign` for the execution model.
"""

from repro.runtime.campaign import CampaignConfig, CampaignRunner
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.fingerprint import (
    Fingerprinter,
    campaign_fingerprint,
    circuit_fingerprint,
    compatibility_fingerprint,
    job_fingerprint,
)
from repro.runtime.preflight import validate_campaign
from repro.runtime.report import AttemptReport, ChunkReport, RunReport

__all__ = [
    "CampaignConfig",
    "CampaignRunner",
    "CheckpointStore",
    "Fingerprinter",
    "campaign_fingerprint",
    "circuit_fingerprint",
    "compatibility_fingerprint",
    "job_fingerprint",
    "validate_campaign",
    "AttemptReport",
    "ChunkReport",
    "RunReport",
]
