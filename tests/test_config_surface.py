"""The settings surface: the exact fields of the five config records.

Each field is a configuration axis every caller, test and document has
to reason about.  A setting that only one value is ever used with is a
module constant at the one place that reads it, not a field.  A new
field therefore needs two non-test callers that set it to different
values, and a CHANGES.md line naming them; then extend the expected
names here.  ``make knobs`` prints the same counts.
"""

import dataclasses

import pytest

from repro.avfs.loop.runner import LoopConfig
from repro.core.characterization import AdaptiveConfig
from repro.runtime.campaign import CampaignConfig
from repro.service.jobs import ServiceConfig
from repro.simulation.base import SimulationConfig

SURFACE = {
    SimulationConfig: (
        "pulse_filtering", "waveform_capacity", "grow_on_overflow",
        "record_all_nets", "backend", "prune_inactive"),
    ServiceConfig: (
        "max_batch_slots", "max_wait_ms", "idle_ms", "queue_depth",
        "admission", "workers", "cache_entries", "hang_timeout_s",
        "supervisor_tick_s", "shards"),
    LoopConfig: (
        "period", "max_iterations", "settle_iterations", "use_delta",
        "record_energy"),
    AdaptiveConfig: (
        "target_error", "budget", "order", "cv_tolerance",
        "seed_voltage_fractions", "seed_load_fractions"),
    CampaignConfig: ("chunk_slots", "num_workers"),
}


@pytest.mark.parametrize("record", list(SURFACE), ids=lambda r: r.__name__)
def test_fields_are_exactly_the_pinned_ones(record):
    names = tuple(field.name for field in dataclasses.fields(record))
    assert names == SURFACE[record]
