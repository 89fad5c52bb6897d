"""Time simulation engines.

* :mod:`repro.simulation.zero_delay` — plain logic evaluation (responses),
* :mod:`repro.simulation.event_driven` — the serial event-queue baseline
  (stands in for the commercial event-driven simulator of Table I),
* :mod:`repro.simulation.gpu` — the paper's contribution: the massively
  parallel waveform simulator with online parametric delay calculation,
  vectorized across the slot plane of stimuli × operating points.
"""

from repro.simulation.backend import (
    available_backends,
    backend_status,
    resolve_backend,
)
from repro.simulation.base import (
    PatternPair,
    SimulationConfig,
    SimulationResult,
    stimuli_from_pair,
)
from repro.simulation.grid import SlotPlan
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.simulation.event_driven import EventDrivenSimulator
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.pool import (
    clear_engine_pool,
    engine_pool_stats,
    pooled_engine,
)
from repro.simulation.variation import (
    ProcessVariation,
    StateDependentVariation,
)

__all__ = [
    "available_backends",
    "backend_status",
    "resolve_backend",
    "clear_engine_pool",
    "engine_pool_stats",
    "pooled_engine",
    "ProcessVariation",
    "StateDependentVariation",
    "PatternPair",
    "SimulationConfig",
    "SimulationResult",
    "stimuli_from_pair",
    "SlotPlan",
    "ZeroDelaySimulator",
    "EventDrivenSimulator",
    "GpuWaveSim",
]
