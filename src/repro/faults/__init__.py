"""Process-wide deterministic fault injection.

The hardening machinery of the service and engine layers (supervised
worker pool, circuit breakers, backend demotion, cache integrity) is
exercised through *seams*: named call sites that consult the process's
active :class:`~repro.faults.plan.FaultPlan` via :func:`trip`.  With no
plan active a seam is one module-global load and a ``None`` check —
cheap enough to leave compiled into production paths (the
``faults_disabled_overhead`` number in ``BENCH_kernels.json`` guards
this staying below 1% of end-to-end runtime).

Activation, outermost wins first:

1. an explicitly :func:`activate`-d plan (``repro serve --faults``,
   tests via the :func:`injected` context manager) — this process only,
2. else the ``REPRO_FAULTS`` environment variable, parsed lazily on the
   first seam crossing and inherited by shard processes (the one way to
   arm a plan inside a shard).

:func:`reset` clears all of it (tests only).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import List, Optional, Union

from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    WorkerDeathError,
    corrupt_waveforms,
)

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "WorkerDeathError",
    "activate",
    "active_plan",
    "corrupt_waveforms",
    "deactivate",
    "injected",
    "reset",
    "trip",
]

#: Environment variable holding a fault-plan spec string.
ENV_VAR = "REPRO_FAULTS"

#: Sentinel: the environment has not been consulted yet.
_UNSET = object()

_active: object = _UNSET
_stack: List[object] = []


def _coerce(plan: Union[FaultPlan, str]) -> FaultPlan:
    return plan if isinstance(plan, FaultPlan) else FaultPlan.from_spec(plan)


def _resolve_env() -> Optional[FaultPlan]:
    global _active
    spec = os.environ.get(ENV_VAR, "").strip()
    plan = FaultPlan.from_spec(spec) if spec else None
    _active = plan
    return plan


def active_plan() -> Optional[FaultPlan]:
    """The plan seams currently consult (``None`` = injection off)."""
    plan = _active
    if plan is _UNSET:
        return _resolve_env()
    return plan  # type: ignore[return-value]


def activate(plan: Union[FaultPlan, str]) -> FaultPlan:
    """Push a plan as the process-wide active one; returns it."""
    global _active
    resolved = _coerce(plan)
    _stack.append(_active)
    _active = resolved
    return resolved


def deactivate() -> None:
    """Pop the most recent :func:`activate`; restores what it shadowed."""
    global _active
    _active = _stack.pop() if _stack else _UNSET


@contextmanager
def injected(plan: Union[FaultPlan, str]):
    """Scoped activation: ``with faults.injected("site:kind@n=1") as p:``."""
    resolved = activate(plan)
    try:
        yield resolved
    finally:
        deactivate()


def reset() -> None:
    """Forget every activation and re-arm lazy env resolution (tests)."""
    global _active
    _stack.clear()
    _active = _UNSET


def trip(site: str, corruptible=None):
    """Cross one fault seam: enact whatever the active plan fires here.

    The disabled path (no active plan) is a global load and an identity
    check.  ``corruptible`` — a result
    :class:`~repro.waveform.plane.WaveformPlane` the site is willing to
    expose to ``corrupt`` rules — is only touched when such a rule
    fires.
    """
    plan = _active
    if plan is None:
        return None
    if plan is _UNSET:
        plan = _resolve_env()
        if plan is None:
            return None
    return plan.enact(site, corruptible)  # type: ignore[union-attr]
