"""Calls-per-job guard on the service's own per-job path.

On a box where threads serialise on the GIL, a job's service cost
follows its count of Python-level calls, not its bytes, and a call
count is exact where a wall is noise.  So the per-job path is held to a
budget of ``sys.setprofile`` events: calls added to it — a numpy call
per job included — show up here without a timing run.

The stream is fixed: one client submits 64 fresh two-slot jobs under
the coalescing settings of ``test_service.py`` (16-slot planes, waits
far past the test), so batches flush on fullness only (eight jobs
each) and their composition is deterministic.  Every thread the service
starts is profiled, and an event counts when the package's own code
makes the call: a call into numpy or the standard library counts once,
and what numpy, ``threading`` or ``concurrent.futures`` do inside it is
theirs — it moves between numpy releases and Python versions, the
package's own calls do not.  The engine's run is not counted (its walk
is held to its own counts), nor is the supervisor tick, whose period is
set past the test.
"""

import itertools
import os
import sys
import threading

import numpy as np

import repro
from repro.netlist.generate import random_circuit
from repro.service import ServiceConfig, SimulationService
from repro.simulation.base import PatternPair
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim

JOBS = 64

#: ``call`` + ``c_call`` events per job made by the package, all
#: threads, engine runs excluded, measured on CPython 3.11 / numpy 2.4
#: (cext and numpy backends alike): 284.2 with a hand-off to the batch
#: thread and a settlement per job, 188.6 with batching at submit and
#: settlement per batch.  The budget is the latter plus 10 %.  Of the
#: 188.6, 10.8 are calls into numpy's Python functions (two events each
#: through numpy's C dispatcher, one through the older Python wrapper)
#: and 2.8 are list comprehensions (inlined, so not calls, from Python
#: 3.12): the other interpreters and numpy releases can move the count
#: by about that much, inside the margin.  One ``np.stack`` per job
#: adds 3.
BUDGET = 207.0


def make_jobs(width, count, seed):
    rng = np.random.default_rng(seed)
    return [[PatternPair.random(width, rng) for _ in range(2)]
            for _ in range(count)]


def calls_per_job(library, monkeypatch) -> float:
    circuit = random_circuit("budget", 10, 90, seed=11)
    compiled = compile_circuit(circuit, library)
    width = len(circuit.inputs)
    events = itertools.count()
    counting = [False]
    package = os.path.dirname(repro.__file__)

    def profile(frame, event, arg):
        if not counting[0]:
            return
        caller = (frame if event == "c_call"
                  else frame.f_back if event == "call" else None)
        if caller is not None and \
                caller.f_code.co_filename.startswith(package):
            next(events)

    real_run = GpuWaveSim.run

    def unprofiled_run(self, *args, **kwargs):
        sys.setprofile(None)
        try:
            return real_run(self, *args, **kwargs)
        finally:
            sys.setprofile(profile)

    monkeypatch.setattr(GpuWaveSim, "run", unprofiled_run)
    config = ServiceConfig(max_batch_slots=16, max_wait_ms=2000.0,
                           idle_ms=500.0, supervisor_tick_s=600.0)
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        service = SimulationService(config=config)
        try:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            # Warm-up: the worker builds its engine on its first batch.
            for handle in [service.submit(key, pairs)
                           for pairs in make_jobs(width, 8, seed=1)]:
                handle.result(timeout=60)
            jobs = make_jobs(width, JOBS, seed=2)
            counting[0] = True
            handles = [service.submit(key, pairs) for pairs in jobs]
            for handle in handles:
                handle.result(timeout=60)
            counting[0] = False
            metrics = service.metrics()
        finally:
            counting[0] = False
            service.close()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert metrics.batches_dispatched == 1 + JOBS // 8
    return next(events) / JOBS


def test_service_calls_per_job_within_budget(library, monkeypatch):
    per_job = calls_per_job(library, monkeypatch)
    assert per_job <= BUDGET, (
        f"{per_job:.1f} calls per job over the {BUDGET:g} budget")
