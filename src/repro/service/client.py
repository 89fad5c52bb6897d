"""Programmatic client and JSON-lines driver for the service.

Two front ends over one :class:`~repro.service.core.SimulationService`:

* :class:`ServiceClient` — in-process convenience wrapper that speaks
  *request dicts* (circuit spec, pattern count, voltages) instead of
  compiled circuits, resolving and registering circuit specs once each;
* :func:`serve_jsonl` — the ``repro serve`` transport: read one JSON
  request per line, submit as they arrive, and stream one JSON response
  per line **in submission order** (an emitter thread blocks on the
  oldest outstanding handle, so responses flow while requests are still
  being read — no buffering until EOF).

Request line schema (unknown keys are ignored)::

    {"id": "r1", "circuit": "suite:s27", "patterns": 8, "seed": 0,
     "voltages": [0.8], "record_all_nets": false, "deadline_ms": 5000}

Response line schema::

    {"id": "r1", "ok": true, "slots": 8, "cache_hit": false,
     "engine": "...", "latency_ms": 1.2, "latest_arrival_s": 1.9e-10,
     "gate_evaluations": 1234}

Failures respond ``{"id": ..., "ok": false, "error": "..."}``; an
admission rejection or open circuit breaker additionally carries
``retry_after_ms`` (the breaker also sets ``"breaker": "open"``), and
a deadline expiry sets ``"timeout": true`` with the ``deadline_ms``
that was exceeded.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Dict, Optional

from repro.atpg.patterns import random_pattern_set
from repro.cells.library import CellLibrary
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    JobDeadlineError,
    ReproError,
)
from repro.service.core import SimulationService
from repro.service.jobs import JobHandle, JobResult
from repro.simulation.base import SimulationConfig
from repro.simulation.grid import SlotPlan

__all__ = ["ServiceClient", "serve_jsonl"]


class ServiceClient:
    """Spec-level front door: resolves circuit specs, submits jobs."""

    def __init__(self, service: SimulationService, library: CellLibrary,
                 circuit_loader, kernel_table=None,
                 backend: Optional[str] = None) -> None:
        self.service = service
        self.library = library
        self.kernel_table = kernel_table
        self.backend = backend
        self._loader = circuit_loader
        self._keys: Dict[str, str] = {}
        self._lock = threading.Lock()

    def circuit_key(self, spec: str) -> str:
        """Resolve a circuit spec to a registered fingerprint (cached)."""
        with self._lock:
            key = self._keys.get(spec)
        if key is not None:
            return key
        circuit = self._loader(spec, self.library)
        key = self.service.register_circuit(circuit, self.library)
        with self._lock:
            self._keys[spec] = key
        return key

    def request(self, req: dict) -> JobHandle:
        """Submit one request dict; returns the job handle."""
        spec = req.get("circuit")
        if not spec:
            raise ReproError("request needs a 'circuit' spec")
        key = self.circuit_key(spec)
        compiled = self.service.circuit(key)
        patterns = random_pattern_set(compiled.circuit,
                                      int(req.get("patterns", 8)),
                                      seed=int(req.get("seed", 0)))
        voltages = req.get("voltages", [0.8])
        if isinstance(voltages, str):
            voltages = [float(part) for part in voltages.split(",")
                        if part.strip()]
        plan = SlotPlan.cross(len(patterns), [float(v) for v in voltages])
        config = SimulationConfig(
            record_all_nets=bool(req.get("record_all_nets", False)),
            backend=self.backend)
        deadline_ms = req.get("deadline_ms")
        return self.service.submit(
            key, patterns.pairs, plan=plan, config=config,
            kernel_table=self.kernel_table,
            deadline_ms=None if deadline_ms is None else float(deadline_ms))


def _response(req_id, result: JobResult) -> dict:
    latest = max(result.slot_arrivals().tolist(), default=float("-inf"))
    return {
        "id": req_id,
        "ok": True,
        "slots": result.num_slots,
        "cache_hit": result.cache_hit,
        "engine": result.engine,
        "latency_ms": round(result.latency_seconds * 1e3, 3),
        "latest_arrival_s": None if latest == float("-inf") else latest,
        "gate_evaluations": result.gate_evaluations,
    }


def _error_response(req_id, error: Exception) -> dict:
    response = {"id": req_id, "ok": False,
                "error": f"{type(error).__name__}: {error}"}
    if isinstance(error, AdmissionError):
        response["retry_after_ms"] = round(
            error.retry_after_seconds * 1e3, 3)
    if isinstance(error, CircuitOpenError):
        response["breaker"] = "open"
    if isinstance(error, JobDeadlineError):
        response["timeout"] = True
        if error.deadline_ms is not None:
            response["deadline_ms"] = error.deadline_ms
    return response


def serve_jsonl(input_stream, output_stream, client: ServiceClient) -> int:
    """Drive a service from a JSON-lines stream; returns an exit code.

    Responses stream in submission order while input is still being
    read.  Failed lines (bad JSON, unknown circuit, admission
    rejection) produce error responses; only a broken output stream
    aborts the loop.
    """
    write_lock = threading.Lock()

    def emit(payload: dict) -> None:
        with write_lock:
            output_stream.write(json.dumps(payload) + "\n")
            output_stream.flush()

    outstanding: "deque[tuple]" = deque()
    available = threading.Semaphore(0)
    done = threading.Event()

    def emitter() -> None:
        while True:
            available.acquire()
            if done.is_set() and not outstanding:
                return
            req_id, handle = outstanding.popleft()
            try:
                emit(_response(req_id, handle.result()))
            except Exception as error:  # noqa: BLE001 - report per line
                emit(_error_response(req_id, error))

    thread = threading.Thread(target=emitter, name="repro-serve-emitter",
                              daemon=True)
    thread.start()

    for line in input_stream:
        line = line.strip()
        if not line:
            continue
        req_id: Optional[object] = None
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ReproError("request line must be a JSON object")
            req_id = req.get("id")
            handle = client.request(req)
        except Exception as error:  # noqa: BLE001 - report per line
            emit(_error_response(req_id, error))
            continue
        outstanding.append((req_id, handle))
        available.release()

    done.set()
    available.release()  # wake the emitter for the exit check
    thread.join()
    # Drain stragglers in case the emitter exited between the final
    # response and the sentinel wake-up.
    while outstanding:
        req_id, handle = outstanding.popleft()
        try:
            emit(_response(req_id, handle.result()))
        except Exception as error:  # noqa: BLE001 - report per line
            emit(_error_response(req_id, error))
    return 0
