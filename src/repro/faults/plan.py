"""Deterministic fault plans: rules, spec parsing, enactment.

A :class:`FaultPlan` is a seeded, reproducible description of *what goes
wrong where*: each :class:`FaultRule` names an instrumented site, a
fault kind and a trigger (every nth call, or per-call probability).
Plans round-trip through a compact spec string so one plan can travel
through the ``REPRO_FAULTS`` environment variable (inherited by shard
processes) and the ``repro serve --faults`` flag unchanged::

    seed=11; backend.run_levels:raise@n=3; cache.get:corrupt@p=0.25;
    service.demux:delay@p=0.1,ms=5

Spec grammar (whitespace-insensitive, ``;``-separated clauses):

* ``seed=N`` — optional leading clause seeding every probability RNG;
* ``<site>:<kind>`` — a rule, optionally followed by ``@`` and
  comma-separated parameters: ``p=<float>`` (per-call probability) or
  ``n=<int>`` (fire on the nth call, 1-based) with ``count=<int>``
  (consecutive calls from the nth, default 1), and ``ms=<float>``
  (sleep duration for ``delay``; ``hang`` defaults to 30000).

Determinism: nth-call triggers depend only on the per-site call count,
so single-threaded runs (and call-count assertions) are exact;
probability triggers draw from a per-rule ``random.Random`` seeded by
``(seed, site, kind, rule-index)``, so two runs with the same plan and
the same per-site call orders fire identically.
"""

from __future__ import annotations

import random
import threading
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InjectedFaultError, ReproError

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "WorkerDeathError",
]

#: Instrumented seam names (see ``docs/architecture.md`` §10).
FAULT_SITES = (
    "backend.run_levels",    # the level walk of a batch (masked or not)
    "backend.load",          # backend import / build (inside _load's try)
    "service.demux",         # batch result demultiplexing
    "cache.get",             # result-cache hit path
    "engine.alloc",          # waveform-arena acquisition
    "shard.dispatch",        # shard-side batch execution (in the worker process)
    "shard.spawn",           # router-side shard process spawn
    "loop.step",             # closed-loop AVFS iteration (before checkpointing)
    "charz.fit",             # characterization regression step (per fit call)
)

#: Supported fault kinds.
FAULT_KINDS = ("raise", "delay", "hang", "corrupt", "die")

#: Default sleep durations (milliseconds) for the latency kinds.
DEFAULT_DELAY_MS = 10.0
DEFAULT_HANG_MS = 30_000.0


class WorkerDeathError(BaseException):
    """Simulated death of the executing worker (``die`` fault kind).

    Deliberately **not** an :class:`Exception`: the hardening layers
    catch ``Exception`` to isolate job failures, and a dead worker must
    not be mistaken for a failed job.  Only supervised execution
    contexts handle it — the service engine pool exits the worker thread
    (leaving its in-flight batch for the supervisor to recover) and
    shard processes hard-exit (the router finds the corpse, respawns the
    shard and re-queues its in-flight batches once).  Anywhere else it
    propagates to the caller like a real worker loss would.
    """


@dataclass(frozen=True)
class FaultRule:
    """One fault at one site with one trigger."""

    site: str
    kind: str
    probability: Optional[float] = None
    nth: Optional[int] = None
    count: int = 1
    ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if (self.probability is None) == (self.nth is None):
            raise ReproError(
                f"rule {self.site}:{self.kind} needs exactly one trigger "
                "(p=<prob> or n=<nth call>)")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ReproError("fault probability must be in (0, 1]")
        if self.nth is not None and self.nth < 1:
            raise ReproError("nth-call trigger is 1-based (n >= 1)")
        if self.count < 1:
            raise ReproError("count must be >= 1")
        if self.ms is not None and self.ms < 0:
            raise ReproError("ms must be >= 0")

    @property
    def sleep_ms(self) -> float:
        if self.ms is not None:
            return self.ms
        return DEFAULT_HANG_MS if self.kind == "hang" else DEFAULT_DELAY_MS

    def to_spec(self) -> str:
        params = []
        if self.probability is not None:
            params.append(f"p={self.probability:g}")
        else:
            params.append(f"n={self.nth}")
            if self.count != 1:
                params.append(f"count={self.count}")
        if self.ms is not None:
            params.append(f"ms={self.ms:g}")
        return f"{self.site}:{self.kind}@{','.join(params)}"


class FaultPlan:
    """A seeded set of fault rules with per-site call accounting.

    Thread-safe: the per-site call counters and fired-rule tallies are
    lock-guarded, so a plan can be shared by every thread of a service.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        self._by_site: Dict[str, List[Tuple[int, FaultRule]]] = {}
        self._rngs: Dict[int, random.Random] = {}
        for index, rule in enumerate(self.rules):
            self._by_site.setdefault(rule.site, []).append((index, rule))
            self._rngs[index] = random.Random(
                f"{self.seed}:{rule.site}:{rule.kind}:{index}")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the ``seed=N; site:kind@p=...`` spec grammar."""
        seed = 0
        rules: List[FaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                seed = int(clause[len("seed="):])
                continue
            head, _, tail = clause.partition("@")
            site, sep, kind = head.strip().partition(":")
            if not sep:
                raise ReproError(
                    f"fault clause {clause!r} must look like site:kind[@...]")
            params: Dict[str, str] = {}
            for item in tail.split(","):
                item = item.strip()
                if not item:
                    continue
                name, sep, value = item.partition("=")
                if not sep:
                    raise ReproError(
                        f"fault parameter {item!r} must look like name=value")
                params[name.strip()] = value.strip()
            unknown = set(params) - {"p", "n", "count", "ms"}
            if unknown:
                raise ReproError(
                    f"unknown fault parameters {sorted(unknown)} in {clause!r}")
            rules.append(FaultRule(
                site=site.strip(), kind=kind.strip(),
                probability=float(params["p"]) if "p" in params else None,
                nth=int(params["n"]) if "n" in params else None,
                count=int(params.get("count", 1)),
                ms=float(params["ms"]) if "ms" in params else None,
            ))
        return cls(rules, seed=seed)

    def to_spec(self) -> str:
        clauses = [f"seed={self.seed}"] if self.seed else []
        clauses.extend(rule.to_spec() for rule in self.rules)
        return "; ".join(clauses)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.to_spec()!r})"

    # -- accounting -----------------------------------------------------------

    def calls(self, site: Optional[str] = None) -> int:
        """Seam crossings observed so far (one site, or all of them)."""
        with self._lock:
            if site is not None:
                return self._calls.get(site, 0)
            return sum(self._calls.values())

    def stats(self) -> dict:
        """Observability snapshot: calls per site, fires per rule."""
        with self._lock:
            return {"calls": dict(self._calls), "fired": dict(self._fired)}

    # -- enactment ------------------------------------------------------------

    def _match(self, site: str) -> List[Tuple[int, FaultRule]]:
        with self._lock:
            count = self._calls.get(site, 0) + 1
            self._calls[site] = count
            fired: List[Tuple[int, FaultRule]] = []
            for index, rule in self._by_site.get(site, ()):
                if rule.nth is not None:
                    hit = rule.nth <= count < rule.nth + rule.count
                else:
                    hit = self._rngs[index].random() < rule.probability
                if hit:
                    fired.append((index, rule))
                    key = f"{rule.site}:{rule.kind}"
                    self._fired[key] = self._fired.get(key, 0) + 1
            return fired

    def enact(self, site: str, corruptible=None) -> Optional[FaultRule]:
        """Count one seam crossing and enact whatever rules fire.

        Latency rules sleep, ``corrupt`` rules flip one bit of the
        passed waveform plane (a no-op when the site offers nothing to
        corrupt), and ``raise``/``die`` rules raise — after the
        non-raising rules have been enacted, first raising rule wins.
        Returns the raising rule's sibling-free summary (the last
        non-raising fired rule) — ``None`` when nothing fired.
        """
        fired = self._match(site)
        if not fired:
            return None
        raiser: Optional[FaultRule] = None
        last: Optional[FaultRule] = None
        for index, rule in fired:
            if rule.kind in ("delay", "hang"):
                _time.sleep(rule.sleep_ms / 1e3)
                last = rule
            elif rule.kind == "corrupt":
                if corruptible is not None:
                    corrupt_waveforms(self._rngs[index], corruptible)
                last = rule
            elif raiser is None:
                raiser = rule
        if raiser is not None:
            if raiser.kind == "die":
                raise WorkerDeathError(site)
            raise InjectedFaultError(site, raiser.to_spec())
        return last


def corrupt_waveforms(rng: random.Random, plane) -> bool:
    """Flip one bit of a :class:`~repro.waveform.plane.WaveformPlane`
    in place — in the very bytes its content checksum covers.

    Prefers the lowest mantissa bit of one toggle time of one
    toggle-bearing ``(net, slot)`` block; an all-quiet plane instead has
    one settled initial value inverted.  Returns False when there was
    nothing to corrupt.
    """
    import numpy as np

    busy = np.flatnonzero(plane.counts)
    if busy.size:
        block = np.unravel_index(busy[rng.randrange(busy.size)],
                                 plane.counts.shape)
        toggle = int(plane.starts[block]) + rng.randrange(
            int(plane.counts[block]))
        plane.times.view(np.int64)[toggle] ^= 1
        return True
    if not plane.initial.size:
        return False
    cell = np.unravel_index(rng.randrange(plane.initial.size),
                            plane.initial.shape)
    plane.initial[cell] ^= 1
    return True
