"""Measurement plumbing of the ledger: spans, statistics, isolation, context.

Nothing here knows a workload.  The tracer records spans *from the
harness side*: either around calls the harness makes itself
(:meth:`Tracer.span`) or by wrapping a layer's public function where the
program calls it internally (:meth:`Tracer.wrap`, undone by
:meth:`Tracer.unwrap_all`).  No file under ``src/`` is touched.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
#: Everything the benchmark writes at run time lives below this
#: directory of the checkout: the built kernel library, temp dirs,
#: result and trace files.
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "ledger")
BLAS_THREADS = "1"


# -- statistics --------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timing(values: Sequence[float], unit: str, value: Optional[float] = None) -> dict:
    """Metric record: the median (or ``value``) with quartiles and sample count."""
    q1, median, q3 = quartiles(values)
    return {"value": median if value is None else value, "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def single(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit, "q1": float(value),
            "q3": float(value), "n": 1}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing -----------------------------------------------------------------------


class Span:
    __slots__ = ("name", "start", "end", "id", "parent", "op", "tid", "args")

    def __init__(self, name, start, id, parent, op, tid):
        self.name = name
        self.start = start
        self.end = start
        self.id = id
        self.parent = parent
        self.op = op
        self.tid = tid
        self.args = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    A span's parent is the innermost open span of its thread.  A span
    opened on a thread with no open span (a service worker, say) is
    adopted by the current op's root span, so the work a worker does for
    an op nests under that op.  Client threads that run *concurrently*
    with the worker open their own parentless :meth:`thread_root`, which
    keeps every tree free of overlapping siblings: within one tree self
    times are non-negative and add up to the root's duration.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: Optional[Span] = None
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, adopt: bool = True) -> Span:
        stack = self._stack()
        op = self._op
        if stack:
            parent = stack[-1].id
        else:
            parent = op.id if (adopt and op is not None) else None
        span = Span(name, time.perf_counter(), next(self._ids), parent,
                    op.id if op is not None else None, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **args):
        """Span around a call the harness makes itself."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        if args:
            span.args = args
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def op(self, name: str):
        """Root span of one timed op; spans opened inside share its id."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, adopt=False)
        span.op = span.id
        self._op = span
        try:
            yield span
        finally:
            self._op = None
            self._close(span)

    @contextmanager
    def thread_root(self, name: str):
        """Parentless root for a thread that runs beside the op's own tree."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, adopt=False)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a version that records a span per call.

        ``note(span, args, kwargs, result)`` runs after the call, at the
        same boundary, to attach counts to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        # An inherited method is wrapped by shadowing it on ``owner``;
        # unwrapping then removes the shadow instead of pinning a copy.
        self._patched.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- roll-up --------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its direct children cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        return {span.id: span.seconds - children.get(span.id, 0.0)
                for span in self.spans}

    def by_op(self, op_ids: Iterable[int]) -> Dict[int, List[Span]]:
        wanted = set(op_ids)
        grouped: Dict[int, List[Span]] = {op: [] for op in wanted}
        for span in self.spans:
            if span.op in wanted:
                grouped[span.op].append(span)
        return grouped

    def per_op_totals(self, op_ids: Sequence[int], name: str) -> List[float]:
        """Summed duration of the spans called ``name`` inside each op."""
        return [sum(s.seconds for s in spans if s.name == name)
                for spans in self.by_op(op_ids).values()]

    def durations(self, name: str, op_ids: Optional[Sequence[int]] = None,
                  where: Optional[Callable[[Span], bool]] = None) -> List[float]:
        wanted = None if op_ids is None else set(op_ids)
        return [s.seconds for s in self.spans if s.name == name
                and (wanted is None or s.op in wanted)
                and (where is None or where(s))]

    def waterfall(self, op_ids: Sequence[int]) -> List[dict]:
        """Per-layer self time of the op trees, median over ops.

        A span's layer is its name up to the last dot.  Only spans in
        the op root's own tree count (client-thread trees run beside
        it); the rows' ``share`` therefore add up to 1.
        """
        self_of = self.self_times()
        by_id = {span.id: span for span in self.spans}

        def in_root_tree(span: Span) -> bool:
            while span.parent is not None:
                span = by_id[span.parent]
            return span.id == span.op

        per_op: List[Dict[str, Tuple[int, float, float]]] = []
        walls: List[float] = []
        for op_id, spans in self.by_op(op_ids).items():
            rows: Dict[str, List[float]] = {}
            for span in spans:
                if not in_root_tree(span):
                    continue
                layer = span.name.rsplit(".", 1)[0]
                row = rows.setdefault(layer, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += span.seconds
                row[2] += self_of[span.id]
            per_op.append(rows)
            walls.append(by_id[op_id].seconds)
        wall = statistics.median(walls) if walls else 0.0
        layers = sorted({layer for rows in per_op for layer in rows})
        table = []
        for layer in layers:
            calls = [rows.get(layer, [0, 0.0, 0.0])[0] for rows in per_op]
            total = [rows.get(layer, [0, 0.0, 0.0])[1] for rows in per_op]
            self_s = [rows.get(layer, [0, 0.0, 0.0])[2] for rows in per_op]
            table.append({
                "layer": layer,
                "spans_per_op": statistics.median(calls),
                "total_s": statistics.median(total),
                "self_s": statistics.median(self_s),
                "share": (statistics.median(self_s) / wall) if wall else 0.0,
            })
        table.sort(key=lambda row: -row["self_s"])
        return table

    def chrome_trace(self) -> dict:
        """The spans in Chrome-trace (``chrome://tracing`` / Perfetto) format."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = []
        for span in self.spans:
            args = {"id": span.id, "parent": span.parent, "op": span.op}
            if span.args:
                args.update(span.args)
            events.append({
                "name": span.name, "cat": span.name.rsplit(".", 1)[0], "ph": "X",
                "ts": (span.start - origin) * 1e6, "dur": span.seconds * 1e6,
                "pid": os.getpid(), "tid": span.tid, "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- calibration -------------------------------------------------------------------


class Calibration:
    """A fixed kernel timed beside the ops, to tell a slow minute of the box
    from a slow program.

    The reference box has phases, minutes long, in which identical
    memory-bound Python work takes 30-40 % more user time (a neighbour's
    cache and memory traffic; no page faults, no steal to speak of).
    Repetition inside a run cannot average that out, so every run times
    this kernel before each set-up and each op and reports its time
    metrics in *reference seconds*: host seconds divided by
    ``slowdown = median(kernel time) / REFERENCE_S``.  The kernel mixes
    what the workloads are made of — interpreter dispatch on small arrays,
    small LAPACK calls, object churn, memory streaming — and is part of
    the benchmark, so no change to the program can move it.  Over ten
    runs on ten seeds it cut the spread of ``jobs_per_s`` from 0.09-0.28
    to 0.05-0.16 (README, "Reference seconds").  It does not see a second
    process time-sharing the cores: that slows the OpenMP sweeps 2x and
    this single-threaded kernel 1.3x.
    """

    #: Kernel time on the reference box in a quiet minute.
    REFERENCE_S = 0.080

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._big = rng.random(300_000), rng.random(300_000)
        self._small = rng.random(64), rng.random(64)
        self._system = rng.random((16, 4)), rng.random(16)
        self.samples: List[float] = []
        self.sample()  # first call pays for lazy imports inside numpy
        self.samples.clear()

    def sample(self) -> float:
        np = self._np
        a, b = self._small
        big_a, big_b = self._big
        matrix, rhs = self._system
        start = time.perf_counter()
        for _ in range(7500):
            (a * b + a).max()
        for _ in range(1250):
            np.linalg.lstsq(matrix, rhs, rcond=None)
        for _ in range(4):
            sum([float(i) * 1.5 for i in range(50_000)])
        for _ in range(12):
            mixed = big_a * big_b + big_a
            np.sort(mixed)
            np.cumsum(mixed)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @property
    def slowdown(self) -> float:
        """How much slower than the quiet reference box this run ran (1.0 = as fast)."""
        return statistics.median(self.samples) / self.REFERENCE_S

    def in_reference_seconds(self, record: dict) -> dict:
        """A metric record with host seconds converted to reference seconds."""
        unit = record["unit"]
        if unit in ("s", "ms"):
            factor = 1.0 / self.slowdown
        elif unit.endswith("/s"):
            factor = self.slowdown
        else:
            return record
        return {**record, "value": record["value"] * factor, "q1": record["q1"] * factor,
                "q3": record["q3"] * factor, "host_value": record["value"]}


# -- isolation and hygiene ---------------------------------------------------------


def _listing(path: str) -> Dict[str, Tuple[int, int]]:
    found = {}
    for base, _dirs, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            try:
                stat = os.stat(full)
            except OSError:
                continue
            found[full] = (stat.st_size, stat.st_mtime_ns)
    return found


def _shm_segments() -> List[str]:
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith("repro-svc-"))
    except OSError:
        return []


class Isolation:
    """Per-interpreter cache isolation, and the exit-time hygiene check.

    The compiled kernel library goes to the checkout's build directory
    (built once per checkout, before any clock starts) and the
    coefficient cache to a temp dir that is removed on exit; the user's
    ``~/.cache/repro`` is never read or written.
    """

    def __init__(self) -> None:
        self.home_cache = os.path.join(os.path.expanduser("~"), ".cache", "repro")
        self.home_before = _listing(self.home_cache)
        self.shm_before = _shm_segments()
        os.makedirs(os.path.join(BUILD_DIR, "cache"), exist_ok=True)
        tmp_root = os.path.join(BUILD_DIR, "tmp")
        os.makedirs(tmp_root, exist_ok=True)
        os.environ["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "cache")
        os.environ["TMPDIR"] = tmp_root
        tempfile.tempdir = None  # re-read TMPDIR
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
        os.environ["REPRO_CHARZ_CACHE"] = os.path.join(self.tmp, "charz")
        os.environ.pop("REPRO_FAULTS", None)
        os.environ.pop("REPRO_BACKEND", None)
        # NumPy's OpenBLAS spins one thread per core by default; on the
        # small least-squares fits of characterization that made op walls
        # bimodal (3.3 s or 4.8 s) for twice the CPU time.  One BLAS
        # thread is faster and steady.  The kernel library's OpenMP
        # thread count is left at its default.
        os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)

    def finish(self) -> dict:
        """Remove the temp dir and report what the run left behind."""
        shutil.rmtree(self.tmp, ignore_errors=True)
        threads = sorted(t.name for t in threading.enumerate()
                         if t is not threading.main_thread() and t.is_alive()
                         and t.name.startswith("repro-"))
        report = {
            "temp_dir_removed": not os.path.exists(self.tmp),
            "home_cache_untouched": _listing(self.home_cache) == self.home_before,
            "leaked_shm_segments": [n for n in _shm_segments()
                                    if n not in self.shm_before],
            "live_service_threads": threads,
        }
        report["ok"] = (report["temp_dir_removed"] and report["home_cache_untouched"]
                        and not report["leaked_shm_segments"] and not threads)
        return report


def clear_program_caches() -> None:
    """Forget every process-wide cache of the program (start of a set-up)."""
    from repro.core.charz_cache import CoefficientCache
    from repro.simulation.compiled import clear_level_plan_cache
    from repro.simulation.pool import clear_engine_pool

    clear_level_plan_cache()
    clear_engine_pool()
    CoefficientCache.clear_memo()


# -- machine context ---------------------------------------------------------------


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_context(backend_name: str, backend_status: Dict[str, str]) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        # The kernel library leaves the OpenMP thread count to libgomp:
        # OMP_NUM_THREADS when set, otherwise one thread per core.
        "omp_threads": int(os.environ.get("OMP_NUM_THREADS") or nproc),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc),
        "backend": backend_name,
        "backend_status": dict(backend_status),
        "git_commit": _git_commit(),
    }


#: Context fields two results must share to be comparable.
COMPARABLE_CONTEXT = ("backend", "nproc", "omp_threads", "blas_threads", "python", "numpy")


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1)
        stream.write("\n")


def die(message: str, code: int = 2) -> None:
    print(f"ledger: {message}", file=sys.stderr)
    raise SystemExit(code)
