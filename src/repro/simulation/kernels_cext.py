"""C implementations of the hot kernels, compiled on first use.

Per-lane scalar event loops — each lane runs its own event stream to
exhaustion, the shape GATSPI demonstrates for gate-level SIMT
throughput — written in portable C99 and built into a shared library
with the system C compiler (OpenMP-parallel when available, serial
otherwise).  The library is cached under ``~/.cache/repro`` keyed by a
digest of the source and compile flags, so compilation happens once per
machine.

The per-lane algorithm and IEEE-754 operation order are identical to
:func:`repro.simulation.kernels.waveform_merge_kernel`, so results are
bit-identical across backends.

:func:`load` raises on any build/load failure;
:mod:`repro.simulation.backend` gates on that and falls back.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

import numpy as np

__all__ = ["load", "merge_lanes", "delays_for_gates", "run_level",
           "run_levels"]

INF = np.float64(np.inf)

#: Hard bound on gate arity in the C kernels (padded truth tables are
#: uint32, so real circuits stay at <= 5 pins).
MAX_PINS = 16

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define MAX_PINS 16

/* Per-lane waveform merge; lane-oriented layout:
 *   times   (k, L, cin)  delays (k, 2, L)  out_times (L, cout)
 * out_times must be pre-filled with +inf by the caller. */
void merge_lanes(const double *times, const uint8_t *initial,
                 const double *delays, const int64_t *tables,
                 int64_t k, int64_t L, int64_t cin, int64_t cout,
                 int32_t inertial,
                 uint8_t *out_initial, double *out_times,
                 int64_t *out_counts, uint8_t *out_overflow,
                 int64_t *out_iterations)
{
    int64_t iterations = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 64) reduction(+:iterations)
#endif
    for (int64_t lane = 0; lane < L; lane++) {
        int64_t pointers[MAX_PINS];
        int64_t vals[MAX_PINS];
        double current[MAX_PINS];
        const int64_t table = tables[lane];
        int64_t index = 0;
        for (int64_t pin = 0; pin < k; pin++) {
            pointers[pin] = 0;
            vals[pin] = initial[pin * L + lane];
            index |= vals[pin] << pin;
        }
        int64_t last_target = (table >> index) & 1;
        out_initial[lane] = (uint8_t)last_target;
        double *out = out_times + lane * cout;
        int64_t depth = 0;
        uint8_t overflow = 0;
        for (;;) {
            double now = INFINITY;
            for (int64_t pin = 0; pin < k; pin++) {
                double t = pointers[pin] < cin
                    ? times[(pin * L + lane) * cin + pointers[pin]]
                    : INFINITY;
                current[pin] = t;
                if (t < now) now = t;
            }
            if (!(now < INFINITY)) break;
            iterations++;
            int64_t causing = -1;
            for (int64_t pin = 0; pin < k; pin++) {
                if (current[pin] == now) {
                    vals[pin] ^= 1;
                    pointers[pin]++;
                    if (causing < 0) causing = pin;
                }
            }
            index = 0;
            for (int64_t pin = 0; pin < k; pin++) index |= vals[pin] << pin;
            int64_t new_val = (table >> index) & 1;
            if (new_val == last_target) continue;
            double delay = delays[(causing * 2 + (1 - new_val)) * L + lane];
            double t_out = now + delay;
            double width = inertial ? delay : 0.0;
            if (depth > 0 && (t_out <= out[depth - 1]
                              || t_out - out[depth - 1] < width)) {
                depth--;
                out[depth] = INFINITY;
            } else if (depth >= cout) {
                overflow = 1;
            } else {
                out[depth++] = t_out;
            }
            last_target ^= 1;
        }
        out_counts[lane] = depth;
        out_overflow[lane] = overflow;
    }
    *out_iterations = iterations;
}

/* Online delay calculation (Sec. IV-A): nested 2-D Horner evaluation
 * with pre-normalized predictors.
 *   coeffs (G, P, 2, n1, n1) gathered per gate   nominal (G, P, 2)
 *   nv (V,) = phi_V per voltage   nc (G,) = phi_C per gate
 *   out (G, P, 2, V)
 * The scalar op order matches horner2d exactly, so
 * results are bit-identical to the numpy evaluator (normalization
 * happens in numpy on the caller side: the C library log2 may differ
 * from np.log2 in the last ulp). */
void delays_for_gates(const double *coeffs, const double *nv,
                      const double *nc, const double *nominal,
                      double min_delay,
                      int64_t G, int64_t P, int64_t V, int64_t n1,
                      double *out)
{
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (int64_t gate = 0; gate < G; gate++) {
        const double c = nc[gate];
        for (int64_t pin = 0; pin < P; pin++) {
            for (int64_t pol = 0; pol < 2; pol++) {
                const double *cc = coeffs
                    + (((gate * P + pin) * 2 + pol) * n1 * n1);
                const double d_nom = nominal[(gate * P + pin) * 2 + pol];
                double *row = out + (((gate * P + pin) * 2 + pol) * V);
                for (int64_t vi = 0; vi < V; vi++) {
                    const double v = nv[vi];
                    double result = 0.0;
                    for (int64_t i = n1 - 1; i >= 0; i--) {
                        double inner = 0.0;
                        for (int64_t j = n1 - 1; j >= 0; j--)
                            inner = inner * c + cc[i * n1 + j];
                        result = result * v + inner;
                    }
                    double adapted = d_nom * (1.0 + result);
                    row[vi] = adapted > min_delay ? adapted : min_delay;
                }
            }
        }
    }
}

/* Levels with fewer lanes than this run on the calling thread: below
 * it one fork/join costs more than the lanes it spreads.  Measured on 2
 * cores with whole GpuWaveSim.run calls (s38417 x0.05, 51 levels, and
 * b17 x0.1, 63 levels) over planes of 4..256 slots: serial wins up to
 * ~250 (s38417) / ~470 (b17) lanes per level -- 410 vs 600 us per run
 * on the 4-slot service job shape -- the team wins from ~500 / ~900. */
#define PARALLEL_MIN_LANES 512

/* Per-thread delay memo, direct-mapped by distinct-voltage index: a
 * gate's pin-to-pin delays depend on (gate, voltage) only, and a thread
 * walks runs of lanes that share both (slot planes are voltage-major;
 * interleaved planes alternate among a few supplies). */
#define MEMO_WAYS 8

typedef struct {
    int64_t gate;
    int64_t v;
    double pd[MAX_PINS * 2];
} delay_memo;

/* Whole-level dispatch: every arity group of a level in one call.
 *   in_ids (g, maxP)  out_ids/tables/arities/type_ids (g,)
 *   delays (g, maxP, 2, dV) pin-to-pin delays per distinct voltage
 *   parametric: delays holds the nominal delays (dV == 1) and the Horner
 *               deviation kernel is evaluated inside the merge loop,
 *               once per (gate, distinct voltage) per run of lanes a
 *               thread owns (see delay_memo; same arithmetic, same
 *               doubles as per-lane evaluation), so per-lane delay
 *               arrays are never materialized;
 *               coeffs (T, coeff_pins, 2, n1, n1) full table,
 *               nv (V,) phi_V per distinct voltage, nc (g,) phi_C
 *   table (parametric == 0): delays used as given, column
 *               slot_to_v[slot]; static nominal delays are dV == 1
 *   sparse: only the (lane_gates, lane_slots) lanes (length L) run
 * Gates are arity-sorted with unpadded truth tables; each lane loops
 * only its real pins, which is bit-equivalent to the padded dispatch
 * because spare pins read the constant-0 dummy net.
 * A dispatched lane writes its whole output row -- its toggles, then
 * +inf up to cap -- and its initial value, and never reads what the row
 * held before; rows of lanes that are not dispatched stay untouched. */
void run_level(double *times_all, uint8_t *initial_all,
               const int64_t *in_ids, const int64_t *out_ids,
               const int64_t *tables, const int64_t *arities,
               const int64_t *type_ids, const double *delays, int64_t dV,
               int32_t parametric, const double *coeffs,
               int64_t coeff_pins, int64_t n1,
               const double *nv, const double *nc, double min_delay,
               const int64_t *slot_to_v,
               const double *factors, int32_t has_factors,
               int64_t g, int64_t maxP, int64_t S, int64_t cap,
               int32_t inertial,
               int32_t sparse, const int64_t *lane_gates,
               const int64_t *lane_slots, int64_t L,
               int64_t *out_overflow, int64_t *out_iterations)
{
    int64_t iterations = 0;
    int64_t overflow_lanes = 0;
    const int64_t total = sparse ? L : g * S;
#ifdef _OPENMP
#pragma omp parallel if(total >= PARALLEL_MIN_LANES) \
    reduction(+:iterations) reduction(+:overflow_lanes)
#endif
    {
    delay_memo memo[MEMO_WAYS];
    for (int64_t way = 0; way < MEMO_WAYS; way++) memo[way].gate = -1;
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 64)
#endif
    for (int64_t lane = 0; lane < total; lane++) {
        const int64_t gate = sparse ? lane_gates[lane] : lane / S;
        const int64_t slot = sparse ? lane_slots[lane] : lane % S;
        const int64_t arity = arities[gate];
        const double factor = has_factors ? factors[gate * S + slot] : 1.0;
        /* pd[(pin * 2 + pol) * pd_stride] */
        const double *pd = delays + gate * maxP * 2 * dV;
        int64_t pd_stride = dV;
        if (parametric) {
            const int64_t vi = slot_to_v[slot];
            delay_memo *m = &memo[vi % MEMO_WAYS];
            if (m->gate != gate || m->v != vi) {
                const double v = nv[vi];
                const double c = nc[gate];
                for (int64_t pp = 0; pp < arity * 2; pp++) {
                    const double *cc = coeffs
                        + ((type_ids[gate] * coeff_pins * 2 + pp) * n1 * n1);
                    double result = 0.0;
                    for (int64_t i = n1 - 1; i >= 0; i--) {
                        double inner = 0.0;
                        for (int64_t j = n1 - 1; j >= 0; j--)
                            inner = inner * c + cc[i * n1 + j];
                        result = result * v + inner;
                    }
                    double adapted = pd[pp] * (1.0 + result);
                    m->pd[pp] = adapted > min_delay ? adapted : min_delay;
                }
                m->gate = gate;
                m->v = vi;
            }
            pd = m->pd;
            pd_stride = 1;
        } else if (dV > 1) {
            pd += slot_to_v[slot];
        }
        int64_t pointers[MAX_PINS];
        int64_t vals[MAX_PINS];
        double current[MAX_PINS];
        const double *in_rows[MAX_PINS];
        const int64_t table = tables[gate];
        int64_t index = 0;
        for (int64_t pin = 0; pin < arity; pin++) {
            const int64_t net = in_ids[gate * maxP + pin];
            in_rows[pin] = times_all + (net * S + slot) * cap;
            pointers[pin] = 0;
            vals[pin] = initial_all[net * S + slot];
            index |= vals[pin] << pin;
        }
        int64_t last_target = (table >> index) & 1;
        const int64_t out_net = out_ids[gate];
        initial_all[out_net * S + slot] = (uint8_t)last_target;
        double *out = times_all + (out_net * S + slot) * cap;
        int64_t depth = 0;
        int64_t overflow = 0;
        for (;;) {
            double now = INFINITY;
            for (int64_t pin = 0; pin < arity; pin++) {
                double t = pointers[pin] < cap
                    ? in_rows[pin][pointers[pin]] : INFINITY;
                current[pin] = t;
                if (t < now) now = t;
            }
            if (!(now < INFINITY)) break;
            iterations++;
            int64_t causing = -1;
            for (int64_t pin = 0; pin < arity; pin++) {
                if (current[pin] == now) {
                    vals[pin] ^= 1;
                    pointers[pin]++;
                    if (causing < 0) causing = pin;
                }
            }
            index = 0;
            for (int64_t pin = 0; pin < arity; pin++)
                index |= vals[pin] << pin;
            int64_t new_val = (table >> index) & 1;
            if (new_val == last_target) continue;
            double delay = pd[(causing * 2 + (1 - new_val)) * pd_stride];
            if (has_factors) delay = delay * factor;
            double t_out = now + delay;
            double width = inertial ? delay : 0.0;
            if (depth > 0 && (t_out <= out[depth - 1]
                              || t_out - out[depth - 1] < width)) {
                depth--;
            } else if (depth >= cap) {
                overflow = 1;
            } else {
                out[depth++] = t_out;
            }
            last_target ^= 1;
        }
        for (int64_t d = depth; d < cap; d++) out[d] = INFINITY;
        overflow_lanes += overflow;
    }
    }
    *out_overflow = overflow_lanes;
    *out_iterations = iterations;
}

/* Whole-batch dispatch: every level of the circuit in ONE library
 * call.  The plan arrays are the per-level arrays concatenated row-wise
 * (level_offsets bounds each level); each level runs the dense
 * run_level body, and levels stay strictly ordered because a level's
 * inputs are finalized by the preceding ones.  Stops after the first
 * level with overflowing lanes (the caller discards the arena and
 * retries at doubled capacity); out_levels_done / out_lanes report how
 * many non-empty levels dispatched and how many lanes ran, so the
 * caller's accounting matches the one-call-per-level path exactly. */
void run_levels(double *times_all, uint8_t *initial_all,
                const int64_t *in_ids, const int64_t *out_ids,
                const int64_t *tables, const int64_t *arities,
                const int64_t *type_ids, const double *delays, int64_t dV,
                int32_t parametric, const double *coeffs,
                int64_t coeff_pins, int64_t n1,
                const double *nv, const double *nc, double min_delay,
                const int64_t *slot_to_v,
                const double *factors, int32_t has_factors,
                const int64_t *level_offsets, int64_t num_levels,
                int64_t maxP, int64_t S, int64_t cap,
                int32_t inertial,
                int64_t *out_overflow, int64_t *out_iterations,
                int64_t *out_levels_done, int64_t *out_lanes)
{
    int64_t iterations_total = 0;
    int64_t lanes_total = 0;
    int64_t levels_done = 0;
    int64_t overflow_total = 0;
    for (int64_t level = 0; level < num_levels; level++) {
        const int64_t lo = level_offsets[level];
        const int64_t g = level_offsets[level + 1] - lo;
        if (g == 0) continue;
        int64_t overflow = 0;
        int64_t iterations = 0;
        run_level(times_all, initial_all,
                  in_ids + lo * maxP, out_ids + lo, tables + lo,
                  arities + lo, type_ids + lo, delays + lo * maxP * 2 * dV,
                  dV, parametric, coeffs, coeff_pins, n1,
                  nv, nc + (parametric ? lo : 0), min_delay, slot_to_v,
                  factors + (has_factors ? lo * S : 0), has_factors,
                  g, maxP, S, cap, inertial,
                  0, level_offsets, level_offsets, 0,
                  &overflow, &iterations);
        iterations_total += iterations;
        lanes_total += g * S;
        levels_done++;
        if (overflow) {
            overflow_total = overflow;
            break;
        }
    }
    *out_overflow = overflow_total;
    *out_iterations = iterations_total;
    *out_levels_done = levels_done;
    *out_lanes = lanes_total;
}
"""

_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99"]

_lib: Optional[ctypes.CDLL] = None


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "repro")
    try:
        os.makedirs(path, exist_ok=True)
        return path
    except OSError:
        return tempfile.gettempdir()


def _compiler() -> str:
    return os.environ.get("CC", "cc")


def _build() -> str:
    """Compile the kernel library (once per source digest) and return its
    path."""
    compiler = _compiler()
    digest = hashlib.sha256(
        ("\x00".join([_SOURCE, compiler] + _CFLAGS)).encode("utf-8")
    ).hexdigest()[:16]
    lib_path = os.path.join(_cache_dir(), f"repro_kernels_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    with tempfile.TemporaryDirectory() as workdir:
        source_path = os.path.join(workdir, "kernels.c")
        with open(source_path, "w", encoding="utf-8") as stream:
            stream.write(_SOURCE)
        build_path = os.path.join(workdir, "kernels.so")
        # Try OpenMP first; fall back to a serial build.
        for extra in (["-fopenmp"], []):
            command = [compiler, *_CFLAGS, *extra, source_path,
                       "-o", build_path, "-lm"]
            proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode == 0:
                break
        else:
            raise RuntimeError(
                f"C kernel build failed with {compiler}: {proc.stderr.strip()}"
            )
        os.replace(build_path, lib_path)
    return lib_path


_i64 = ctypes.c_int64
_i32 = ctypes.c_int32
_p_f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_p_u8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_p_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


def load():
    """Build (if needed) and load the C kernel library; returns this
    module, which then satisfies the backend kernel API."""
    global _lib
    if _lib is None:
        lib = ctypes.CDLL(_build())
        lib.merge_lanes.argtypes = [
            _p_f64, _p_u8, _p_f64, _p_i64,
            _i64, _i64, _i64, _i64, _i32,
            _p_u8, _p_f64, _p_i64, _p_u8,
            ctypes.POINTER(_i64),
        ]
        lib.merge_lanes.restype = None
        lib.delays_for_gates.argtypes = [
            _p_f64, _p_f64, _p_f64, _p_f64, ctypes.c_double,
            _i64, _i64, _i64, _i64,
            _p_f64,
        ]
        lib.delays_for_gates.restype = None
        lib.run_level.argtypes = [
            _p_f64, _p_u8,
            _p_i64, _p_i64, _p_i64, _p_i64, _p_i64, _p_f64, _i64,
            _i32, _p_f64, _i64, _i64,
            _p_f64, _p_f64, ctypes.c_double,
            _p_i64,
            _p_f64, _i32,
            _i64, _i64, _i64, _i64, _i32,
            _i32, _p_i64, _p_i64, _i64,
            ctypes.POINTER(_i64), ctypes.POINTER(_i64),
        ]
        lib.run_level.restype = None
        lib.run_levels.argtypes = [
            _p_f64, _p_u8,
            _p_i64, _p_i64, _p_i64, _p_i64, _p_i64, _p_f64, _i64,
            _i32, _p_f64, _i64, _i64,
            _p_f64, _p_f64, ctypes.c_double,
            _p_i64,
            _p_f64, _i32,
            _p_i64, _i64,
            _i64, _i64, _i64, _i32,
            ctypes.POINTER(_i64), ctypes.POINTER(_i64),
            ctypes.POINTER(_i64), ctypes.POINTER(_i64),
        ]
        lib.run_levels.restype = None
        _lib = lib
    import sys
    return sys.modules[__name__]


def merge_lanes(input_times, input_initial, delays, tables, out_capacity,
                inertial):
    """Lane-oriented merge (see ``waveform_merge_kernel`` for the contract)."""
    k, num_lanes, _ = input_times.shape
    if k > MAX_PINS:
        raise ValueError(f"cext backend supports at most {MAX_PINS} pins")
    times = np.ascontiguousarray(input_times, dtype=np.float64)
    initial = np.ascontiguousarray(input_initial, dtype=np.uint8)
    lane_delays = np.ascontiguousarray(delays, dtype=np.float64)
    lane_tables = np.ascontiguousarray(tables, dtype=np.int64)
    out_initial = np.empty(num_lanes, dtype=np.uint8)
    out_times = np.full((num_lanes, out_capacity), INF, dtype=np.float64)
    counts = np.zeros(num_lanes, dtype=np.int64)
    overflow = np.zeros(num_lanes, dtype=np.uint8)
    iterations = _i64(0)
    _lib.merge_lanes(
        times, initial, lane_delays, lane_tables,
        k, num_lanes, times.shape[2], out_capacity, int(bool(inertial)),
        out_initial, out_times, counts, overflow, ctypes.byref(iterations),
    )
    return out_initial, out_times, counts, overflow.astype(bool), \
        iterations.value


def delays_for_gates(kernel_table, type_ids, loads, nominal_delays, voltages):
    """Native batch delay kernel; drop-in for
    :meth:`repro.core.delay_kernel.DelayKernelTable.delays_for_gates`.

    Predictor normalization stays in numpy (C ``log2`` can differ from
    ``np.log2`` in the last ulp); the Horner sweep runs in C.
    """
    from repro.core.delay_kernel import MIN_DELAY
    from repro.errors import CharacterizationError

    type_ids = np.ascontiguousarray(type_ids, dtype=np.int64)
    nominal = np.ascontiguousarray(nominal_delays, dtype=np.float64)
    pins = nominal.shape[1]
    if pins > kernel_table.max_pins:
        raise CharacterizationError(
            f"gates have {pins} pins but the kernel table holds "
            f"{kernel_table.max_pins}"
        )
    nv = np.ascontiguousarray(
        np.atleast_1d(kernel_table.space.normalize_voltage(
            np.asarray(voltages, dtype=np.float64))),
        dtype=np.float64)
    nc = np.ascontiguousarray(
        np.atleast_1d(kernel_table.space.normalize_load(
            np.asarray(loads, dtype=np.float64))),
        dtype=np.float64)
    coeffs = np.ascontiguousarray(
        kernel_table.coefficients[type_ids][:, :pins], dtype=np.float64)
    num_gates = type_ids.size
    n1 = coeffs.shape[-1]
    out = np.empty((num_gates, pins, 2, nv.size), dtype=np.float64)
    _lib.delays_for_gates(
        coeffs, nv, nc, nominal, MIN_DELAY,
        num_gates, pins, nv.size, n1, out,
    )
    return out


def _delay_args(delays, coeffs, nv, nc, slot_to_v, factors):
    """The delay-source argument run shared by ``run_level`` and
    ``run_levels``: ``delays`` is the ``(g, P, 2, V)`` pin-to-pin table
    (the nominal delays with ``V == 1`` when ``coeffs`` — the full
    kernel-table coefficient array — selects in-kernel Horner
    evaluation over ``nv`` / ``nc``)."""
    from repro.core.delay_kernel import MIN_DELAY

    delays = np.ascontiguousarray(delays, dtype=np.float64)
    max_pins, columns = delays.shape[1], delays.shape[3]
    if max_pins > MAX_PINS:
        raise ValueError(f"cext backend supports at most {MAX_PINS} pins")
    slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)
    parametric = coeffs is not None
    if parametric:
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        nv = np.ascontiguousarray(nv, dtype=np.float64)
        nc = np.ascontiguousarray(nc, dtype=np.float64)
        if coeffs.shape[1] < max_pins or columns != 1:
            raise ValueError("coefficient table narrower than the gates")
    else:
        coeffs = np.zeros((1, 1, 2, 1, 1), dtype=np.float64)
        nv = nc = np.zeros(1, dtype=np.float64)
        # One column is read whatever the slot says; a wider table is
        # indexed by slot_to_v in the kernel.
        if columns > 1 and slot_to_v.size and not (
                0 <= slot_to_v.min() and slot_to_v.max() < columns):
            raise ValueError("slot_to_v indexes a missing delay column")
    has_factors = factors is not None
    factors = (np.ascontiguousarray(factors, dtype=np.float64)
               if has_factors else np.zeros((1, 1), dtype=np.float64))
    return (delays, columns,
            int(parametric), coeffs, coeffs.shape[1], coeffs.shape[-1],
            nv, nc, MIN_DELAY, slot_to_v, factors, int(has_factors))


def run_level(times_all, initial_all, in_ids, out_ids, tables, arities,
              type_ids, delays, coeffs, nv, nc, slot_to_v, factors,
              capacity, inertial, lane_gates, lane_slots):
    """Whole-level dispatch (see ``ComputeBackend.run_level``).

    ``delays`` / ``coeffs`` as in :func:`_delay_args`;
    ``lane_gates``/``lane_slots`` select the sparse path when given.
    Returns ``(overflow_lanes, iterations)``.
    """
    group_size, max_pins = in_ids.shape
    sparse = lane_gates is not None
    if sparse:
        lane_gates = np.ascontiguousarray(lane_gates, dtype=np.int64)
        lane_slots = np.ascontiguousarray(lane_slots, dtype=np.int64)
        num_lanes = lane_gates.size
    else:
        lane_gates = lane_slots = np.zeros(1, dtype=np.int64)
        num_lanes = 0
    overflow = _i64(0)
    iterations = _i64(0)
    _lib.run_level(
        times_all, initial_all,
        np.ascontiguousarray(in_ids, dtype=np.int64),
        np.ascontiguousarray(out_ids, dtype=np.int64),
        np.ascontiguousarray(tables, dtype=np.int64),
        np.ascontiguousarray(arities, dtype=np.int64),
        np.ascontiguousarray(type_ids, dtype=np.int64),
        *_delay_args(delays, coeffs, nv, nc, slot_to_v, factors),
        group_size, max_pins, slot_to_v.size, capacity,
        int(bool(inertial)),
        int(sparse), lane_gates, lane_slots, num_lanes,
        ctypes.byref(overflow), ctypes.byref(iterations),
    )
    return overflow.value, iterations.value


def run_levels(times_all, initial_all, cat, delays, coeffs, nv, nc,
               slot_to_v, factors, capacity, inertial):
    """Whole-batch dispatch: every level in one library call.

    ``cat`` is a :class:`repro.simulation.compiled.ConcatPlans`;
    ``delays`` (see :func:`_delay_args`) and ``factors`` (if given) are
    in concatenated plan-row order.  Returns ``(overflow_lanes,
    iterations, levels_done, lanes)``.
    """
    overflow = _i64(0)
    iterations = _i64(0)
    levels_done = _i64(0)
    lanes = _i64(0)
    _lib.run_levels(
        times_all, initial_all,
        cat.in_ids, cat.out_ids, cat.tables, cat.arities, cat.type_ids,
        *_delay_args(delays, coeffs, nv, nc, slot_to_v, factors),
        cat.level_offsets, cat.num_levels,
        cat.in_ids.shape[1], slot_to_v.size, capacity,
        int(bool(inertial)),
        ctypes.byref(overflow), ctypes.byref(iterations),
        ctypes.byref(levels_done), ctypes.byref(lanes),
    )
    return overflow.value, iterations.value, levels_done.value, lanes.value
