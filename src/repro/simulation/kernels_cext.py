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

__all__ = ["load", "merge_lanes", "delays_for_gates", "run_levels",
           "extract", "extract_columns", "settle"]

#: Hard bound on gate arity in the C kernels (padded truth tables are
#: uint32, so real circuits stay at <= 5 pins).
MAX_PINS = 16

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define MAX_PINS 16

/* The lane body must be inlined at every call site: its arity argument
 * is a literal there, and only after inlining do the pin loops unroll
 * and the per-pin state live in registers. */
#if defined(__GNUC__)
#define LANE_INLINE static inline __attribute__((always_inline))
#else
#define LANE_INLINE static inline
#endif

/* One lane's event loop -- the only one in this file.
 *   rows[pin]  the pin's toggle times, cin entries, +inf-terminated
 *   index      the input values at t = 0 (bit pin = value of pin)
 *   pd[(pin * 2 + pol) * pd_stride]  pin-to-pin delays of this lane
 *   out        the output row, cout entries
 * K is the arity: a compile-time constant 1..4 at the specialised call
 * sites, the runtime arity at the generic one.  Each pin's head time
 * stays in a register and is reloaded only when that pin advances.
 * The row is written whole -- the surviving toggles, then +inf up to
 * cout -- and nothing it held before is read.  Returns the number of
 * surviving toggles; *overflow is set if one did not fit. */
LANE_INLINE int64_t merge_lane(const int64_t K, const double *const *rows,
                               int64_t cin, int64_t index, int64_t table,
                               const double *pd, int64_t pd_stride,
                               int32_t has_factor, double factor,
                               int32_t inertial, double *out, int64_t cout,
                               int64_t *overflow, int64_t *iterations)
{
    double head[MAX_PINS];
    int64_t next[MAX_PINS];
    for (int64_t pin = 0; pin < K; pin++) {
        next[pin] = 0;
        head[pin] = cin > 0 ? rows[pin][0] : INFINITY;
    }
    int64_t last_target = (table >> index) & 1;
    int64_t depth = 0;
    int64_t events = 0;
    for (;;) {
        double now = INFINITY;
        for (int64_t pin = 0; pin < K; pin++)
            if (head[pin] < now) now = head[pin];
        if (!(now < INFINITY)) break;
        events++;
        int64_t causing = -1;
        for (int64_t pin = 0; pin < K; pin++) {
            if (head[pin] == now) {
                index ^= (int64_t)1 << pin;
                next[pin]++;
                head[pin] = next[pin] < cin ? rows[pin][next[pin]] : INFINITY;
                if (causing < 0) causing = pin;
            }
        }
        int64_t new_val = (table >> index) & 1;
        if (new_val == last_target) continue;
        double delay = pd[(causing * 2 + (1 - new_val)) * pd_stride];
        if (has_factor) delay = delay * factor;
        double t_out = now + delay;
        double width = inertial ? delay : 0.0;
        if (depth > 0 && (t_out <= out[depth - 1]
                          || t_out - out[depth - 1] < width)) {
            depth--;
        } else if (depth >= cout) {
            *overflow = 1;
        } else {
            out[depth++] = t_out;
        }
        last_target ^= 1;
    }
    for (int64_t d = depth; d < cout; d++) out[d] = INFINITY;
    *iterations += events;
    return depth;
}

/* Per-lane waveform merge; lane-oriented layout:
 *   times   (k, L, cin)  delays (k, 2, L)  out_times (L, cout)
 * Every out_times row is written whole. */
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
        const double *rows[MAX_PINS];
        const int64_t table = tables[lane];
        int64_t index = 0;
        for (int64_t pin = 0; pin < k; pin++) {
            rows[pin] = times + (pin * L + lane) * cin;
            index |= (int64_t)initial[pin * L + lane] << pin;
        }
        out_initial[lane] = (uint8_t)((table >> index) & 1);
        int64_t overflow = 0;
#define LANE(K) merge_lane(K, rows, cin, index, table, delays + lane, L, \
                           0, 1.0, inertial, out_times + lane * cout, cout, \
                           &overflow, &iterations)
        switch (k) {
        case 1: out_counts[lane] = LANE(1); break;
        case 2: out_counts[lane] = LANE(2); break;
        case 3: out_counts[lane] = LANE(3); break;
        case 4: out_counts[lane] = LANE(4); break;
        default: out_counts[lane] = LANE(k);
        }
#undef LANE
        out_overflow[lane] = (uint8_t)overflow;
    }
    *out_iterations = iterations;
}

/* Nested 2-D Horner evaluation of one delay-deviation polynomial with
 * pre-normalized predictors, clamped to min_delay.  The scalar op order
 * matches horner2d exactly, so results are bit-identical to the numpy
 * evaluator (normalization happens in numpy on the caller side: the C
 * library log2 may differ from np.log2 in the last ulp). */
static inline double adapted_delay(const double *cc, int64_t n1, double v,
                                   double c, double d_nom, double min_delay)
{
    double result = 0.0;
    for (int64_t i = n1 - 1; i >= 0; i--) {
        double inner = 0.0;
        for (int64_t j = n1 - 1; j >= 0; j--)
            inner = inner * c + cc[i * n1 + j];
        result = result * v + inner;
    }
    double adapted = d_nom * (1.0 + result);
    return adapted > min_delay ? adapted : min_delay;
}

/* Online delay calculation (Sec. IV-A):
 *   coeffs (G, P, 2, n1, n1) gathered per gate   nominal (G, P, 2)
 *   nv (V,) = phi_V per voltage   nc (G,) = phi_C per gate
 *   out (G, P, 2, V) */
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
        for (int64_t pp = 0; pp < P * 2; pp++) {
            const double *cc = coeffs + (gate * P * 2 + pp) * n1 * n1;
            double *row = out + (gate * P * 2 + pp) * V;
            for (int64_t vi = 0; vi < V; vi++)
                row[vi] = adapted_delay(cc, n1, nv[vi], nc[gate],
                                        nominal[gate * P * 2 + pp],
                                        min_delay);
        }
    }
}

/* Levels with fewer lanes than this run on the calling thread: below
 * it one fork/join costs more than the lanes it spreads.  Measured on 2
 * cores with whole GpuWaveSim.run calls (s38417 x0.05, 51 levels of ~15
 * gates, and b17 x0.1, 63 levels of ~60) over planes of 4..256 slots,
 * the library rebuilt at thresholds 0 / 64 / 128 / 256 / 512 / never.
 * With the team's threads spinning between levels, 64..128 is best on
 * every plane and 512 gives away 10-16 % at 8-16 slots on s38417 (606
 * vs 550 us, 798 vs 671 us per run) and 13 % on the 4-slot b17 plane
 * (1285 vs 1118 us); never forking loses from 8 slots up.  But on the
 * same (virtualised) box about two processes in three run in a second
 * regime where a fork that follows serial levels costs ~10 ms -- a
 * 16-slot plane of 27 small levels, 5 of them over 128 lanes, takes
 * 56 ms instead of 0.6 ms; GOMP_SPINCOUNT=1000 makes it go away -- so
 * the threshold stays where planes that small never fork at all. */
#define PARALLEL_MIN_LANES 512

/* The unit the level's lanes are handed out in: one division per chunk
 * finds its first (gate, slot), the rest is a walk.  The schedule is
 * guided -- runs of chunks that shrink towards the end of the level --
 * because a settled lane costs a few ns and one grab per 64 of them
 * would be most of the walk. */
#define CHUNK_LANES 64

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

/* Slots [slot, stop) of one gate: the per-lane half of the level walk.
 * Everything that depends on the gate alone arrives as an argument;
 * net[pin] is the pin's net id times S, so net[pin] + slot indexes the
 * (nets, S) planes and, times cap, the arena. */
LANE_INLINE void gate_lanes(const int64_t K, double *times_all,
                            uint8_t *initial_all, uint8_t *mask,
                            const int64_t *net,
                            int64_t out_net, int64_t table,
                            const double *delays, int64_t dV,
                            int64_t gate, const double *cc, int64_t n1,
                            const double *nv, double c, double min_delay,
                            delay_memo *memo, const int64_t *slot_to_v,
                            const double *factors,
                            int64_t slot, int64_t stop, int64_t cap,
                            int32_t inertial, uint8_t *overflow_slots,
                            int64_t *dispatched, int64_t *overflow_lanes,
                            int64_t *iterations)
{
    for (; slot < stop; slot++) {
        int64_t index = 0;
        uint8_t active = mask == NULL;
        for (int64_t pin = 0; pin < K; pin++) {
            index |= (int64_t)initial_all[net[pin] + slot] << pin;
            if (mask != NULL) active |= mask[net[pin] + slot];
        }
        double *out = times_all + (out_net + slot) * cap;
        initial_all[out_net + slot] = (uint8_t)((table >> index) & 1);
        if (!active) {
            /* Settled above; the row is terminated and stays quiet. */
            for (int64_t d = 0; d < cap; d++) out[d] = INFINITY;
            mask[out_net + slot] = 0;
            continue;
        }
        /* pd[(pin * 2 + pol) * pd_stride] */
        const double *pd = delays;
        int64_t pd_stride = dV;
        if (cc != NULL) {
            const int64_t vi = slot_to_v[slot];
            delay_memo *m = &memo[vi % MEMO_WAYS];
            if (m->gate != gate || m->v != vi) {
                for (int64_t pp = 0; pp < K * 2; pp++)
                    m->pd[pp] = adapted_delay(cc + pp * n1 * n1, n1, nv[vi],
                                              c, delays[pp], min_delay);
                m->gate = gate;
                m->v = vi;
            }
            pd = m->pd;
            pd_stride = 1;
        } else if (dV > 1) {
            pd += slot_to_v[slot];
        }
        const double *rows[MAX_PINS];
        for (int64_t pin = 0; pin < K; pin++)
            rows[pin] = times_all + (net[pin] + slot) * cap;
        int64_t overflow = 0;
        int64_t depth = merge_lane(
            K, rows, cap, index, table, pd, pd_stride,
            factors != NULL, factors != NULL ? factors[slot] : 1.0,
            inertial, out, cap, &overflow, iterations);
        if (overflow) {
            /* The slot is flagged (every writer stores the same 1) and
             * the row goes quiet, so the lanes downstream of it walk a
             * well-formed arena and settle exactly as the reference's
             * do; the caller re-runs the slot and reads none of it. */
            for (int64_t d = 0; d < cap; d++) out[d] = INFINITY;
            depth = 0;
#ifdef _OPENMP
#pragma omp atomic write
#endif
            overflow_slots[slot] = 1;
        }
        if (mask != NULL) mask[out_net + slot] = depth > 0;
        *dispatched += 1;
        *overflow_lanes += overflow;
    }
}

/* Whole-batch dispatch: every level of the circuit in ONE library call.
 * The plan arrays are the per-level arrays concatenated row-wise
 * (level_offsets bounds each level), gates arity-sorted inside a level
 * with unpadded truth tables -- a lane loops only its real pins, which
 * is bit-equivalent to the padded dispatch because spare pins read the
 * constant-0 dummy net.  Levels stay strictly ordered because a level's
 * inputs are finalized by the preceding ones.
 *   in_ids (G, maxP)  out_ids/tables/arities/type_ids (G,)
 *   delays (G, maxP, 2, dV) pin-to-pin delays per distinct voltage
 *   parametric: delays holds the nominal delays (dV == 1) and the Horner
 *               deviation kernel is evaluated inside the walk, once per
 *               (gate, distinct voltage) per run of lanes a thread owns
 *               (see delay_memo; same arithmetic, same doubles as
 *               per-lane evaluation), so per-lane delay arrays are
 *               never materialized;
 *               coeffs (T, coeff_pins, 2, n1, n1) full table,
 *               nv (V,) phi_V per distinct voltage, nc (G,) phi_C
 *   table (parametric == 0): delays used as given, column
 *               slot_to_v[slot]; static nominal delays are dV == 1
 *   mask (nets, S) or NULL: a lane is dispatched iff one of its input
 *               nets is set in its slot; a skipped lane only gets its
 *               settled initial value.  The mask follows the waveforms
 *               -- a dispatched lane sets its output net iff it kept a
 *               toggle, a skipped lane clears it and writes an all-+inf
 *               row, so a masked walk writes every gate-output row.
 * A level is walked gate-major in chunks of CHUNK_LANES lanes: what
 * depends on the gate alone is loaded when the walk crosses a gate, and
 * the lanes run through the arity-specialised body.  A dispatched lane
 * writes its whole output row and its initial value, and never reads
 * what the row held before.
 * A lane whose toggles do not fit its row sets overflow_slots[slot]
 * ((S,), zeroed or pre-flagged by the caller), leaves an all-+inf row
 * behind its settled initial value (and a cleared mask byte)
 * and the walk goes on: slots are independent simulations, so every
 * column that is not flagged is the answer, and the caller re-runs the
 * flagged ones at a larger capacity.  out_lanes / out_skipped count the
 * dispatched and masked-out lanes, out_calls the levels that dispatched
 * at least one lane: all three are functions of the mask alone (which a
 * quiet row feeds like any other). */
void run_levels(double *times_all, uint8_t *initial_all,
                const int64_t *in_ids, const int64_t *out_ids,
                const int64_t *tables, const int64_t *arities,
                const int64_t *type_ids, const double *delays, int64_t dV,
                int32_t parametric, const double *coeffs,
                int64_t coeff_pins, int64_t n1,
                const double *nv, const double *nc, double min_delay,
                const int64_t *slot_to_v,
                const double *factors, int32_t has_factors,
                uint8_t *mask, int32_t has_mask,
                uint8_t *overflow_slots,
                const int64_t *level_offsets, int64_t num_levels,
                int64_t maxP, int64_t S, int64_t cap,
                int32_t inertial,
                int64_t *out_overflow, int64_t *out_iterations,
                int64_t *out_calls, int64_t *out_lanes,
                int64_t *out_skipped)
{
    int64_t iterations = 0;
    int64_t overflow_lanes = 0;
    int64_t lanes = 0;
    int64_t skipped = 0;
    int64_t calls = 0;
    if (!has_mask) mask = NULL;
    if (!has_factors) factors = NULL;
    if (!parametric) coeffs = NULL;
    for (int64_t level = 0; level < num_levels; level++) {
        const int64_t lo = level_offsets[level];
        const int64_t total = (level_offsets[level + 1] - lo) * S;
        const int64_t chunks = (total + CHUNK_LANES - 1) / CHUNK_LANES;
        int64_t dispatched = 0;
#ifdef _OPENMP
#pragma omp parallel if(total >= PARALLEL_MIN_LANES) \
    reduction(+:iterations) reduction(+:overflow_lanes) \
    reduction(+:dispatched)
#endif
        {
        delay_memo memo[MEMO_WAYS];
        for (int64_t way = 0; way < MEMO_WAYS; way++) memo[way].gate = -1;
#ifdef _OPENMP
#pragma omp for schedule(guided)
#endif
        for (int64_t chunk = 0; chunk < chunks; chunk++) {
            int64_t lane = chunk * CHUNK_LANES;
            const int64_t end = lane + CHUNK_LANES < total
                ? lane + CHUNK_LANES : total;
            int64_t gate = lo + lane / S;
            int64_t slot = lane % S;
            while (lane < end) {
                const int64_t stop = end - lane < S - slot
                    ? slot + (end - lane) : S;
                const int64_t arity = arities[gate];
                int64_t net[MAX_PINS];
                for (int64_t pin = 0; pin < arity; pin++)
                    net[pin] = in_ids[gate * maxP + pin] * S;
#define GATE(K) gate_lanes( \
    K, times_all, initial_all, mask, net, out_ids[gate] * S, \
    tables[gate], delays + gate * maxP * 2 * dV, dV, gate, \
    coeffs != NULL ? coeffs + type_ids[gate] * coeff_pins * 2 * n1 * n1 \
                   : NULL, \
    n1, nv, coeffs != NULL ? nc[gate] : 0.0, min_delay, memo, slot_to_v, \
    factors != NULL ? factors + gate * S : NULL, slot, stop, cap, \
    inertial, overflow_slots, &dispatched, &overflow_lanes, &iterations)
                switch (arity) {
                case 1: GATE(1); break;
                case 2: GATE(2); break;
                case 3: GATE(3); break;
                case 4: GATE(4); break;
                default: GATE(arity);
                }
#undef GATE
                lane += stop - slot;
                slot = 0;
                gate++;
            }
        }
        }
        lanes += dispatched;
        skipped += total - dispatched;
        calls += dispatched > 0;
    }
    *out_overflow = overflow_lanes;
    *out_iterations = iterations;
    *out_calls = calls;
    *out_lanes = lanes;
    *out_skipped = skipped;
}

/* The unpack below forks only for planes of at least this many
 * (net, slot) rows.  It is not PARALLEL_MIN_LANES: a row costs 15-25 ns
 * to unpack where a lane costs 36+ to merge, and the unpack comes after
 * the walk's last levels, with the team as often asleep as spinning.
 * On the 2-core box (914-net arena, capacity 16, calls 5 ms apart) a
 * forked unpack of 3.6 / 15.5 / 33 / 270 thousand rows takes 155 / 360-
 * 540 / 570 / 3700 us against 100 / 555 / 1000 / 7500 us serial -- even
 * near 8 thousand rows -- and in every process some forks (0.3-4 % of
 * them up to 33 thousand rows, a quarter in a tight loop over 913)
 * take 16 ms, the regime described above.  A service batch's all-net
 * capture (15 thousand rows) and a closed-loop step (33 thousand) stay
 * serial; a 1024-slot sweep (110 thousand) forks and halves its 3 ms. */
#define PARALLEL_MIN_ROWS 65536

/* A row's toggle count is its leading finite run: the walk writes every
 * row whole (toggles, then +inf up to cap), so that is every finite
 * entry, and nothing past the terminator is read. */
static inline int64_t row_count(const double *row, int64_t cap)
{
    int64_t count = 0;
    while (count < cap && isfinite(row[count])) count++;
    return count;
}

/* Waveform unpack (Fig. 2 step 4): copy arena rows out as packed
 * planes, one per slot segment, in two calls around the caller's
 * payload allocation.
 *   times_all (nets, S, cap)   initial_all (nets, S)
 *   rows (W,) the wanted arena net rows, or NULL for rows 0..W-1
 *   bounds (G + 1,) ascending slot bounds; segment g is the slots
 *          [bounds[g], bounds[g + 1]), n_g of them
 * Everything comes out segment-major: segment g's (W, n_g) block of
 * initial / counts / starts begins at W * (bounds[g] - bounds[0]), its
 * payload at offsets[g], and inside a segment the order is (net, slot)
 * -- so each segment's slices are a packed plane as they stand.
 *
 * extract_counts: initial values, counts, segment-relative starts (the
 * prefix sums of the counts, restarting in every segment) and the
 * payload bounds offsets (G + 1,); offsets[G] doubles hold the toggles.
 * Returns -1, having read and written nothing, if a row is not one of
 * the arena's nets rows. */
int64_t extract_counts(const double *times_all, const uint8_t *initial_all,
                       int64_t nets, const int64_t *rows, int64_t W,
                       const int64_t *bounds, int64_t G,
                       int64_t S, int64_t cap,
                       uint8_t *initial, int64_t *counts, int64_t *starts,
                       int64_t *offsets)
{
    const int64_t first = bounds[0];
    if (rows == NULL && W > nets) return -1;
    for (int64_t w = 0; rows != NULL && w < W; w++)
        if (rows[w] < 0 || rows[w] >= nets) return -1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if(W * (bounds[G] - first) >= PARALLEL_MIN_ROWS)
#endif
    for (int64_t w = 0; w < W; w++) {
        const int64_t net = (rows != NULL ? rows[w] : w) * S;
        for (int64_t g = 0; g < G; g++) {
            const int64_t lo = bounds[g], n = bounds[g + 1] - lo;
            const int64_t block = W * (lo - first) + w * n - lo;
            for (int64_t slot = lo; slot < lo + n; slot++) {
                counts[block + slot] = row_count(
                    times_all + (net + slot) * cap, cap);
                initial[block + slot] = initial_all[net + slot];
            }
        }
    }
    int64_t position = 0, start = 0;
    for (int64_t g = 0; g < G; g++) {
        const int64_t lo = W * (bounds[g] - first);
        const int64_t hi = W * (bounds[g + 1] - first);
        offsets[g] = position;
        start = 0;
        for (int64_t i = lo; i < hi; i++) {
            starts[i] = start;
            start += counts[i];
        }
        position += start;
    }
    offsets[G] = position;
    return 0;
}

/* extract_copy: every row's toggles to times[offsets[g] + starts[..]],
 * the prefix sums of extract_counts as write offsets. */
void extract_copy(const double *times_all, const int64_t *rows, int64_t W,
                  const int64_t *bounds, int64_t G, int64_t S, int64_t cap,
                  const int64_t *counts, const int64_t *starts,
                  const int64_t *offsets, double *times)
{
    const int64_t first = bounds[0];
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if(W * (bounds[G] - first) >= PARALLEL_MIN_ROWS)
#endif
    for (int64_t w = 0; w < W; w++) {
        const int64_t net = (rows != NULL ? rows[w] : w) * S;
        for (int64_t g = 0; g < G; g++) {
            const int64_t lo = bounds[g], n = bounds[g + 1] - lo;
            const int64_t block = W * (lo - first) + w * n - lo;
            for (int64_t slot = lo; slot < lo + n; slot++) {
                const double *row = times_all + (net + slot) * cap;
                double *out = times + offsets[g] + starts[block + slot];
                for (int64_t d = 0; d < counts[block + slot]; d++)
                    out[d] = row[d];
            }
        }
    }
}

/* The same unpack into a batch's answer written in place, one part at a
 * time: arena slot s lands in column cols[s] of the (W, S_out) planes
 * initial / counts / starts, and a slot with cols[s] < 0 is left out
 * (an overflowed slot whose re-run writes the column later).  Blocks
 * follow each other in (net, slot) order in this call's payload, which
 * begins at offset base of the answer's: starts are absolute.
 * extract_columns_counts writes initial values and counts, and the
 * (W + 1,) payload offset of each net's blocks to offsets; it returns
 * the payload size in doubles -- or -1, having written nothing, if a
 * row is not one of the arena's nets rows or a column is past S_out.
 * extract_columns_copy then writes starts and fills times (that many
 * doubles). */
int64_t extract_columns_counts(const double *times_all,
                               const uint8_t *initial_all, int64_t nets,
                               const int64_t *rows, int64_t W, int64_t S,
                               int64_t cap, const int64_t *cols,
                               int64_t S_out, uint8_t *initial,
                               int64_t *counts, int64_t *offsets)
{
    if (rows == NULL && W > nets) return -1;
    for (int64_t w = 0; rows != NULL && w < W; w++)
        if (rows[w] < 0 || rows[w] >= nets) return -1;
    for (int64_t slot = 0; slot < S; slot++)
        if (cols[slot] >= S_out) return -1;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if(W * S >= PARALLEL_MIN_ROWS)
#endif
    for (int64_t w = 0; w < W; w++) {
        const int64_t net = (rows != NULL ? rows[w] : w) * S;
        int64_t total = 0;
        for (int64_t slot = 0; slot < S; slot++) {
            if (cols[slot] < 0) continue;
            const int64_t d = w * S_out + cols[slot];
            counts[d] = row_count(times_all + (net + slot) * cap, cap);
            initial[d] = initial_all[net + slot];
            total += counts[d];
        }
        offsets[w + 1] = total;
    }
    offsets[0] = 0;
    for (int64_t w = 0; w < W; w++) offsets[w + 1] += offsets[w];
    return offsets[W];
}

void extract_columns_copy(const double *times_all, const int64_t *rows,
                          int64_t W, int64_t S, int64_t cap,
                          const int64_t *cols, int64_t S_out,
                          const int64_t *counts, const int64_t *offsets,
                          int64_t base, int64_t *starts, double *times)
{
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if(W * S >= PARALLEL_MIN_ROWS)
#endif
    for (int64_t w = 0; w < W; w++) {
        const int64_t net = (rows != NULL ? rows[w] : w) * S;
        int64_t position = offsets[w];
        for (int64_t slot = 0; slot < S; slot++) {
            if (cols[slot] < 0) continue;
            const int64_t d = w * S_out + cols[slot];
            const double *row = times_all + (net + slot) * cap;
            starts[d] = base + position;
            for (int64_t e = 0; e < counts[d]; e++) times[position + e] = row[e];
            position += counts[d];
        }
    }
}

/* One gate of the bit-sliced settle: the truth table as a multiplexer
 * tree over the pins' words, pin 0 at the leaves -- 2^K - 1 selects per
 * word, no branch.  K is a literal at the specialised call sites, so the
 * tree unrolls; a truth table is an int64, so K <= 6. */
LANE_INLINE void settle_gate(const int64_t K, int64_t table,
                             const uint64_t *const *in, uint64_t *out,
                             int64_t words)
{
    uint64_t leaf[64];
    for (int64_t m = 0; m < ((int64_t)1 << K); m++)
        leaf[m] = (table >> m) & 1 ? ~(uint64_t)0 : 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t node[64];
        int64_t n = (int64_t)1 << K;
        for (int64_t m = 0; m < n; m++) node[m] = leaf[m];
        for (int64_t pin = 0; pin < K; pin++) {
            const uint64_t x = in[pin][w];
            n /= 2;
            for (int64_t j = 0; j < n; j++)
                node[j] = node[2 * j] ^ (x & (node[2 * j] ^ node[2 * j + 1]));
        }
        out[w] = node[0];
    }
}

/* Bit-sliced settle of toggle-free input vectors (a batch's quiet
 * slots): with no toggle every merge degenerates to its truth-table
 * lookup, so a net's settled value is what a walk writes as its initial
 * value.  64 vectors share a uint64 word, each net owns a row of words,
 * and the gates are walked once in concatenated plan order -- no arena,
 * no mask, no delays.
 *   v1 (P, n_in) launch values per pattern; patterns (U,) the patterns
 *      to settle, vector u in bit u % 64 of word u / 64
 *   in_ids / out_ids / tables / arities (G, ...) as in run_levels, over
 *      nets word rows (the dummy net's stays 0)
 *   out (W, S_out): out[w * S_out + cols[k]] is net rows[w]'s (rows
 *      NULL: net w's) bit of vector vectors[k], for k < n
 * Returns -1, having written nothing to out, if a row is out of range or
 * the word plane cannot be allocated. */
int64_t settle_vectors(const uint8_t *v1, int64_t n_in,
                       const int64_t *patterns, int64_t U,
                       const int64_t *in_ids, const int64_t *out_ids,
                       const int64_t *tables, const int64_t *arities,
                       int64_t G, int64_t maxP, int64_t nets,
                       const int64_t *rows, int64_t W,
                       const int64_t *vectors, const int64_t *cols,
                       int64_t n, uint8_t *out, int64_t S_out)
{
    if (rows == NULL && W > nets) return -1;
    for (int64_t w = 0; rows != NULL && w < W; w++)
        if (rows[w] < 0 || rows[w] >= nets) return -1;
    const int64_t words = (U + 63) / 64;
    uint64_t *plane = calloc((size_t)(nets * words + 1), sizeof(uint64_t));
    if (plane == NULL) return -1;
    for (int64_t u = 0; u < U; u++) {
        const uint8_t *vector = v1 + patterns[u] * n_in;
        uint64_t *word = plane + u / 64;
        for (int64_t net = 0; net < n_in; net++)
            word[net * words] |= (uint64_t)(vector[net] & 1) << (u % 64);
    }
    for (int64_t gate = 0; gate < G; gate++) {
        const int64_t K = arities[gate];
        const uint64_t *in[MAX_PINS];
        for (int64_t pin = 0; pin < K; pin++)
            in[pin] = plane + in_ids[gate * maxP + pin] * words;
        uint64_t *o = plane + out_ids[gate] * words;
        switch (K) {
        case 1: settle_gate(1, tables[gate], in, o, words); break;
        case 2: settle_gate(2, tables[gate], in, o, words); break;
        case 3: settle_gate(3, tables[gate], in, o, words); break;
        case 4: settle_gate(4, tables[gate], in, o, words); break;
        default: settle_gate(K, tables[gate], in, o, words);
        }
    }
    for (int64_t w = 0; w < W; w++) {
        const uint64_t *net = plane + (rows != NULL ? rows[w] : w) * words;
        uint8_t *dst = out + w * S_out;
        for (int64_t k = 0; k < n; k++) {
            const int64_t v = vectors[k];
            dst[cols[k]] = (uint8_t)((net[v / 64] >> (v % 64)) & 1);
        }
    }
    free(plane);
    return 0;
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


def _build(source: str = _SOURCE) -> str:
    """Compile ``source`` (the kernel library; once per source digest)
    and return the shared object's path."""
    compiler = _compiler()
    digest = hashlib.sha256(
        ("\x00".join([source, compiler] + _CFLAGS)).encode("utf-8")
    ).hexdigest()[:16]
    lib_path = os.path.join(_cache_dir(), f"repro_kernels_{digest}.so")
    if os.path.exists(lib_path):
        return lib_path
    with tempfile.TemporaryDirectory() as workdir:
        source_path = os.path.join(workdir, "kernels.c")
        with open(source_path, "w", encoding="utf-8") as stream:
            stream.write(source)
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
_ptr = ctypes.c_void_p


def _bind(path: str) -> ctypes.CDLL:
    """Load the shared object at ``path`` and declare its entry points."""
    lib = ctypes.CDLL(path)
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
    lib.run_levels.argtypes = [
        _p_f64, _p_u8,
        _p_i64, _p_i64, _p_i64, _p_i64, _p_i64, _p_f64, _i64,
        _i32, _p_f64, _i64, _i64,
        _p_f64, _p_f64, ctypes.c_double,
        _p_i64,
        _p_f64, _i32,
        _p_u8, _i32,
        _p_u8,
        _p_i64, _i64,
        _i64, _i64, _i64, _i32,
        ctypes.POINTER(_i64), ctypes.POINTER(_i64),
        ctypes.POINTER(_i64), ctypes.POINTER(_i64),
        ctypes.POINTER(_i64),
    ]
    lib.run_levels.restype = None
    # The two halves of the unpack are called through a PyDLL handle
    # of the same library, which keeps the interpreter lock: they run
    # for tens of microseconds on a service-sized plane, and a thread
    # that drops the lock around a call that short can wait a whole
    # switch interval (5 ms) behind the client threads to get it back
    # -- four times per batch.  (run_levels, milliseconds long, gives
    # it up: fingerprinting overlaps the walk.)  Plain pointers, filled
    # by _address(): see there.
    held = ctypes.PyDLL(path)
    lib.extract_counts = held.extract_counts
    lib.extract_copy = held.extract_copy
    lib.extract_counts.argtypes = [
        _ptr, _ptr, _i64, _ptr, _i64, _ptr, _i64, _i64, _i64,
        _ptr, _ptr, _ptr, _ptr,
    ]
    lib.extract_counts.restype = _i64
    lib.extract_copy.argtypes = [
        _ptr, _ptr, _i64, _ptr, _i64, _i64, _i64,
        _ptr, _ptr, _ptr, _ptr,
    ]
    lib.extract_copy.restype = None
    lib.extract_columns_counts = held.extract_columns_counts
    lib.extract_columns_copy = held.extract_columns_copy
    lib.extract_columns_counts.argtypes = [
        _ptr, _ptr, _i64, _ptr, _i64, _i64, _i64, _ptr, _i64,
        _ptr, _ptr, _ptr,
    ]
    lib.extract_columns_counts.restype = _i64
    lib.extract_columns_copy.argtypes = [
        _ptr, _ptr, _i64, _i64, _i64, _ptr, _i64, _ptr, _ptr, _i64, _ptr,
        _ptr,
    ]
    lib.extract_columns_copy.restype = None
    lib.settle_vectors.argtypes = [
        _p_u8, _i64, _p_i64, _i64,
        _p_i64, _p_i64, _p_i64, _p_i64, _i64, _i64, _i64,
        _ptr, _i64, _p_i64, _p_i64, _i64, _p_u8, _i64,
    ]
    lib.settle_vectors.restype = _i64
    return lib


def load():
    """Build (if needed) and load the C kernel library; returns this
    module, which then satisfies the backend kernel API."""
    global _lib
    if _lib is None:
        _lib = _bind(_build())
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
    out_times = np.empty((num_lanes, out_capacity), dtype=np.float64)
    counts = np.empty(num_lanes, dtype=np.int64)
    overflow = np.empty(num_lanes, dtype=np.uint8)
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
    """The delay-source argument run of ``run_levels``: ``delays`` is
    the ``(G, P, 2, V)`` pin-to-pin table (the nominal delays with
    ``V == 1`` when ``coeffs`` — the full kernel-table coefficient
    array — selects in-kernel Horner evaluation over ``nv`` / ``nc``)."""
    from repro.core.delay_kernel import MIN_DELAY

    delays = np.ascontiguousarray(delays, dtype=np.float64)
    max_pins, columns = delays.shape[1], delays.shape[3]
    if max_pins > MAX_PINS:
        raise ValueError(f"cext backend supports at most {MAX_PINS} pins")
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


def run_levels(times_all, initial_all, cat, delays, coeffs, nv, nc,
               slot_to_v, factors, capacity, inertial, mask=None,
               overflow_slots=None):
    """Whole-batch dispatch: every level in one library call.

    ``cat`` is a :class:`repro.simulation.compiled.ConcatPlans`;
    ``delays`` (see :func:`_delay_args`) and ``factors`` (if given) are
    in concatenated plan-row order.  ``mask`` is the C-contiguous
    ``(nets, S)`` bool activity plane, updated in place, and
    ``overflow_slots`` the backend's fresh ``(S,)`` uint8 plane an
    overflowing lane flags its slot in (see ``ComputeBackend.run_levels``;
    a caller that reads only the lane count leaves it out).  Returns
    ``(overflow_lanes, iterations, calls, lanes, skipped)``.
    """
    slot_to_v = np.ascontiguousarray(slot_to_v, dtype=np.int64)
    if overflow_slots is None:
        overflow_slots = np.zeros(slot_to_v.size, dtype=np.uint8)
    has_mask = mask is not None
    if has_mask and not (mask.dtype == np.bool_ and mask.flags.c_contiguous
                         and mask.shape == initial_all.shape):
        raise ValueError(
            "activity mask must be a C-contiguous bool (nets, slots) plane")
    mask = (mask.view(np.uint8) if has_mask
            else np.zeros((1, 1), dtype=np.uint8))
    overflow = _i64(0)
    iterations = _i64(0)
    calls = _i64(0)
    lanes = _i64(0)
    skipped = _i64(0)
    _lib.run_levels(
        times_all, initial_all,
        cat.in_ids, cat.out_ids, cat.tables, cat.arities, cat.type_ids,
        *_delay_args(delays, coeffs, nv, nc, slot_to_v, factors),
        mask, int(has_mask), overflow_slots,
        cat.level_offsets, cat.num_levels,
        cat.in_ids.shape[1], slot_to_v.size, capacity,
        int(bool(inertial)),
        ctypes.byref(overflow), ctypes.byref(iterations),
        ctypes.byref(calls), ctypes.byref(lanes), ctypes.byref(skipped),
    )
    return (overflow.value, iterations.value, calls.value, lanes.value,
            skipped.value)


def _address(array, dtype) -> Optional[int]:
    """The buffer address of a writable C-contiguous ``dtype`` array
    (``None``, i.e. ``NULL``, for an empty one, which is never
    dereferenced) — what an ``ndpointer`` argument checks and converts,
    at a fifth of its ~3 us: the unpack of a service-sized plane crosses
    into C twice with nine arrays, and is itself a few tens of us."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(f"need a C-contiguous {np.dtype(dtype)} array")
    if array.size == 0:
        return None
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def extract(times_all, initial_all, width, rows, bounds):
    """Unpack ``width`` arena net rows — ``rows``, or the first
    ``width`` when ``None`` — over the slot segments ``bounds`` (see
    ``extract_counts`` in the C source for the segment-major layout).

    Returns flat ``(initial, counts, starts, offsets, times)``: segment
    ``g``'s ``(width, n_g)`` block of the first three begins at
    ``width * (bounds[g] - bounds[0])``, its payload is
    ``times[offsets[g]:offsets[g + 1]]`` and ``starts`` are relative to
    it.  ``times`` holds exactly the toggles copied; nothing returned
    aliases the arena.
    """
    nets, num_slots, capacity = times_all.shape
    if initial_all.shape != (nets, num_slots):
        raise ValueError("initial values do not match the arena")
    rows_at = None
    if rows is not None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.shape != (width,):
            raise ValueError(f"extract wants {width} arena rows")
        rows_at = _address(rows, np.int64)
    edges = [int(edge) for edge in bounds]
    if len(edges) < 2 or edges != sorted(edges) or not (
            0 <= edges[0] and edges[-1] <= num_slots):
        raise ValueError("extract bounds must ascend within the slot plane")
    bounds = np.array(edges, dtype=np.int64)
    segments = len(edges) - 1
    entries = width * (edges[-1] - edges[0])
    initial = np.empty(entries, dtype=np.uint8)
    counts = np.empty(entries, dtype=np.int64)
    starts = np.empty(entries, dtype=np.int64)
    offsets = np.empty(segments + 1, dtype=np.int64)
    times_at = _address(times_all, np.float64)
    layout = (rows_at, width, _address(bounds, np.int64), segments,
              num_slots, capacity)
    prefix = (_address(counts, np.int64), _address(starts, np.int64),
              _address(offsets, np.int64))
    if _lib.extract_counts(times_at, _address(initial_all, np.uint8), nets,
                           *layout, _address(initial, np.uint8), *prefix):
        raise ValueError("extract rows outside the arena")
    times = np.empty(int(offsets[-1]), dtype=np.float64)
    _lib.extract_copy(times_at, *layout, *prefix,
                      _address(times, np.float64))
    return initial, counts, starts, offsets, times


def _checked_rows(rows, width):
    """``rows`` as the address of a C-contiguous int64 ``(width,)``
    array (``None``: the first ``width`` rows) and the array itself."""
    if rows is None:
        return None, None
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.shape != (width,):
        raise ValueError(f"want {width} net rows")
    return _address(rows, np.int64), rows


def extract_columns(times_all, initial_all, rows, cols, initial, counts,
                    starts, base):
    """Unpack arena slot ``s`` into column ``cols[s]`` (left out when
    negative) of a batch answer's ``(W, S_out)`` ``initial`` / ``counts``
    / ``starts``, the arena rows being ``rows`` (``None``: the first
    ``W``); see ``extract_columns_counts`` in the C source.  Returns the
    private payload the written ``starts`` point into once it is placed
    at offset ``base`` of the answer's."""
    nets, num_slots, capacity = times_all.shape
    width, out_slots = counts.shape
    if initial_all.shape != (nets, num_slots):
        raise ValueError("initial values do not match the arena")
    if initial.shape != counts.shape or starts.shape != counts.shape:
        raise ValueError("the answer's planes differ in shape")
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    if cols.shape != (num_slots,):
        raise ValueError("need one destination column per arena slot")
    rows_at, rows = _checked_rows(rows, width)
    offsets = np.empty(width + 1, dtype=np.int64)
    times_at = _address(times_all, np.float64)
    layout = (rows_at, width, num_slots, capacity, _address(cols, np.int64),
              out_slots)
    size = _lib.extract_columns_counts(
        times_at, _address(initial_all, np.uint8), nets, *layout,
        _address(initial, np.uint8), _address(counts, np.int64),
        _address(offsets, np.int64))
    if size < 0:
        raise ValueError("extract rows or columns outside the planes")
    times = np.empty(size, dtype=np.float64)
    _lib.extract_columns_copy(times_at, *layout, _address(counts, np.int64),
                              _address(offsets, np.int64), int(base),
                              _address(starts, np.int64),
                              _address(times, np.float64))
    return times


def settle(cat, v1, patterns, nets, rows, vectors, out, cols):
    """Bit-sliced settle of the toggle-free launch vectors ``v1[patterns]``
    over a ``nets``-row word plane (the dummy net's row included), then
    ``out[:, cols[k]]`` = the settled values of the net ``rows``
    (``None``: the first ``out.shape[0]``) of vector ``vectors[k]``;
    see ``settle_vectors`` in the C source."""
    if cat.in_ids.shape[1] > MAX_PINS:
        raise ValueError(f"cext backend supports at most {MAX_PINS} pins")
    v1 = np.ascontiguousarray(v1, dtype=np.uint8)
    if v1.ndim != 2 or v1.shape[1] > nets or (cat.out_ids.size and max(
            int(cat.in_ids.max()), int(cat.out_ids.max())) >= nets):
        raise ValueError("settle plans or inputs outside the net plane")
    patterns = np.ascontiguousarray(patterns, dtype=np.int64)
    vectors = np.ascontiguousarray(vectors, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    width, out_slots = out.shape
    if not out.flags.c_contiguous or cols.shape != vectors.shape or (
            cols.size and not (0 <= cols.min() and cols.max() < out_slots)):
        raise ValueError("settle columns outside the answer")
    if vectors.size and not (0 <= vectors.min()
                             and vectors.max() < patterns.size):
        raise ValueError("settle vectors outside the settled patterns")
    if patterns.size and not (0 <= patterns.min()
                              and patterns.max() < v1.shape[0]):
        raise ValueError("settle patterns outside the pattern rows")
    rows_at, rows = _checked_rows(rows, width)
    if _lib.settle_vectors(
            v1, v1.shape[1], patterns, patterns.size,
            cat.in_ids, cat.out_ids, cat.tables, cat.arities,
            cat.out_ids.size, cat.in_ids.shape[1], nets,
            rows_at, width, vectors, cols, cols.size, out, out_slots):
        raise ValueError("settle rows outside the net plane")
