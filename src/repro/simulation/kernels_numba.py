"""Numba JIT implementations of the hot kernels (``backend='numba'``).

Each lane (= one gate in one slot) runs its own scalar event loop to
exhaustion inside an ``@njit(parallel=True)`` ``prange`` — the per-gate
scalar-kernel shape that GATSPI shows wins for gate-level throughput on
SIMT hardware.  This removes two costs of the lockstep numpy kernel:

* no global time step — a single long-waveform lane no longer keeps
  every other live lane iterating,
* no live-set compaction machinery — finished lanes simply return.

The per-lane algorithm and its IEEE-754 operation order are *identical*
to :func:`repro.simulation.kernels.waveform_merge_kernel` (and the
``merge_single`` oracle), so results are bit-identical across backends.

Importing this module requires numba; :mod:`repro.simulation.backend`
gates on the ImportError and falls back.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

from repro.core.delay_kernel import MIN_DELAY

__all__ = ["merge_lanes", "merge_group", "merge_group_sparse",
           "delays_for_gates", "run_level"]

INF = np.float64(np.inf)


@njit(parallel=True, cache=True)
def _merge_lanes_jit(input_times, input_initial, delays, tables,
                     out_capacity, inertial):
    k, num_lanes, capacity_in = input_times.shape
    initial = np.empty(num_lanes, dtype=np.uint8)
    out_times = np.full((num_lanes, out_capacity), INF, dtype=np.float64)
    counts = np.zeros(num_lanes, dtype=np.int64)
    overflow = np.zeros(num_lanes, dtype=np.uint8)
    iterations = 0
    for lane in prange(num_lanes):
        pointers = np.zeros(k, dtype=np.int64)
        vals = np.empty(k, dtype=np.int64)
        table = tables[lane]
        index = np.int64(0)
        for pin in range(k):
            vals[pin] = input_initial[pin, lane]
            index |= vals[pin] << pin
        last_target = (table >> index) & 1
        initial[lane] = np.uint8(last_target)
        depth = 0
        lane_iterations = 0
        while True:
            now = INF
            for pin in range(k):
                if pointers[pin] < capacity_in:
                    t = input_times[pin, lane, pointers[pin]]
                    if t < now:
                        now = t
            if now == INF:
                break
            lane_iterations += 1
            causing = -1
            for pin in range(k):
                if pointers[pin] < capacity_in and \
                        input_times[pin, lane, pointers[pin]] == now:
                    vals[pin] ^= 1
                    pointers[pin] += 1
                    if causing < 0:
                        causing = pin
            index = np.int64(0)
            for pin in range(k):
                index |= vals[pin] << pin
            new_val = (table >> index) & 1
            if new_val == last_target:
                continue
            delay = delays[causing, 1 - new_val, lane]
            t_out = now + delay
            width = delay if inertial else 0.0
            if depth > 0 and (t_out <= out_times[lane, depth - 1]
                              or t_out - out_times[lane, depth - 1] < width):
                depth -= 1
                out_times[lane, depth] = INF
            elif depth >= out_capacity:
                overflow[lane] = 1
            else:
                out_times[lane, depth] = t_out
                depth += 1
            last_target ^= 1
        counts[lane] = depth
        iterations += lane_iterations
    return initial, out_times, counts, overflow, iterations


def merge_lanes(input_times, input_initial, delays, tables, out_capacity,
                inertial):
    """Lane-oriented merge (see ``waveform_merge_kernel`` for the contract)."""
    initial, times, counts, overflow, iterations = _merge_lanes_jit(
        np.ascontiguousarray(input_times, dtype=np.float64),
        np.ascontiguousarray(input_initial, dtype=np.uint8),
        np.ascontiguousarray(delays, dtype=np.float64),
        np.ascontiguousarray(tables, dtype=np.int64),
        out_capacity,
        bool(inertial),
    )
    return initial, times, counts, overflow.astype(bool), iterations


@njit(parallel=True, cache=True)
def _merge_group_jit(times_all, initial_all, in_ids, out_ids, per_voltage,
                     slot_to_v, factors, has_factors, tables, capacity,
                     inertial):
    group_size, arity = in_ids.shape
    num_slots = slot_to_v.size
    lanes = group_size * num_slots
    overflow_lanes = 0
    iterations = 0
    for lane in prange(lanes):
        gate = lane // num_slots
        slot = lane % num_slots
        v = slot_to_v[slot]
        factor = factors[gate, slot] if has_factors else 1.0
        pointers = np.zeros(arity, dtype=np.int64)
        vals = np.empty(arity, dtype=np.int64)
        table = tables[gate]
        index = np.int64(0)
        for pin in range(arity):
            vals[pin] = initial_all[in_ids[gate, pin], slot]
            index |= vals[pin] << pin
        last_target = (table >> index) & 1
        out_net = out_ids[gate]
        initial_all[out_net, slot] = np.uint8(last_target)
        depth = 0
        lane_iterations = 0
        lane_overflow = 0
        while True:
            now = INF
            for pin in range(arity):
                if pointers[pin] < capacity:
                    t = times_all[in_ids[gate, pin], slot, pointers[pin]]
                    if t < now:
                        now = t
            if now == INF:
                break
            lane_iterations += 1
            causing = -1
            for pin in range(arity):
                if pointers[pin] < capacity and \
                        times_all[in_ids[gate, pin], slot, pointers[pin]] == now:
                    vals[pin] ^= 1
                    pointers[pin] += 1
                    if causing < 0:
                        causing = pin
            index = np.int64(0)
            for pin in range(arity):
                index |= vals[pin] << pin
            new_val = (table >> index) & 1
            if new_val == last_target:
                continue
            delay = per_voltage[gate, causing, 1 - new_val, v]
            if has_factors:
                delay = delay * factor
            t_out = now + delay
            width = delay if inertial else 0.0
            if depth > 0 and (t_out <= times_all[out_net, slot, depth - 1]
                              or t_out - times_all[out_net, slot, depth - 1]
                              < width):
                depth -= 1
                times_all[out_net, slot, depth] = INF
            elif depth >= capacity:
                lane_overflow = 1
            else:
                times_all[out_net, slot, depth] = t_out
                depth += 1
            last_target ^= 1
        overflow_lanes += lane_overflow
        iterations += lane_iterations
    return overflow_lanes, iterations


def merge_group(times_all, initial_all, in_ids, out_ids, per_voltage,
                slot_to_v, factors, tables, capacity, inertial):
    """Arena-level merge: read inputs from and write outputs into the
    ``(nets, slots, capacity)`` waveform arena in place."""
    has_factors = factors is not None
    if factors is None:
        factors = np.zeros((1, 1), dtype=np.float64)
    return _merge_group_jit(
        times_all, initial_all,
        np.ascontiguousarray(in_ids, dtype=np.int64),
        np.ascontiguousarray(out_ids, dtype=np.int64),
        np.ascontiguousarray(per_voltage, dtype=np.float64),
        np.ascontiguousarray(slot_to_v, dtype=np.int64),
        np.ascontiguousarray(factors, dtype=np.float64),
        has_factors,
        np.ascontiguousarray(tables, dtype=np.int64),
        capacity,
        bool(inertial),
    )


@njit(parallel=True, cache=True)
def _merge_group_sparse_jit(times_all, initial_all, in_ids, out_ids,
                            per_voltage, slot_to_v, factors, has_factors,
                            tables, capacity, inertial, lane_gates,
                            lane_slots):
    arity = in_ids.shape[1]
    lanes = lane_gates.size
    overflow_lanes = 0
    iterations = 0
    for lane in prange(lanes):
        gate = lane_gates[lane]
        slot = lane_slots[lane]
        v = slot_to_v[slot]
        factor = factors[gate, slot] if has_factors else 1.0
        pointers = np.zeros(arity, dtype=np.int64)
        vals = np.empty(arity, dtype=np.int64)
        table = tables[gate]
        index = np.int64(0)
        for pin in range(arity):
            vals[pin] = initial_all[in_ids[gate, pin], slot]
            index |= vals[pin] << pin
        last_target = (table >> index) & 1
        out_net = out_ids[gate]
        initial_all[out_net, slot] = np.uint8(last_target)
        depth = 0
        lane_iterations = 0
        lane_overflow = 0
        while True:
            now = INF
            for pin in range(arity):
                if pointers[pin] < capacity:
                    t = times_all[in_ids[gate, pin], slot, pointers[pin]]
                    if t < now:
                        now = t
            if now == INF:
                break
            lane_iterations += 1
            causing = -1
            for pin in range(arity):
                if pointers[pin] < capacity and \
                        times_all[in_ids[gate, pin], slot, pointers[pin]] == now:
                    vals[pin] ^= 1
                    pointers[pin] += 1
                    if causing < 0:
                        causing = pin
            index = np.int64(0)
            for pin in range(arity):
                index |= vals[pin] << pin
            new_val = (table >> index) & 1
            if new_val == last_target:
                continue
            delay = per_voltage[gate, causing, 1 - new_val, v]
            if has_factors:
                delay = delay * factor
            t_out = now + delay
            width = delay if inertial else 0.0
            if depth > 0 and (t_out <= times_all[out_net, slot, depth - 1]
                              or t_out - times_all[out_net, slot, depth - 1]
                              < width):
                depth -= 1
                times_all[out_net, slot, depth] = INF
            elif depth >= capacity:
                lane_overflow = 1
            else:
                times_all[out_net, slot, depth] = t_out
                depth += 1
            last_target ^= 1
        overflow_lanes += lane_overflow
        iterations += lane_iterations
    return overflow_lanes, iterations


def merge_group_sparse(times_all, initial_all, in_ids, out_ids, per_voltage,
                       slot_to_v, factors, tables, capacity, inertial,
                       lane_gates, lane_slots):
    """Lane-compacted arena merge: only the listed ``(gate, slot)`` lanes
    run their event loops; everything else in the arena is untouched."""
    has_factors = factors is not None
    if factors is None:
        factors = np.zeros((1, 1), dtype=np.float64)
    return _merge_group_sparse_jit(
        times_all, initial_all,
        np.ascontiguousarray(in_ids, dtype=np.int64),
        np.ascontiguousarray(out_ids, dtype=np.int64),
        np.ascontiguousarray(per_voltage, dtype=np.float64),
        np.ascontiguousarray(slot_to_v, dtype=np.int64),
        np.ascontiguousarray(factors, dtype=np.float64),
        has_factors,
        np.ascontiguousarray(tables, dtype=np.int64),
        capacity,
        bool(inertial),
        np.ascontiguousarray(lane_gates, dtype=np.int64),
        np.ascontiguousarray(lane_slots, dtype=np.int64),
    )


#: Lanes per ``prange`` work item of :func:`_run_level_jit` (the C
#: kernel's ``schedule(dynamic, 64)`` chunk): the run of lanes over
#: which one delay memo is shared.
LANE_CHUNK = 64

#: Delay-memo entries per chunk, direct-mapped by distinct-voltage index.
MEMO_WAYS = 8


@njit(parallel=True, cache=True)
def _run_level_jit(times_all, initial_all, in_ids, out_ids, tables, arities,
                   type_ids, nominal, parametric, coeffs, nv, nc, min_delay,
                   slot_to_v, factors, has_factors, capacity, inertial,
                   sparse, lane_gates, lane_slots):
    group_size, max_pins = in_ids.shape
    num_slots = slot_to_v.size
    n1 = coeffs.shape[-1]
    total = lane_gates.size if sparse else group_size * num_slots
    num_chunks = (total + LANE_CHUNK - 1) // LANE_CHUNK
    overflow_lanes = 0
    iterations = 0
    for chunk in prange(num_chunks):
        # A gate's delays depend on (gate, voltage) only: the Horner
        # kernel runs once per pair and chunk, not once per lane (same
        # arithmetic, same doubles).
        memo_gate = np.full(MEMO_WAYS, -1, dtype=np.int64)
        memo_v = np.full(MEMO_WAYS, -1, dtype=np.int64)
        memo_pd = np.empty((MEMO_WAYS, max_pins, 2), dtype=np.float64)
        pointers = np.empty(max_pins, dtype=np.int64)
        vals = np.empty(max_pins, dtype=np.int64)
        chunk_iterations = 0
        chunk_overflow = 0
        for lane in range(chunk * LANE_CHUNK,
                          min(total, (chunk + 1) * LANE_CHUNK)):
            if sparse:
                gate = lane_gates[lane]
                slot = lane_slots[lane]
            else:
                gate = lane // num_slots
                slot = lane % num_slots
            arity = arities[gate]
            factor = factors[gate, slot] if has_factors else 1.0
            vi = slot_to_v[slot] if parametric else 0
            way = vi % MEMO_WAYS
            if memo_gate[way] != gate or memo_v[way] != vi:
                for pin in range(arity):
                    for polarity in range(2):
                        adapted = nominal[gate, pin, polarity]
                        if parametric:
                            # Nested Horner, identical op order to horner2d.
                            v = nv[vi]
                            c = nc[gate]
                            result = 0.0
                            for i in range(n1 - 1, -1, -1):
                                inner = 0.0
                                for j in range(n1 - 1, -1, -1):
                                    inner = inner * c + coeffs[
                                        type_ids[gate], pin, polarity, i, j]
                                result = result * v + inner
                            adapted = max(adapted * (1.0 + result), min_delay)
                        memo_pd[way, pin, polarity] = adapted
                memo_gate[way] = gate
                memo_v[way] = vi
            pd = memo_pd[way]
            table = tables[gate]
            index = np.int64(0)
            for pin in range(arity):
                pointers[pin] = 0
                vals[pin] = initial_all[in_ids[gate, pin], slot]
                index |= vals[pin] << pin
            last_target = (table >> index) & 1
            out_net = out_ids[gate]
            initial_all[out_net, slot] = np.uint8(last_target)
            depth = 0
            lane_overflow = 0
            while True:
                now = INF
                for pin in range(arity):
                    if pointers[pin] < capacity:
                        t = times_all[in_ids[gate, pin], slot, pointers[pin]]
                        if t < now:
                            now = t
                if now == INF:
                    break
                chunk_iterations += 1
                causing = -1
                for pin in range(arity):
                    if pointers[pin] < capacity and \
                            times_all[in_ids[gate, pin], slot,
                                      pointers[pin]] == now:
                        vals[pin] ^= 1
                        pointers[pin] += 1
                        if causing < 0:
                            causing = pin
                index = np.int64(0)
                for pin in range(arity):
                    index |= vals[pin] << pin
                new_val = (table >> index) & 1
                if new_val == last_target:
                    continue
                delay = pd[causing, 1 - new_val]
                if has_factors:
                    delay = delay * factor
                t_out = now + delay
                width = delay if inertial else 0.0
                if depth > 0 and (t_out <= times_all[out_net, slot, depth - 1]
                                  or t_out
                                  - times_all[out_net, slot, depth - 1]
                                  < width):
                    depth -= 1
                elif depth >= capacity:
                    lane_overflow = 1
                else:
                    times_all[out_net, slot, depth] = t_out
                    depth += 1
                last_target ^= 1
            # The lane owns its output row: toggles, then +inf to the end.
            for d in range(depth, capacity):
                times_all[out_net, slot, d] = INF
            chunk_overflow += lane_overflow
        overflow_lanes += chunk_overflow
        iterations += chunk_iterations
    return overflow_lanes, iterations


def run_level(times_all, initial_all, in_ids, out_ids, tables, arities,
              type_ids, nominal, coeffs, nv, nc, slot_to_v, factors,
              capacity, inertial, lane_gates, lane_slots):
    """Fused whole-level dispatch (see ``ComputeBackend.run_level``).

    ``coeffs`` is the full kernel-table coefficient array (parametric)
    or ``None`` (static); ``lane_gates``/``lane_slots`` select the
    sparse path when given.  Returns ``(overflow_lanes, iterations)``.
    """
    parametric = coeffs is not None
    if parametric:
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        nv = np.ascontiguousarray(nv, dtype=np.float64)
        nc = np.ascontiguousarray(nc, dtype=np.float64)
    else:
        coeffs = np.zeros((1, 1, 2, 1, 1), dtype=np.float64)
        nv = np.zeros(1, dtype=np.float64)
        nc = np.zeros(1, dtype=np.float64)
    has_factors = factors is not None
    if factors is None:
        factors = np.zeros((1, 1), dtype=np.float64)
    sparse = lane_gates is not None
    if sparse:
        lane_gates = np.ascontiguousarray(lane_gates, dtype=np.int64)
        lane_slots = np.ascontiguousarray(lane_slots, dtype=np.int64)
    else:
        lane_gates = np.zeros(1, dtype=np.int64)
        lane_slots = np.zeros(1, dtype=np.int64)
    return _run_level_jit(
        times_all, initial_all,
        np.ascontiguousarray(in_ids, dtype=np.int64),
        np.ascontiguousarray(out_ids, dtype=np.int64),
        np.ascontiguousarray(tables, dtype=np.int64),
        np.ascontiguousarray(arities, dtype=np.int64),
        np.ascontiguousarray(type_ids, dtype=np.int64),
        np.ascontiguousarray(nominal, dtype=np.float64),
        parametric, coeffs, nv, nc, MIN_DELAY,
        np.ascontiguousarray(slot_to_v, dtype=np.int64),
        np.ascontiguousarray(factors, dtype=np.float64),
        has_factors, capacity, bool(inertial),
        sparse, lane_gates, lane_slots,
    )


@njit(parallel=True, cache=True)
def _delays_for_gates_jit(coeffs, nv, nc, nominal, min_delay):
    num_gates, pins, _, n1, _ = coeffs.shape
    num_v = nv.size
    out = np.empty((num_gates, pins, 2, num_v), dtype=np.float64)
    for gate in prange(num_gates):
        c = nc[gate]
        for pin in range(pins):
            for polarity in range(2):
                d_nom = nominal[gate, pin, polarity]
                for vi in range(num_v):
                    v = nv[vi]
                    # Nested Horner, identical op order to horner2d.
                    result = 0.0
                    for i in range(n1 - 1, -1, -1):
                        inner = 0.0
                        for j in range(n1 - 1, -1, -1):
                            inner = inner * c + coeffs[gate, pin, polarity,
                                                       i, j]
                        result = result * v + inner
                    adapted = d_nom * (1.0 + result)
                    out[gate, pin, polarity, vi] = max(adapted, min_delay)
    return out


def delays_for_gates(kernel_table, type_ids, loads, nominal_delays, voltages):
    """JIT Horner evaluator; same contract (and bit-identical results) as
    :meth:`DelayKernelTable.delays_for_gates`."""
    type_ids = np.asarray(type_ids, dtype=np.int64)
    nominal_delays = np.ascontiguousarray(nominal_delays, dtype=np.float64)
    pins = nominal_delays.shape[1]
    nv = np.ascontiguousarray(
        kernel_table.space.normalize_voltage(np.asarray(voltages)),
        dtype=np.float64)
    nc = np.ascontiguousarray(kernel_table.space.normalize_load(loads),
                              dtype=np.float64)
    coeffs = np.ascontiguousarray(
        kernel_table.coefficients[type_ids][:, :pins])
    return _delays_for_gates_jit(coeffs, np.atleast_1d(nv), np.atleast_1d(nc),
                                 nominal_delays, MIN_DELAY)
