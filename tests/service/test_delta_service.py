"""Service-level incremental re-simulation: base rings end to end.

The service retains each compatibility group's recent base arenas in a
small ring next to the exact-fingerprint cache.  A near-duplicate job
(cache *miss*) is diffed against the ring at submit time and, when the
changed fraction is under ``delta_threshold``, rides its batch with a
:class:`~repro.simulation.delta.DeltaPlan`: unchanged lanes are spliced
from the base, changed cones re-evaluate — bit-identical to a full run.

Contracts under test:

* a variant job after a base run shows ``lanes_spliced`` in its report
  and the service metrics (``base_hits``, ``base_bytes_pinned``,
  ``delta_fraction``), with waveforms bit-identical to standalone;
* near-disjoint traffic refuses the delta path (threshold fallback);
* a corrupted base arena is caught by its checksum when a job selects
  it (verify-on-select), evicted (``integrity_evictions``), and the job
  is served from the runner-up base or the full path; a rotted base no
  job selects is never checksummed and never spliced;
* the submit path pays per job only for per-job bytes: the compiled
  circuit is hashed once, and a base is checksummed once per selection
  (never for a lookup that selects nothing);
* a batch that ran as one arena part is demultiplexed by the engine's
  extractor — per-job planes and the trailing jobs' base arenas come
  off the arena already private and packed, equal to ``take`` slices of
  a standalone ``capture_base=True`` run; batches the engine had to
  partition, and batches of one, go through the ``take`` path with the
  same result;
* the ring earns its capture: a group whose batches splice fewer than
  one lane per two captured rows over a 64-job window loses its ring
  (no ``capture_base``, empty lookups) for 128 settled jobs, then 256,
  probing one window in between, while a splicing stream keeps it — and
  every job in every phase is bit-identical to standalone;
* ``delta_bases=0`` disables retention entirely; the config knobs
  validate their ranges.
"""

import copy
import random
import threading

import numpy as np
import pytest

import repro.runtime.fingerprint as fingerprint_module
import repro.service.cache as cache_module
from repro import faults
from repro.errors import ServiceError
from repro.faults.plan import corrupt_waveforms
from repro.netlist.generate import random_circuit
from repro.service import ServiceConfig, SimulationService
from repro.service.cache import (
    LEDGER_WINDOW,
    SUSPEND_MIN,
    waveform_checksum,
)
from repro.service.core import SimulationService as ServiceCore
from repro.simulation.backend import available_backends, resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.compiled import compile_circuit
from repro.simulation.gpu import GpuWaveSim
from repro.simulation.grid import SlotPlan
from repro.simulation.variation import ProcessVariation
from repro.waveform.plane import WaveformPlane


@pytest.fixture(scope="module")
def circuit():
    return random_circuit("dsvc", 10, 90, seed=17)


@pytest.fixture(scope="module")
def compiled(circuit, library):
    return compile_circuit(circuit, library)


def make_pairs(circuit, count, seed):
    rng = np.random.default_rng(seed)
    return [PatternPair.random(len(circuit.inputs), rng)
            for _ in range(count)]


def variant_of(pairs, seed):
    """One flipped v2 bit: a cache miss with a tiny changed fraction."""
    rng = np.random.default_rng(seed)
    out = [PatternPair(p.v1.copy(), p.v2.copy()) for p in pairs]
    victim = out[rng.integers(len(out))]
    victim.v2[rng.integers(victim.v2.size)] ^= 1
    return out


def flipped(pairs, pair_index, bit):
    """``pairs`` with one chosen v2 bit flipped."""
    out = [PatternPair(p.v1.copy(), p.v2.copy()) for p in pairs]
    out[pair_index].v2[bit] ^= 1
    return out


def delta_config(**overrides):
    """Deterministic batching with the delta path enabled."""
    defaults = dict(max_batch_slots=16, max_wait_ms=2000.0, idle_ms=500.0,
                    cache_entries=64, delta_bases=4, delta_threshold=0.35)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def assert_bit_identical(job_pairs, result, engine, **run_kwargs):
    reference = engine.run(job_pairs, **run_kwargs)
    assert len(reference.waveforms) == result.num_slots
    for slot in range(result.num_slots):
        ref_nets = reference.waveforms[slot]
        got_nets = result.waveforms[slot]
        assert set(ref_nets) == set(got_nets)
        for net, ref in ref_nets.items():
            got = got_nets[net]
            assert got.initial == ref.initial, (slot, net)
            assert np.array_equal(got.times, ref.times), (slot, net)


class TestDeltaEndToEnd:
    def test_variant_job_splices_from_base(self, circuit, library, compiled,
                                           kernel_table):
        base_pairs = make_pairs(circuit, 4, seed=51)
        var_pairs = variant_of(base_pairs, seed=52)
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            base = service.submit(key, base_pairs,
                                  kernel_table=kernel_table).result(
                timeout=120)
            variant = service.submit(key, var_pairs,
                                     kernel_table=kernel_table).result(
                timeout=120)
            metrics = service.metrics()

        assert base.report.lanes_spliced == 0
        assert not variant.cache_hit
        assert variant.report.lanes_spliced > 0
        assert variant.report.delta_fraction < 1.0
        assert ",delta" in variant.engine
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(var_pairs, variant, engine,
                             kernel_table=kernel_table)

        assert metrics.base_hits == 1
        assert metrics.base_bytes_pinned > 0
        assert metrics.lanes_spliced > 0
        assert metrics.delta_fraction < 1.0
        assert metrics.cache["bases"] >= 1

    def test_voltage_sweep_variant(self, circuit, library, compiled,
                                   kernel_table):
        """The AVFS motivating case: re-sweep with one new operating
        point's worth of stimulus change, most of the plane spliced."""
        pairs = make_pairs(circuit, 2, seed=53)
        plan = SlotPlan.cross(len(pairs), [0.6, 0.7, 0.8, 0.9, 1.0])
        var_pairs = variant_of(pairs, seed=54)
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, pairs, plan=plan,
                           kernel_table=kernel_table).result(timeout=120)
            variant = service.submit(key, var_pairs, plan=plan,
                                     kernel_table=kernel_table).result(
                timeout=120)
        assert variant.report.lanes_spliced > 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(var_pairs, variant, engine, plan=plan,
                             kernel_table=kernel_table)

    def test_monte_carlo_variant(self, circuit, library, compiled,
                                 kernel_table):
        pairs = make_pairs(circuit, 3, seed=55)
        var_pairs = variant_of(pairs, seed=56)
        variation = ProcessVariation(sigma=0.1, seed=42)
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, pairs, kernel_table=kernel_table,
                           variation=variation).result(timeout=120)
            variant = service.submit(key, var_pairs,
                                     kernel_table=kernel_table,
                                     variation=variation).result(timeout=120)
        assert variant.report.lanes_spliced > 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(var_pairs, variant, engine,
                             kernel_table=kernel_table, variation=variation)

    def test_exact_resubmission_prefers_cache(self, circuit, library,
                                              compiled):
        """An exact repeat is an exact-fingerprint hit — the delta path
        only serves misses."""
        pairs = make_pairs(circuit, 2, seed=57)
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, pairs).result(timeout=120)
            redo = service.submit(key, pairs).result(timeout=120)
            metrics = service.metrics()
        assert redo.cache_hit
        assert redo.engine == "cache"
        assert metrics.base_hits == 0


class TestFallbacks:
    def test_threshold_fallback_on_disjoint_traffic(self, circuit, library,
                                                    compiled):
        """Every input bit changed: the changed fraction hits 1.0 and
        the job must pay nothing for the delta machinery."""
        width = len(circuit.inputs)
        zeros = np.zeros(width, dtype=np.uint8)
        ones = np.ones(width, dtype=np.uint8)
        base_pairs = [PatternPair(zeros.copy(), zeros.copy())
                      for _ in range(3)]
        far_pairs = [PatternPair(ones.copy(), ones.copy())
                     for _ in range(3)]
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, base_pairs).result(timeout=120)
            far = service.submit(key, far_pairs).result(timeout=120)
            metrics = service.metrics()
        assert far.report.lanes_spliced == 0
        assert ",delta" not in far.engine
        assert metrics.base_hits == 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(far_pairs, far, engine)

    def test_corrupt_base_evicts_and_falls_back(self, circuit, library,
                                                compiled):
        """A rotted base arena must never reach the splice path: the
        checksum catches it at lookup, the ring entry is evicted, and
        the variant silently runs the full simulation — still correct."""
        base_pairs = make_pairs(circuit, 4, seed=58)
        var_pairs = variant_of(base_pairs, seed=59)
        with faults.injected("seed=7;cache.get:corrupt@p=1") as plan:
            with SimulationService(config=delta_config()) as service:
                key = service.register_circuit(circuit, library,
                                               compiled=compiled)
                service.submit(key, base_pairs).result(timeout=120)
                variant = service.submit(key, var_pairs).result(timeout=120)
                metrics = service.metrics()
        # Verify-on-select: the seam fires once, on the one base the
        # variant selected — not once per ring candidate per lookup.
        assert plan.stats()["fired"]["cache.get:corrupt"] == 1
        assert metrics.integrity_evictions == 1
        assert metrics.cache["base_verifications"] == 1
        assert metrics.base_hits == 0
        assert variant.report.lanes_spliced == 0
        assert ",delta" not in variant.engine
        # The rotted base is gone; the one ring entry left is the
        # variant's own freshly captured arena.
        assert metrics.cache["bases"] == 1
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(var_pairs, variant, engine)

    def test_corrupt_best_base_serves_from_the_runner_up(
            self, circuit, library, compiled):
        """Two bases in the ring, the closer one rots at verification:
        it is evicted (exactly one integrity eviction), the selection
        repeats among the rest and the job splices from the runner-up —
        bit-identical to standalone."""
        far_pairs = make_pairs(circuit, 4, seed=70)
        near_pairs = flipped(far_pairs, 0, 1)
        job_pairs = flipped(near_pairs, 2, 3)  # 1 bit from near, 2 from far
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, far_pairs).result(timeout=120)
            service.submit(key, near_pairs).result(timeout=120)
            assert service.metrics().cache["bases"] == 2
            with faults.injected("seed=3;cache.get:corrupt@n=1") as plan:
                handle = service.submit(key, job_pairs)
            result = handle.result(timeout=120)
            metrics = service.metrics()
        assert plan.stats()["fired"]["cache.get:corrupt"] == 1
        assert metrics.integrity_evictions == 1
        # One verification (a hit) when ``near`` itself spliced from
        # ``far``; then near (rotted, evicted) and far (passed, the hit
        # that served the job).
        assert metrics.cache["base_verifications"] == 3
        assert metrics.base_hits == 2
        assert result.report.lanes_spliced > 0
        assert ",delta" in result.engine
        # far + the job's own capture; the rotted near base is gone.
        assert metrics.cache["bases"] == 2
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(job_pairs, result, engine)

    def test_unselected_rotted_base_is_never_verified(
            self, circuit, library, compiled):
        """Rot in a base no job selects costs nothing and poisons
        nothing: the job splices from the intact base it chose, the
        rotted one is neither checksummed nor evicted — until a later
        job does select it."""
        left_pairs = make_pairs(circuit, 4, seed=71)
        right_pairs = make_pairs(circuit, 4, seed=72)
        with SimulationService(config=delta_config()) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, left_pairs).result(timeout=120)
            service.submit(key, right_pairs).result(timeout=120)
            (group,) = service._cache._bases
            newest, oldest = service._cache.bases_for(group)
            assert corrupt_waveforms(random.Random(5), oldest.arena.plane)

            near_right = flipped(right_pairs, 1, 2)
            served = service.submit(key, near_right).result(timeout=120)
            after_right = service.metrics()
            near_left = flipped(left_pairs, 1, 2)
            fallback = service.submit(key, near_left).result(timeout=120)
            after_left = service.metrics()

        assert served.report.lanes_spliced > 0
        assert after_right.integrity_evictions == 0
        assert after_right.cache["base_verifications"] == 1
        assert after_right.cache["bases"] == 3
        # Selecting the rotted base: caught, evicted, full simulation.
        assert after_left.integrity_evictions == 1
        assert after_left.cache["base_verifications"] == 2
        assert after_left.base_hits == 1
        assert fallback.report.lanes_spliced == 0
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=SimulationConfig())
        assert_bit_identical(near_right, served, engine)
        assert_bit_identical(near_left, fallback, engine)

    def test_submit_pays_per_job_bytes_only(self, circuit, library,
                                            compiled, monkeypatch):
        """Pay-for-use guard.  Against a warm 4-base ring, 50 fresh
        submits hash the compiled circuit at most once and checksum no
        base at all (disjoint stimuli select nothing); 8 near-duplicates
        then checksum exactly one base each — the one they splice."""
        cold = copy.copy(compiled)  # a new identity: nothing memoized yet
        warm_jobs = [make_pairs(circuit, 4, seed=80 + k) for k in range(4)]
        fresh_jobs = [make_pairs(circuit, 4, seed=100 + k)
                      for k in range(50)]
        near_jobs = [flipped(warm_jobs[k % 4], k % 4, k) for k in range(8)]

        feeds = []
        real_feed = fingerprint_module.feed_compiled
        monkeypatch.setattr(
            fingerprint_module, "feed_compiled",
            lambda fp, target: (feeds.append(target),
                                real_feed(fp, target))[1])
        submit_thread = threading.current_thread()
        submit_checksums = []
        real_checksum = cache_module.base_checksum

        def counted_checksum(arena):
            if threading.current_thread() is submit_thread:
                submit_checksums.append(arena)
            return real_checksum(arena)

        monkeypatch.setattr(cache_module, "base_checksum", counted_checksum)
        with SimulationService(config=delta_config(
                max_batch_slots=1024, queue_depth=128)) as service:
            key = service.register_circuit(circuit, library, compiled=cold)
            for handle in [service.submit(key, pairs)
                           for pairs in warm_jobs]:
                handle.result(timeout=120)
            warm = service.metrics()
            assert warm.cache["bases"] == 4
            assert warm.cache["base_lookups"] == 4  # against an empty ring
            feeds_when_warm = len(feeds)

            # Batches wait for 500 ms of idle intake, so every submit
            # below meets the same warm ring.
            fresh = [service.submit(key, pairs) for pairs in fresh_jobs]
            after_fresh = service.metrics()
            assert len(submit_checksums) == 0
            near = [service.submit(key, pairs) for pairs in near_jobs]
            after_near = service.metrics()
            results = [handle.result(timeout=120)
                       for handle in fresh + near]

        assert feeds_when_warm <= 1 and len(feeds) == feeds_when_warm
        assert after_fresh.cache["base_lookups"] == 4 + 50
        assert after_fresh.cache["base_verifications"] == 0
        assert after_fresh.base_hits == 0
        assert after_near.cache["base_lookups"] == 4 + 50 + 8
        assert after_near.cache["base_verifications"] == 8
        assert after_near.base_hits == 8
        assert len(submit_checksums) == 8
        assert len(results) == 58

    def test_delta_disabled_without_bases(self, circuit, library, compiled):
        base_pairs = make_pairs(circuit, 3, seed=60)
        var_pairs = variant_of(base_pairs, seed=61)
        with SimulationService(config=delta_config(
                delta_bases=0)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            service.submit(key, base_pairs).result(timeout=120)
            variant = service.submit(key, var_pairs).result(timeout=120)
            metrics = service.metrics()
        assert variant.report.lanes_spliced == 0
        assert metrics.base_hits == 0
        assert metrics.cache["max_bases"] == 0
        assert metrics.base_bytes_pinned == 0

    def test_ring_keeps_at_most_delta_bases(self, circuit, library,
                                            compiled):
        with SimulationService(config=delta_config(
                delta_bases=1)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            for seed in (62, 63, 64):
                pairs = make_pairs(circuit, 2, seed=seed)
                service.submit(key, pairs).result(timeout=120)
            metrics = service.metrics()
        assert metrics.cache["bases"] == 1
        assert metrics.base_bytes_pinned > 0


@pytest.fixture
def engine_runs(monkeypatch):
    """Every ``GpuWaveSim.run`` made while the fixture is live, as
    ``(keyword arguments, result)``."""
    runs = []
    real_run = GpuWaveSim.run

    def recorded(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        runs.append((kwargs, result))
        return result

    monkeypatch.setattr(GpuWaveSim, "run", recorded)
    return runs


@pytest.mark.parametrize("backend_name", available_backends())
class TestSegmentedDemux:
    """Per-job planes and pinned bases == ``take`` slices of a
    standalone ``capture_base=True`` run of the same plane."""

    def serve(self, circuit, library, compiled, kernel_table, backend_name,
              jobs, record_all=False, warm=(), **overrides):
        """Stream ``jobs`` (pair lists) through a fresh service after
        ``warm`` ran one by one; returns ``(results, ring, config)``
        with ``ring`` the group's pinned bases, oldest first."""
        # No pruning: a random pair toggling under a quarter of the ten
        # inputs would run lane-tracked beside its dense neighbours,
        # and a plane lowered two ways is a partitioned one.
        config = SimulationConfig(backend=backend_name, prune_inactive=False,
                                  record_all_nets=record_all)
        with SimulationService(config=delta_config(
                delta_bases=2, **overrides)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            for pairs in warm:
                service.submit(key, pairs, config=config,
                               kernel_table=kernel_table).result(timeout=120)
            handles = [service.submit(key, pairs, config=config,
                                      kernel_table=kernel_table)
                       for pairs in jobs]
            results = [handle.result(timeout=120) for handle in handles]
            (group,) = service._cache._bases
            ring = service._cache.bases_for(group)[::-1]
        return results, ring, config, [h.fingerprint for h in handles]

    def standalone(self, circuit, library, compiled, kernel_table, config,
                   jobs):
        """The jobs as one plane, the way the service combines them,
        through a plain engine with everything captured; returns the
        per-job ``(plane, base arena)`` slices."""
        plans = [SlotPlan.uniform(len(pairs), 0.8) for pairs in jobs]
        offsets = np.cumsum([0] + [len(pairs) for pairs in jobs])
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=config)
        alone = engine.run(
            [pair for pairs in jobs for pair in pairs],
            plan=SlotPlan.concat(plans, offsets[:-1]),
            kernel_table=kernel_table, capture_base=True,
            global_slots=np.concatenate([np.arange(len(pairs))
                                         for pairs in jobs]))
        return [(alone.plane.take(np.arange(lo, hi)),
                 alone.base_arena.take(np.arange(lo, hi)))
                for lo, hi in zip(offsets, offsets[1:])]

    def assert_served(self, results, ring, fingerprints, expected, pinned):
        for result, (plane, _) in zip(results, expected):
            assert result.plane.nets == plane.nets
            assert result.plane.checksum() == plane.checksum()
            assert result.plane.layout_intact()
        # Only the trailing ``delta_bases`` jobs are pinned, each with
        # the all-net state of its own slots.
        assert [entry.tag for entry in ring] == [fingerprints[job]
                                                 for job in pinned]
        for entry, job in zip(ring, pinned):
            assert entry.arena.plane.layout_intact()
            assert cache_module.base_checksum(entry.arena) == entry.checksum
            assert entry.checksum == cache_module.base_checksum(
                expected[job][1])
        # No result or base shares memory with another.
        planes = ([result.plane for result in results]
                  + [entry.arena.plane for entry in ring])
        for position, plane in enumerate(planes):
            for other in planes[position + 1:]:
                assert not np.shares_memory(plane.times, other.times)
                assert not np.shares_memory(plane.counts, other.counts)

    @pytest.mark.parametrize("record_all", [False, True])
    def test_mixed_widths_in_one_arena_part(
            self, circuit, library, compiled, kernel_table, backend_name,
            record_all, engine_runs):
        """Five jobs of 3, 5, 2, 4 and 2 slots fill one 16-slot batch:
        the engine serves the segments itself."""
        jobs = [make_pairs(circuit, count, seed=200 + count + k)
                for k, count in enumerate([3, 5, 2, 4, 2])]
        results, ring, config, fingerprints = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            record_all=record_all)
        (kwargs, result), = engine_runs
        assert kwargs["segments"].slot_counts == (3, 5, 2, 4, 2)
        assert kwargs["segments"].captured == 2
        assert kwargs["capture_base"] is True
        assert result.segments is not None and result.base_arena is None
        assert [base is not None for _, base in result.segments] == [
            False, False, False, True, True]
        expected = self.standalone(circuit, library, compiled, kernel_table,
                                   config, jobs)
        self.assert_served(results, ring, fingerprints, expected,
                           pinned=[3, 4])

    def test_batch_of_one_pins_its_capture(
            self, circuit, library, compiled, kernel_table, backend_name,
            engine_runs):
        jobs = [make_pairs(circuit, 4, seed=210)]
        results, ring, config, fingerprints = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs)
        (kwargs, result), = engine_runs
        assert "segments" not in kwargs and result.segments is None
        assert ring[0].arena is result.base_arena
        expected = self.standalone(circuit, library, compiled, kernel_table,
                                   config, jobs)
        self.assert_served(results, ring, fingerprints, expected, pinned=[0])

    def test_spliced_and_cone_job_fall_back_to_take(
            self, circuit, library, compiled, kernel_table, backend_name,
            engine_runs):
        """One job repeating half of a base's stimuli (full splice) and
        one a bit away from it (cone) share a batch: the engine
        partitions the plane, hands back no segments, and the service
        slices the joined plane and capture as before."""
        base = make_pairs(circuit, 4, seed=220)
        jobs = [base[:2], flipped(base, 1, 3)]
        results, ring, config, fingerprints = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            warm=[base])
        (_, warm_run), (kwargs, result) = engine_runs
        assert kwargs["delta"] is not None
        assert kwargs["segments"].slot_counts == (2, 4)
        assert result.segments is None and result.base_arena is not None
        assert results[0].report.lanes_spliced > 0
        expected = self.standalone(circuit, library, compiled, kernel_table,
                                   config, jobs)
        self.assert_served(results, ring, fingerprints, expected,
                           pinned=[0, 1])

    def test_two_workers(self, circuit, library, compiled, kernel_table,
                         backend_name, engine_runs):
        """Two full batches in flight on two worker threads, each with
        its own engine and arena."""
        jobs = [make_pairs(circuit, 4, seed=230 + k) for k in range(8)]
        results, ring, config, fingerprints = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            workers=2)
        assert len(engine_runs) == 2
        assert all(result.segments is not None for _, result in engine_runs)
        expected = self.standalone(circuit, library, compiled, kernel_table,
                                   config, jobs)
        for result, (plane, _) in zip(results, expected):
            assert result.plane.checksum() == plane.checksum()
        # The ring's two survivors come from the batches' trailing jobs,
        # in whatever order the two workers settled.
        assert len(ring) == 2
        assert {entry.tag for entry in ring} <= {
            fingerprints[job] for job in (2, 3, 6, 7)}
        for entry in ring:
            job = fingerprints.index(entry.tag)
            assert entry.checksum == cache_module.base_checksum(
                expected[job][1])

    def test_one_arena_part_is_demultiplexed_without_a_gather(
            self, circuit, library, compiled, kernel_table, backend_name,
            monkeypatch):
        """Pay-once guard: six fresh jobs in one batch cost at most two
        ``backend.extract`` calls (result rows; all nets of the pinned
        jobs), and settling them gathers nothing — every ``_dense``
        inside ``_settle_batch`` returns the plane's own payload."""
        extracts, settle_denses, settling = [], [], []
        backend = type(resolve_backend(backend_name))
        real_extract = backend.extract
        real_dense = WaveformPlane._dense
        real_settle = ServiceCore._settle_batch

        def extract(self, *args, **kwargs):
            extracts.append(kwargs.get("bounds"))
            return real_extract(self, *args, **kwargs)

        def dense(self):
            times, starts = real_dense(self)
            if settling:
                settle_denses.append(times is self.times
                                     and starts is self.starts)
            return times, starts

        def settle(self, *args, **kwargs):
            settling.append(threading.current_thread())
            try:
                return real_settle(self, *args, **kwargs)
            finally:
                settling.pop()

        monkeypatch.setattr(backend, "extract", extract)
        monkeypatch.setattr(WaveformPlane, "_dense", dense)
        monkeypatch.setattr(ServiceCore, "_settle_batch", settle)
        jobs = [make_pairs(circuit, 2, seed=240 + k) for k in range(6)]
        results, ring, _, _ = self.serve(
            circuit, library, compiled, kernel_table, backend_name, jobs,
            max_batch_slots=12)
        assert len(results) == 6 and len(ring) == 2
        assert extracts == [(0, 2, 4, 6, 8, 10, 12), (8, 10, 12)]
        assert settle_denses and all(settle_denses)


@pytest.mark.parametrize("backend_name", available_backends())
class TestRingEarnsItsCapture:
    """One worker, one job per batch, one job at a time: the ledger's
    schedule is exact, and no phase of it changes a waveform."""

    def stream(self, service, key, jobs, config, kernel_table):
        """Submit and await ``jobs`` one by one; returns the results and
        the cache stats as each job's caller saw them on completion."""
        results, seen = [], []
        for pairs in jobs:
            results.append(service.submit(
                key, pairs, config=config,
                kernel_table=kernel_table).result(timeout=120))
            seen.append(service.metrics().cache)
        return results, seen

    def assert_standalone(self, circuit, library, compiled, kernel_table,
                          config, jobs, results):
        engine = GpuWaveSim(circuit, library, compiled=compiled,
                            config=config)
        for pairs, result in zip(jobs, results):
            alone = engine.run(pairs, kernel_table=kernel_table)
            assert (waveform_checksum(result.waveforms)
                    == waveform_checksum(alone.waveforms))

    def test_unrelated_stream_loses_its_ring_and_probes_again(
            self, circuit, library, compiled, kernel_table, backend_name,
            engine_runs):
        config = SimulationConfig(backend=backend_name)
        first, second = LEDGER_WINDOW, LEDGER_WINDOW + SUSPEND_MIN
        probe_end = second + LEDGER_WINDOW
        jobs = [make_pairs(circuit, 2, seed=1000 + k)
                for k in range(probe_end + 4)]
        with SimulationService(config=delta_config(
                max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            results, seen = self.stream(service, key, jobs, config,
                                        kernel_table)
            (group,) = service._cache._ledgers
            assert service._cache.bases_for(group) == []
            remaining = service._cache._ledgers[group].suspended_for
            summary = service.metrics().summary()
        assert len(engine_runs) == len(jobs)  # no cache hit, no coalescing
        captured = [bool(kwargs.get("capture_base"))
                    for kwargs, _ in engine_runs]
        # Window 1 is the plain ring; job 64 closes it losing.
        assert all(captured[:first])
        assert seen[first - 2]["base_suspensions"] == 0
        assert seen[first - 2]["bases"] == 4
        assert seen[first - 1]["base_suspensions"] == 1
        assert seen[first - 1]["groups_suspended"] == 1
        assert seen[first - 1]["bases"] == 0
        assert seen[first - 1]["base_bytes_pinned"] == 0
        # Jobs 65-192: no capture, nothing pinned, nothing to select.
        assert not any(captured[first:second])
        assert all(result.base_arena is None and result.segments is None
                   for _, result in engine_runs[first:second])
        assert all(stats["bases"] == 0 for stats in seen[first:second - 1])
        assert (seen[second - 1]["base_rows_captured"]
                == seen[first - 1]["base_rows_captured"]
                == first * 2 * compiled.num_nets)
        assert seen[second - 1]["groups_suspended"] == 0
        # Job 193 probes: one more window with the ring, lost again, and
        # the suspension doubles.
        assert all(captured[second:probe_end])
        assert seen[second]["bases"] == 1
        assert seen[probe_end - 1]["base_suspensions"] == 2
        assert not any(captured[probe_end:])
        assert remaining == 2 * SUSPEND_MIN - 4
        assert seen[-1]["base_hits"] == 0
        assert seen[-1]["base_lookups"] == len(jobs)
        # "Why did this job not capture" is on the operator's summary.
        assert (f"ledger 0 lanes spliced / "
                f"{2 * first * 2 * compiled.num_nets} rows captured, "
                "2 suspensions (1 groups suspended now)") in summary
        self.assert_standalone(circuit, library, compiled, kernel_table,
                               config, jobs, results)

    def test_splicing_stream_keeps_its_ring(
            self, circuit, library, compiled, kernel_table, backend_name,
            engine_runs):
        """Each job is its predecessor with one more input bit flipped:
        three of four slots splice whole, far above one lane per two
        captured rows, so no window ever suspends the group."""
        config = SimulationConfig(backend=backend_name)
        width = len(circuit.inputs)
        jobs = [make_pairs(circuit, 4, seed=90)]
        for step in range(2 * LEDGER_WINDOW + 8):
            jobs.append(flipped(jobs[-1], (step // width) % 4, step % width))
        with SimulationService(config=delta_config(
                max_batch_slots=4)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            results, seen = self.stream(service, key, jobs, config,
                                        kernel_table)
        assert len(engine_runs) == len(jobs)
        assert all(kwargs.get("capture_base") for kwargs, _ in engine_runs)
        assert [stats["base_hits"] for stats in seen] == list(
            range(len(jobs)))
        final = seen[-1]
        assert final["base_suspensions"] == 0
        assert final["groups_suspended"] == 0
        assert final["bases"] == 4
        assert final["base_rows_captured"] == len(jobs) * 4 * compiled.num_nets
        assert 2 * final["base_lanes_spliced"] >= final["base_rows_captured"]
        assert all(result.report.lanes_spliced > 0 for result in results[1:])
        self.assert_standalone(circuit, library, compiled, kernel_table,
                               config, jobs, results)

    def test_plan_selected_before_the_drop_still_splices(
            self, circuit, library, compiled, kernel_table, backend_name,
            engine_runs, monkeypatch):
        """Job 65 selects its base while the ring is live, but runs
        after job 64 closed the window that dropped it: the plan holds
        its (verified) base, so the job splices — and captures nothing."""
        config = SimulationConfig(backend=backend_name)
        jobs = [make_pairs(circuit, 2, seed=2000 + k)
                for k in range(LEDGER_WINDOW)]
        late = flipped(jobs[-2], 1, 4)
        gate = threading.Event()
        gate.set()
        recorded_run = GpuWaveSim.run

        def gated_run(self, *args, **kwargs):
            assert gate.wait(timeout=60)
            return recorded_run(self, *args, **kwargs)

        monkeypatch.setattr(GpuWaveSim, "run", gated_run)
        with SimulationService(config=delta_config(
                max_batch_slots=2)) as service:
            key = service.register_circuit(circuit, library,
                                           compiled=compiled)
            results, _ = self.stream(service, key, jobs[:-1], config,
                                     kernel_table)
            gate.clear()  # hold job 64 at the engine's door ...
            closing = service.submit(key, jobs[-1], config=config,
                                     kernel_table=kernel_table)
            spliced = service.submit(key, late, config=config,
                                     kernel_table=kernel_table)
            before = service.metrics().cache
            gate.set()    # ... until job 65 has selected its plan
            results += [closing.result(timeout=120),
                        spliced.result(timeout=120)]
            after = service.metrics().cache
        assert before["base_hits"] == 1 and before["base_suspensions"] == 0
        assert after["base_suspensions"] == 1 and after["bases"] == 0
        kwargs, run = engine_runs[-1]
        assert kwargs["delta"] is not None
        assert "capture_base" not in kwargs and run.base_arena is None
        assert results[-1].report.lanes_spliced > 0
        assert ",delta" in results[-1].engine
        self.assert_standalone(circuit, library, compiled, kernel_table,
                               config, jobs + [late], results)


class TestConfigKnobs:
    def test_negative_delta_bases_rejected(self):
        with pytest.raises(ServiceError, match="delta_bases"):
            ServiceConfig(delta_bases=-1)

    @pytest.mark.parametrize("threshold", [0.0, -0.2, 1.5])
    def test_threshold_range_enforced(self, threshold):
        with pytest.raises(ServiceError, match="delta_threshold"):
            ServiceConfig(delta_threshold=threshold)

