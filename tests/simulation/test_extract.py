"""The native arena unpack against its references.

``ComputeBackend.extract`` has two implementations: the base class's
``WaveformPlane.from_arena`` + one ``take`` per slot segment (the numpy
backend's path) and the C count / prefix-sum / copy of the cext backend,
which emits every segment already packed.  One generative property
holds the second to the first — and both to ``from_arena(...).take``
spelled out — array for array, over drawn arena shapes, row subsets and
segment bounds, below and above the OpenMP threshold
(``PARALLEL_MIN_ROWS``); two deliberately
broken builds of the C source must fail it.  An engine-level test then
checks what rides on the same call: every plane an engine constructs
shares one row index and one names CRC.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.netlist.generate import random_circuit
from repro.simulation.backend import available_backends, resolve_backend
from repro.simulation.base import PatternPair, SimulationConfig
from repro.simulation.delta import DeltaPlan
from repro.simulation.gpu import GpuWaveSim
from repro.waveform.plane import WaveformPlane, net_keys

INF = np.inf

needs_cext = pytest.mark.skipif("cext" not in available_backends(),
                                reason="cext backend not loadable")


def drawn_arena(rng, num_nets, num_slots, capacity):
    """A ``(nets, slots, capacity)`` arena as a walk leaves it: every
    row its toggles, then ``+inf`` up to ``capacity`` — with empty rows
    and full rows (no terminator at all) both common."""
    counts = rng.choice([0, capacity, *range(capacity + 1)],
                        size=(num_nets, num_slots))
    stamps = np.sort(rng.uniform(0, 1e-9, size=(num_nets, num_slots,
                                                capacity)), axis=2)
    times = np.where(np.arange(capacity) < counts[:, :, None], stamps, INF)
    initial = rng.integers(0, 2, size=(num_nets, num_slots), dtype=np.uint8)
    return np.ascontiguousarray(times), initial, counts


def assert_extracts_agree(seed, num_nets, num_slots, capacity, rows, bounds):
    """cext ``extract`` == base-class ``extract`` ==
    ``from_arena(...).take(segment)`` on one drawn arena."""
    rng = np.random.default_rng(seed)
    times, initial, counts = drawn_arena(rng, num_nets, num_slots, capacity)
    width = num_nets if rows is None else len(rows)
    if rows is None and num_nets > 1:
        width = num_nets - 1          # "the first len(nets) rows"
    keys = net_keys([f"n{row}" for row in range(width)])
    row_ids = None if rows is None else np.asarray(rows, dtype=np.int64)
    edges = [0, num_slots] if bounds is None else list(bounds)

    ours = resolve_backend("cext").extract(times, initial, rows=row_ids,
                                           bounds=bounds, **keys)
    theirs = resolve_backend("numpy").extract(times, initial, rows=row_ids,
                                              bounds=bounds, **keys)
    whole = WaveformPlane.from_arena(keys["nets"], times, initial, row_ids)
    assert len(ours) == len(theirs) == len(edges) - 1
    picked = np.arange(width) if rows is None else row_ids
    for ours_g, theirs_g, lo, hi in zip(ours, theirs, edges, edges[1:]):
        spelled = whole.take(np.arange(lo, hi))
        np.testing.assert_array_equal(ours_g.counts, counts[picked, lo:hi])
        for plane in (theirs_g, spelled):
            assert ours_g.nets == plane.nets
            for name in ("initial", "counts", "starts"):
                left, right = getattr(ours_g, name), getattr(plane, name)
                assert left.dtype == right.dtype and left.shape == right.shape
                np.testing.assert_array_equal(left, right, err_msg=name)
            assert ours_g.times.tobytes() == plane.times.tobytes()
            assert ours_g.checksum() == plane.checksum()
        assert ours_g.layout_intact()
        # Handed out packed: the checksum needs no gather.
        assert ours_g.packed()[2] is ours_g.times
        assert ours_g._index is keys["index"]
        assert ours_g._nets_crc == keys["nets_crc"]
    # Private: nothing aliases the arena or a sibling.
    arrays = [array for plane in ours for array in
              (plane.initial, plane.counts, plane.starts, plane.times)]
    for position, array in enumerate(arrays):
        assert not np.shares_memory(array, times)
        assert not np.shares_memory(array, initial)
        if len(ours) > 1:
            assert all(not np.shares_memory(array, other)
                       for other in arrays[position + 1:])


#: Three segments with toggles in each, rows with 0 and with
#: ``capacity`` toggles, an unsorted row subset with a repeat: what the
#: mutants below must trip over.
PINNED = dict(seed=1, num_nets=7, num_slots=9, capacity=4,
              rows=[5, 0, 3, 3, 6], bounds=[1, 4, 4, 6, 9])


@needs_cext
@example(**PINNED)
@example(**{**PINNED, "rows": None, "bounds": None})
@example(**{**PINNED, "capacity": 1, "bounds": list(range(10))})
# 300 x 256 rows: above PARALLEL_MIN_ROWS, the OpenMP team unpacks.
@example(seed=2, num_nets=300, num_slots=256, capacity=2, rows=None,
         bounds=[0, 3, 110, 256])
@example(seed=4, num_nets=40, num_slots=2048, capacity=1,
         rows=list(range(39, 2, -1)), bounds=None)
@example(seed=3, num_nets=4, num_slots=200, capacity=2,
         rows=[3, 1, 2, 0, 1], bounds=None)
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_nets=st.integers(1, 40),
       num_slots=st.integers(1, 32), capacity=st.sampled_from([1, 2, 4, 16]),
       rows=st.none() | st.lists(st.integers(0, 10_000), max_size=60),
       bounds=st.none() | st.lists(st.integers(0, 10_000), min_size=2,
                                   max_size=35))
def test_native_extract_matches_reference(seed, num_nets, num_slots, capacity,
                                          rows, bounds):
    # Drawn wide, folded into range: any row order with repeats, any
    # ascending bounds with empty segments, starting anywhere.
    if rows is not None:
        rows = [row % num_nets for row in rows]
    if bounds is not None:
        bounds = sorted(bound % (num_slots + 1) for bound in bounds)
    assert_extracts_agree(seed, num_nets, num_slots, capacity, rows, bounds)


MUTANTS = {
    # The count pass does not stop at the terminator: every row is
    # copied out capacity entries long.
    "copy-cap": ("while (count < cap && isfinite(row[count])) count++;",
                 "while (count < cap) count++;"),
    # Block offsets run on across segments instead of restarting.
    "starts-not-reset": ("offsets[g] = position;\n        start = 0;",
                         "offsets[g] = position;"),
}


@needs_cext
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_property_catches_extract_mutants(mutant, monkeypatch, tmp_path):
    """Build the C source with one extraction rule broken, swap the
    library in and expect the pinned example to fail."""
    from repro.simulation import kernels_cext

    old, new = MUTANTS[mutant]
    assert kernels_cext._SOURCE.count(old) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    library_path = kernels_cext._build(kernels_cext._SOURCE.replace(old, new))
    monkeypatch.setattr(kernels_cext, "_lib", kernels_cext._bind(library_path))
    with pytest.raises(AssertionError):
        assert_extracts_agree(**PINNED)


@needs_cext
@pytest.mark.parametrize("rows, bounds", [
    ([7], [0, 9]),            # a row the arena does not have
    ([-1], [0, 9]),
    (None, [0, 10]),          # a slot the plane does not have
    (None, [4, 2]),           # descending
    (None, [3]),              # no segment at all
])
def test_native_extract_refuses_what_it_cannot_index(rows, bounds):
    rng = np.random.default_rng(0)
    times, initial, _ = drawn_arena(rng, 7, 9, 4)
    nets = [f"n{row}" for row in range(7 if rows is None else len(rows))]
    with pytest.raises(ValueError):
        resolve_backend("cext").extract(
            times, initial, nets,
            rows=None if rows is None else np.asarray(rows), bounds=bounds)


# -- what every engine plane shares ---------------------------------------------------


@pytest.mark.parametrize("record_all", [False, True])
@pytest.mark.parametrize("backend_name", available_backends())
def test_engine_planes_share_one_index_and_crc(backend_name, record_all,
                                               library, kernel_table):
    """Dense, quiet, mixed (joined), captured, spliced: the planes of
    one engine over one net set carry the same ``{net: row}`` dict and
    names CRC from birth, so neither is rebuilt per run."""
    circuit = random_circuit("shared", 8, 60, seed=6)
    rng = np.random.default_rng(6)
    dense = [PatternPair.random(8, rng) for _ in range(3)]
    quiet = [PatternPair(pair.v1, pair.v1.copy()) for pair in dense]
    engine = GpuWaveSim(circuit, library, config=SimulationConfig(
        backend=backend_name, record_all_nets=record_all))
    keys = engine._all_keys if record_all else engine._output_keys
    captured = engine.run(dense, kernel_table=kernel_table, capture_base=True)
    splice = DeltaPlan(captured.base_arena, np.arange(3, dtype=np.int64))
    planes = [
        engine.run(dense, kernel_table=kernel_table).plane,
        engine.run(quiet, kernel_table=kernel_table).plane,
        engine.run(dense + quiet, kernel_table=kernel_table).plane,
        captured.plane,
        engine.run(dense, kernel_table=kernel_table, delta=splice).plane,
    ]
    assert captured.base_arena.plane._index is engine._all_keys["index"]
    for plane in planes:
        assert plane.nets is keys["nets"]
        assert plane._index is keys["index"]
        assert plane._nets_crc == keys["nets_crc"]
        assert plane.checksum() == WaveformPlane.from_packed(
            plane.nets, *plane.packed()).checksum()
        assert plane.row(plane.nets[-1]) == len(plane.nets) - 1


# -- segments through the engine ----------------------------------------------------------


@pytest.fixture(scope="module")
def segmented(library):
    circuit = random_circuit("segs", 8, 80, seed=12)
    rng = np.random.default_rng(12)
    return circuit, [PatternPair.random(8, rng) for _ in range(11)]


def run_segmented(circuit, library, kernel_table, pairs, backend_name,
                  segments, config=(), **engine_kwargs):
    """The same plane with and without ``segments``; returns
    ``(segmented result, plain result)``."""
    def engine():
        return GpuWaveSim(circuit, library, config=SimulationConfig(
            backend=backend_name, prune_inactive=False, **dict(config)),
            **engine_kwargs)

    ours = engine().run(pairs, kernel_table=kernel_table, segments=segments)
    plain = engine().run(pairs, kernel_table=kernel_table)
    assert ours.plane.checksum() == plain.plane.checksum()
    return ours, plain


@pytest.mark.parametrize("record_all", [False, True])
@pytest.mark.parametrize("backend_name", available_backends())
def test_segments_served_from_one_arena_part(backend_name, record_all,
                                             segmented, library,
                                             kernel_table):
    from repro.simulation.grid import Segments

    circuit, pairs = segmented
    segments = Segments([4, 0, 1, 6])
    ours, plain = run_segmented(
        circuit, library, kernel_table, pairs, backend_name, segments,
        config=dict(record_all_nets=record_all))
    assert ours.base_arena is None and len(ours.segments) == 4
    bounds = segments.bounds
    for plane, lo, hi in zip(ours.segments, bounds, bounds[1:]):
        slots = np.arange(lo, hi)
        assert plane.checksum() == plain.plane.take(slots).checksum()
        assert plane.layout_intact() and plane.num_slots == hi - lo
    for plane, other in zip(ours.segments, ours.segments[1:]):
        assert not np.shares_memory(plane.times, other.times)


@pytest.mark.parametrize("backend_name", available_backends())
def test_partitioned_plane_hands_back_no_segments(backend_name, segmented,
                                                  library, kernel_table):
    """Memory-budget batches drop the segments (the caller slices the
    joined plane, as without them); an overflow retry of the whole
    batch keeps them."""
    from repro.simulation.grid import Segments

    circuit, pairs = segmented
    segments = Segments([5, 6])
    split, _ = run_segmented(circuit, library, kernel_table, pairs,
                             backend_name, segments, memory_budget=1)
    assert split.segments is None
    regrown, plain = run_segmented(circuit, library, kernel_table, pairs,
                                   backend_name, segments,
                                   config=dict(waveform_capacity=2))
    assert [plane.checksum() for plane in regrown.segments] == [
        plain.plane.take(np.arange(lo, hi)).checksum()
        for lo, hi in zip(segments.bounds, segments.bounds[1:])]


def test_segments_are_validated(segmented, library, kernel_table):
    from repro.errors import SimulationError
    from repro.simulation.grid import Segments

    circuit, pairs = segmented
    engine = GpuWaveSim(circuit, library)
    with pytest.raises(SimulationError, match="cover"):
        engine.run(pairs, kernel_table=kernel_table, segments=Segments([5, 5]))
    with pytest.raises(SimulationError, match="capture_base"):
        engine.run(pairs, kernel_table=kernel_table, capture_base=True,
                   segments=Segments([5, 6]))
    with pytest.raises(ValueError):
        Segments([5, -1])
