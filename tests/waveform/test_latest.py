"""``WaveformPlane.latest`` on mostly quiet planes.

``latest`` reduces only the slots where a watched net toggles and leaves
the rest at ``-inf``; whatever it skips, it must equal the object-loop
definition — per slot, the latest transition of any watched net's
:class:`Waveform` — for every choice of nets and slots and for planes
whose payload is not in dense order.
"""

import numpy as np
import pytest

from repro.waveform.plane import WaveformPlane
from repro.waveform.waveform import Waveform

NETS = tuple(f"n{row}" for row in range(7))


def quiet_plane(rng, num_slots, live_slots):
    """A plane whose slots outside ``live_slots`` carry no toggle; in a
    live slot each net toggles with probability one half."""
    waveforms = []
    for slot in range(num_slots):
        mapping = {}
        for net in NETS:
            count = (int(rng.integers(1, 4))
                     if slot in live_slots and rng.random() < 0.5 else 0)
            times = np.sort(rng.random(count)) * 1e-9
            mapping[net] = Waveform.trusted(int(rng.integers(0, 2)), times)
        waveforms.append(mapping)
    return WaveformPlane.from_waveforms(waveforms, nets=NETS)


def loop_latest(plane, nets, slots):
    """The definition: one :class:`Waveform` per watched (net, slot)."""
    nets = plane.nets if nets is None else nets
    slots = range(plane.num_slots) if slots is None else slots
    return np.asarray([
        max((plane[slot][net].latest_transition() for net in nets),
            default=-np.inf)
        for slot in slots], dtype=np.float64)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("live", [0, 1, 4])
def test_latest_matches_the_object_loop(seed, live):
    rng = np.random.default_rng(seed)
    num_slots = 60
    live_slots = set(rng.choice(num_slots, size=live, replace=False).tolist())
    plane = quiet_plane(rng, num_slots, live_slots)
    assert np.count_nonzero(plane.counts.any(axis=0)) <= 0.1 * num_slots
    # The same content with the payload out of dense order.
    order = rng.permutation(num_slots)
    shuffled = plane.take(order).take(np.argsort(order), copy=False)
    for subject in (plane, shuffled):
        for nets in (None, list(NETS[::2]), list(NETS[::-1]), []):
            for slots in (None, np.arange(num_slots)[::-3], []):
                got = subject.latest(nets, slots)
                np.testing.assert_array_equal(
                    got, loop_latest(plane, nets, slots))
    if not live_slots:
        assert (plane.latest() == -np.inf).all()
