"""Campaign checkpoint directory: chunk waveforms + manifest.

A campaign directory holds one ``manifest.json`` plus one ``.npz`` file
per completed slot-plane chunk:

* the manifest pins the campaign identity — a SHA-256 fingerprint over
  the compiled circuit, stimuli, slot plan, engine configuration,
  kernel table and variation model — together with the chunking so a
  resume run can prove it is continuing the *same* campaign and re-use
  the same chunk boundaries;
* each chunk file stores the per-slot waveforms in a flat columnar form
  (net names, initial values, toggle counts and one concatenated
  toggle-time vector), written atomically (temp file + ``os.replace``)
  so an interrupt can never leave a half-written chunk behind.

Corrupt or truncated chunk files are treated as *missing*: the loader
deletes them and the runner simply re-simulates those chunks — a crash
during checkpointing degrades to recomputation, never to wrong results.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

import numpy as np

from repro.errors import CheckpointError
from repro.runtime.fingerprint import campaign_fingerprint
from repro.store import atomic_write, read_manifest, write_manifest
from repro.waveform.plane import WaveformPlane

__all__ = ["CheckpointStore", "campaign_fingerprint", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"

#: Bumped whenever the chunk or manifest layout changes incompatibly.
FORMAT_VERSION = 1


class CheckpointStore:
    """File-backed chunk results for one campaign directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    # -- manifest -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def load_manifest(self) -> Optional[dict]:
        """The stored manifest, or ``None`` for a fresh directory."""
        return read_manifest(self.manifest_path, FORMAT_VERSION, "campaign")

    def write_manifest(self, manifest: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        write_manifest(self.manifest_path, FORMAT_VERSION, manifest)

    # -- chunks ---------------------------------------------------------------

    def chunk_path(self, index: int) -> Path:
        return self.directory / f"chunk_{index:05d}.npz"

    def has_chunk(self, index: int) -> bool:
        return self.chunk_path(index).exists()

    def save_chunk(self, index: int, waveforms) -> None:
        """Persist one chunk atomically — a
        :class:`~repro.waveform.plane.WaveformPlane` or per-slot
        ``{net: Waveform}`` mappings, stored in the plane's packed form."""
        if not len(waveforms):
            raise CheckpointError("cannot checkpoint an empty chunk")
        try:
            plane = WaveformPlane.from_waveforms(waveforms)
        except KeyError as error:
            raise CheckpointError(
                f"chunk {index}: a slot is missing net {error}") from None
        self.directory.mkdir(parents=True, exist_ok=True)
        initial, counts, times = plane.packed()
        payload = {
            "nets": np.asarray(plane.nets),
            "initial": initial,
            "counts": counts,
            "times": times,
        }
        atomic_write(self.chunk_path(index),
                     lambda stream: np.savez_compressed(stream, **payload))

    def load_chunk(self, index: int, expected_slots: int) -> WaveformPlane:
        """Load one chunk; raises :class:`CheckpointError` on corruption."""
        path = self.chunk_path(index)
        try:
            with np.load(path, allow_pickle=False) as data:
                nets = [str(net) for net in data["nets"]]
                initial = np.asarray(data["initial"], dtype=np.uint8)
                counts = np.asarray(data["counts"], dtype=np.int64)
                times = np.asarray(data["times"], dtype=np.float64)
        except (OSError, ValueError, KeyError) as error:
            raise CheckpointError(
                f"corrupt chunk file {path}: {error}"
            ) from error
        if initial.shape != (len(nets), expected_slots) or \
                counts.shape != (len(nets), expected_slots):
            raise CheckpointError(
                f"chunk file {path} holds {initial.shape[1] if initial.ndim == 2 else '?'} "
                f"slots, expected {expected_slots}"
            )
        if int(counts.sum()) != times.size or (counts < 0).any():
            raise CheckpointError(
                f"chunk file {path} toggle payload is truncated"
            )
        return WaveformPlane.from_packed(nets, initial, counts, times)

    def try_load_chunk(self, index: int,
                       expected_slots: int) -> Optional[WaveformPlane]:
        """Graceful loader: a corrupt chunk is deleted and reported as
        missing so the runner re-simulates it instead of aborting."""
        if not self.has_chunk(index):
            return None
        try:
            return self.load_chunk(index, expected_slots)
        except CheckpointError:
            try:
                os.unlink(self.chunk_path(index))
            except OSError:
                pass
            return None
