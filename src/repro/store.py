"""One store: the bounded LRU, the atomic file write and the versioned
manifest that every cache and checkpoint of the package is built on
(``docs/architecture.md`` §4 lists the stores, their keys and bounds).
Nothing here imports above the standard library and :mod:`repro.errors`.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import (BinaryIO, Callable, Dict, Generic, Hashable, Iterable,
                    Iterator, Optional, Tuple, TypeVar, Union)

from repro.errors import CheckpointError

__all__ = ["LruCache", "atomic_write", "read_manifest", "write_manifest"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

class LruCache(Generic[K, V]):
    """Thread-safe LRU bounded at ``max_entries``, with counters.

    :meth:`get` counts a hit (the entry becomes the newest) or a miss
    (``None``, so ``None`` is not a value).  :meth:`put` inserts or replaces, making the key the newest, then
    evicts from the oldest end down to the bound, so replacing never
    evicts; :meth:`put_if_absent` keeps the first value and counts
    nothing.  ``in``, ``len`` and iteration (oldest to newest, over a
    snapshot) neither count nor reorder; :meth:`clear` drops the entries
    and :meth:`reset` the counters too.  ``verify`` is called under the
    lock on every entry :meth:`get` would return; a false answer drops
    the entry as an integrity eviction and a miss.  A cache bounded at
    zero holds nothing and counts nothing.
    """

    def __init__(self, max_entries: int,
                 verify: Optional[Callable[[V], bool]] = None) -> None:
        self.max_entries = max_entries
        self._verify = verify
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = 0
        self.evictions = self.integrity_evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[K]:
        with self._lock:
            return iter(list(self._entries))

    def get(self, key: K) -> Optional[V]:
        """The entry under ``key`` (refreshed), or ``None`` (a miss)."""
        if self.max_entries <= 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if self._verify is not None and not self._verify(entry):
                del self._entries[key]
                self.integrity_evictions += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: K, value: V) -> None:
        self.put_many(((key, value),))

    def put_many(self, items: Iterable[Tuple[K, V]]) -> None:
        """:meth:`put` for several entries under one lock acquisition,
        evicting once all of them are in."""
        if self.max_entries <= 0:
            return
        with self._lock:
            entries = self._entries
            for key, value in items:
                entries[key] = value
                entries.move_to_end(key)
            self._evict()

    def put_if_absent(self, key: K, value: V) -> V:
        """Insert ``value`` unless ``key`` is resident; returns the
        resident value — the first one in wins."""
        if self.max_entries <= 0:
            return value
        with self._lock:
            resident = self._entries.setdefault(key, value)
            if resident is value:
                self._evict()
            return resident

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        with self._lock:
            self._entries.clear()

    def reset(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0
            self.evictions = self.integrity_evictions = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return 0.0 if total == 0 else self.hits / total

    def stats(self) -> Dict[str, Union[int, float]]:
        """Occupancy and counters, read under one lock acquisition."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "integrity_evictions": self.integrity_evictions,
                "hit_rate": self.hit_rate,
            }


def atomic_write(path: Union[str, os.PathLike],
                 payload: Union[bytes, Callable[[BinaryIO], None]]) -> None:
    """Replace ``path`` with ``payload`` (bytes, or a function writing to
    the open binary stream): a reader or a crash sees the old file or the
    new one.  The temp file sits beside ``path``, so ``os.replace`` is
    atomic, and is removed when writing fails."""
    directory, name = os.path.split(os.fspath(path))
    handle, temp_name = tempfile.mkstemp(dir=directory or ".",
                                         prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            if callable(payload):
                payload(stream)
            else:
                stream.write(payload)
        os.replace(temp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise


def write_manifest(path: Union[str, os.PathLike], version: int,
                   manifest: dict) -> None:
    """Write ``manifest`` as JSON, stamped with ``format_version``."""
    atomic_write(path, json.dumps(dict(manifest, format_version=version),
                                  indent=2).encode("utf-8"))


def read_manifest(path: Union[str, os.PathLike], version: int,
                  kind: str) -> Optional[dict]:
    """The JSON manifest at ``path``, or ``None`` when there is none;
    :class:`~repro.errors.CheckpointError` (naming the ``kind``) when it
    is unreadable or its ``format_version`` is not ``version``."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            manifest = json.load(stream)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise CheckpointError(
            f"unreadable {kind} manifest {path}: {error}") from error
    if manifest.get("format_version") != version:
        raise CheckpointError(
            f"{kind} manifest {path} has format version "
            f"{manifest.get('format_version')!r}, expected {version}")
    return manifest
