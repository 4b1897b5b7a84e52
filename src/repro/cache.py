"""Caching layers: an in-process construction memo and an on-disk store.

Two independent layers, both instrumented through :mod:`repro.perf`:

**Device memo** (always on unless ``REPRO_DEVICE_CACHE=0``): the
scaling optimisers root-solve leakage by rebuilding a
:class:`~repro.device.mosfet.MOSFET` at every residual evaluation, and
sweeps/benchmarks rebuild the same devices again afterwards.  Devices
are immutable (frozen dataclasses), so construction is memoised on the
full parameter tuple in a bounded LRU table and identical rebuilds are
free.

**Grid tensors on disk** (opt-in): the design-space service's
precomputed metric grids, ``grid-{grid_id}-{hash}.npz``
(:func:`grid_path`; built by ``repro grid build``, written/read by
:mod:`repro.service.grid`).  Enable the disk cache by either::

    export REPRO_CACHE_DIR=/path/to/cache   # explicit location
    export REPRO_CACHE=1                    # default ~/.cache/repro

Entries are versioned by :func:`model_schema_hash`, a digest of the
physics/optimiser source files — any model change changes the hash and
silently invalidates old entries.  To invalidate manually, delete the
cache directory (or call :func:`clear_disk_cache`).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import threading
from collections import OrderedDict
from typing import Any, Hashable

from . import perf

#: Packages/modules whose source defines the numerical results that the
#: disk cache stores.  Editing any of these invalidates the cache.
_SCHEMA_SOURCES = (
    "constants.py",
    "units.py",
    "materials",
    "device",
    "scaling",
    "circuit",
)


class LRUMemo:
    """A bounded, thread-safe memo table with perf-counter reporting.

    Parameters
    ----------
    name:
        Counter namespace: hits/misses appear as ``cache.<name>.hits``
        and ``cache.<name>.misses``, evictions as
        ``cache.<name>.evictions``.
    maxsize:
        Entry cap; least-recently-used entries are evicted beyond it.
    """

    def __init__(self, name: str, maxsize: int = 4096) -> None:
        self.name = name
        self.maxsize = maxsize
        self._table: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any | None:
        """Look up ``key``; returns None (and counts a miss) if absent."""
        with self._lock:
            try:
                value = self._table[key]
            except KeyError:
                perf.bump(f"cache.{self.name}.misses")
                return None
            self._table.move_to_end(key)
        perf.bump(f"cache.{self.name}.hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting (and counting) the LRU
        entry if full."""
        evicted = 0
        with self._lock:
            self._table[key] = value
            self._table.move_to_end(key)
            while len(self._table) > self.maxsize:
                self._table.popitem(last=False)
                evicted += 1
        if evicted:
            perf.bump(f"cache.{self.name}.evictions", evicted)

    def clear(self) -> None:
        """Drop every entry (counters are left alone)."""
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


#: Memo for :func:`repro.device.mosfet.nfet` / ``pfet`` construction.
device_memo = LRUMemo("device", maxsize=8192)


def device_cache_enabled() -> bool:
    """Whether the in-process device memo is active (default yes)."""
    return os.environ.get("REPRO_DEVICE_CACHE", "1") != "0"


# -- on-disk cache ------------------------------------------------------------

def cache_dir() -> pathlib.Path | None:
    """The on-disk cache directory, or None when the cache is disabled.

    ``$REPRO_CACHE_DIR`` names an explicit directory; otherwise setting
    ``$REPRO_CACHE`` to a truthy value opts in at ``~/.cache/repro``.
    """
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return pathlib.Path(explicit).expanduser()
    flag = os.environ.get("REPRO_CACHE", "").lower()
    if flag in ("1", "true", "yes", "on"):
        return pathlib.Path("~/.cache/repro").expanduser()
    return None


_SCHEMA_HASH: str | None = None
_SCHEMA_LOCK = threading.Lock()


def model_schema_hash() -> str:
    """Digest of the model source files that determine cached results."""
    global _SCHEMA_HASH
    with _SCHEMA_LOCK:
        if _SCHEMA_HASH is None:
            root = pathlib.Path(__file__).parent
            digest = hashlib.sha256()
            for entry in _SCHEMA_SOURCES:
                path = root / entry
                files = (sorted(path.glob("*.py")) if path.is_dir()
                         else [path])
                for source in files:
                    digest.update(str(source.relative_to(root)).encode())
                    digest.update(source.read_bytes())
            _SCHEMA_HASH = digest.hexdigest()[:16]
    return _SCHEMA_HASH


# -- design-space grid tensors ------------------------------------------------

def grid_path(grid_id: str) -> pathlib.Path | None:
    """Cache path for a precomputed design-space grid, or None.

    ``grid_id`` is the :meth:`repro.service.grid.GridSpec.grid_id` axes
    digest; the filename also carries :func:`model_schema_hash`, so a
    model edit orphans old tensors (the service then reports a cache
    miss and rebuilds or falls back to the exact tier).  Returns None
    when the disk cache is disabled.
    """
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"grid-{grid_id}-{model_schema_hash()}.npz"


def clear_disk_cache() -> int:
    """Delete the disk cache's grid tensors; returns the count removed."""
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for path in directory.glob("*.npz"):
        path.unlink(missing_ok=True)
        removed += 1
    return removed
