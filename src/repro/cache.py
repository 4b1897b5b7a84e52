"""Caching layers: in-process construction memos and an on-disk store.

Two independent layers, both instrumented through :mod:`repro.perf`:

**Device memo** (always on unless ``REPRO_DEVICE_CACHE=0``): the
scaling optimisers root-solve leakage by rebuilding a
:class:`~repro.device.mosfet.MOSFET` at every residual evaluation, and
sweeps/benchmarks rebuild the same devices again afterwards.  Devices
are immutable (frozen dataclasses), so construction is memoised on the
full parameter tuple in a bounded LRU table and identical rebuilds are
free.

**Family disk cache** (opt-in): optimising a Table 2/3
:class:`~repro.scaling.strategy.DeviceFamily` costs seconds of
root-solving but is a pure function of the model source code.  When
enabled, optimised families are persisted as JSON through
:mod:`repro.io.serialize` and reloaded on the next run.  Enable it by
either::

    export REPRO_CACHE_DIR=/path/to/cache   # explicit location
    export REPRO_CACHE=1                    # default ~/.cache/repro

Entries are versioned by :func:`model_schema_hash`, a digest of the
physics/optimiser source files — any model change changes the hash and
silently invalidates old entries.  To invalidate manually, delete the
cache directory (or call :func:`clear_disk_cache`).

The cache directory has three tenants, all keyed by the same schema
hash (see ``docs/TUTORIAL.md`` for the full layout):

* family entries — ``{tag}-{hash}.json``, optimised
  :class:`~repro.scaling.strategy.DeviceFamily` JSON;
* the bracket spill — ``brackets-{hash}.json``, the doping solver's
  warm-start table (:func:`load_brackets` / :func:`store_brackets`);
* grid tensors — ``grid-{grid_id}-{hash}.npz``, the design-space
  service's precomputed metric grids (:func:`grid_path`; built by
  ``repro grid build``, written/read by :mod:`repro.service.grid`).
"""

from __future__ import annotations

import hashlib
import json
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
    "io/serialize.py",
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


# -- on-disk family cache -----------------------------------------------------

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


def _entry_path(tag: str, directory: pathlib.Path) -> pathlib.Path:
    return directory / f"{tag}-{model_schema_hash()}.json"


def load_family(tag: str):
    """Load a cached :class:`DeviceFamily`, or None on miss/disabled.

    Any unreadable or schema-mismatched entry counts as a miss; the
    caller recomputes and overwrites it.
    """
    directory = cache_dir()
    if directory is None:
        return None
    path = _entry_path(tag, directory)
    # Imported lazily: io.serialize imports the device layer, which
    # imports this module for the construction memo.
    from .io.serialize import family_from_dict, load_json
    try:
        family = family_from_dict(load_json(path))
    except (OSError, ValueError, KeyError, TypeError):
        perf.bump("cache.family.misses")
        return None
    perf.bump("cache.family.hits")
    return family


def store_family(tag: str, family) -> None:
    """Persist an optimised family (no-op when the cache is disabled)."""
    directory = cache_dir()
    if directory is None:
        return
    from .io.serialize import family_to_dict, save_json
    directory.mkdir(parents=True, exist_ok=True)
    path = _entry_path(tag, directory)
    tmp = path.with_suffix(".json.tmp")
    save_json(family_to_dict(family), tmp)
    tmp.replace(path)
    perf.bump("cache.family.stores")


# -- on-disk bracket spill ----------------------------------------------------
#
# The scaling doping solver's warm-start brackets (repro.scaling.batch)
# are scoped to one flow invocation, so cold invocations re-derive every
# root from the full doping bounds.  When the disk cache is enabled the
# solver spills each cold-converged final bracket here — keyed by the
# same model schema hash as the family cache, so model edits silently
# invalidate old brackets — and replays it on the next invocation.
# Replayed brackets are already below the solver tolerance, which makes
# replay byte-deterministic: the lane retires before its first sweep
# with exactly the midpoint a cold solve would return.
#
# The spill is an append-only log: each store adds one line, a
# ``{"schema": 1, "entries": {...}}`` object holding only that store's
# new brackets, so a spill costs O(new entries) however large the table
# has grown.  A single-object file written before the log format is a
# valid one-line log.

_BRACKET_TAG = "brackets"
_BRACKET_TABLES: dict[pathlib.Path, dict[str, list[float]]] = {}
_BRACKET_LOCK = threading.Lock()


def _bracket_pairs(line: str) -> dict[str, list[float]]:
    """The brackets of one spill line; empty when it does not parse."""
    try:
        payload = json.loads(line)
        entries = (payload.get("entries", {})
                   if payload.get("schema") == 1 else {})
        return {str(key): [float(pair[0]), float(pair[1])]
                for key, pair in entries.items()
                if isinstance(pair, (list, tuple)) and len(pair) == 2}
    except (ValueError, TypeError, AttributeError):
        return {}


def load_brackets() -> dict[str, list[float]] | None:
    """The on-disk bracket table, or None when the cache is disabled.

    The table maps the solver's exact string keys to ``[lo, hi]``
    bracket pairs, merged from the spill log's lines in order (later
    entries win).  A line that does not parse — a torn tail from an
    interrupted append — is skipped: it loses its entries but never
    changes a result, because a spilled bracket only accelerates a
    solve.  The table is read once per process per cache directory
    and shared with :func:`store_brackets`, which extends it.
    """
    directory = cache_dir()
    if directory is None:
        return None
    path = _entry_path(_BRACKET_TAG, directory)
    with _BRACKET_LOCK:
        table = _BRACKET_TABLES.get(path)
        if table is None:
            table = {}
            try:
                lines = path.read_text().splitlines()
            except (OSError, ValueError):
                lines = []
            for line in lines:
                table.update(_bracket_pairs(line))
            _BRACKET_TABLES[path] = table
    return table


def store_brackets(entries: dict[str, tuple[float, float]]) -> None:
    """Merge solved brackets into the table and append them to the log.

    No-op when the cache is disabled or no entry is new.  The new
    entries go out as one JSON line in one ``os.write`` on an
    ``O_APPEND`` descriptor, so the cost is O(new entries), and
    concurrent writers — parallel shard workers of
    ``repro grid build --jobs N`` — append whole lines rather than
    interleaving a buffered write's pieces.  Each line starts with a
    newline, so neither a torn line nor a file written without a
    trailing newline can swallow the next one.  JSON serialises
    floats via ``repr`` (shortest round-trip), so replayed brackets
    are bitwise the ones that were spilled.
    """
    table = load_brackets()
    if table is None:
        return
    directory = cache_dir()
    assert directory is not None
    with _BRACKET_LOCK:
        new = {}
        for key, (lo, hi) in entries.items():
            pair = [float(lo), float(hi)]
            if table.get(str(key)) != pair:
                table[str(key)] = pair
                new[str(key)] = pair
        if not new:
            return
        line = "\n" + json.dumps({"schema": 1, "entries": new},
                                 sort_keys=True)
        directory.mkdir(parents=True, exist_ok=True)
        path = _entry_path(_BRACKET_TAG, directory)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)


# -- design-space grid tensors ------------------------------------------------

def grid_path(grid_id: str) -> pathlib.Path | None:
    """Cache path for a precomputed design-space grid, or None.

    ``grid_id`` is the :meth:`repro.service.grid.GridSpec.grid_id` axes
    digest; the filename also carries :func:`model_schema_hash`, so a
    model edit orphans old tensors exactly like stale family entries
    (the service then reports a cache miss and rebuilds or falls back
    to the exact tier).  Returns None when the disk cache is disabled.
    """
    directory = cache_dir()
    if directory is None:
        return None
    return directory / f"grid-{grid_id}-{model_schema_hash()}.npz"


def clear_disk_cache() -> int:
    """Delete every entry in the disk cache; returns the count removed.

    Covers all three tenants: family JSON, the bracket spill, and the
    design-space grid tensors (``*.npz``).
    """
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for pattern in ("*.json", "*.npz"):
        for path in directory.glob(pattern):
            path.unlink(missing_ok=True)
            removed += 1
    with _BRACKET_LOCK:
        _BRACKET_TABLES.clear()
    return removed
