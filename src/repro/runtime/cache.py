"""Keyed on-disk result cache for sweep and report runs.

A cache entry is addressed by the SHA-256 of a canonical-JSON key
describing everything that determines the result (design name, sample
counts, degradation knobs, engine version).  Payloads are float64
arrays stored with ``np.savez`` next to a small JSON meta file; reads
reconstruct them bit for bit, which is what lets ``repro report`` and
``repro compare`` skip recomputation without perturbing manifests.

Entries are written atomically (per-process-unique temp file +
``os.replace``) so an interrupted run never leaves a half-written
entry and two concurrent writers of the same entry never interleave
into each other's temp files, and any unreadable or mismatched entry
is treated as a miss and overwritten on the next store.

Every lookup and store is accounted in the process-wide instrument
registry (:mod:`repro.observability.instruments`): ``repro.cache.hits``
/ ``misses`` / ``corruption`` / ``evictions`` counters (labeled by the
key's ``kind``), a ``repro.cache.bytes_stored`` byte counter and a
``repro.cache.lookup_seconds`` latency histogram.  Worker processes
route these through the executor's snapshot/merge path, so a sharded
sweep's counts sum correctly in the parent -- see
``docs/OBSERVABILITY.md``.  The per-instance ``hits`` / ``misses`` /
``evictions`` attributes remain for single-process callers.

An optional ``max_bytes`` budget turns the cache into a bounded LRU:
after each store, the oldest entries (by payload mtime) are evicted
until the directory fits the budget.  Hits re-touch the payload's
mtime, so eviction order is least recently *used*, not least recently
written -- the behaviour the simulation service relies on when the
cache serves as its shared artifact store (``repro serve
--max-bytes``): a figure every client keeps requesting stays resident
while one-off runs age out.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from pathlib import Path
from typing import Any

import numpy as np

from repro import __version__
from repro.errors import ConfigurationError
from repro.observability.instruments import get_registry

__all__ = ["ResultCache"]

#: Bump when the cached payload layout or the lowered engines' numeric
#: contract changes; stale-version entries then miss instead of lying.
CACHE_SCHEMA_VERSION = 1

_ENV_DIR = "REPRO_CACHE_DIR"
_DEFAULT_DIRNAME = ".repro-cache"

#: Lookup-latency buckets (seconds): a hit is a JSON read plus an npz
#: load, so the interesting range is tens of microseconds to ~1 s.
_LOOKUP_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    1.0,
)


def _canonical_key(key: dict[str, Any]) -> str:
    """Return the canonical JSON encoding used for hashing."""
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def _key_kind(key: dict[str, Any]) -> str:
    """Return the key's ``kind`` field, the cache counters' label."""
    return str(key.get("kind", "unknown"))


class ResultCache:
    """Content-addressed store of named float64 arrays.

    Parameters
    ----------
    directory:
        Cache root.  Defaults to ``$REPRO_CACHE_DIR`` when set, else
        ``.repro-cache`` under the current working directory.
    max_bytes:
        Optional size budget.  After each store the oldest entries (by
        payload mtime, which hits re-touch -- true least-recently-used
        order) are evicted until the cache fits, each eviction
        incrementing the ``repro.cache.evictions`` counter.  ``None``
        (the default) never evicts.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str] | None = None,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if directory is None:
            directory = os.environ.get(_ENV_DIR) or _DEFAULT_DIRNAME
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(
                f"max_bytes must be >= 1 when set, got {max_bytes!r}"
            )
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_digest(key: dict[str, Any]) -> str:
        """Return the hex digest addressing ``key``.

        The package version is part of the digest: any release may
        change numeric behaviour, and a stale entry that silently
        outlives an upgrade would defeat the bit-exact contract.
        """
        payload = _canonical_key(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": __version__,
                "key": key,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _paths(self, digest: str) -> tuple[Path, Path]:
        return (
            self.directory / f"{digest}.npz",
            self.directory / f"{digest}.json",
        )

    def load(self, key: dict[str, Any]) -> dict[str, np.ndarray] | None:
        """Return the cached arrays for ``key``, or ``None`` on a miss.

        Corrupt, partial or stale entries are misses, never errors;
        they additionally increment ``repro.cache.corruption`` so a
        deployment can tell cold lookups from damaged entries.
        """
        started = time.perf_counter()
        digest = self.key_digest(key)
        data_path, meta_path = self._paths(digest)
        kind = _key_kind(key)
        registry = get_registry()
        arrays: dict[str, np.ndarray] | None = None
        corrupt = False
        try:
            meta_text = meta_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            meta_text = None
        except OSError:
            meta_text = None
            corrupt = True
        if meta_text is not None:
            # The meta file exists: from here on, any failure means a
            # damaged or stale entry, not a cold lookup.
            try:
                meta = json.loads(meta_text)
                if meta.get("schema") != CACHE_SCHEMA_VERSION:
                    raise ValueError("schema mismatch")
                if meta.get("key") != _canonical_key(key):
                    raise ValueError("key collision")
                with np.load(data_path) as archive:
                    arrays = {
                        name: archive[name].copy() for name in archive.files
                    }
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                arrays = None
                corrupt = True
        registry.histogram(
            "repro.cache.lookup_seconds",
            buckets=_LOOKUP_BUCKETS,
            help="cache lookup latency (hit or miss)",
        ).observe(time.perf_counter() - started, kind=kind)
        if arrays is not None:
            self.hits += 1
            registry.counter(
                "repro.cache.hits", help="cache lookups served from disk"
            ).inc(kind=kind)
            # Touch the payload so the max_bytes eviction order is true
            # LRU (least recently *used*): a hot entry served to many
            # service requests must outlive a cold one stored later.
            try:
                os.utime(data_path)
            except OSError:
                pass
            return arrays
        self.misses += 1
        registry.counter(
            "repro.cache.misses", help="cache lookups that missed"
        ).inc(kind=kind)
        if corrupt:
            registry.counter(
                "repro.cache.corruption",
                help="damaged or stale entries treated as misses",
            ).inc(kind=kind)
        return None

    def store(self, key: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
        """Persist ``arrays`` under ``key`` atomically.

        Accounts the written bytes in ``repro.cache.bytes_stored`` and
        applies the ``max_bytes`` eviction budget afterwards.
        """
        digest = self.key_digest(key)
        data_path, meta_path = self._paths(digest)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Temp names carry the pid and a uuid: concurrent writers of
        # the same entry (sharded sweeps, parallel CI jobs) each write
        # their own file, and whoever replaces last wins whole.
        unique = f"{os.getpid()}-{uuid.uuid4().hex}"
        tmp_data = data_path.with_suffix(f".{unique}.npz.tmp")
        try:
            with open(tmp_data, "wb") as handle:
                np.savez(
                    handle, **{k: np.asarray(v) for k, v in arrays.items()}
                )
            os.replace(tmp_data, data_path)
        finally:
            tmp_data.unlink(missing_ok=True)
        meta = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": _canonical_key(key),
        }
        tmp_meta = meta_path.with_suffix(f".{unique}.json.tmp")
        try:
            tmp_meta.write_text(
                json.dumps(meta, sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp_meta, meta_path)
        finally:
            tmp_meta.unlink(missing_ok=True)
        stored = 0
        for path in (data_path, meta_path):
            try:
                stored += path.stat().st_size
            except OSError:
                continue
        get_registry().counter(
            "repro.cache.bytes_stored", help="payload bytes written to the cache"
        ).inc(stored, kind=_key_kind(key))
        self._evict_to_limit()

    def size_bytes(self) -> int:
        """Return the total size of every entry file in the cache."""
        total = 0
        if not self.directory.is_dir():
            return total
        for path in self.directory.iterdir():
            if path.suffix in {".npz", ".json"}:
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        return total

    def _evict_to_limit(self) -> None:
        """Evict oldest entries (by payload mtime) past ``max_bytes``."""
        if self.max_bytes is None:
            return
        entries: list[tuple[float, int, Path, Path]] = []
        total = 0
        if not self.directory.is_dir():
            return
        for data_path in self.directory.glob("*.npz"):
            meta_path = data_path.with_suffix(".json")
            try:
                stat = data_path.stat()
            except OSError:
                continue
            size = stat.st_size
            try:
                size += meta_path.stat().st_size
            except OSError:
                pass
            entries.append((stat.st_mtime, size, data_path, meta_path))
            total += size
        if total <= self.max_bytes:
            return
        registry = get_registry()
        for _, size, data_path, meta_path in sorted(entries):
            if total <= self.max_bytes:
                break
            for path in (data_path, meta_path):
                try:
                    path.unlink()
                except OSError:
                    continue
            total -= size
            self.evictions += 1
            registry.counter(
                "repro.cache.evictions",
                help="entries removed by the max-bytes LRU budget",
            ).inc()

    def clear(self) -> int:
        """Delete every cache entry; return the number of files removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.iterdir():
            if path.suffix in {".npz", ".json"} or path.name.endswith(".tmp"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed
