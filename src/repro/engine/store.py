"""Disk-backed, cross-process result cache (the tier under the LRU).

The in-process LRU dies with its process; worker pools and repeated CLI
invocations re-solve identical instances.  This module persists results
on disk, keyed by the same objective-qualified fingerprints, with a
design chosen for multi-writer safety on POSIX filesystems:

* **Append-only segment files.**  Every writer process appends to its
  *own* segment (``seg-<pid>-<nonce>.log``, rotated at
  ``max_segment_bytes``), so records from different processes never
  interleave inside one file.  Appends additionally take an ``fcntl``
  exclusive lock on the segment, guarding against pid/nonce collisions
  and making the write visible atomically.
* **Self-describing records.**  ``magic | store-version | key-len |
  payload-len | crc32(payload) | key | payload``.  Readers scan
  segments sequentially; a truncated or corrupt record ends the scan of
  that segment (everything before it stays readable), a record with an
  unknown store version is skipped, and a payload failing its CRC or
  unpickling is treated as a miss.  Corruption never raises out of
  :meth:`ResultStore.get`.
* **Incremental index.**  Each store instance keeps an in-memory
  ``key -> (segment, offset)`` map and remembers how far into every
  segment it has scanned; a miss triggers a cheap re-scan of segment
  tails plus any new segments, which is how one process observes
  another's writes mid-session.
* **Persistent counters.**  Each store instance accumulates its hits /
  misses / puts in its *own* ``stats-<pid>-<nonce>.json`` (a
  :class:`CounterFile`: written by atomic replace — single-writer, so
  no lock is ever taken on the counter hot path);
  :meth:`ResultStore.stats` sums every counter file, so ``repro cache
  stats`` shows that a second CLI invocation really was served from
  disk.  These files are the only count of store probes:
  ``repro metrics`` projects them from ``cache_stats``, and the
  metrics registry keeps no mirror of them.

In the layered cache stack this is the backing structure of the
persistent tier (:class:`repro.engine.tiers.StoreTier`): the
:class:`~repro.engine.tiers.TieredCache` probes LRU → store, promotes
store hits into the LRU, and writes fresh results through both tiers —
that tier strips results to ``schedule=None`` on the way in
(positional encodings rebuild schedules on the way out, so persisted
bytes stay compact and id-free).
"""

from __future__ import annotations

import io
import json
import os
import pickle
import struct
import threading
import uuid
import zlib
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

try:  # pragma: no cover - exercised only on non-POSIX hosts
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "STORE_VERSION",
    "StoreStats",
    "ResultStore",
    "CounterFile",
    "default_store_dir",
]

#: Bump when the record payload layout (EngineResult pickle contract)
#: changes incompatibly; readers skip records from other versions.
STORE_VERSION = 1

_MAGIC = b"RBST"
_HEADER = struct.Struct(">4sHHII")  # magic, version, key_len, payload_len, crc
_ENV_VAR = "REPRO_CACHE_DIR"


def default_store_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/store``."""
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "store"


class StoreStats(NamedTuple):
    """Cumulative cross-process counters plus current on-disk shape."""

    hits: int
    misses: int
    puts: int
    entries: int
    segments: int
    total_bytes: int
    path: str


class CounterFile:
    """The store's hit/miss/put counters, kept per process.

    This instance publishes its own counts to
    ``<root>/stats-<pid>-<nonce>.json`` by atomic replace — single
    writer, so no lock other processes contend on; :meth:`totals` sums
    every process's file.  When to :meth:`write` is the owner's flush
    policy.
    """

    FIELDS = ("hits", "misses", "puts")

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.counts: Dict[str, int] = dict.fromkeys(self.FIELDS, 0)
        self._path: Optional[Path] = None

    def _files(self) -> List[Path]:
        return list(self.root.glob("stats-*.json"))

    def write(self) -> bool:
        """Publish this instance's counts; ``False`` if that failed."""
        if self._path is None:
            self._path = self.root / (
                f"stats-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
            )
        tmp = self._path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(self.counts))
            tmp.replace(self._path)
        except OSError:  # pragma: no cover - stats are best-effort
            return False
        return True

    def totals(self) -> Dict[str, int]:
        """Every process's published counts, summed (unreadable files
        and junk values count as zero)."""
        totals = dict.fromkeys(self.counts, 0)
        for path in self._files():
            try:
                raw = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            for field in totals:
                try:
                    totals[field] += int(raw.get(field, 0))
                except (TypeError, ValueError):
                    pass
        return totals

    def clear(self) -> None:
        """Delete every process's file and zero this instance."""
        for path in self._files():
            try:
                path.unlink()
            except OSError:
                pass
        self.counts = dict.fromkeys(self.counts, 0)
        self._path = None


class _FileLock:
    """``fcntl.flock`` wrapper; a no-op where fcntl is unavailable."""

    def __init__(self, path: Path) -> None:
        self._path = path
        self._fh: Optional[io.IOBase] = None

    def __enter__(self) -> "_FileLock":
        self._fh = open(self._path, "a+b")
        if fcntl is not None:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        assert self._fh is not None
        try:
            if fcntl is not None:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        finally:
            self._fh.close()
            self._fh = None


class ResultStore:
    """Append-only segmented key→pickle store with shared counters."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        *,
        max_segment_bytes: int = 8 << 20,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self._lock = threading.Lock()
        self._index: Dict[str, Tuple[Path, int]] = {}
        self._scanned: Dict[str, int] = {}
        self._own_segment: Optional[Path] = None
        self._counters = CounterFile(self.root)
        self.refresh()

    # ------------------------------------------------------------------
    # scanning / index
    # ------------------------------------------------------------------
    def _segment_paths(self) -> List[Path]:
        return sorted(self.root.glob("seg-*.log"))

    def refresh(self) -> None:
        """Fold other processes' appended records into the index."""
        with self._lock:
            for seg in self._segment_paths():
                self._scan_segment(seg)

    def _scan_segment(self, seg: Path) -> None:
        start = self._scanned.get(seg.name, 0)
        try:
            size = seg.stat().st_size
        except OSError:
            return
        if size <= start:
            return
        try:
            with open(seg, "rb") as fh:
                fh.seek(start)
                offset = start
                while True:
                    header = fh.read(_HEADER.size)
                    if len(header) < _HEADER.size:
                        break  # clean EOF or truncated header
                    try:
                        magic, version, key_len, payload_len, crc = (
                            _HEADER.unpack(header)
                        )
                    except struct.error:  # pragma: no cover - size-checked
                        break
                    if magic != _MAGIC:
                        # Corrupt segment tail: nothing after this point
                        # can be trusted (records are not self-syncing).
                        break
                    body = fh.read(key_len + payload_len)
                    if len(body) < key_len + payload_len:
                        break  # truncated record
                    if version == STORE_VERSION:
                        key = body[:key_len].decode("utf-8", "replace")
                        self._index[key] = (seg, offset)
                    # Unknown version: skip the record, keep scanning —
                    # the framing is version-independent.
                    offset = fh.tell()
                    self._scanned[seg.name] = offset
        except OSError:
            return

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read_at(self, seg: Path, offset: int) -> Optional[Any]:
        try:
            with open(seg, "rb") as fh:
                fh.seek(offset)
                header = fh.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return None
                magic, version, key_len, payload_len, crc = _HEADER.unpack(
                    header
                )
                if magic != _MAGIC or version != STORE_VERSION:
                    return None
                fh.seek(key_len, os.SEEK_CUR)
                payload = fh.read(payload_len)
        except OSError:
            return None
        if len(payload) < payload_len or zlib.crc32(payload) != crc:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            return None

    def get(self, key: str) -> Optional[Any]:
        """The stored value, or ``None``; counts one hit or miss."""
        out = self.get_many([key])
        return out.get(key)

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batch lookup: one tail re-scan, one counter update."""
        keys = list(keys)
        found: Dict[str, Any] = {}
        missing = [k for k in keys if k not in self._index]
        if missing:
            self.refresh()
        with self._lock:
            locations = {
                k: self._index[k] for k in keys if k in self._index
            }
        for key, (seg, offset) in locations.items():
            value = self._read_at(seg, offset)
            if value is None:
                # Unreadable record (corruption, version drift): drop
                # it from the index so we stop paying for the seek.
                with self._lock:
                    self._index.pop(key, None)
            else:
                found[key] = value
        if keys:
            self._bump(hits=len(found), misses=len(keys) - len(found))
        return found

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _writable_segment(self) -> Path:
        seg = self._own_segment
        if seg is not None:
            try:
                if seg.stat().st_size < self.max_segment_bytes:
                    return seg
            except OSError:
                pass
        name = f"seg-{os.getpid()}-{uuid.uuid4().hex[:8]}.log"
        self._own_segment = self.root / name
        return self._own_segment

    def put(self, key: str, value: Any) -> None:
        self.put_many({key: value})

    def put_many(self, items: Mapping[str, Any]) -> None:
        """Append a batch of records: one lock/fsync per segment run
        and one counter update, instead of per-record overhead —
        ``solve_many`` folds whole batches through here."""
        entries = []
        for key, value in items.items():
            payload = pickle.dumps(value, protocol=4)
            key_bytes = key.encode("utf-8")
            entries.append(
                (
                    key,
                    _HEADER.pack(
                        _MAGIC,
                        STORE_VERSION,
                        len(key_bytes),
                        len(payload),
                        zlib.crc32(payload),
                    )
                    + key_bytes
                    + payload,
                )
            )
        if not entries:
            return
        with self._lock:
            i = 0
            while i < len(entries):
                seg = self._writable_segment()
                with _FileLock(seg):
                    with open(seg, "ab") as fh:
                        while i < len(entries):
                            key, record = entries[i]
                            offset = fh.tell()
                            fh.write(record)
                            self._index[key] = (seg, offset)
                            self._scanned[seg.name] = offset + len(record)
                            i += 1
                            if fh.tell() >= self.max_segment_bytes:
                                break  # rotate to a fresh segment
                        fh.flush()
                        os.fsync(fh.fileno())
        self._bump(puts=len(entries))

    # ------------------------------------------------------------------
    # counters / maintenance
    # ------------------------------------------------------------------
    def _bump(self, hits: int = 0, misses: int = 0, puts: int = 0) -> None:
        """Fold counter deltas into this instance's own counter file
        (written through on every call)."""
        if not (hits or misses or puts):
            return
        with self._lock:
            counts = self._counters.counts
            counts["hits"] += hits
            counts["misses"] += misses
            counts["puts"] += puts
            self._counters.write()

    def stats(self) -> StoreStats:
        self.refresh()
        counters = self._counters.totals()
        segments = self._segment_paths()
        total = 0
        for seg in segments:
            try:
                total += seg.stat().st_size
            except OSError:
                pass
        return StoreStats(
            hits=counters["hits"],
            misses=counters["misses"],
            puts=counters["puts"],
            entries=len(self._index),
            segments=len(segments),
            total_bytes=total,
            path=str(self.root),
        )

    def clear(self) -> None:
        """Drop every segment and reset the shared counters."""
        with self._lock:
            with _FileLock(self.root / ".lock"):
                for path in self._segment_paths():
                    try:
                        path.unlink()
                    except OSError:
                        pass
                self._counters.clear()
            self._index.clear()
            self._scanned.clear()
            self._own_segment = None

    def __len__(self) -> int:
        return len(self._index)
