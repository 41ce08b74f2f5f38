"""Near-miss repair tier: incremental re-solve over the store.

Every cache tier so far (LRU, disk store, wire tier) serves *exact*
fingerprint hits only, yet skewed traffic is dominated by instances
that differ from a stored one by a single job.  This module turns the
persistent store into a similarity-serving tier: a
:class:`RepairTier` slots into the :class:`~repro.engine.tiers.
TieredCache` between the LRU and the store and answers a miss by
*repairing* a stored near-miss instead of re-solving from scratch.

Three pieces:

* **Similarity index** — at store-write time each indexable result
  gets a record in a ``simidx/`` sub-store beside the CRC-framed
  result segments: the instance's canonical content rows, the solve-
  order permutation, and the per-step placement vector.  In memory the
  tier keeps two signature maps over 64-bit *multiset* row hashes
  (order-independent sums of per-row mixes): the full-sum signature
  and every leave-one-out signature.  A query instance then finds
  "stored instance differing by ≤ 1 job" with O(n) dictionary probes —
  substitution (query LOO sum = stored LOO sum), insertion (query LOO
  sum = stored full sum) and removal (query full sum = stored LOO sum)
  — never a store scan.  The LOO map holds O(n) entries per record,
  an accepted trade at this store's scale.
* **One FirstFit per family** — the four FirstFit families (minbusy
  / capacity / rect2d / ring) attach a :class:`RepairSpec` naming their
  own route predicate, fingerprint rows, sort key, placement loop and
  result constructor.  The tier bit-compares the solve-ordered rows of
  query and candidate, trusts the candidate's placements for the
  longest common prefix (equal ordered rows imply equal FirstFit
  decisions), and hands that prefix to the family loop (``prefix=``),
  which seeds its occupancy engine in bulk and places only the tail.
* **Abort-to-miss, never approximate** — the hash probe is only a
  *finder*; correctness rests on re-certifying the stored rows against
  the fingerprint embedded in the record's cache key (and the query
  rows against the plan's own fingerprint), on the bitwise
  (``uint64``-view) prefix comparison, on structural invariants of
  the trusted prefix (machine contiguity, thread-0 openings, a true
  permutation), and on the occupancy engine's ``seed`` refusing an
  infeasible prefix (overlapping items on one thread, a machine over
  capacity).  Any check failing — or any unexpected exception —
  aborts the repair and falls through to the tiers below.  Attempts,
  hits and aborts are counted in per-process ``rstats-*.json`` files
  (the store's :class:`~repro.engine.store.CounterFile`) and surface
  in ``cache_stats`` locally and across shards.

Exact hits are deliberately *not* intercepted: when the key already
exists in the backing store the tier returns ``None`` so the store
serves it and its hit counters keep meaning.  Repaired results are
returned as fresh :class:`~repro.engine.engine.EngineResult` values
and promoted upward (into the LRU) by the tiered cache; they are never
written back to the store or re-indexed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..obs import trace as obs_trace
from .engine import EngineResult
from .fingerprint import rows_fingerprint
from .store import CounterFile, ResultStore

__all__ = [
    "REPAIR_INDEX_VERSION",
    "RepairSpec",
    "RepairTier",
    "row_hashes",
    "assignment_trace",
    "threads_trace",
    "repair_index_stats",
    "clear_repair_index",
]

#: Bump when the index record layout changes incompatibly; readers
#: skip records from other versions (they simply stop being candidates).
REPAIR_INDEX_VERSION = 1

#: Sub-directory of the result store holding the similarity index
#: segments.  ``ResultStore`` only globs ``seg-*.log`` directly under
#: its root, so the nested store is invisible to the result store.
_SIMIDX_DIR = "simidx"

#: Counter ticks buffered in memory before an rstats flush; one atomic
#: file replace per probe would dwarf the repair it is measuring.
_COUNTER_FLUSH_EVERY = 64

#: Candidates one probe hands to the repair attempt, at most.
_MAX_CANDIDATES = 8

# Odd 64-bit constants (splitmix64 / xxhash family) for the per-column
# and final mixes of the row hash.
_ROW_MIX = np.uint64(0x9E3779B97F4A7C15)
_COLUMN_MIX = np.array(
    [
        0x9E3779B97F4A7C15,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x27D4EB2F165667C5,
    ],
    dtype=np.uint64,
)


def row_hashes(rows: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row of a float64 content table.

    Hashing is *bitwise* (the float columns are reinterpreted as
    ``uint64``), so ``-0.0`` vs ``0.0`` and NaN payloads are
    distinguished exactly like the byte-level fingerprints are.  The
    per-row values are combined by the caller as wrap-around *sums*,
    which makes the signature order-independent (a multiset hash) —
    exactly what the one-job-delta probes need.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    w = rows.shape[1]
    if w > _COLUMN_MIX.size:
        raise ValueError(f"rows have {w} columns, max {_COLUMN_MIX.size}")
    bits = rows.view(np.uint64)
    with np.errstate(over="ignore"):
        h = (bits * _COLUMN_MIX[:w]).sum(axis=1, dtype=np.uint64)
        h = h ^ (h >> np.uint64(33))
        h = h * _ROW_MIX
        h = h ^ (h >> np.uint64(29))
    return h


def _scalars_key(scalars: Mapping[str, Any]) -> tuple:
    """Hashable, order-independent identity of a scalar table."""
    return tuple(sorted((str(k), repr(v)) for k, v in scalars.items()))


def _common_prefix_rows(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the bitwise longest common row prefix of two tables."""
    m = min(a.shape[0], b.shape[0])
    if m == 0:
        return 0
    av = np.ascontiguousarray(a[:m]).view(np.uint64)
    bv = np.ascontiguousarray(b[:m]).view(np.uint64)
    diff = (av != bv).any(axis=1)
    nz = np.flatnonzero(diff)
    return int(nz[0]) if nz.size else m


def _valid_tid_prefix(tids: np.ndarray, g: int) -> bool:
    """Cold-FirstFit invariants of a trusted placement prefix.

    In solve order FirstFit opens machines contiguously (a new machine
    is always ``max-so-far + 1``), the first job lands on machine 0
    thread 0, and every machine-opening job lands on thread 0.  These
    are cheap necessary conditions; a prefix violating them cannot
    have come from a cold solve, so the repair aborts.
    """
    if tids.size == 0:
        return True
    if int(tids[0]) != 0:
        return False
    mach = tids // g
    cm = np.maximum.accumulate(mach)
    if not (mach[1:] <= cm[:-1] + 1).all():
        return False
    opening = mach[1:] > cm[:-1]
    if not (tids[1:][opening] % g == 0).all():
        return False
    return True


def _is_permutation(perm: np.ndarray, n: int) -> bool:
    if perm.shape != (n,):
        return False
    if n == 0:
        return True
    try:
        counts = np.bincount(perm, minlength=n)
    except ValueError:  # negative entries
        return False
    return counts.size == n and bool((counts == 1).all())


def _no_scalars(instance: Any) -> Dict[str, Any]:
    return {}


@dataclass(frozen=True)
class RepairSpec:
    """A family's FirstFit arm, as the repair tier replays it.

    Every field is the family's own code, so a repair re-runs the cold
    path from a later start: the arm's result ``algorithm`` and
    dispatcher predicate (``routes``), the ``rows``/``scalars`` its
    fingerprint hashes, its canonical ``items`` and placement
    ``sort_key``, its placement loop ``place(ordered, g, prefix=,
    backend=)`` and result constructor ``solved(instance, placement)``.
    ``encode(instance, result, perm)`` extracts a solved result's
    per-step placements (``None`` = not indexable): global thread ids
    when ``threaded``, machine ids otherwise.
    """

    algorithm: str
    routes: Callable[[Any], bool]
    rows: Callable[[Any], np.ndarray]
    items: Callable[[Any], Sequence[Any]]
    sort_key: Callable[[Any], Any]
    place: Callable[..., Any]
    solved: Callable[[Any, Any], Any]
    encode: Callable[[Any, Any, np.ndarray], Optional[np.ndarray]]
    scalars: Callable[[Any], Dict[str, Any]] = _no_scalars
    threaded: bool = True

    def order(self, instance: Any) -> np.ndarray:
        """The FirstFit solve order as canonical item positions."""
        keys = list(map(self.sort_key, self.items(instance)))
        return np.asarray(
            sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp
        )


def threads_trace(
    instance: Any, result: Any, perm: np.ndarray
) -> Optional[np.ndarray]:
    """Per-solve-step global thread ids from a result's positional
    ``detail["machines"]`` encoding (an ``encode`` for rect2d/ring)."""
    detail = getattr(result, "detail", None)
    if not detail or "machines" not in detail:
        return None
    n, g = instance.n, instance.g
    tid_by_pos = np.full(n, -1, dtype=np.int64)
    for mid, threads in enumerate(detail["machines"]):
        if len(threads) != g:
            return None
        for tau, thread in enumerate(threads):
            for p in thread:
                p = int(p)
                if not 0 <= p < n or tid_by_pos[p] != -1:
                    return None
                tid_by_pos[p] = mid * g + tau
    if n and int(tid_by_pos.min()) < 0:
        return None
    return tid_by_pos[perm]


def assignment_trace(
    instance: Any, result: Any, perm: np.ndarray
) -> Optional[np.ndarray]:
    """Per-solve-step machine ids from ``assignment_by_position``."""
    abp = getattr(result, "assignment_by_position", ())
    if len(abp) != instance.n or any(m is None for m in abp):
        return None
    return np.asarray(abp, dtype=np.int64)[perm]


# ----------------------------------------------------------------------
# the tier
# ----------------------------------------------------------------------


class RepairTier:
    """The near-miss tier of the cache stack (between LRU and store).

    ``needs_context`` makes :class:`~repro.engine.tiers.TieredCache`
    pass the :class:`~repro.engine.engine.SolvePlan` to ``get``/``put``
    — the tier needs the live instance to build content rows, probe the
    signature maps, and replay placements against the real jobs.
    Without a plan (or for families without a :class:`RepairSpec`)
    every call is a transparent no-op.
    """

    name = "repair"
    needs_context = True

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.index = ResultStore(Path(store.root) / _SIMIDX_DIR)
        self._lock = threading.RLock()
        self._records: Dict[str, dict] = {}
        self._full: Dict[tuple, List[str]] = {}
        self._loo: Dict[tuple, List[str]] = {}
        self._counters = _counter_file(self.index.root)
        self._dirty = 0
        self._load_index()

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        """Fold records other processes appended into the in-memory
        signature maps (cheap when nothing changed: one tail stat)."""
        all_keys = self.index.keys()
        with self._lock:
            new = [k for k in all_keys if k not in self._records]
        if not new:
            return
        recs = self.index.peek_many(new)
        with self._lock:
            for key, rec in recs.items():
                if key not in self._records:
                    self._register(key, rec)

    def _register(self, key: str, rec: Any) -> None:
        """Validate a record and add it to the signature maps
        (caller holds the lock)."""
        if not isinstance(rec, dict) or rec.get("v") != REPAIR_INDEX_VERSION:
            return
        try:
            rows = np.ascontiguousarray(rec["rows"], dtype=np.float64)
            ctx = (
                str(rec["objective"]),
                int(rec["g"]),
                _scalars_key(rec.get("scalars") or {}),
            )
            h = row_hashes(rows)
        except Exception:
            return
        self._records[key] = rec
        n = rows.shape[0]
        total = int(h.sum(dtype=np.uint64)) if n else 0
        self._full.setdefault((ctx, n, total), []).append(key)
        if n:
            with np.errstate(over="ignore"):
                loo = np.unique(np.uint64(total) - h)
            for sig in loo.tolist():
                self._loo.setdefault((ctx, n, sig), []).append(key)

    def _probe(self, ctx: tuple, q_hashes: np.ndarray) -> List[str]:
        """Candidate keys differing from the query by ≤ 1 row."""
        n = int(q_hashes.size)
        total = int(q_hashes.sum(dtype=np.uint64)) if n else 0
        out: List[str] = []
        seen: set = set()

        def extend(keys: Optional[List[str]]) -> None:
            for k in keys or ():
                if k not in seen:
                    seen.add(k)
                    out.append(k)

        with np.errstate(over="ignore"):
            loo_sigs = (np.uint64(total) - q_hashes).tolist()
        with self._lock:
            for sig in loo_sigs:
                # substitution: stored-minus-one == query-minus-one
                extend(self._loo.get((ctx, n, sig)))
                # insertion: stored == query minus one row
                extend(self._full.get((ctx, n - 1, sig)))
            # removal: stored minus one row == query
            extend(self._loo.get((ctx, n + 1, total)))
        return out[:_MAX_CANDIDATES]

    # ------------------------------------------------------------------
    # CacheTier protocol
    # ------------------------------------------------------------------
    def get(self, key: str, context: Optional[Any] = None) -> Optional[Any]:
        plan = context
        if plan is None:
            return None
        rspec = getattr(getattr(plan, "spec", None), "repair", None)
        if rspec is None:
            return None
        try:
            if not rspec.routes(plan.instance):
                return None
            # Exact hits belong to the store tier below — intercepting
            # them would distort its counters and skip the cheap path.
            if key in self._records or key in self.store:
                return None
        except Exception:
            return None
        self._bump("attempts")
        with obs_trace.span(
            "repair.attempt", objective=plan.spec.name
        ) as attempt:
            try:
                outcome, result = self._try_repair(key, plan, rspec)
            except Exception:
                outcome, result = "abort", None
            attempt.set("outcome", outcome)
        if outcome == "hit":
            self._bump("hits")
            return result
        if outcome == "abort":
            self._bump("aborts")
        return None

    def get_many(
        self,
        keys: Sequence[str],
        contexts: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        found: Dict[str, Any] = {}
        for key in keys:
            ctx = contexts.get(key) if contexts else None
            value = self.get(key, context=ctx)
            if value is not None:
                found[key] = value
        return found

    def put(
        self, key: str, value: Any, context: Optional[Any] = None
    ) -> None:
        self.put_many(
            {key: value},
            contexts={key: context} if context is not None else None,
        )

    def put_many(
        self,
        items: Mapping[str, Any],
        contexts: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if not contexts:
            return
        for key, value in items.items():
            plan = contexts.get(key)
            if plan is None:
                continue
            try:
                self._index_result(key, value, plan)
            except Exception:
                continue

    def stats(self) -> Dict[str, Any]:
        self.flush_counters()
        self.index.refresh()
        return _index_stats(self.index)

    def clear(self) -> None:
        with self._lock:
            self.index.clear()
            self._counters.clear()
            self._records.clear()
            self._full.clear()
            self._loo.clear()
            self._dirty = 0

    # ------------------------------------------------------------------
    # write path: build index records
    # ------------------------------------------------------------------
    def _index_result(self, key: str, result: Any, plan: Any) -> None:
        rspec = getattr(getattr(plan, "spec", None), "repair", None)
        if rspec is None:
            return
        if getattr(result, "algorithm", None) != rspec.algorithm:
            return
        with self._lock:
            if key in self._records:
                return
        if key in self.index:
            return  # another process already indexed it
        instance = plan.instance
        if not rspec.routes(instance):
            return
        rows = np.ascontiguousarray(rspec.rows(instance), dtype=np.float64)
        scalars = dict(rspec.scalars(instance))
        if ":" not in key:
            return
        fp = key.split(":", 1)[1]
        # Self-certify: the rows must reproduce the fingerprint exactly,
        # or near-miss certification would be comparing the wrong bytes.
        if rows_fingerprint(plan.spec.name, instance.g, rows, scalars) != fp:
            return
        perm = rspec.order(instance)
        n = rows.shape[0]
        if not _is_permutation(perm, n):
            return
        placed = rspec.encode(instance, result, perm)
        if placed is None:
            return
        placed = np.asarray(placed, dtype=np.int64)
        if placed.shape != (n,):
            return
        rec = {
            "v": REPAIR_INDEX_VERSION,
            "key": key,
            "objective": plan.spec.name,
            "g": int(instance.g),
            "scalars": scalars,
            "rows": rows,
            "perm": perm,
            "placed": placed,
            "algorithm": result.algorithm,
        }
        self.index.put(key, rec)
        with self._lock:
            if key not in self._records:
                self._register(key, rec)

    # ------------------------------------------------------------------
    # read path: probe + certify + replay
    # ------------------------------------------------------------------
    def _try_repair(
        self, key: str, plan: Any, rspec: RepairSpec
    ) -> Tuple[str, Optional[EngineResult]]:
        self._load_index()
        with self._lock:
            empty = not self._records
        if empty:
            return "miss", None
        instance = plan.instance
        q_rows = np.ascontiguousarray(
            rspec.rows(instance), dtype=np.float64
        )
        q_scalars = dict(rspec.scalars(instance))
        if (
            rows_fingerprint(plan.spec.name, instance.g, q_rows, q_scalars)
            != plan.fingerprint
        ):
            return "abort", None  # rows out of sync with the fingerprint
        ctx = (plan.spec.name, int(instance.g), _scalars_key(q_scalars))
        candidates = self._probe(ctx, row_hashes(q_rows))
        if not candidates:
            return "miss", None
        q_perm = rspec.order(instance)
        if not _is_permutation(q_perm, q_rows.shape[0]):
            return "abort", None
        q_ordered = np.ascontiguousarray(q_rows[q_perm])
        items = rspec.items(instance)
        q_items = [items[i] for i in q_perm]
        for cand in candidates:
            with self._lock:
                rec = self._records.get(cand)
            if rec is None:
                continue
            result = self._attempt(rec, plan, rspec, q_ordered, q_items)
            if result is not None:
                return "hit", result
        return "abort", None

    def _attempt(
        self,
        rec: dict,
        plan: Any,
        rspec: RepairSpec,
        q_ordered: np.ndarray,
        q_items: List[Any],
    ) -> Optional[EngineResult]:
        try:
            rows = np.ascontiguousarray(rec["rows"], dtype=np.float64)
            rkey = str(rec["key"])
            if ":" not in rkey:
                return None
            scalars = rec.get("scalars") or {}
            g = int(rec["g"])
            if g != int(plan.instance.g):
                return None
            # Certify the candidate's rows against the fingerprint
            # embedded in its own cache key: a record whose rows do not
            # hash to its key proves nothing about any cold solve.
            if (
                rows_fingerprint(plan.spec.name, g, rows, scalars)
                != rkey.split(":", 1)[1]
            ):
                return None
            n_s = rows.shape[0]
            perm = np.asarray(rec["perm"], dtype=np.intp)
            placed = np.asarray(rec["placed"], dtype=np.int64)
            if not _is_permutation(perm, n_s) or placed.shape != (n_s,):
                return None
            if rows.shape[1] != q_ordered.shape[1]:
                return None
            s_ordered = np.ascontiguousarray(rows[perm])
            prefix = placed[: _common_prefix_rows(s_ordered, q_ordered)]
            if not _valid_tid_prefix(prefix, g if rspec.threaded else 1):
                return None
            # Always the occupancy engine: its ``seed`` re-checks that
            # the trusted prefix is feasible (the scalar oracle trusts
            # it outright).
            placement = rspec.place(
                q_items, g, prefix=prefix, backend="vectorized"
            )
            solved = rspec.solved(plan.instance, placement)
        except Exception:
            return None
        return EngineResult(
            objective=plan.spec.name,
            algorithm=solved.algorithm,
            guarantee=solved.guarantee,
            cost=solved.cost,
            throughput=solved.throughput,
            schedule=solved.schedule,
            fingerprint=plan.fingerprint,
            assignment_by_position=solved.assignment_by_position,
            from_cache=False,
            solve_seconds=0.0,
            detail=solved.detail,
        )

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def _bump(self, field: str) -> None:
        """Count one event in memory; persistence is batched.

        An atomic file replace per tick costs more than the repair it
        measures, so counters accumulate in memory and hit disk only
        every :data:`_COUNTER_FLUSH_EVERY` ticks and on
        :meth:`flush_counters` (which ``stats()`` and session teardown
        call) — the hot path stays I/O-free."""
        with self._lock:
            self._counters.counts[field] += 1
            self._dirty += 1
            if self._dirty >= _COUNTER_FLUSH_EVERY:
                self._write_counts()

    def flush_counters(self) -> None:
        """Persist any unwritten counter ticks to this instance's own
        ``rstats`` file."""
        with self._lock:
            if self._dirty:
                self._write_counts()

    def _write_counts(self) -> None:
        """Caller holds the lock."""
        if self._counters.write():
            self._dirty = 0


# ----------------------------------------------------------------------
# store-side inspection (no tier construction, no record loading)
# ----------------------------------------------------------------------


def _counter_file(index_root: Path) -> CounterFile:
    # The ``rstats-`` prefix keeps clear of the index store's own
    # ``stats-*.json`` counters.
    return CounterFile(index_root, "rstats", ("attempts", "hits", "aborts"))


def _index_stats(index: ResultStore) -> Dict[str, Any]:
    out: Dict[str, Any] = _counter_file(index.root).totals()
    out["indexed"] = len(index)
    out["path"] = str(index.root)
    return out


def repair_index_stats(store_root: Any) -> Optional[Dict[str, Any]]:
    """Counters + entry count of the repair index beside ``store_root``.

    Reads only the ``rstats-*.json`` counter files and the index
    store's segment *headers* (never the records), so it is cheap
    enough for ``repro cache stats``.  Returns ``None`` when the store
    has no ``simidx/`` directory — i.e. repair was never enabled there.
    """
    root = Path(store_root) / _SIMIDX_DIR
    if not root.is_dir():
        return None
    return _index_stats(ResultStore(root))


def clear_repair_index(store_root: Any) -> bool:
    """Drop the repair index (segments + counters) beside ``store_root``.

    The backing store's own ``clear`` does not descend into ``simidx/``
    (it globs only its direct children), so store-clearing surfaces —
    the CLI, ``Session.clear_store`` — call this alongside it.  Returns
    whether an index directory existed.
    """
    root = Path(store_root) / _SIMIDX_DIR
    if not root.is_dir():
        return False
    ResultStore(root).clear()
    _counter_file(root).clear()
    return True
