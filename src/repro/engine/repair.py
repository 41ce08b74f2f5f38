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
* **Per-family repair kernels** — families opt in by attaching a
  :class:`RepairSpec` to their :class:`~repro.core.registry.
  ObjectiveSpec` (``repair=``).  All four FirstFit families
  (minbusy / capacity / rect2d / ring) are supported: the kernel
  bit-compares the solve-ordered rows of query and candidate, trusts
  the candidate's placements for the longest common prefix (byte-equal
  ordered rows imply identical FirstFit decisions — placement depends
  only on row geometry), bulk-seeds the vectorized occupancy engine
  with that prefix in O(1) NumPy ops, and replays only the divergent
  tail through the real ``first_fit`` scan before recomputing the
  objective exactly as the cold path does.
* **Abort-to-miss, never approximate** — the hash probe is only a
  *finder*; correctness rests on re-certifying the stored rows against
  the fingerprint embedded in the record's cache key (and the query
  rows against the plan's own fingerprint), on the bitwise
  (``uint64``-view) prefix comparison, and on structural invariants of
  the trusted prefix (machine contiguity, thread-0 openings, a true
  permutation).  Any check failing — or any unexpected exception —
  aborts the repair and falls through to the tiers below.  Attempts,
  hits and aborts are counted in per-process ``rstats-*.json`` files
  (atomic-replace, same discipline as the store's counters) and
  surface in ``cache_stats`` locally and across shards.

Exact hits are deliberately *not* intercepted: when the key already
exists in the backing store the tier returns ``None`` so the store
serves it and its hit counters keep meaning.  Repaired results are
returned as fresh :class:`~repro.engine.engine.EngineResult` values
and promoted upward (into the LRU) by the tiered cache; they are never
written back to the store or re-indexed.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .engine import EngineResult
from .store import ResultStore

# Mirror of the buffered rstats ticks as live registry counters (the
# rstats files remain the source of truth for ``cache_stats``).
_REPAIR_EVENTS = obs_metrics.counter(
    "repro_repair_probes_total",
    "Repair-tier probe outcomes",
    labels=("outcome",),
)

__all__ = [
    "REPAIR_INDEX_VERSION",
    "RepairSpec",
    "RepairTier",
    "row_hashes",
    "repair_index_stats",
    "clear_repair_index",
    "minbusy_repair_spec",
    "capacity_repair_spec",
    "rect2d_repair_spec",
    "ring_repair_spec",
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


@dataclass(frozen=True)
class RepairSpec:
    """A family's contract with the repair tier.

    ``routes`` must mirror the family dispatcher exactly — only
    instances that would run the (replayable) FirstFit arm may be
    indexed or repaired.  ``rows``/``scalars`` must reproduce the
    family fingerprint's serialization byte-for-byte (certified via
    ``fingerprint_from_rows`` on both the write and the read path).
    ``order`` returns the FirstFit solve order as canonical positions;
    ``encode`` extracts the per-solve-step placement vector from a
    solved result (``None`` = not encodable, skip indexing); ``replay``
    rebuilds the full result from a trusted placement prefix plus a
    real tail replay (``None`` = abort to miss).
    """

    family: str
    #: result ``algorithm`` strings this kernel can index and replay.
    algorithms: Tuple[str, ...]
    routes: Callable[[Any], bool]
    rows: Callable[[Any], np.ndarray]
    scalars: Callable[[Any], Dict[str, Any]]
    fingerprint_from_rows: Callable[[np.ndarray, int, Mapping[str, Any]], str]
    order: Callable[[Any], np.ndarray]
    encode: Callable[[Any, Any, np.ndarray], Optional[np.ndarray]]
    replay: Callable[
        [Any, np.ndarray, np.ndarray, int, np.ndarray], Optional[Any]
    ]


# ----------------------------------------------------------------------
# shared kernel helpers
# ----------------------------------------------------------------------


def _threaded_placed(
    n_items: int, g: int, machines_pos, order: np.ndarray
) -> Optional[np.ndarray]:
    """Per-solve-step global thread ids from a positional
    machine/thread encoding (``detail["machines"]`` shape)."""
    tid_by_pos = np.full(n_items, -1, dtype=np.int64)
    for mid, threads in enumerate(machines_pos):
        if len(threads) != g:
            return None
        for tau, thread in enumerate(threads):
            for p in thread:
                p = int(p)
                if not 0 <= p < n_items or tid_by_pos[p] != -1:
                    return None
                tid_by_pos[p] = mid * g + tau
    if n_items and int(tid_by_pos.min()) < 0:
        return None
    return tid_by_pos[order]


def _assignment_placed(
    n_items: int, result: Any, order: np.ndarray
) -> Optional[np.ndarray]:
    """Per-solve-step machine ids from ``assignment_by_position``."""
    abp = getattr(result, "assignment_by_position", ())
    if len(abp) != n_items or any(m is None for m in abp):
        return None
    return np.asarray(abp, dtype=np.int64)[order]


# ----------------------------------------------------------------------
# minbusy
# ----------------------------------------------------------------------


def minbusy_repair_spec() -> RepairSpec:
    """Repair kernel for MinBusy's general-instance FirstFit arm."""
    from ..core.occupancy import IntervalOccupancy
    from ..core.registry import Solved
    from ..minbusy.dispatch import route_min_busy
    from ..minbusy.firstfit import firstfit_sort_key
    from .fingerprint import _VERSION as _FP_V1, job_table

    def routes(instance: Any) -> bool:
        return route_min_busy(instance) == "first_fit"

    def rows(instance: Any) -> np.ndarray:
        return job_table(instance)

    def scalars(instance: Any) -> Dict[str, Any]:
        return {}

    def fingerprint_from_rows(
        table: np.ndarray, g: int, scal: Mapping[str, Any]
    ) -> str:
        # Reproduces the frozen v1 serialization for a plain Instance
        # (minbusy normalization strips any budget, so ``T=None``).
        import hashlib

        h = hashlib.sha256()
        h.update(_FP_V1)
        h.update(f"|n={len(table)}|g={g}|T=None|".encode())
        if len(table):
            h.update(np.ascontiguousarray(table, dtype=np.float64).tobytes())
        return h.hexdigest()

    def order(instance: Any) -> np.ndarray:
        jobs = instance.jobs
        return np.asarray(
            sorted(
                range(len(jobs)), key=lambda i: firstfit_sort_key(jobs[i])
            ),
            dtype=np.intp,
        )

    def encode(
        instance: Any, result: Any, perm: np.ndarray
    ) -> Optional[np.ndarray]:
        # The stored result carries machine-per-position only; derive
        # the thread structure by replaying first-fit-within-assigned-
        # machine in solve order (a write-path-only cost).  Per-thread
        # state is a sorted disjoint interval list, so each fit test is
        # one bisect: sorted disjoint intervals have non-decreasing
        # ends, hence only the predecessor can overlap a candidate.
        mach = _assignment_placed(instance.n, result, perm)
        if mach is None:
            return None
        jobs, g = instance.jobs, instance.g
        tids = np.empty(instance.n, dtype=np.int64)
        threads: Dict[int, Tuple[List[float], List[float]]] = {}
        n_open = 0
        for k, pos in enumerate(perm):
            m = int(mach[k])
            if m > n_open or m < 0:
                return None  # machines must open contiguously
            if m == n_open:
                n_open += 1
            job = jobs[int(pos)]
            s, e = job.start, job.end
            tau = None
            for t in range(g):
                rec = threads.get(m * g + t)
                if rec is None:
                    tau = t
                    break
                starts, ends = rec
                i = bisect_left(starts, e)
                if i == 0 or ends[i - 1] <= s:
                    tau = t
                    break
            if tau is None:
                return None  # assignment inconsistent with FirstFit
            tid = m * g + tau
            rec = threads.get(tid)
            if rec is None:
                threads[tid] = rec = ([], [])
            starts, ends = rec
            i = bisect_left(starts, s)
            starts.insert(i, s)
            ends.insert(i, e)
            tids[k] = tid
        return tids

    def replay(
        instance: Any,
        q_perm: np.ndarray,
        q_ordered: np.ndarray,
        lcp: int,
        prefix: np.ndarray,
    ) -> Optional[Any]:
        g, n, jobs = instance.g, instance.n, instance.jobs
        if not _valid_tid_prefix(prefix, g):
            return None
        occ = IntervalOccupancy(g, initial_capacity=max(256, n))
        k = int(lcp)
        tids = np.empty(n, dtype=np.int64)
        if k:
            occ._columns[:, :k] = q_ordered[:k, :2].T
            occ._tids[:k] = prefix
            occ.n_placed = k
            occ.n_machines = int(prefix.max()) // g + 1
            tids[:k] = prefix
        for i in range(k, n):
            job = jobs[int(q_perm[i])]
            m, tau = occ.first_fit(job.start, job.end)
            tids[i] = m * g + tau
        # Serve the hit the way the store tier does: positions only,
        # ``schedule=None`` — ``serve_hit`` re-inflates the Schedule
        # once, instead of us building one here that it would rebuild.
        # Cost must be byte-identical to ``Schedule.cost``: a sum of
        # per-machine ``union_length`` in ascending machine order (the
        # insertion order ``group_schedule`` produces; FirstFit opens
        # machines contiguously and never leaves one empty).  The sweep
        # below replicates ``merge_intervals`` + ``union_length`` on
        # bare float pairs — same sort key (start, end), same ``<=``
        # merge rule, same left-to-right accumulation — so every float
        # operation matches the Schedule path exactly.
        by_machine: List[List[Tuple[float, float]]] = [
            [] for _ in range(occ.n_machines)
        ]
        abp: List[Optional[int]] = [None] * n
        for i in range(n):
            m = int(tids[i]) // g
            pos = int(q_perm[i])
            job = jobs[pos]
            by_machine[m].append((job.start, job.end))
            abp[pos] = m
        cost = 0.0
        for ivs in by_machine:
            ivs.sort()
            busy = 0.0
            cur_s, cur_e = ivs[0]
            for s, e in ivs[1:]:
                if s <= cur_e:
                    if e > cur_e:
                        cur_e = e
                else:
                    busy += cur_e - cur_s
                    cur_s, cur_e = s, e
            busy += cur_e - cur_s
            cost += busy
        cost = float(cost)
        return Solved(
            algorithm="first_fit",
            guarantee=4.0,
            cost=cost,
            throughput=n,
            schedule=None,
            assignment_by_position=tuple(abp),
        )

    return RepairSpec(
        family="minbusy",
        algorithms=("first_fit",),
        routes=routes,
        rows=rows,
        scalars=scalars,
        fingerprint_from_rows=fingerprint_from_rows,
        order=order,
        encode=encode,
        replay=replay,
    )


# ----------------------------------------------------------------------
# capacity (variable demands)
# ----------------------------------------------------------------------


def capacity_repair_spec() -> RepairSpec:
    """Repair kernel for the demand-aware FirstFit arm.

    Unit-demand instances route through the MinBusy dispatcher inside
    the capacity objective and are *not* repairable under this spec.
    """
    from ..capacity.demands import demand_lower_bound, demand_schedule_cost
    from ..core.occupancy import DemandOccupancy
    from ..core.registry import Solved, schedule_by_position
    from ..core.schedule import Schedule
    from .fingerprint import fingerprint_v2, job_table

    def routes(instance: Any) -> bool:
        return instance.n > 0 and any(
            j.demand != 1 for j in instance.jobs
        )

    def rows(instance: Any) -> np.ndarray:
        return job_table(instance)

    def scalars(instance: Any) -> Dict[str, Any]:
        return {}

    def fingerprint_from_rows(
        table: np.ndarray, g: int, scal: Mapping[str, Any]
    ) -> str:
        return fingerprint_v2(
            "capacity", g, table, scalars=dict(scal) or None
        )

    def order(instance: Any) -> np.ndarray:
        jobs = instance.jobs
        return np.asarray(
            sorted(
                range(len(jobs)),
                key=lambda i: (
                    -jobs[i].length,
                    -jobs[i].demand,
                    jobs[i].job_id,
                ),
            ),
            dtype=np.intp,
        )

    def encode(
        instance: Any, result: Any, perm: np.ndarray
    ) -> Optional[np.ndarray]:
        return _assignment_placed(instance.n, result, perm)

    def replay(
        instance: Any,
        q_perm: np.ndarray,
        q_ordered: np.ndarray,
        lcp: int,
        prefix: np.ndarray,
    ) -> Optional[Any]:
        g, n, jobs = instance.g, instance.n, instance.jobs
        # Machine ids behave like tids with g=1 (contiguous opening).
        if not _valid_tid_prefix(prefix, 1):
            return None
        occ = DemandOccupancy(g)
        k = int(lcp)
        n_open = int(prefix.max()) + 1 if k else 0
        groups: List[List[Any]] = [[] for _ in range(n_open)]
        starts = q_ordered[:k, 0]
        ends = q_ordered[:k, 1]
        demands = q_ordered[:k, 3].astype(np.int64)
        for m in range(n_open):
            sel = prefix == m
            s_ = np.ascontiguousarray(starts[sel])
            e_ = np.ascontiguousarray(ends[sel])
            d_ = np.ascontiguousarray(demands[sel])
            if not s_.size:
                return None  # contiguity guarantees non-empty machines
            occ._machines.append([s_, e_, d_, int(s_.size)])
        for i in range(k):
            groups[int(prefix[i])].append(jobs[int(q_perm[i])])
        for i in range(k, n):
            job = jobs[int(q_perm[i])]
            m = occ.first_fit(job.start, job.end, job.demand)
            if m == len(groups):
                groups.append([])
            groups[m].append(job)
        schedule = Schedule.from_groups(g, groups)
        return Solved(
            algorithm="demand_first_fit",
            guarantee=None,
            cost=demand_schedule_cost(groups),
            throughput=instance.n,
            schedule=schedule,
            assignment_by_position=schedule_by_position(jobs, schedule),
            detail={"lower_bound": demand_lower_bound(instance)},
        )

    return RepairSpec(
        family="capacity",
        algorithms=("demand_first_fit",),
        routes=routes,
        rows=rows,
        scalars=scalars,
        fingerprint_from_rows=fingerprint_from_rows,
        order=order,
        encode=encode,
        replay=replay,
    )


# ----------------------------------------------------------------------
# rect2d
# ----------------------------------------------------------------------


def rect2d_repair_spec() -> RepairSpec:
    """Repair kernel for Algorithm 3 (planar FirstFit, γ₁ ≤ β)."""
    from ..core.occupancy import RectOccupancy
    from ..core.registry import Solved, threads_by_position
    from ..rect.bucket import PAPER_BETA
    from ..rect.schedule2d import RectMachine, RectSchedule
    from .fingerprint import fingerprint_v2

    def routes(instance: Any) -> bool:
        return instance.n > 0 and instance.gamma1 <= PAPER_BETA

    def rows(instance: Any) -> np.ndarray:
        packed = np.empty((instance.n, 4), dtype=np.float64)
        for col, attr in enumerate(("x0", "y0", "x1", "y1")):
            packed[:, col] = [getattr(r, attr) for r in instance.rects]
        return packed

    def scalars(instance: Any) -> Dict[str, Any]:
        return {}

    def fingerprint_from_rows(
        table: np.ndarray, g: int, scal: Mapping[str, Any]
    ) -> str:
        return fingerprint_v2("rect2d", g, table, scalars=dict(scal) or None)

    def order(instance: Any) -> np.ndarray:
        rects = instance.rects
        return np.asarray(
            sorted(
                range(len(rects)),
                key=lambda i: (-rects[i].len2, rects[i].rect_id),
            ),
            dtype=np.intp,
        )

    def encode(
        instance: Any, result: Any, perm: np.ndarray
    ) -> Optional[np.ndarray]:
        detail = getattr(result, "detail", None)
        if not detail or "machines" not in detail:
            return None
        return _threaded_placed(
            instance.n, instance.g, detail["machines"], perm
        )

    def replay(
        instance: Any,
        q_perm: np.ndarray,
        q_ordered: np.ndarray,
        lcp: int,
        prefix: np.ndarray,
    ) -> Optional[Any]:
        g, n, rects = instance.g, instance.n, instance.rects
        if not _valid_tid_prefix(prefix, g):
            return None
        occ = RectOccupancy(g, initial_capacity=max(256, n))
        k = int(lcp)
        if k:
            occ._columns[:, :k] = q_ordered[:k, :4].T
            occ._tids[:k] = prefix
            occ.n_placed = k
            occ.n_machines = int(prefix.max()) // g + 1
        machines = [
            RectMachine(g=g, machine_id=i) for i in range(occ.n_machines)
        ]
        for i in range(k):
            tid = int(prefix[i])
            machines[tid // g].threads[tid % g].append(
                rects[int(q_perm[i])]
            )
        for i in range(k, n):
            r = rects[int(q_perm[i])]
            m, tau = occ.first_fit(r.x0, r.y0, r.x1, r.y1)
            if m == len(machines):
                machines.append(RectMachine(g=g, machine_id=m))
            machines[m].threads[tau].append(r)
        schedule = RectSchedule(g=g, machines=machines)
        gamma1 = instance.gamma1
        return Solved(
            algorithm="first_fit_2d",
            guarantee=6.0 * gamma1 + 4.0,
            cost=schedule.cost,
            throughput=n,
            detail={
                "machines": threads_by_position(rects, schedule.machines),
                "n_machines": len(schedule.machines),
            },
        )

    return RepairSpec(
        family="rect2d",
        algorithms=("first_fit_2d",),
        routes=routes,
        rows=rows,
        scalars=scalars,
        fingerprint_from_rows=fingerprint_from_rows,
        order=order,
        encode=encode,
        replay=replay,
    )


# ----------------------------------------------------------------------
# ring
# ----------------------------------------------------------------------


def ring_repair_spec() -> RepairSpec:
    """Repair kernel for cylinder FirstFit (Theorem 3.3, γ₁ ≤ β)."""
    from ..core.occupancy import RingOccupancy
    from ..core.registry import Solved, threads_by_position
    from ..rect.bucket import PAPER_BETA
    from ..topology.ring_firstfit import RingMachine, RingSchedule
    from .fingerprint import fingerprint_v2

    def routes(instance: Any) -> bool:
        if instance.n == 0:
            return False
        arc_lens = [j.len1 for j in instance.jobs]
        return max(arc_lens) / min(arc_lens) <= PAPER_BETA

    def rows(instance: Any) -> np.ndarray:
        packed = np.empty((instance.n, 4), dtype=np.float64)
        for col, attr in enumerate(("a0", "alen", "t0", "t1")):
            packed[:, col] = [getattr(j, attr) for j in instance.jobs]
        return packed

    def scalars(instance: Any) -> Dict[str, Any]:
        return {"circumference": instance.circumference}

    def fingerprint_from_rows(
        table: np.ndarray, g: int, scal: Mapping[str, Any]
    ) -> str:
        return fingerprint_v2("ring", g, table, scalars=dict(scal) or None)

    def order(instance: Any) -> np.ndarray:
        jobs = instance.jobs
        return np.asarray(
            sorted(
                range(len(jobs)),
                key=lambda i: (-jobs[i].len2, jobs[i].job_id),
            ),
            dtype=np.intp,
        )

    def encode(
        instance: Any, result: Any, perm: np.ndarray
    ) -> Optional[np.ndarray]:
        detail = getattr(result, "detail", None)
        if not detail or "machines" not in detail:
            return None
        return _threaded_placed(
            instance.n, instance.g, detail["machines"], perm
        )

    def replay(
        instance: Any,
        q_perm: np.ndarray,
        q_ordered: np.ndarray,
        lcp: int,
        prefix: np.ndarray,
    ) -> Optional[Any]:
        g, n, jobs = instance.g, instance.n, instance.jobs
        if not _valid_tid_prefix(prefix, g):
            return None
        occ = RingOccupancy(g, initial_capacity=max(256, n))
        k = int(lcp)
        if k:
            occ._columns[:, :k] = q_ordered[:k, :4].T
            occ._tids[:k] = prefix
            occ.n_placed = k
            occ.n_machines = int(prefix.max()) // g + 1
        machines = [
            RingMachine(g=g, machine_id=i) for i in range(occ.n_machines)
        ]
        for i in range(k):
            tid = int(prefix[i])
            machines[tid // g].threads[tid % g].append(
                jobs[int(q_perm[i])]
            )
        for i in range(k, n):
            j = jobs[int(q_perm[i])]
            m, tau = occ.first_fit(
                j.a0, j.alen, j.t0, j.t1, j.circumference
            )
            if m == len(machines):
                machines.append(RingMachine(g=g, machine_id=m))
            machines[m].threads[tau].append(j)
        schedule = RingSchedule(g=g, machines=machines)
        arc_lens = [j.len1 for j in jobs]
        gamma1 = max(arc_lens) / min(arc_lens)
        return Solved(
            algorithm="ring_first_fit",
            guarantee=6.0 * gamma1 + 4.0,
            cost=schedule.cost,
            throughput=n,
            detail={
                "machines": threads_by_position(jobs, schedule.machines),
                "n_machines": len(schedule.machines),
            },
        )

    return RepairSpec(
        family="ring",
        algorithms=("ring_first_fit",),
        routes=routes,
        rows=rows,
        scalars=scalars,
        fingerprint_from_rows=fingerprint_from_rows,
        order=order,
        encode=encode,
        replay=replay,
    )


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

    def __init__(
        self, store: ResultStore, *, max_candidates: int = 8
    ) -> None:
        self.store = store
        self.index = ResultStore(Path(store.root) / _SIMIDX_DIR)
        self.max_candidates = int(max_candidates)
        self._lock = threading.RLock()
        self._records: Dict[str, dict] = {}
        self._full: Dict[tuple, List[str]] = {}
        self._loo: Dict[tuple, List[str]] = {}
        self._counts = {"attempts": 0, "hits": 0, "aborts": 0}
        self._counter_path: Optional[Path] = None
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
        return out[: self.max_candidates]

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
        _REPAIR_EVENTS.labels(outcome).inc()
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
        counts = {"attempts": 0, "hits": 0, "aborts": 0}
        for path in self.index.root.glob("rstats-*.json"):
            try:
                raw = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            for field in counts:
                try:
                    counts[field] += int(raw.get(field, 0))
                except (TypeError, ValueError):
                    pass
        self.index.refresh()
        out: Dict[str, Any] = dict(counts)
        out["indexed"] = len(self.index)
        out["path"] = str(self.index.root)
        return out

    def clear(self) -> None:
        with self._lock:
            self.index.clear()
            for path in self.index.root.glob("rstats-*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            self._records.clear()
            self._full.clear()
            self._loo.clear()
            self._counts = {"attempts": 0, "hits": 0, "aborts": 0}
            self._counter_path = None
            self._dirty = 0

    # ------------------------------------------------------------------
    # write path: build index records
    # ------------------------------------------------------------------
    def _index_result(self, key: str, result: Any, plan: Any) -> None:
        rspec = getattr(getattr(plan, "spec", None), "repair", None)
        if rspec is None:
            return
        if getattr(result, "algorithm", None) not in rspec.algorithms:
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
        # Self-certify: the rows hook must reproduce the fingerprint's
        # serialization exactly, or near-miss certification would be
        # comparing the wrong bytes.
        if rspec.fingerprint_from_rows(rows, instance.g, scalars) != fp:
            return
        perm = np.asarray(rspec.order(instance), dtype=np.intp)
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
            rspec.fingerprint_from_rows(q_rows, instance.g, q_scalars)
            != plan.fingerprint
        ):
            return "abort", None  # rows hook out of sync with fingerprint
        ctx = (plan.spec.name, int(instance.g), _scalars_key(q_scalars))
        candidates = self._probe(ctx, row_hashes(q_rows))
        if not candidates:
            return "miss", None
        q_perm = np.asarray(rspec.order(instance), dtype=np.intp)
        if not _is_permutation(q_perm, q_rows.shape[0]):
            return "abort", None
        q_ordered = np.ascontiguousarray(q_rows[q_perm])
        for cand in candidates:
            with self._lock:
                rec = self._records.get(cand)
            if rec is None:
                continue
            result = self._attempt(rec, plan, rspec, q_perm, q_ordered)
            if result is not None:
                return "hit", result
        return "abort", None

    def _attempt(
        self,
        rec: dict,
        plan: Any,
        rspec: RepairSpec,
        q_perm: np.ndarray,
        q_ordered: np.ndarray,
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
                rspec.fingerprint_from_rows(rows, g, scalars)
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
            lcp = _common_prefix_rows(s_ordered, q_ordered)
            solved = rspec.replay(
                plan.instance, q_perm, q_ordered, lcp, placed[:lcp]
            )
        except Exception:
            return None
        if solved is None:
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
            self._counts[field] += 1
            self._dirty += 1
            if self._dirty >= _COUNTER_FLUSH_EVERY:
                self._write_counts()

    def flush_counters(self) -> None:
        """Persist any unwritten counter ticks to this instance's own
        ``rstats`` file (atomic replace; the ``rstats-`` prefix keeps
        it outside the index store's own ``stats-*.json`` glob)."""
        with self._lock:
            if self._dirty:
                self._write_counts()

    def _write_counts(self) -> None:
        """Caller holds the lock."""
        if self._counter_path is None:
            self._counter_path = self.index.root / (
                f"rstats-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"
            )
        tmp = self._counter_path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(self._counts))
            tmp.replace(self._counter_path)
            self._dirty = 0
        except OSError:  # pragma: no cover - stats are best-effort
            pass


# ----------------------------------------------------------------------
# store-side inspection (no tier construction, no record loading)
# ----------------------------------------------------------------------


def _read_rstats(index_root: Path) -> Dict[str, int]:
    counts = {"attempts": 0, "hits": 0, "aborts": 0}
    for path in index_root.glob("rstats-*.json"):
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for field in counts:
            try:
                counts[field] += int(raw.get(field, 0))
            except (TypeError, ValueError):
                pass
    return counts


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
    out: Dict[str, Any] = _read_rstats(root)
    out["indexed"] = len(ResultStore(root))
    out["path"] = str(root)
    return out


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
    for path in root.glob("rstats-*.json"):
        try:
            path.unlink()
        except OSError:
            pass
    return True
