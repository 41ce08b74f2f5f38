"""Event-indexed occupancy engine for the FirstFit family.

Every FirstFit variant in the library shares one inner loop: for each
job (in the variant's sort order) scan machines in creation order, scan
each machine's ``g`` threads in index order, and place the job on the
first thread none of whose jobs overlap it.  The scalar implementations
probe that loop one ``try_add`` at a time in pure Python; past a few
thousand jobs the probing dominates the solve.

This module replaces the probing with an *event-indexed occupancy
structure*: the engine keeps the already-placed jobs as parallel NumPy
coordinate columns plus a global thread-id column (``machine * g +
thread``), updated incrementally as jobs land — never rescanned from
scratch.  A placement query then becomes one batched scan:

1. build the boolean overlap mask of the query job against *all*
   placed jobs in a handful of fused array ops (the geometry hook),
2. fold the mask into per-thread blocked counts with ``bincount``,
3. the first zero count, in machine-major order, is exactly the scalar
   FirstFit decision (first machine with a fitting thread, lowest
   fitting thread within it); no zero means "open a new machine".

Design rules (matching :mod:`repro.core.vectorized`):

* **Bit-exact semantics.**  The mask performs the same float
  comparisons as the scalar ``overlaps`` predicates — no arithmetic the
  scalar path does not perform — so the chosen ``(machine, thread)``
  is identical decision-for-decision, and the differential tests in
  ``tests/test_firstfit_vectorized.py`` assert full structural
  equality, not cost equality.
* **Geometry via subclass.**  :class:`IntervalOccupancy` (1-D jobs),
  :class:`RectOccupancy` (Algorithm 3's rectangles) and
  :class:`RingOccupancy` (cylinder jobs of Theorem 3.3's ring
  extension) supply only the overlap mask; the scan, the buffers and
  the machine accounting live in :class:`OccupancyEngine`.
  :class:`DemandOccupancy` is the machine-level analogue for the
  variable-demand extension, where fitting is a peak-demand sweep
  rather than a per-thread disjointness test.
* **Thresholded dispatch.**  Call sites gate on a per-variant minimum
  size and keep the scalar loop for small inputs; every entry point
  also takes ``backend=`` to force either path, which is how the
  differential tests cross the threshold in both directions.  The 1-D
  and 2-D variants switch at :data:`FIRSTFIT_VECTORIZE_MIN_SIZE` (=
  the kernels' ``VECTORIZE_MIN_SIZE``); the demand and ring variants
  switch later (:data:`DEMAND_FIRSTFIT_MIN_SIZE`,
  :data:`RING_FIRSTFIT_MIN_SIZE`) because their scalar probes are
  cheap relative to their vectorized fit tests (a windowed event
  sweep, a wrap-around arc mask) — measured crossovers sit near ~350
  and ~200 jobs respectively, so routing them at 64 would *slow down*
  mid-sized instances.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InvalidScheduleError
from .vectorized import VECTORIZE_MIN_SIZE

__all__ = [
    "FIRSTFIT_VECTORIZE_MIN_SIZE",
    "DEMAND_FIRSTFIT_MIN_SIZE",
    "RING_FIRSTFIT_MIN_SIZE",
    "OccupancyEngine",
    "IntervalOccupancy",
    "RectOccupancy",
    "RingOccupancy",
    "DemandOccupancy",
    "firstfit_min_size",
    "resolve_backend",
]

# 1-D and planar 2-D FirstFit route through the occupancy engine at the
# same size the sweep kernels switch over.
FIRSTFIT_VECTORIZE_MIN_SIZE = VECTORIZE_MIN_SIZE
# The demand and ring variants' scalar loops cost less per probe than
# their vectorized fit tests until well past the kernel threshold
# (measured ~1x at n≈350 / n≈200 on the E17 workloads); switching
# there keeps backend="auto" a strict win at every size.
DEMAND_FIRSTFIT_MIN_SIZE = 384
RING_FIRSTFIT_MIN_SIZE = 192

# One place owns the variant -> threshold knowledge; the dispatch
# helper and the bench/CLI labeling look it up here.
_MIN_SIZES = {
    "1d": FIRSTFIT_VECTORIZE_MIN_SIZE,
    "rect": FIRSTFIT_VECTORIZE_MIN_SIZE,
    "demand": DEMAND_FIRSTFIT_MIN_SIZE,
    "ring": RING_FIRSTFIT_MIN_SIZE,
}


def firstfit_min_size(variant: str = "1d") -> int:
    """The auto-dispatch threshold of a FirstFit variant.

    ``variant`` is ``"1d"``, ``"rect"``, ``"demand"`` or ``"ring"``
    (bench row names like ``"firstfit_ring"`` are accepted too);
    unknown names fall back to the shared kernel threshold, so labeling
    code never crashes on a new row.
    """
    key = variant[len("firstfit_"):] if variant.startswith("firstfit_") else variant
    return _MIN_SIZES.get(key, FIRSTFIT_VECTORIZE_MIN_SIZE)


_BACKENDS = ("auto", "scalar", "vectorized")


def resolve_backend(
    backend: str, n: int, threshold: int = FIRSTFIT_VECTORIZE_MIN_SIZE
) -> str:
    """Resolve ``backend`` to a concrete tier for size ``n``.

    ``"auto"`` picks the vectorized engine at ``threshold`` jobs (the
    caller's variant-specific minimum size) and the scalar loop below
    it; the explicit names force a path (used by benchmarks and the
    differential tests).
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"backend must be one of {_BACKENDS}, got {backend!r}"
        )
    if backend != "auto":
        return backend
    return "scalar" if n < threshold else "vectorized"


class OccupancyEngine:
    """Shared core: growing coordinate columns + the first-fit scan.

    Subclasses set :attr:`N_COLUMNS` and implement :meth:`_overlap_mask`
    over the column views of all placed jobs.  Columns are float64 and
    hold whatever coordinates the geometry needs (endpoints for
    intervals, corners for rectangles, arc+time for ring jobs).
    """

    N_COLUMNS = 2

    def __init__(self, g: int, *, initial_capacity: int = 256) -> None:
        if g < 1:
            raise InvalidScheduleError(f"capacity g must be >= 1, got {g}")
        self.g = int(g)
        self.n_machines = 0
        self.n_placed = 0
        cap = max(int(initial_capacity), 1)
        self._columns = np.empty((self.N_COLUMNS, cap), dtype=np.float64)
        self._tids = np.empty(cap, dtype=np.intp)

    # ------------------------------------------------------------------
    def _overlap_mask(self, cols: np.ndarray, row: Tuple[float, ...]) -> np.ndarray:
        """Boolean mask of placed jobs overlapping the query ``row``."""
        raise NotImplementedError

    def _append(self, row: Tuple[float, ...], tid: int) -> None:
        n = self.n_placed
        if n == self._columns.shape[1]:
            self._columns = np.concatenate(
                [self._columns, np.empty_like(self._columns)], axis=1
            )
            self._tids = np.concatenate([self._tids, np.empty_like(self._tids)])
        self._columns[:, n] = row
        self._tids[n] = tid
        self.n_placed = n + 1

    def first_fit(self, *row: float) -> Tuple[int, int]:
        """Place the job at ``row``; returns ``(machine, thread)``.

        One vectorized scan over the occupancy arrays replaces the
        scalar loop over candidate machines: the blocked-thread counts
        come from a single ``bincount`` of the overlap mask, and the
        first free global thread id in machine-major order *is* the
        scalar FirstFit choice.  A new machine (thread 0) is opened
        when every existing thread is blocked.
        """
        n_threads = self.n_machines * self.g
        if n_threads:
            n = self.n_placed
            mask = self._overlap_mask(self._columns[:, :n], row)
            blocked = np.bincount(self._tids[:n][mask], minlength=n_threads)
            free = blocked == 0
            tid = int(free.argmax()) if free.any() else -1
            if tid >= 0:
                self._append(row, tid)
                return tid // self.g, tid % self.g
        tid = n_threads
        self.n_machines += 1
        self._append(row, tid)
        return tid // self.g, 0


class IntervalOccupancy(OccupancyEngine):
    """1-D occupancy: columns ``(start, end)``.

    The mask mirrors ``Job.overlaps`` exactly:
    ``min(end, other.end) > max(start, other.start)`` rewritten as the
    two comparisons ``start < q_end`` and ``end > q_start``.
    """

    N_COLUMNS = 2

    def _overlap_mask(self, cols: np.ndarray, row: Tuple[float, ...]) -> np.ndarray:
        s, e = row
        return (cols[0] < e) & (cols[1] > s)


class RectOccupancy(OccupancyEngine):
    """2-D occupancy for Algorithm 3: columns ``(x0, y0, x1, y1)``.

    Mirrors ``Rect.overlaps`` (positive-area intersection) as four
    comparisons against the query corners.
    """

    N_COLUMNS = 4

    def _overlap_mask(self, cols: np.ndarray, row: Tuple[float, ...]) -> np.ndarray:
        x0, y0, x1, y1 = row
        return (
            (cols[0] < x1)
            & (cols[2] > x0)
            & (cols[1] < y1)
            & (cols[3] > y0)
        )


class RingOccupancy(OccupancyEngine):
    """Cylinder occupancy for the ring extension: columns
    ``(a0, alen, t0, t1)``.

    Mirrors ``RingJob.overlaps``: time intervals must overlap and the
    arcs must share a sub-arc of positive length, where the arc test is
    ``repro.topology.ring.arc_overlaps`` with the *query's*
    circumference — including its full-circle shortcut and its
    ``1e-15`` guard bands — performed element-wise on the arc columns.
    The circumference travels with each query (``first_fit``'s fifth
    argument), matching the scalar pair test's convention, so
    mixed-circumference inputs stay bit-identical with no state to
    keep in sync.
    """

    N_COLUMNS = 4

    def first_fit(  # type: ignore[override]
        self, a0: float, alen: float, t0: float, t1: float,
        circumference: float,
    ) -> Tuple[int, int]:
        self._query_circumference = float(circumference)
        return super().first_fit(a0, alen, t0, t1)

    def _overlap_mask(self, cols: np.ndarray, row: Tuple[float, ...]) -> np.ndarray:
        a0, alen, t0, t1 = row
        C = self._query_circumference
        time_ov = (cols[2] < t1) & (cols[3] > t0)
        # d = (other.a0 - query.a0) % C, exactly Python's float modulo.
        d = np.mod(cols[0] - a0, C)
        # ``alen >= C`` is arc_overlaps' full-circle shortcut.
        arc_ov = (
            (cols[1] >= C)
            | (d < alen - 1e-15)
            | (d + cols[1] > C + 1e-15)
            | (alen >= C)
        )
        return time_ov & arc_ov


class DemandOccupancy:
    """Machine-level occupancy for demand-aware FirstFit.

    The variable-demand extension has no thread structure: a machine
    fits a job when the *peak total demand* over the job's window stays
    within ``g`` after insertion.  The engine keeps per-machine event
    columns ``(start, end, demand)`` and answers each probe with the
    same event sweep as
    :func:`repro.capacity.demands.max_demand_concurrency_scalar`
    (sort by ``(time, delta)``, departures before arrivals at ties),
    restricted — exactly like the scalar ``_DemandMachine.fits`` — to
    the placed jobs whose windows overlap the query's.
    """

    def __init__(self, g: int) -> None:
        if g < 1:
            raise InvalidScheduleError(f"capacity g must be >= 1, got {g}")
        self.g = int(g)
        self._machines: list = []  # per machine: [starts, ends, demands, count]

    @property
    def n_machines(self) -> int:
        return len(self._machines)

    def _fits(self, m: int, s: float, e: float, d: int) -> bool:
        starts, ends, demands, count = self._machines[m]
        sv = starts[:count]
        ev = ends[:count]
        active = (sv < e) & (ev > s)
        da = demands[:count][active]
        times = np.concatenate((sv[active], [s], ev[active], [e]))
        signed = np.concatenate((da, [d], -da, [-d]))
        order = np.lexsort((signed, times))
        peak = int(np.cumsum(signed[order]).max())
        return peak <= self.g

    def first_fit(self, s: float, e: float, d: int) -> int:
        """Place ``[s, e)`` with demand ``d``; returns the machine index."""
        for m in range(len(self._machines)):
            if self._fits(m, s, e, d):
                self._add(m, s, e, d)
                return m
        m = self._open()
        self._add(m, s, e, d)
        return m

    def _open(self) -> int:
        self._machines.append(
            [np.empty(64), np.empty(64), np.empty(64, dtype=np.int64), 0]
        )
        return len(self._machines) - 1

    def _add(self, m: int, s: float, e: float, d: int) -> None:
        rec = self._machines[m]
        starts, ends, demands, count = rec
        if count == starts.size:
            rec[0] = starts = np.concatenate([starts, np.empty_like(starts)])
            rec[1] = ends = np.concatenate([ends, np.empty_like(ends)])
            rec[2] = demands = np.concatenate([demands, np.empty_like(demands)])
        starts[count] = s
        ends[count] = e
        demands[count] = d
        rec[3] = count + 1
