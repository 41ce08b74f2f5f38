"""One-dimensional interval algebra.

The paper (Section 2) treats a job ``[s, c]`` as *not* being processed at
its completion time ``c``; two intervals "overlap" only if their
intersection contains more than one point (Definition 2.2).  Both
conventions are exactly the semantics of half-open intervals ``[s, c)``,
which is what this module implements.

The module provides

* :class:`Interval` — an immutable, validated, ordered interval,
* overlap / intersection / containment predicates,
* union-length ("span") computation, both as a pure-Python sweep over
  :class:`Interval` objects and as a vectorized NumPy kernel
  (:func:`union_length_arrays`) used by the hot paths of the analysis
  harness, and
* :func:`merge_intervals`, returning the connected components of a union
  of intervals (``SPAN(I)`` in the paper's notation).

All lengths are floats.  Callers that need exact arithmetic should use
integer endpoints; every function here is exact for integer inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import InvalidIntervalError

__all__ = [
    "Interval",
    "intersect_length",
    "union_length",
    "span_length",
    "union_length_arrays",
    "merge_intervals",
    "intervals_span",
    "total_length",
    "common_point",
]


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval ``[start, end)`` with positive length.

    Ordering is lexicographic by ``(start, end)`` which matches the
    paper's canonical ordering ``J_1 <= J_2 <= ...`` for proper instances
    (Property 3.1).
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise InvalidIntervalError(
                f"interval endpoints must be finite, got [{self.start}, {self.end})"
            )
        if not self.end > self.start:
            raise InvalidIntervalError(
                f"interval must have positive length, got [{self.start}, {self.end})"
            )

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def length(self) -> float:
        """``len(I) = c_I - s_I`` (Definition 2.1)."""
        return self.end - self.start

    def contains_point(self, t: float) -> bool:
        """Whether the job is being processed at time ``t`` (half-open)."""
        return self.start <= t < self.end

    def overlaps(self, other: "Interval") -> bool:
        """Paper Definition 2.2: intersection has more than one point."""
        return min(self.end, other.end) > max(self.start, other.start)

    def intersection_length(self, other: "Interval") -> float:
        """Length of the overlap (0 if the intervals merely touch)."""
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlap interval, or ``None`` when there is no overlap."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi > lo:
            return Interval(lo, hi)
        return None

    def contains(self, other: "Interval") -> bool:
        """Whether ``other`` lies inside ``self`` (not necessarily properly)."""
        return self.start <= other.start and other.end <= self.end

    def properly_contains(self, other: "Interval") -> bool:
        """Strict containment in the paper's sense.

        ``I`` properly contains ``I'`` when ``I' ⊆ I`` and the two are not
        equal.  Proper instances forbid this between any two jobs.
        """
        return self.contains(other) and (self.start, self.end) != (
            other.start,
            other.end,
        )

    def shifted(self, delta: float) -> "Interval":
        """A copy translated by ``delta``."""
        return Interval(self.start + delta, self.end + delta)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (used for span of cliques)."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start}, {self.end})"


# ----------------------------------------------------------------------
# aggregate operations
# ----------------------------------------------------------------------


def intersect_length(a: Interval, b: Interval) -> float:
    """Module-level alias of :meth:`Interval.intersection_length`."""
    return a.intersection_length(b)


def total_length(intervals: Iterable[Interval]) -> float:
    """``len(I) = Σ len(I_j)`` (Definition 2.1 extended to sets)."""
    return float(sum(iv.length for iv in intervals))


def _components(
    spans: Iterable[Tuple[float, float]],
) -> Iterator[Tuple[float, float]]:
    """Connected components of a union of ``(start, end)`` pairs, in
    order — the sorted sweep every union computation here runs."""
    ivs = iter(sorted(spans))
    first = next(ivs, None)
    if first is None:
        return
    cur_s, cur_e = first
    for s, e in ivs:
        if s <= cur_e:
            if e > cur_e:
                cur_e = e
        else:
            yield cur_s, cur_e
            cur_s, cur_e = s, e
    yield cur_s, cur_e


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Connected components of the union — ``SPAN(I)`` as a set of intervals.

    Intervals that merely touch (``[0,1)`` and ``[1,2)``) are merged into
    one component: the union of half-open intervals ``[0,2)`` is
    contiguous, so a machine busy over both is busy over one period.
    """
    return [
        Interval(s, e)
        for s, e in _components((iv.start, iv.end) for iv in intervals)
    ]


def span_length(spans: Iterable[Tuple[float, float]]) -> float:
    """Union length of bare ``(start, end)`` pairs (already valid
    half-open intervals): :func:`union_length` without building
    :class:`Interval` objects, bit-identical to it."""
    return float(sum(e - s for s, e in _components(spans)))


def union_length(intervals: Iterable[Interval]) -> float:
    """``span(I) = len(SPAN(I))`` (Definition 2.2) via a sorted sweep."""
    return span_length((iv.start, iv.end) for iv in intervals)


def intervals_span(intervals: Sequence[Interval]) -> Interval:
    """Smallest single interval containing all inputs (their hull).

    This is the machine busy period under the paper's w.l.o.g. assumption
    that ``SPAN(J_i)`` is contiguous; it equals the union for clique sets.
    """
    if not intervals:
        raise InvalidIntervalError("span of an empty interval set is undefined")
    return Interval(
        min(iv.start for iv in intervals), max(iv.end for iv in intervals)
    )


def union_length_arrays(starts: np.ndarray, ends: np.ndarray) -> float:
    """Vectorized union length for parallel arrays of endpoints.

    Equivalent to :func:`union_length` but operating on NumPy arrays,
    used in the ratio-measurement hot paths where thousands of spans are
    computed per sweep (guide: vectorize the bottleneck, keep the
    reference implementation simple).
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.size == 0:
        return 0.0
    if starts.shape != ends.shape:
        raise InvalidIntervalError("starts and ends must have the same shape")
    if np.any(ends <= starts):
        raise InvalidIntervalError("all intervals must have positive length")
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = ends[order]
    # Running maximum of interval ends seen so far, shifted by one: an
    # interval starts a new component iff its start exceeds that maximum.
    cummax = np.maximum.accumulate(e)
    new_comp = np.empty(s.shape, dtype=bool)
    new_comp[0] = True
    new_comp[1:] = s[1:] > cummax[:-1]
    comp_id = np.cumsum(new_comp) - 1
    n_comp = comp_id[-1] + 1
    comp_start = np.empty(n_comp)
    comp_end = np.empty(n_comp)
    # First index of each component gives its start; max end via reduceat.
    first_idx = np.flatnonzero(new_comp)
    comp_start = s[first_idx]
    comp_end = np.maximum.reduceat(e, first_idx)
    return float(np.sum(comp_end - comp_start))


def common_point(intervals: Sequence[Interval]) -> float | None:
    """A time contained in *all* intervals, or ``None`` if none exists.

    For a clique set (paper Section 2, "Special cases") the Helly property
    of intervals guarantees ``max start < min end``; the returned witness
    is the midpoint of the common intersection so that it is interior.
    """
    if not intervals:
        return None
    lo = max(iv.start for iv in intervals)
    hi = min(iv.end for iv in intervals)
    if hi > lo:
        return 0.5 * (lo + hi)
    return None
