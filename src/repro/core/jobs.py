"""Jobs and job-set structure predicates.

A :class:`Job` is an interval with an identity (``job_id``), an optional
``weight`` (used by the weighted-throughput extension of Section 5) and
an optional ``demand`` (used by the variable-capacity extension; the
base problems of the paper use demand 1).

The module also implements the structural predicates that drive the
paper's case analysis:

* :func:`is_clique_set` — all jobs share a common time
  (Section 2, "Special cases"; by the Helly property this is equivalent
  to the interval graph being a clique),
* :func:`is_proper_set` — no job properly contains another, i.e.
  ``s_J <= s_J'  iff  c_J <= c_J'`` for every pair,
* :func:`is_one_sided` — clique set in which all jobs share a start time
  or all share a completion time,
* :func:`connected_components` — components of the interval graph, used
  to justify the w.l.o.g. connectivity assumption for MinBusy,
* :func:`sort_jobs` — the canonical ``J_1 <= J_2 <= ...`` ordering.

An instance's job table (:class:`JobTable`, one ``(kind, values)``
entry per :data:`JOB_COLUMNS` field) is built once per instance and
cached on it: at construction by :meth:`Instance.from_spans
<repro.core.instance.Instance.from_spans>`, which already knows every
field's type (:func:`span_table`), otherwise by one walk over the
``Job`` objects on first read (:func:`job_columns`).  The fingerprint
and the binary wire packer both read that one table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .errors import InvalidIntervalError
from .intervals import Interval, common_point, total_length, union_length

__all__ = [
    "Job",
    "JOB_COLUMNS",
    "JobTable",
    "SpanFields",
    "column_kind",
    "job_columns",
    "span_fields",
    "span_table",
    "make_jobs",
    "sort_jobs",
    "jobs_total_length",
    "jobs_span",
    "is_clique_set",
    "is_proper_set",
    "is_one_sided",
    "one_sided_kind",
    "connected_components",
    "pairwise_overlaps",
    "pairwise_overlaps_scalar",
]

_job_counter = itertools.count()


@dataclass(frozen=True, order=True)
class Job:
    """A job: the time interval during which it must be processed.

    Ordering is by ``(start, end, job_id)`` so that sorting a proper
    instance yields the paper's canonical non-decreasing order and ties
    are broken deterministically.
    """

    start: float
    end: float
    job_id: int = field(default_factory=lambda: next(_job_counter))
    weight: float = 1.0
    demand: int = 1

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise InvalidIntervalError(
                f"job {self.job_id} must have positive length, "
                f"got [{self.start}, {self.end})"
            )
        if self.weight < 0:
            raise InvalidIntervalError(
                f"job {self.job_id} has negative weight {self.weight}"
            )
        if self.demand < 1:
            raise InvalidIntervalError(
                f"job {self.job_id} has demand {self.demand} < 1"
            )

    @property
    def interval(self) -> Interval:
        """The processing interval as a bare :class:`Interval`."""
        return Interval(self.start, self.end)

    @property
    def length(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Job") -> bool:
        return min(self.end, other.end) > max(self.start, other.start)

    def overlap_length(self, other: "Job") -> float:
        return max(0.0, min(self.end, other.end) - max(self.start, other.start))

    def properly_contains(self, other: "Job") -> bool:
        return (
            self.start <= other.start
            and other.end <= self.end
            and (self.start, self.end) != (other.start, other.end)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job#{self.job_id}[{self.start},{self.end})"


class SpanFields(NamedTuple):
    """:func:`make_jobs`' coerced job fields, in input order.

    ``weights``/``demands`` are ``None`` when every job takes the
    default (1.0 / 1).
    """

    starts: List[float]
    ends: List[float]
    weights: Optional[List[float]]
    demands: Optional[List[int]]


def span_fields(
    spans: Iterable[Tuple[float, float]],
    *,
    weights: Sequence[float] | None = None,
    demands: Sequence[int] | None = None,
) -> SpanFields:
    """Coerce ``(start, end)`` pairs (and optional weights/demands) the
    way :func:`make_jobs` stores them: ``float`` times and weights,
    ``int`` demands."""
    spans = list(spans)
    if weights is not None and len(weights) != len(spans):
        raise InvalidIntervalError("weights length must match spans length")
    if demands is not None and len(demands) != len(spans):
        raise InvalidIntervalError("demands length must match spans length")
    starts: List[float] = []
    ends: List[float] = []
    for s, c in spans:
        starts.append(float(s))
        ends.append(float(c))
    return SpanFields(
        starts=starts,
        ends=ends,
        weights=None if weights is None else [float(w) for w in weights],
        demands=None if demands is None else [int(d) for d in demands],
    )


def make_jobs(
    spans: Iterable[Tuple[float, float]] | SpanFields,
    *,
    weights: Sequence[float] | None = None,
    demands: Sequence[int] | None = None,
) -> List[Job]:
    """Build jobs with consecutive ids ``0..n-1`` from ``(start, end)``
    pairs, or from already coerced :class:`SpanFields`."""
    if not isinstance(spans, SpanFields):
        spans = span_fields(spans, weights=weights, demands=demands)
    ws, ds = spans.weights, spans.demands
    return [
        Job(
            start=s,
            end=c,
            job_id=i,
            weight=1.0 if ws is None else ws[i],
            demand=1 if ds is None else ds[i],
        )
        for i, (s, c) in enumerate(zip(spans.starts, spans.ends))
    ]


#: The per-job fields of a :class:`JobTable`, in column order (also the
#: key order of a job record in the JSON instance format).
JOB_COLUMNS = ("start", "end", "weight", "demand", "job_id")

#: The little-endian dtype of each typed column kind.
_KIND_DTYPES = {"f": "<f8", "i": "<i8"}

_NONE_TYPE = type(None)
_OI_KINDS = ({int, _NONE_TYPE}, {_NONE_TYPE})


def column_kind(values: Sequence[Any]) -> Optional[str]:
    """``"i"``/``"f"``/``"oi"`` when a column can ride a raw buffer.

    Exact round-trip rules: every value the same scalar type (so ints
    stay ints and floats stay floats after decode), int64-representable,
    and ``None`` only alongside *non-negative* ints (the ``-1``
    sentinel must be unambiguous).  Anything else keeps the column in
    the control JSON.  ``set(map(type, ...))`` keeps the type sweep at
    C speed.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return "f"
    if kinds == {int}:
        return "i"
    if kinds in _OI_KINDS:
        if any(v is not None and v < 0 for v in values):
            return None
        return "oi"
    return None


def _typed_column(values: Sequence[Any]) -> Tuple[Optional[str], Any]:
    """One :class:`JobTable` entry for a column of Python values:
    ``(kind, array)`` under the :func:`column_kind` rules, else
    ``(None, tuple(values))``."""
    kind = column_kind(values)
    if kind in _KIND_DTYPES:
        try:
            return kind, np.fromiter(values, _KIND_DTYPES[kind], len(values))
        except OverflowError:  # an int beyond int64
            pass
    return None, tuple(values)


class JobTable:
    """An instance's jobs column-wise, in canonical order: one
    ``(kind, values)`` entry per :data:`JOB_COLUMNS` field.

    ``kind`` is ``"f"`` or ``"i"`` when every value is a ``float``
    (an int64-representable ``int``), and ``values`` is then a
    little-endian float64 (int64) array of exactly those values.
    Otherwise ``kind`` is ``None`` and ``values`` is the tuple of the
    jobs' own objects.

    A table read off ``Job`` objects holds each field as a plain list
    until an entry is first read, so a caller that only needs
    :meth:`floats` (the fingerprint) never pays the type sweep.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Any]) -> None:
        # Each entry is a typed ``(kind, values)`` pair, or the list of
        # one field's values that the first read types.
        self._entries = list(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> Tuple[Optional[str], Any]:
        entry = self._entries[index]
        if type(entry) is list:
            entry = self._entries[index] = _typed_column(entry)
        return entry

    def __iter__(self) -> Iterator[Tuple[Optional[str], Any]]:
        return (self[i] for i in range(len(self._entries)))

    def floats(self, index: int) -> np.ndarray:
        """Column ``index`` as float64, without typing an untyped one."""
        entry = self._entries[index]
        if type(entry) is not list:
            kind, values = entry
            if kind == "f":
                return values
            if kind == "i":
                return values.astype(np.float64)
        else:
            values = entry
        return np.fromiter(values, np.float64, len(values))


def job_columns(jobs: Sequence[Job]) -> JobTable:
    """The jobs' :class:`JobTable`, read in one walk over the objects.

    The values are the jobs' own attribute objects (an ``int`` start
    stays an ``int``, so its column is typed ``"i"``), exactly what a
    per-job ``getattr`` would have read.  One comprehension per field
    with the attribute spelled out is the fastest extraction CPython
    offers (about 3x a multi-field ``attrgetter`` plus ``zip``
    transpose at 10k-100k jobs); the type sweep waits for the first
    read of an entry.
    """
    return JobTable(
        (
            [j.start for j in jobs],
            [j.end for j in jobs],
            [j.weight for j in jobs],
            [j.demand for j in jobs],
            [j.job_id for j in jobs],
        )
    )


def span_table(fields: SpanFields, jobs: Sequence[Job]) -> JobTable:
    """The typed :class:`JobTable` of ``jobs``, built by :func:`make_jobs`
    from ``fields`` and since put in canonical order.

    No job is walked beyond its ``job_id``: the ids are the input
    positions, so they order the coerced field arrays directly.
    """
    n = len(jobs)
    if not n:  # no values, so no kinds: the table read off no jobs
        return job_columns(jobs)
    order = np.fromiter([j.job_id for j in jobs], _KIND_DTYPES["i"], n)

    def column(kind: str, values: Optional[list], default: Any) -> Tuple:
        if values is None:
            return kind, np.full(n, default, _KIND_DTYPES[kind])
        try:
            return kind, np.array(values, _KIND_DTYPES[kind])[order]
        except OverflowError:  # a demand beyond int64
            return None, tuple(values[i] for i in order.tolist())

    return JobTable(
        (
            column("f", fields.starts, None),
            column("f", fields.ends, None),
            column("f", fields.weights, 1.0),
            column("i", fields.demands, 1),
            ("i", order),
        )
    )


def sort_jobs(jobs: Iterable[Job]) -> List[Job]:
    """Canonical ``J_1 <= J_2 <= ...`` order: by (start, end, id)."""
    return sorted(jobs)


def jobs_total_length(jobs: Iterable[Job]) -> float:
    """``len(J)`` — sum of job lengths."""
    return total_length(j.interval for j in jobs)


def jobs_span(jobs: Iterable[Job]) -> float:
    """``span(J)`` — length of the union of the job intervals."""
    return union_length(j.interval for j in jobs)


# ----------------------------------------------------------------------
# structural predicates
# ----------------------------------------------------------------------


def is_clique_set(jobs: Sequence[Job]) -> bool:
    """All jobs pairwise overlap ⟺ they share a common time (Helly)."""
    if len(jobs) <= 1:
        return True
    return common_point([j.interval for j in jobs]) is not None


def is_proper_set(jobs: Sequence[Job]) -> bool:
    """No job properly contains another.

    Equivalent to the paper's condition ``s_J <= s_J' iff c_J <= c_J'``:
    after sorting by ``(start, end)``, ends must strictly increase with
    strictly increasing starts, and equal starts force equal ends.
    """
    ordered = sorted(jobs, key=lambda j: (j.start, j.end))
    for a, b in zip(ordered, ordered[1:]):
        if a.start == b.start:
            if a.end != b.end:
                return False
        else:  # a.start < b.start
            if b.end < a.end or b.end == a.end:
                # b nested in a (strictly, or sharing the right endpoint)
                # — either way the "iff" condition fails.
                if (a.start, a.end) != (b.start, b.end):
                    return False
    return True


def one_sided_kind(jobs: Sequence[Job]) -> str | None:
    """Return ``"left"``/``"right"`` for a one-sided clique instance.

    ``"left"`` means all jobs share the same start time, ``"right"`` the
    same completion time.  Returns ``None`` when the set is not a
    one-sided clique instance.  A set where both hold (all jobs
    identical) reports ``"left"``.
    """
    if not jobs:
        return "left"
    if not is_clique_set(jobs):
        return None
    starts = {j.start for j in jobs}
    ends = {j.end for j in jobs}
    if len(starts) == 1:
        return "left"
    if len(ends) == 1:
        return "right"
    return None


def is_one_sided(jobs: Sequence[Job]) -> bool:
    """Whether the set is a one-sided clique instance (Section 2)."""
    return one_sided_kind(jobs) is not None


def pairwise_overlaps(jobs: Sequence[Job]) -> List[Tuple[int, int, float]]:
    """All overlapping index pairs ``(i, j, overlap_length)``, i < j.

    This is the edge list of the paper's weighted graph ``G_m``
    (Section 3.1).  Large inputs route through the batched NumPy kernel
    (:func:`repro.core.vectorized.pairwise_overlap_arrays`); small ones
    use the scalar sweep.  The two produce identical lists — including
    emission order — so the choice is purely a constant-factor one.
    """
    from .vectorized import (
        VECTORIZE_MIN_SIZE,
        job_arrays,
        pairwise_overlap_arrays,
    )

    if len(jobs) >= VECTORIZE_MIN_SIZE:
        first, second, weights = pairwise_overlap_arrays(*job_arrays(jobs))
        return list(zip(first.tolist(), second.tolist(), weights.tolist()))
    return pairwise_overlaps_scalar(jobs)


def pairwise_overlaps_scalar(jobs: Sequence[Job]) -> List[Tuple[int, int, float]]:
    """Reference sweep for :func:`pairwise_overlaps` (O(n log n + m))."""
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i].start, jobs[i].end))
    out: List[Tuple[int, int, float]] = []
    active: List[int] = []  # indices of jobs whose interval may still overlap
    for idx in order:
        j = jobs[idx]
        still = []
        for a in active:
            if jobs[a].end > j.start:
                still.append(a)
                w = j.overlap_length(jobs[a])
                if w > 0:
                    lo, hi = (a, idx) if a < idx else (idx, a)
                    out.append((lo, hi, w))
        active = still
        active.append(idx)
    return out


def connected_components(jobs: Sequence[Job]) -> List[List[int]]:
    """Components of the interval graph, as lists of job indices.

    Used to justify the paper's w.l.o.g. assumption that MinBusy
    instances are connected: components can be solved independently.
    Computed with a single sweep in O(n log n).
    """
    n = len(jobs)
    if n == 0:
        return []
    order = sorted(range(n), key=lambda i: (jobs[i].start, jobs[i].end))
    comps: List[List[int]] = []
    cur: List[int] = [order[0]]
    cur_end = jobs[order[0]].end
    for idx in order[1:]:
        j = jobs[idx]
        if j.start < cur_end:
            cur.append(idx)
            cur_end = max(cur_end, j.end)
        else:
            comps.append(cur)
            cur = [idx]
            cur_end = j.end
    comps.append(cur)
    return comps
