"""Problem instances.

:class:`Instance` is the input ``(J, g)`` of MinBusy;
:class:`BudgetInstance` is the input ``(J, g, T)`` of MaxThroughput.
Both validate their parameters and cache the structure predicates that
drive the paper's case analysis (clique / proper / one-sided), so the
dispatcher and the algorithms can assert their preconditions cheaply.
They also cache their job table (:attr:`Instance.columns`, a
:class:`~repro.core.jobs.JobTable`), which the fingerprint and the wire
document both read.  The table is built once per instance: at
construction by :meth:`Instance.from_spans`, from the values it has
just coerced, otherwise by one walk over the ``Job`` objects on first
read.  The constructors that keep the same ``jobs`` (``with_budget``,
``min_busy_instance``) hand the table on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

from .errors import InstanceError
from .jobs import (
    Job,
    connected_components,
    is_clique_set,
    is_one_sided,
    is_proper_set,
    job_columns,
    JobTable,
    jobs_span,
    jobs_total_length,
    make_jobs,
    one_sided_kind,
    sort_jobs,
    span_fields,
    span_table,
)

__all__ = ["Instance", "BudgetInstance"]


def _state_without_columns(instance: object) -> dict:
    # Pickles and copies leave the cached job columns behind: they only
    # re-read ``jobs``, and shipping them would add a reference per job
    # field to every pickled instance.
    state = dict(instance.__dict__)
    state.pop("columns", None)
    return state


def _share_columns(source: object, instance):
    # ``instance`` holds the same jobs tuple as ``source``, so a job
    # table ``source`` has already built is ``instance``'s too.
    table = source.__dict__.get("columns")
    if table is not None:
        instance.__dict__["columns"] = table
    return instance


@dataclass(frozen=True)
class Instance:
    """A MinBusy instance ``(J, g)``.

    ``jobs`` is stored in canonical sorted order.  The instance is
    immutable; helper constructors build it from raw ``(s, c)`` pairs.
    """

    jobs: Tuple[Job, ...]
    g: int

    def __post_init__(self) -> None:
        if self.g < 1:
            raise InstanceError(f"parallelism parameter g must be >= 1, got {self.g}")
        object.__setattr__(self, "jobs", tuple(sort_jobs(self.jobs)))

    # ------------------------------------------------------------------
    @classmethod
    def from_spans(
        cls,
        spans: Iterable[Tuple[float, float]],
        g: int,
        *,
        weights: Sequence[float] | None = None,
        demands: Sequence[int] | None = None,
    ) -> "Instance":
        fields = span_fields(spans, weights=weights, demands=demands)
        instance = cls(jobs=tuple(make_jobs(fields)), g=g)
        instance.__dict__["columns"] = span_table(fields, instance.jobs)
        return instance

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.jobs)

    @cached_property
    def columns(self) -> JobTable:
        """The job table in canonical order
        (:class:`~repro.core.jobs.JobTable`): seeded by
        :meth:`from_spans`, else read off the jobs on first use
        (:func:`~repro.core.jobs.job_columns`)."""
        return job_columns(self.jobs)

    def __getstate__(self) -> dict:
        return _state_without_columns(self)

    @cached_property
    def total_length(self) -> float:
        """``len(J)``."""
        return jobs_total_length(self.jobs)

    @cached_property
    def span(self) -> float:
        """``span(J)``."""
        return jobs_span(self.jobs)

    @cached_property
    def is_clique(self) -> bool:
        return is_clique_set(self.jobs)

    @cached_property
    def is_proper(self) -> bool:
        return is_proper_set(self.jobs)

    @cached_property
    def is_proper_clique(self) -> bool:
        return self.is_clique and self.is_proper

    @cached_property
    def one_sided(self) -> str | None:
        """``"left"``/``"right"`` for one-sided clique instances else None."""
        return one_sided_kind(self.jobs)

    @cached_property
    def is_connected(self) -> bool:
        return len(connected_components(self.jobs)) <= 1

    def components(self) -> List["Instance"]:
        """Split into connected components (each again an Instance).

        MinBusy decomposes over components (Section 2); solving each
        separately and merging is exact.
        """
        return [
            Instance(jobs=tuple(self.jobs[i] for i in comp), g=self.g)
            for comp in connected_components(self.jobs)
        ]

    def with_budget(self, budget: float) -> "BudgetInstance":
        return _share_columns(
            self, BudgetInstance(jobs=self.jobs, g=self.g, budget=budget)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = []
        if self.is_clique:
            kinds.append("clique")
        if self.is_proper:
            kinds.append("proper")
        if self.one_sided:
            kinds.append(f"one-sided/{self.one_sided}")
        kind = ",".join(kinds) or "general"
        return f"Instance(n={self.n}, g={self.g}, {kind})"


@dataclass(frozen=True)
class BudgetInstance:
    """A MaxThroughput instance ``(J, g, T)``."""

    jobs: Tuple[Job, ...]
    g: int
    budget: float

    def __post_init__(self) -> None:
        if self.g < 1:
            raise InstanceError(f"parallelism parameter g must be >= 1, got {self.g}")
        if self.budget < 0:
            raise InstanceError(f"budget T must be >= 0, got {self.budget}")
        object.__setattr__(self, "jobs", tuple(sort_jobs(self.jobs)))

    @classmethod
    def from_spans(
        cls,
        spans: Iterable[Tuple[float, float]],
        g: int,
        budget: float,
        *,
        weights: Sequence[float] | None = None,
    ) -> "BudgetInstance":
        fields = span_fields(spans, weights=weights)
        instance = cls(jobs=tuple(make_jobs(fields)), g=g, budget=budget)
        instance.__dict__["columns"] = span_table(fields, instance.jobs)
        return instance

    @property
    def n(self) -> int:
        return len(self.jobs)

    @cached_property
    def columns(self) -> JobTable:
        """The job table (see :attr:`Instance.columns`)."""
        return job_columns(self.jobs)

    def __getstate__(self) -> dict:
        return _state_without_columns(self)

    @property
    def min_busy_instance(self) -> Instance:
        """The underlying ``(J, g)`` MinBusy instance."""
        return _share_columns(self, Instance(jobs=self.jobs, g=self.g))

    def with_budget(self, budget: float) -> "BudgetInstance":
        """The same jobs under another budget."""
        return _share_columns(
            self, BudgetInstance(jobs=self.jobs, g=self.g, budget=budget)
        )

    @cached_property
    def is_clique(self) -> bool:
        return is_clique_set(self.jobs)

    @cached_property
    def is_proper(self) -> bool:
        return is_proper_set(self.jobs)

    @cached_property
    def is_proper_clique(self) -> bool:
        return self.is_clique and self.is_proper

    @cached_property
    def one_sided(self) -> str | None:
        return one_sided_kind(self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BudgetInstance(n={self.n}, g={self.g}, T={self.budget})"
