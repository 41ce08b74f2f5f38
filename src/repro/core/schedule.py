"""Schedules: (partial) assignments of jobs to machines.

A :class:`Schedule` is the output object of every algorithm in this
library.  It stores the assignment ``job -> machine index``, can be
partial (MaxThroughput leaves jobs unscheduled), and exposes the
paper's objective values:

* ``cost``     — total busy time ``Σ_i busy_i`` (Section 2),
* ``throughput`` — number of scheduled jobs,
* ``weighted_throughput`` — Section 5 extension,
* ``saving``   — ``len(J) - cost`` relative to the one-job-per-machine
  schedule (Section 2, used by Lemma 2.1).

Validity (at most ``g`` concurrent jobs per machine) is checked by an
event sweep that is independent of how the schedule was constructed, so
tests and benches can re-verify every algorithm's output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .errors import InvalidScheduleError
from .intervals import merge_intervals, union_length
from .jobs import Job, jobs_total_length
from .machines import max_concurrency

__all__ = ["Schedule"]


@dataclass
class Schedule:
    """A (partial) mapping from jobs to machines.

    ``assignment`` maps each *scheduled* job to a machine index; machine
    indices need not be contiguous.  ``g`` is the parallelism parameter
    the schedule claims to respect.

    A schedule built by :meth:`from_positions` (every cache hit and
    remote result) holds the jobs and their positional machines and
    builds ``assignment`` on its first read; until then nothing hashes
    a ``Job``.  It is the same class with the same dict either way, so
    equality, ``repr`` and pickling match an eagerly built schedule.
    """

    g: int
    assignment: Dict[Job, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.g < 1:
            raise InvalidScheduleError(f"capacity g must be >= 1, got {self.g}")

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails, i.e. for the
        # ``assignment`` of a from_positions schedule not read yet.
        if name == "assignment":
            state = self.__dict__
            pending = state.get("_positions")
            if pending is not None:
                jobs, by_position = pending
                assignment = state.setdefault(
                    "assignment",
                    {j: m for j, m in zip(jobs, by_position) if m is not None},
                )
                state.pop("_positions", None)
                return assignment
            # Another thread may have built it (and dropped the
            # positions) since this lookup missed.
            if "assignment" in state:
                return state["assignment"]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_groups(cls, g: int, groups: Iterable[Sequence[Job]]) -> "Schedule":
        """Build a schedule assigning each group of jobs to its own machine."""
        sched = cls(g=g)
        for m, group in enumerate(groups):
            for job in group:
                sched.assign(job, m)
        return sched

    @classmethod
    def from_positions(
        cls,
        g: int,
        jobs: Sequence[Job],
        by_position: Sequence[Optional[int]],
    ) -> "Schedule":
        """``jobs[i]`` on machine ``by_position[i]`` (``None`` =
        unscheduled), with ``assignment`` built lazily on first read
        in position order — the dict an ``assign`` loop would build."""
        sched = cls.__new__(cls)
        sched.g = g
        sched._positions = (jobs, by_position)
        sched.__post_init__()
        return sched

    def assign(self, job: Job, machine: int) -> None:
        """Assign (or reassign) a job to a machine."""
        self.assignment[job] = machine

    def unassign(self, job: Job) -> None:
        self.assignment.pop(job, None)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def scheduled_jobs(self) -> List[Job]:
        return list(self.assignment.keys())

    def machine_indices(self) -> List[int]:
        return sorted(set(self.assignment.values()))

    def jobs_on(self, machine: int) -> List[Job]:
        """``J_i`` — jobs assigned to the given machine."""
        return [j for j, m in self.assignment.items() if m == machine]

    def machines(self) -> Dict[int, List[Job]]:
        """Mapping machine index -> its job list."""
        out: Dict[int, List[Job]] = {}
        for j, m in self.assignment.items():
            out.setdefault(m, []).append(j)
        return out

    # ------------------------------------------------------------------
    # objectives
    # ------------------------------------------------------------------
    def busy_time(self, machine: int) -> float:
        """``busy_i`` — span of the machine's assigned jobs."""
        js = self.jobs_on(machine)
        if not js:
            return 0.0
        return union_length(j.interval for j in js)

    @property
    def cost(self) -> float:
        """Total busy time ``Σ_i busy_i``."""
        return float(
            sum(
                union_length(j.interval for j in js)
                for js in self.machines().values()
            )
        )

    @property
    def throughput(self) -> int:
        """Number of scheduled jobs (``tput`` in the paper)."""
        return len(self.assignment)

    @property
    def weighted_throughput(self) -> float:
        """Sum of weights of scheduled jobs (Section 5 extension)."""
        return float(sum(j.weight for j in self.assignment))

    def saving(self) -> float:
        """``sav^s = len(J^s) - cost^s`` over the scheduled jobs."""
        return jobs_total_length(self.scheduled_jobs) - self.cost

    def n_machines(self) -> int:
        return len(set(self.assignment.values()))

    def busy_components(self, machine: int) -> int:
        """Number of contiguous busy periods of a machine.

        The paper assumes w.l.o.g. each machine's span is one interval;
        :meth:`split_noncontiguous` enforces that by splitting machines,
        and this method lets callers detect when splitting is needed.
        """
        js = self.jobs_on(machine)
        if not js:
            return 0
        return len(merge_intervals(j.interval for j in js))

    def split_noncontiguous(self) -> "Schedule":
        """Replace every machine by one machine per contiguous busy period.

        This is the paper's w.l.o.g. normalization; it never changes the
        cost or validity and never increases the per-time parallelism of
        any machine.
        """
        new = Schedule(g=self.g)
        next_m = 0
        for m, js in sorted(self.machines().items()):
            comps = merge_intervals(j.interval for j in js)
            for comp in comps:
                members = [j for j in js if comp.start <= j.start < comp.end]
                for j in members:
                    new.assign(j, next_m)
                next_m += 1
        return new

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """At most ``g`` concurrent jobs on every machine (event sweep)."""
        return all(
            max_concurrency(js) <= self.g for js in self.machines().values()
        )

    def validate(
        self, universe: Optional[Sequence[Job]] = None, *, require_all: bool = False
    ) -> None:
        """Raise :class:`InvalidScheduleError` unless the schedule is valid.

        With ``universe`` given, also checks that only (and, when
        ``require_all``, exactly) the universe's jobs are scheduled —
        MinBusy algorithms must schedule every job.
        """
        for m, js in self.machines().items():
            peak = max_concurrency(js)
            if peak > self.g:
                raise InvalidScheduleError(
                    f"machine {m} runs {peak} > g={self.g} concurrent jobs"
                )
        if universe is not None:
            uni = set(universe)
            extra = set(self.assignment) - uni
            if extra:
                raise InvalidScheduleError(
                    f"schedule contains {len(extra)} jobs outside the instance"
                )
            if require_all:
                missing = uni - set(self.assignment)
                if missing:
                    raise InvalidScheduleError(
                        f"schedule leaves {len(missing)} jobs unscheduled"
                    )

    # ------------------------------------------------------------------
    def merged_with(self, other: "Schedule") -> "Schedule":
        """Disjoint union of two partial schedules on fresh machines.

        Used by the combined MaxThroughput algorithm and by per-component
        MinBusy solving.  Machine indices are renumbered to avoid
        collisions; jobs scheduled in both inputs raise an error.
        """
        if self.g != other.g:
            raise InvalidScheduleError("cannot merge schedules with different g")
        dup = set(self.assignment) & set(other.assignment)
        if dup:
            raise InvalidScheduleError(
                f"{len(dup)} jobs scheduled in both schedules"
            )
        out = Schedule(g=self.g)
        remap_a = {m: i for i, m in enumerate(self.machine_indices())}
        offset = len(remap_a)
        remap_b = {
            m: offset + i for i, m in enumerate(other.machine_indices())
        }
        for j, m in self.assignment.items():
            out.assign(j, remap_a[m])
        for j, m in other.assignment.items():
            out.assign(j, remap_b[m])
        return out

    def summary(self) -> str:
        """Human-readable one-line summary (used by examples)."""
        return (
            f"Schedule(g={self.g}, machines={self.n_machines()}, "
            f"jobs={self.throughput}, cost={self.cost:.4f})"
        )
