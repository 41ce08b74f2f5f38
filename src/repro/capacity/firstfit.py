"""Algorithms for the variable-demand extension.

* :func:`demand_first_fit` — FirstFit generalized to demands: jobs in
  non-increasing length order, each placed on the first machine whose
  running demand profile stays within ``g`` after insertion ([16]'s
  natural greedy; the paper cites [16] for this model).
* :func:`demand_split_by_class` — the folklore reduction: round every
  demand up to the next power of two and pack each class separately,
  trading a constant factor for the simplicity of uniform demands.

Large instances route the placement loop through the event-indexed
occupancy engine (:class:`repro.core.occupancy.DemandOccupancy`): each
machine probe becomes one vectorized windowed peak-demand sweep over
the machine's NumPy event columns instead of a Python list scan.  The
scalar ``_DemandMachine`` loop stays as the reference oracle; both
paths produce bit-identical machine groupings.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..core.instance import Instance
from ..core.jobs import Job
from ..core.occupancy import (
    DEMAND_FIRSTFIT_MIN_SIZE,
    DemandOccupancy,
    resolve_backend,
)
from .demands import max_demand_concurrency, validate_demand_schedule

__all__ = [
    "demand_first_fit",
    "demand_first_fit_sort_key",
    "demand_split_by_class",
]


class _DemandMachine:
    """A machine tracking its demand profile via its member list."""

    __slots__ = ("g", "jobs")

    def __init__(self, g: int, jobs: List[Job]) -> None:
        self.g = g
        self.jobs = jobs

    def fits(self, job: Job) -> bool:
        # Peak check restricted to the job's window: other jobs outside
        # the window cannot conflict with it.
        active = [
            j
            for j in self.jobs
            if min(j.end, job.end) > max(j.start, job.start)
        ]
        return (
            max_demand_concurrency(active + [job]) <= self.g
        )


def demand_first_fit_sort_key(job: Job) -> Tuple[float, int, int]:
    """The placement key ``(-length, -demand, job_id)``: longer first,
    heavier first at equal length."""
    return (-job.length, -job.demand, job.job_id)


def demand_first_fit(
    instance: Instance, *, backend: str = "auto"
) -> List[List[Job]]:
    """Demand-aware FirstFit; returns machine groups (validated).

    Jobs are placed in :func:`demand_first_fit_sort_key` order.
    ``backend`` is ``"auto"`` (occupancy engine from
    ``DEMAND_FIRSTFIT_MIN_SIZE`` jobs, scalar below — the demand fit
    test is a windowed event sweep, so its vectorized crossover sits
    later than the other variants'), ``"scalar"`` or ``"vectorized"``;
    all paths produce bit-identical groupings.
    """
    ordered = sorted(instance.jobs, key=demand_first_fit_sort_key)
    for job in ordered:
        if job.demand > instance.g:
            raise ValueError(
                f"job {job.job_id} demands {job.demand} > g={instance.g}"
            )
    g = instance.g
    resolved = resolve_backend(backend, len(ordered), DEMAND_FIRSTFIT_MIN_SIZE)
    if resolved == "scalar":
        machines: List[_DemandMachine] = []
        for job in ordered:
            for m in machines:
                if m.fits(job):
                    m.jobs.append(job)
                    break
            else:
                machines.append(_DemandMachine(g, [job]))
        groups = [m.jobs for m in machines]
    else:
        occ = DemandOccupancy(g)
        groups = []
        for job in ordered:
            m = occ.first_fit(job.start, job.end, job.demand)
            if m == len(groups):
                groups.append([])
            groups[m].append(job)
    validate_demand_schedule(groups, g, instance.jobs)
    return groups


def demand_split_by_class(instance: Instance) -> List[List[Job]]:
    """Pack jobs per power-of-two demand class, FirstFit within a class.

    Within class ``2^k`` a machine holds at most ``g // 2^k`` jobs
    concurrently, so the class behaves like a unit-demand instance with
    capacity ``g // 2^k``.
    """
    classes: Dict[int, List[Job]] = {}
    for j in instance.jobs:
        if j.demand > instance.g:
            raise ValueError(
                f"job {j.job_id} demands {j.demand} > g={instance.g}"
            )
        k = 1 << max(0, math.ceil(math.log2(j.demand)))
        classes.setdefault(k, []).append(j)
    groups: List[List[Job]] = []
    for k in sorted(classes):
        cap = max(1, instance.g // k)
        sub = Instance(jobs=tuple(classes[k]), g=cap)
        from ..minbusy.firstfit import first_fit_machines

        machines = first_fit_machines(list(sub.jobs), cap)
        groups.extend(m.jobs for m in machines)
    validate_demand_schedule(groups, instance.g, instance.jobs)
    return groups
