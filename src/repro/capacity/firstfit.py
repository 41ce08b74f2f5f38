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
paths produce bit-identical machine groupings, and both can resume
from a trusted placement prefix (:func:`place_demand_first_fit`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

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
    "place_demand_first_fit",
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
    groups = place_demand_first_fit(ordered, instance.g, backend=backend)
    validate_demand_schedule(groups, instance.g, instance.jobs)
    return groups


def place_demand_first_fit(
    ordered: Sequence[Job],
    g: int,
    *,
    prefix: Sequence[int] = (),
    backend: str = "auto",
) -> List[List[Job]]:
    """The demand-FirstFit loop over jobs already in placement order.

    The first ``len(prefix)`` jobs land unprobed on the machines
    ``prefix`` lists (an earlier run's; the engine's ``seed`` re-checks
    them, the scalar loop trusts them); the rest are placed.
    """
    k = len(prefix)
    resolved = resolve_backend(backend, len(ordered), DEMAND_FIRSTFIT_MIN_SIZE)
    if resolved == "scalar":
        groups: List[List[Job]] = []
        for job, m in zip(ordered[:k], prefix):
            while m >= len(groups):
                groups.append([])
            groups[m].append(job)
        machines = [_DemandMachine(g, group) for group in groups]
        for job in ordered[k:]:
            for m in machines:
                if m.fits(job):
                    m.jobs.append(job)
                    break
            else:
                machines.append(_DemandMachine(g, [job]))
        return [m.jobs for m in machines]
    occ = DemandOccupancy(g)
    head = ordered[:k]
    occ.seed(
        (
            [j.start for j in head],
            [j.end for j in head],
            [j.demand for j in head],
        ),
        prefix,
    )
    groups = [[] for _ in range(occ.n_machines)]
    for job, m in zip(head, prefix):
        groups[m].append(job)
    for job in ordered[k:]:
        m = occ.first_fit(job.start, job.end, job.demand)
        if m == len(groups):
            groups.append([])
        groups[m].append(job)
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
