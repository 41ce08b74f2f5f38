"""1-D FirstFit — the baseline of Flammini et al. [13].

Sort jobs in non-increasing order of length and place each on the first
thread of the first machine that accommodates it.  [13] proves this is a
4-approximation for general 1-D instances and a 2-approximation for
proper and for clique instances.  The paper under reproduction improves
on those bounds for clique (Lemma 3.2, g ≤ 6) and proper (Theorem 3.1)
instances; FirstFit is the comparator in experiments E2, E3 and E15.

**Placement order is part of the algorithm's contract.**  Jobs are
sorted by :func:`firstfit_sort_key` = ``(-length, start, job_id)``:
non-increasing length first (the property Lemma 3.4's span argument
needs), then earliest start, then lowest id.  Equal-length jobs are
*not* interchangeable — swapping two of them can change which machine
opens next and cascade into a different machine count — so both the
scalar loop and the vectorized occupancy engine consume the jobs in
exactly this order, and ``tests/test_firstfit_vectorized.py`` pins it
with an equal-length regression test.

Large inputs (>= ``FIRSTFIT_VECTORIZE_MIN_SIZE`` jobs) route the inner
placement loop through the event-indexed occupancy engine
(:class:`repro.core.occupancy.IntervalOccupancy`), which answers each
"first machine that fits" query with one batched NumPy scan instead of
per-machine ``try_add`` probing; the scalar loop below is the reference
oracle and the two produce bit-identical machine/thread structures.

The 2-D generalization (Algorithm 3 of the paper) lives in
``repro.rect.firstfit2d``; this 1-D version shares its structure.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.instance import Instance
from ..core.jobs import Job
from ..core.machines import Machine
from ..core.occupancy import (
    FIRSTFIT_VECTORIZE_MIN_SIZE,
    IntervalOccupancy,
    resolve_backend,
)
from ..core.schedule import Schedule
from .base import check_result, group_schedule

__all__ = [
    "solve_first_fit",
    "first_fit_machines",
    "firstfit_sort_key",
    "FIRST_FIT_GUARANTEE",
    "FIRSTFIT_VECTORIZE_MIN_SIZE",
]

#: FirstFit's approximation ratio on general instances ([13]).
FIRST_FIT_GUARANTEE = 4.0


def firstfit_sort_key(job: Job) -> Tuple[float, float, int]:
    """The FirstFit placement key ``(-length, start, job_id)``.

    Non-increasing length is required by the analysis ([13], Lemma 3.4
    here); ``(start, job_id)`` pins the order of equal-length jobs so
    every backend — and every rerun — places jobs identically.
    """
    return (-job.length, job.start, job.job_id)


def first_fit_machines(
    jobs: List[Job], g: int, *, backend: str = "auto"
) -> List[Machine]:
    """Run FirstFit and return the machines with their thread structure.

    ``backend`` is ``"auto"`` (occupancy engine at
    ``FIRSTFIT_VECTORIZE_MIN_SIZE`` jobs, scalar below), ``"scalar"``
    or ``"vectorized"``; both paths return bit-identical structures.
    """
    ordered = sorted(jobs, key=firstfit_sort_key)
    machines: List[Machine] = []
    if resolve_backend(backend, len(ordered)) == "scalar":
        for job in ordered:
            for m in machines:
                if m.try_add(job) is not None:
                    break
            else:
                m = Machine(g=g, machine_id=len(machines))
                m.add(job)
                machines.append(m)
        return machines
    occ = IntervalOccupancy(g)
    for job in ordered:
        m, tau = occ.first_fit(job.start, job.end)
        if m == len(machines):
            machines.append(Machine(g=g, machine_id=m))
        machines[m].threads[tau].append(job)
    return machines


def solve_first_fit(instance: Instance) -> Schedule:
    """FirstFit baseline ([13]): 4-approx general, 2-approx proper/clique."""
    machines = first_fit_machines(list(instance.jobs), instance.g)
    sched = group_schedule(instance.g, (m.jobs for m in machines))
    return check_result(instance, sched)
