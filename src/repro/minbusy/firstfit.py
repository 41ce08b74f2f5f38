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
Both can resume from a trusted placement prefix
(:func:`place_first_fit`'s ``prefix=``), which is how the near-miss
repair tier replays a one-job delta through this same loop.

The 2-D generalization (Algorithm 3 of the paper) lives in
``repro.rect.firstfit2d``; this 1-D version shares its structure.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.instance import Instance
from ..core.jobs import Job
from ..core.machines import Machine
from ..core.occupancy import (
    FIRSTFIT_VECTORIZE_MIN_SIZE,
    IntervalOccupancy,
    machines_from_trace,
    resolve_backend,
)
from ..core.schedule import Schedule
from .base import check_result, group_schedule

__all__ = [
    "solve_first_fit",
    "first_fit_machines",
    "place_first_fit",
    "first_fit_thread_ids",
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
    return place_first_fit(
        sorted(jobs, key=firstfit_sort_key), g, backend=backend
    )


def place_first_fit(
    ordered: Sequence[Job],
    g: int,
    *,
    prefix: Sequence[int] = (),
    backend: str = "auto",
) -> List[Machine]:
    """The FirstFit loop over jobs already in placement order.

    The first ``len(prefix)`` jobs land unprobed on the global thread
    ids ``prefix`` lists (an earlier run's; the engine's ``seed``
    re-checks them, the scalar loop trusts them); the rest are placed.
    """
    k = len(prefix)
    make = partial(Machine, g)
    if resolve_backend(backend, len(ordered)) == "scalar":
        machines = machines_from_trace(ordered[:k], prefix, g, make)
        for job in ordered[k:]:
            for m in machines:
                if m.try_add(job) is not None:
                    break
            else:
                m = make(len(machines))
                m.add(job)
                machines.append(m)
        return machines
    occ = IntervalOccupancy(g)
    head = ordered[:k]
    occ.seed(([j.start for j in head], [j.end for j in head]), prefix)
    machines = machines_from_trace(head, prefix, g, make)
    for job in ordered[k:]:
        m, tau = occ.first_fit(job.start, job.end)
        if m == len(machines):
            machines.append(make(m))
        machines[m].threads[tau].append(job)
    return machines


def first_fit_thread_ids(
    ordered: Sequence[Job], g: int, machine_ids: Sequence[int]
) -> Optional[np.ndarray]:
    """Global thread ids of a FirstFit run known by its machines only.

    FirstFit takes the lowest fitting thread of a machine, so replaying
    that choice recovers them (``None``: not a FirstFit run).  Threads
    are sorted disjoint interval lists: one bisect per fit test.
    """
    tids = np.empty(len(ordered), dtype=np.int64)
    threads: Dict[int, Tuple[List[float], List[float]]] = {}
    n_open = 0
    for k, (job, m) in enumerate(zip(ordered, machine_ids)):
        m = int(m)
        if m > n_open or m < 0:
            return None
        if m == n_open:
            n_open += 1
        s, e = job.start, job.end
        for tid in range(m * g, (m + 1) * g):
            rec = threads.get(tid)
            if rec is None:
                threads[tid] = rec = ([], [])
                break
            i = bisect_left(rec[0], e)
            if i == 0 or rec[1][i - 1] <= s:
                break
        else:
            return None
        i = bisect_left(rec[0], s)
        rec[0].insert(i, s)
        rec[1].insert(i, e)
        tids[k] = tid
    return tids


def solve_first_fit(instance: Instance) -> Schedule:
    """FirstFit baseline ([13]): 4-approx general, 2-approx proper/clique."""
    machines = first_fit_machines(list(instance.jobs), instance.g)
    sched = group_schedule(instance.g, (m.jobs for m in machines))
    return check_result(instance, sched)
