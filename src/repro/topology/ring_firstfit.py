"""FirstFit / BucketFirstFit on ring topologies (Theorem 3.3 extension).

Identical control flow to the planar Algorithms 3 and 4 but with
cylinder geometry: overlap tests wrap around the ring, and machine cost
is the cylinder union area.

Large instances route the placement loop through the event-indexed
occupancy engine (:class:`repro.core.occupancy.RingOccupancy`), whose
overlap mask performs the cylinder test — time overlap and wrap-around
arc overlap — element-wise over the placed jobs' coordinate columns.
The scalar ``try_add`` loop stays as the reference oracle; both paths
build bit-identical machine/thread structures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.occupancy import (
    RING_FIRSTFIT_MIN_SIZE,
    RingOccupancy,
    resolve_backend,
)
from .ring import RingJob, ring_union_area

__all__ = [
    "RingMachine",
    "RingSchedule",
    "ring_first_fit",
    "ring_first_fit_sort_key",
    "ring_bucket_first_fit",
]


@dataclass
class RingMachine:
    g: int
    machine_id: int = 0
    threads: List[List[RingJob]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.threads:
            self.threads = [[] for _ in range(self.g)]

    @property
    def jobs(self) -> List[RingJob]:
        return [j for t in self.threads for j in t]

    @property
    def busy_area(self) -> float:
        return ring_union_area(self.jobs)

    def try_add(self, job: RingJob) -> Optional[int]:
        for tau in range(self.g):
            if all(not job.overlaps(o) for o in self.threads[tau]):
                self.threads[tau].append(job)
                return tau
        return None


@dataclass
class RingSchedule:
    g: int
    machines: List[RingMachine] = field(default_factory=list)

    @property
    def cost(self) -> float:
        return float(sum(m.busy_area for m in self.machines))

    @property
    def n_jobs(self) -> int:
        return sum(len(m.jobs) for m in self.machines)


def ring_first_fit_sort_key(job: RingJob) -> Tuple[float, int]:
    """The placement key ``(-len2, job_id)``: time length descending."""
    return (-job.len2, job.job_id)


def ring_first_fit(
    jobs: Sequence[RingJob], g: int, *, backend: str = "auto"
) -> RingSchedule:
    """Algorithm 3 on the cylinder: sort by time length descending.

    Ties in ``len2`` break by ``job_id`` (input order), like the planar
    variant.  ``backend`` is ``"auto"`` (occupancy engine from
    ``RING_FIRSTFIT_MIN_SIZE`` jobs — the wrap-around arc mask makes
    the vectorized crossover later than the planar variants'),
    ``"scalar"`` or ``"vectorized"``; all paths build bit-identical
    machine/thread structures.
    """
    ordered = sorted(jobs, key=ring_first_fit_sort_key)
    machines: List[RingMachine] = []
    resolved = resolve_backend(backend, len(ordered), RING_FIRSTFIT_MIN_SIZE)
    if resolved == "scalar":
        for job in ordered:
            for m in machines:
                if m.try_add(job) is not None:
                    break
            else:
                m = RingMachine(g=g, machine_id=len(machines))
                m.try_add(job)
                machines.append(m)
        return RingSchedule(g=g, machines=machines)
    occ = RingOccupancy(g)
    for job in ordered:
        # The scalar pair test uses the *query* job's circumference
        # (RingJob.overlaps passes self.circumference).
        m, tau = occ.first_fit(
            job.a0, job.alen, job.t0, job.t1, job.circumference
        )
        if m == len(machines):
            machines.append(RingMachine(g=g, machine_id=m))
        machines[m].threads[tau].append(job)
    return RingSchedule(g=g, machines=machines)


def ring_bucket_first_fit(
    jobs: Sequence[RingJob], g: int, beta: float = 3.3, *, backend: str = "auto"
) -> RingSchedule:
    """Algorithm 4 on the cylinder: bucket by arc length, FirstFit each."""
    if beta <= 1:
        raise ValueError(f"beta must be > 1, got {beta}")
    if not jobs:
        return RingSchedule(g=g)
    min_len1 = min(j.len1 for j in jobs)
    buckets: Dict[int, List[RingJob]] = {}
    for j in jobs:
        ratio = j.len1 / min_len1
        b = 1 if ratio <= 1.0 else max(
            1, math.ceil(math.log(ratio) / math.log(beta) - 1e-12)
        )
        buckets.setdefault(b, []).append(j)
    machines: List[RingMachine] = []
    for b in sorted(buckets):
        sub = ring_first_fit(buckets[b], g, backend=backend)
        for m in sub.machines:
            m.machine_id = len(machines)
            machines.append(m)
    return RingSchedule(g=g, machines=machines)
