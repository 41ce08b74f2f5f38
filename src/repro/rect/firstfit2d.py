"""Algorithm 3 — FirstFit for rectangular jobs.

Sort rectangles by non-increasing ``len2`` and place each on the first
thread of the first machine where it fits (no overlap with that
thread's rectangles).  Lemma 3.4 bounds consecutive-machine spans —
``span(J_{i+1}) <= (6γ₁+3)/g · len(J_i)`` — which yields an
approximation ratio between ``6γ₁+3`` and ``6γ₁+4`` (Lemma 3.5).  The
Figure 3 construction (``repro.workloads.adversarial``) shows the lower
end is approached.

Ties in ``len2`` are broken by rectangle id, i.e. by *input order* —
exactly the degree of freedom the paper's lower-bound proof exploits
(its footnote 2 perturbs ``len2`` infinitesimally to force an order; our
generator instead controls input order directly).

Large instances route the placement loop through the event-indexed
occupancy engine (:class:`repro.core.occupancy.RectOccupancy`); the
scalar ``try_add`` loop is the reference oracle and both paths build
bit-identical machine/thread structures (this also accelerates
``bucket_first_fit``, which runs FirstFit per bucket).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.occupancy import RectOccupancy, resolve_backend
from .rectangles import Rect, gamma
from .schedule2d import RectMachine, RectSchedule

__all__ = [
    "first_fit_2d",
    "first_fit_2d_sort_key",
    "first_fit_ratio_bounds",
]


def first_fit_2d_sort_key(rect: Rect) -> Tuple[float, int]:
    """The placement key ``(-len2, rect_id)``."""
    return (-rect.len2, rect.rect_id)


def first_fit_2d(
    rects: Sequence[Rect], g: int, *, backend: str = "auto"
) -> RectSchedule:
    """Run 2-D FirstFit; returns the machine/thread structure.

    ``backend`` is ``"auto"``/``"scalar"``/``"vectorized"``; all paths
    build bit-identical structures.
    """
    ordered = sorted(rects, key=first_fit_2d_sort_key)
    machines: List[RectMachine] = []
    if resolve_backend(backend, len(ordered)) == "scalar":
        for rect in ordered:
            for m in machines:
                if m.try_add(rect) is not None:
                    break
            else:
                m = RectMachine(g=g, machine_id=len(machines))
                m.try_add(rect)
                machines.append(m)
        return RectSchedule(g=g, machines=machines)
    occ = RectOccupancy(g)
    for rect in ordered:
        m, tau = occ.first_fit(rect.x0, rect.y0, rect.x1, rect.y1)
        if m == len(machines):
            machines.append(RectMachine(g=g, machine_id=m))
        machines[m].threads[tau].append(rect)
    return RectSchedule(g=g, machines=machines)


def first_fit_ratio_bounds(rects: Sequence[Rect]) -> tuple:
    """The proven ratio window ``[6γ₁+3, 6γ₁+4]`` of Lemma 3.5.

    γ₁ here follows the paper's w.l.o.g. convention γ₁ <= γ₂ (the
    algorithm sorts by dimension 2 and the bound uses dimension 1's
    ratio); callers should orient their rectangles accordingly.
    """
    g1 = gamma(rects, 1)
    return (6.0 * g1 + 3.0, 6.0 * g1 + 4.0)
