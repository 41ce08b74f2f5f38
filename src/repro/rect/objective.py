"""Registry entry for the 2-D rectangle ("rect2d") objective.

Structure-aware dispatch table (Section 3.4):

====================  ====================================  ==========
instance class        algorithm                             guarantee
====================  ====================================  ==========
γ₁ <= β (= 3.3)       FirstFit2D (Algorithm 3)              6γ₁ + 4
γ₁ >  β               BucketFirstFit (Algorithm 4)          b·(6β+4)
====================  ====================================  ==========

where ``b = ⌈log_β γ₁⌉`` is the bucket count (Theorem 3.3's
logarithmic regime).  Results are machine/thread structures; the
engine-visible encoding in ``detail["machines"]`` stores canonical
rectangle *positions* per thread, so cached results transfer between
content-identical instances regardless of rectangle ids.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from ..core.errors import InstanceError
from ..core.registry import (
    REGISTRY,
    ObjectiveSpec,
    Solved,
    rebuild_threaded_machines,
    threads_by_position,
)
from ..engine.fingerprint import fingerprint_v2
from .bucket import PAPER_BETA, bucket_first_fit
from .firstfit2d import first_fit_2d
from .instance import RectInstance
from .schedule2d import RectMachine, RectSchedule

__all__ = ["SPEC", "rebuild_schedule"]


def _normalize(instance: Any, params: Mapping[str, Any]) -> RectInstance:
    return instance


def _fingerprint(instance: RectInstance) -> str:
    return fingerprint_v2(
        "rect2d",
        instance.g,
        [(r.x0, r.y0, r.x1, r.y1) for r in instance.rects],
    )


def rebuild_schedule(instance: RectInstance, machines_pos) -> RectSchedule:
    """Inflate a positional machine/thread encoding over this instance."""
    return RectSchedule(
        g=instance.g,
        machines=rebuild_threaded_machines(
            instance.rects,
            machines_pos,
            lambda mid: RectMachine(g=instance.g, machine_id=mid),
        ),
    )


def _solve(instance: RectInstance) -> Solved:
    if instance.n == 0:
        return Solved(
            algorithm="empty",
            guarantee=None,
            cost=0.0,
            throughput=0,
            detail={"machines": (), "n_machines": 0},
        )
    gamma1 = instance.gamma1
    if gamma1 <= PAPER_BETA:
        schedule = first_fit_2d(instance.rects, instance.g)
        algorithm = "first_fit_2d"
        guarantee = 6.0 * gamma1 + 4.0
    else:
        schedule = bucket_first_fit(instance.rects, instance.g)
        buckets = max(
            1, math.ceil(math.log(gamma1) / math.log(PAPER_BETA) - 1e-12)
        )
        algorithm = f"bucket_first_fit(beta={PAPER_BETA})"
        guarantee = buckets * (6.0 * PAPER_BETA + 4.0)
    return Solved(
        algorithm=algorithm,
        guarantee=guarantee,
        cost=schedule.cost,
        throughput=instance.n,
        detail={
            "machines": threads_by_position(
                instance.rects, schedule.machines
            ),
            "n_machines": len(schedule.machines),
        },
    )


def _verify(instance: RectInstance, solved: Solved) -> None:
    if solved.detail is None or "machines" not in solved.detail:
        raise InstanceError("rect2d result carries no machine encoding")
    schedule = rebuild_schedule(instance, solved.detail["machines"])
    schedule.validate(universe=instance.rects)


SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="rect2d",
        aliases=("rect", "rectangles", "2d"),
        instance_types=(RectInstance,),
        normalize=_normalize,
        fingerprint=_fingerprint,
        solve=_solve,
        verify=_verify,
        description="2-D rectangle busy-area minimization (Section 3.4)",
    )
)
