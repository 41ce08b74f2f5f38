"""Registry entry for the variable-demand ("capacity") objective.

Structure-aware dispatch table:

====================  ====================================  ==========
instance class        algorithm                             guarantee
====================  ====================================  ==========
unit demands          MinBusy dispatcher (Section 3 cases)  inherited
general demands       demand-aware FirstFit ([16] greedy)   heuristic
====================  ====================================  ==========

The unit-demand case *is* the paper's base problem, so it routes
through :func:`repro.minbusy.solve_min_busy` and inherits its exact /
approximate algorithms; genuine demand profiles run
:func:`repro.capacity.firstfit.demand_first_fit`.  Either way the
result is a 1-D :class:`~repro.core.schedule.Schedule` (machine
groups), the reported lower bound is the demand-generalized
certificate, and the verifier re-checks demand validity with
:func:`~repro.capacity.demands.validate_demand_schedule`.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.errors import InstanceError
from ..core.instance import BudgetInstance, Instance
from ..core.registry import (
    REGISTRY,
    ObjectiveSpec,
    Solved,
    schedule_by_position,
)
from ..core.schedule import Schedule
from ..engine.fingerprint import fingerprint_v2, job_table
from .demands import (
    demand_lower_bound,
    demand_schedule_cost,
    validate_demand_schedule,
)
from .firstfit import demand_first_fit

__all__ = ["SPEC"]


def _normalize(instance: Any, params: Mapping[str, Any]) -> Instance:
    if isinstance(instance, BudgetInstance):
        instance = instance.min_busy_instance
    for j in instance.jobs:
        if j.demand > instance.g:
            raise InstanceError(
                f"job {j.job_id} demands {j.demand} > g={instance.g}; "
                "no machine can run it"
            )
    return instance


def _fingerprint(instance: Instance) -> str:
    return fingerprint_v2("capacity", instance.g, job_table(instance))


def _solve(instance: Instance) -> Solved:
    detail = {"lower_bound": demand_lower_bound(instance)}
    if instance.n == 0:
        return Solved(
            algorithm="empty",
            guarantee=None,
            cost=0.0,
            throughput=0,
            schedule=Schedule(g=instance.g),
            detail=detail,
        )
    if all(j.demand == 1 for j in instance.jobs):
        # Unit demands are the base problem: the MinBusy dispatcher.
        from ..minbusy import solve_min_busy

        inner = solve_min_busy(instance)
        schedule = inner.schedule
        algorithm = f"unit_demand:{inner.algorithm}"
        guarantee = inner.guarantee
        cost = schedule.cost
    else:
        groups = demand_first_fit(instance)
        schedule = Schedule.from_groups(instance.g, groups)
        algorithm = "demand_first_fit"
        guarantee = None
        cost = demand_schedule_cost(groups)
    return Solved(
        algorithm=algorithm,
        guarantee=guarantee,
        cost=cost,
        throughput=instance.n,
        schedule=schedule,
        assignment_by_position=schedule_by_position(instance.jobs, schedule),
        detail=detail,
    )


def _verify(instance: Instance, solved: Solved) -> None:
    if solved.schedule is None:
        raise InstanceError("capacity result carries no schedule")
    groups = [
        js for _m, js in sorted(solved.schedule.machines().items())
    ]
    validate_demand_schedule(groups, instance.g, instance.jobs)


SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="capacity",
        aliases=("demand", "demands"),
        instance_types=(Instance, BudgetInstance),
        normalize=_normalize,
        fingerprint=_fingerprint,
        solve=_solve,
        verify=_verify,
        description="MinBusy with per-job capacity demands (Section 5)",
    )
)
