"""Registry entry for the energy objective.

Energy is MinBusy composed with the busy/idle/sleep power model: the
dispatch table *is* the Section 3 case analysis (inherited through
:func:`repro.minbusy.solve_min_busy`), followed by the exact per-gap
ski-rental idle-vs-sleep policy of :mod:`repro.energy.power`.  The
reported ``cost`` is the energy; the busy-time objective value rides
along in ``detail["busy_cost"]``.

Callers can pass a bare :class:`~repro.core.instance.Instance` plus a
``power=PowerModel(...)`` parameter to :meth:`repro.api.Session.solve`; the
normalizer wraps both into an :class:`EnergyInstance` so the power
parameters participate in the fingerprint (same jobs under two power
models cache separately).
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
from .instance import EnergyInstance
from .power import PowerModel, gap_policy_threshold, schedule_energy

__all__ = ["SPEC"]


def _normalize(instance: Any, params: Mapping[str, Any]) -> EnergyInstance:
    power = params.get("power")
    if isinstance(instance, EnergyInstance):
        if power is not None and power != instance.model:
            raise InstanceError(
                "conflicting power models: EnergyInstance already "
                "carries one"
            )
        return instance
    if isinstance(instance, BudgetInstance):
        instance = instance.min_busy_instance
    if power is not None and not isinstance(power, PowerModel):
        raise InstanceError(
            f"power= must be a PowerModel, got {type(power).__name__}"
        )
    return EnergyInstance(
        instance=instance, model=power if power is not None else PowerModel()
    )


def _fingerprint(instance: EnergyInstance) -> str:
    from ..engine.fingerprint import fingerprint_v2, job_table

    return fingerprint_v2(
        "energy",
        instance.g,
        job_table(instance.instance),
        scalars={
            "busy_power": instance.model.busy_power,
            "idle_power": instance.model.idle_power,
            "wake_cost": instance.model.wake_cost,
        },
    )


def _solve(instance: EnergyInstance) -> Solved:
    from ..minbusy import solve_min_busy

    inner = solve_min_busy(instance.instance)
    energy = schedule_energy(inner.schedule, instance.model)
    return Solved(
        algorithm=f"minbusy:{inner.algorithm}+gap_policy",
        guarantee=None,
        cost=energy,
        throughput=inner.schedule.throughput,
        schedule=inner.schedule,
        assignment_by_position=schedule_by_position(
            instance.jobs, inner.schedule
        ),
        detail={
            "busy_cost": inner.schedule.cost,
            "gap_threshold": gap_policy_threshold(instance.model),
        },
    )


def _verify(instance: EnergyInstance, solved: Solved) -> None:
    if solved.schedule is None:
        raise InstanceError("energy result carries no schedule")
    solved.schedule.validate(instance.jobs, require_all=True)
    recomputed = schedule_energy(solved.schedule, instance.model)
    if abs(recomputed - solved.cost) > 1e-9 * max(1.0, abs(solved.cost)):
        raise InstanceError(
            f"energy mismatch: recomputed {recomputed} != {solved.cost}"
        )


SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="energy",
        aliases=("minenergy", "power"),
        instance_types=(Instance, BudgetInstance, EnergyInstance),
        normalize=_normalize,
        fingerprint=_fingerprint,
        solve=_solve,
        verify=_verify,
        description="busy/idle/sleep energy under the optimal gap policy",
    )
)
