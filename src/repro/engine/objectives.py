"""Registration of the built-in objectives.

The paper's two headline objectives (MinBusy, MaxThroughput) are
defined here — their dispatch was the engine's original hard-coded
switch, now ported onto :data:`repro.core.registry.REGISTRY` — and the
extension families register themselves from their own packages
(``repro.<family>.objective``).  :func:`ensure_registered` imports all
of them exactly once; the engine calls it before routing any solve, so
"registered objectives" always means all eight:

``minbusy``, ``maxthroughput``, ``capacity``, ``rect2d``, ``ring``,
``tree``, ``flexible``, ``energy``.

Registering a new objective
---------------------------

1. Give the family an instance type with a *canonical item order*
   (sort in ``__post_init__``; see ``RectInstance``) — positions into
   that order are how cached results transfer between
   content-identical instances.
2. Write a ``repro.<family>.objective`` module building an
   :class:`~repro.core.registry.ObjectiveSpec`:
   ``normalize`` (idempotent; folds per-call params like ``budget=``
   into the instance), ``fingerprint`` (use
   :func:`~repro.engine.fingerprint.fingerprint_v2` with a fresh
   family tag), ``solve`` (the structure-aware dispatch table,
   returning a :class:`~repro.core.registry.Solved`), and ``verify``.
3. Call ``REGISTRY.register(spec)`` at module level and add the module
   to ``_FAMILY_MODULES`` below.  The engine then serves the family
   through ``solve``/``solve_many`` with LRU + persistent-store
   caching and deterministic multiprocessing — no engine changes
   needed.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Mapping, Optional

from ..core.errors import InstanceError
from ..core.instance import BudgetInstance, Instance
from ..core.registry import (
    REGISTRY,
    ObjectiveSpec,
    Solved,
    schedule_by_position,
)
from .dispatch import pick_throughput_solver
from .fingerprint import instance_fingerprint

__all__ = ["ensure_registered", "MINBUSY_SPEC", "MAXTHROUGHPUT_SPEC"]

_FAMILY_MODULES = (
    "repro.capacity.objective",
    "repro.rect.objective",
    "repro.topology.objective",
    "repro.flexible.objective",
    "repro.energy.objective",
)

_registered = False
_register_lock = threading.Lock()


def ensure_registered() -> None:
    """Import every family's objective module (idempotent)."""
    global _registered
    if _registered:
        return
    with _register_lock:
        if _registered:
            return
        for module in _FAMILY_MODULES:
            importlib.import_module(module)
        _registered = True


# ----------------------------------------------------------------------
# minbusy
# ----------------------------------------------------------------------


def _minbusy_normalize(
    instance: Any, params: Mapping[str, Any]
) -> Instance:
    if isinstance(instance, BudgetInstance):
        return instance.min_busy_instance
    return instance


def _minbusy_solve(instance: Instance) -> Solved:
    from ..minbusy import solve_min_busy

    result = solve_min_busy(instance)
    schedule = result.schedule
    return Solved(
        algorithm=result.algorithm,
        guarantee=result.guarantee,
        cost=schedule.cost,
        throughput=schedule.throughput,
        schedule=schedule,
        assignment_by_position=schedule_by_position(
            instance.jobs, schedule
        ),
    )


def _minbusy_verify(instance: Instance, solved: Solved) -> None:
    from ..analysis.verify import verify_min_busy_schedule

    if solved.schedule is None:
        raise InstanceError("minbusy result carries no schedule")
    verify_min_busy_schedule(instance, solved.schedule)


MINBUSY_SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="minbusy",
        aliases=("min_busy",),
        instance_types=(Instance, BudgetInstance),
        normalize=_minbusy_normalize,
        fingerprint=instance_fingerprint,
        solve=_minbusy_solve,
        verify=_minbusy_verify,
        description="total busy time (the paper's primary objective)",
    )
)


# ----------------------------------------------------------------------
# maxthroughput
# ----------------------------------------------------------------------


def _throughput_normalize(
    instance: Any, params: Mapping[str, Any]
) -> BudgetInstance:
    budget: Optional[float] = params.get("budget")
    if budget is not None:
        return instance.with_budget(budget)
    if isinstance(instance, BudgetInstance):
        return instance
    raise InstanceError(
        "maxthroughput requires a BudgetInstance or an explicit budget="
    )


def _throughput_solve(instance: BudgetInstance) -> Solved:
    algorithm, solver, guarantee = pick_throughput_solver(instance)
    schedule = solver(instance)
    return Solved(
        algorithm=algorithm,
        guarantee=guarantee,
        cost=schedule.cost,
        throughput=schedule.throughput,
        schedule=schedule,
        assignment_by_position=schedule_by_position(
            instance.jobs, schedule
        ),
    )


def _throughput_verify(instance: BudgetInstance, solved: Solved) -> None:
    from ..analysis.verify import verify_budget_schedule

    if solved.schedule is None:
        raise InstanceError("maxthroughput result carries no schedule")
    verify_budget_schedule(instance, solved.schedule)


MAXTHROUGHPUT_SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="maxthroughput",
        aliases=("throughput", "max_throughput"),
        instance_types=(Instance, BudgetInstance),
        normalize=_throughput_normalize,
        fingerprint=instance_fingerprint,
        solve=_throughput_solve,
        verify=_throughput_verify,
        description="scheduled jobs under a busy-time budget (Section 4)",
    )
)
