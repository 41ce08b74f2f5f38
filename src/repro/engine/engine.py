"""The engine's stateless solve primitives.

The engine's *state* — result LRU, persistent-store binding, executor
defaults — lives in :class:`repro.api.Session` objects, each owning an
:class:`repro.api.EngineConfig` (see ``ARCHITECTURE.md``, "Session
layer").  What lives here is what every client composes:
:func:`plan_solve` (registry dispatch: resolve, type-check, normalize,
fingerprint), :func:`cached_result` / :func:`install_result` (one
tiered probe / write-through against an explicit
:class:`~repro.engine.tiers.TieredCache`), and the hit rebinding /
store stripping transforms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, List, Mapping, Optional, Tuple, Union

from ..core.instance import BudgetInstance, Instance
from ..core.registry import REGISTRY, ObjectiveSpec, Solved
from ..core.schedule import Schedule
from .executors import SolveTask
from .fingerprint import key_from_fingerprint
from .tiers import TieredCache, strip_for_store

__all__ = [
    "MINBUSY",
    "MAXTHROUGHPUT",
    "EngineResult",
    "SolvePlan",
    "plan_solve",
    "cached_result",
    "install_result",
    "strip_for_store",
    "serve_hit",
    "objectives",
]

AnyInstance = Union[Instance, BudgetInstance]

MINBUSY = "minbusy"
MAXTHROUGHPUT = "maxthroughput"


@dataclass(frozen=True)
class EngineResult:
    """One solved instance, with provenance and accounting.

    ``guarantee`` is the a-priori approximation factor carried by the
    chosen algorithm (``None`` = exact or unanalysed heuristic).
    ``cost`` is the objective value (busy time, busy area, energy);
    ``schedule`` is set for families whose result is a 1-D
    :class:`~repro.core.schedule.Schedule` and ``None`` otherwise.  On
    cache hits and remote results it is a positional schedule
    (:meth:`~repro.core.schedule.Schedule.from_positions`) whose
    ``assignment`` dict is built on first read.
    ``assignment_by_position`` records the machine of each job by its
    position in the instance's canonical order (``None`` = job left
    unscheduled); it is what lets a cached result be re-expressed over
    a content-identical instance whose ``Job`` objects carry different
    ids.  Families with richer result structures (2-D, ring, tree,
    flexible) encode them positionally in ``detail`` instead — see the
    family's ``objective`` module for the rebuild helper.
    ``from_cache`` marks results served from any cache tier;
    ``solve_seconds`` is the wall time of the original solve (cached
    hits keep the original timing).
    """

    objective: str
    algorithm: str
    guarantee: Optional[float]
    cost: float
    throughput: int
    schedule: Optional[Schedule]
    fingerprint: str
    assignment_by_position: Tuple[Optional[int], ...] = ()
    from_cache: bool = False
    solve_seconds: float = 0.0
    detail: Optional[dict] = None


def _spec_for(objective: str) -> ObjectiveSpec:
    from .objectives import ensure_registered

    ensure_registered()
    return REGISTRY.get(objective)


def objectives() -> List[str]:
    """Canonical names of every registered objective."""
    from .objectives import ensure_registered

    ensure_registered()
    return REGISTRY.names()


def _schedule_for(
    instance: Any, by_position: Tuple[Optional[int], ...]
) -> Schedule:
    """Re-express a positional assignment over this instance's jobs
    (built on first read of ``assignment``: O(1) here)."""
    return Schedule.from_positions(instance.g, instance.jobs, by_position)


def serve_hit(hit: EngineResult, instance: Any) -> EngineResult:
    """A cache hit, rebound to the querying instance's own items.

    Sound because equal fingerprints imply identical per-position
    content; a fresh Schedule per hit (and a copied ``detail``) also
    means callers never share — and so cannot mutate — cached state.
    The Schedule builds its job -> machine dict only when first read,
    so a hit whose caller never looks at it costs no per-job work.
    Store hits arrive with ``schedule=None`` (persisted results are
    stripped) and are re-inflated here from the positional encoding.
    """
    schedule = hit.schedule
    if hit.assignment_by_position or schedule is not None:
        schedule = _schedule_for(instance, hit.assignment_by_position)
    # detail values are immutable (tuples/numbers); copying the dict
    # itself is enough to keep the cached entry mutation-proof.
    detail = dict(hit.detail) if hit.detail is not None else None
    return replace(
        hit, schedule=schedule, detail=detail, from_cache=True
    )


def _solve_uncached(
    instance: Any, spec: ObjectiveSpec, fingerprint: str
) -> EngineResult:
    t0 = time.perf_counter()
    solved: Solved = spec.solve(instance)
    elapsed = time.perf_counter() - t0
    return EngineResult(
        objective=spec.name,
        algorithm=solved.algorithm,
        guarantee=solved.guarantee,
        cost=solved.cost,
        throughput=solved.throughput,
        schedule=solved.schedule,
        fingerprint=fingerprint,
        assignment_by_position=solved.assignment_by_position,
        from_cache=False,
        solve_seconds=elapsed,
        detail=solved.detail,
    )


# ----------------------------------------------------------------------
# the layered solve core: plan -> cache probe -> execute -> install
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SolvePlan:
    """One routed solve: the spec, the normalized instance, its key.

    Produced by :func:`plan_solve`; consumed by :func:`cached_result`
    (tiered probe), the executor layer (via :meth:`task`), and
    :func:`install_result` (write-through fold-back).  The service
    front end drives exactly this cycle per request; a
    :class:`~repro.api.ShardedClient` partitions batches by
    ``plan.key``.
    """

    spec: ObjectiveSpec
    instance: Any
    fingerprint: str
    key: str

    def task(self) -> SolveTask:
        """The executor-layer unit of work for this plan."""
        return SolveTask(
            instance=self.instance,
            objective=self.spec.name,
            fingerprint=self.fingerprint,
            key=self.key,
        )


def plan_solve(
    instance: Any,
    objective: str = MINBUSY,
    params: Optional[Mapping[str, Any]] = None,
) -> SolvePlan:
    """Resolve, type-check, normalize and fingerprint one solve."""
    spec = _spec_for(objective)
    spec.check_instance(instance)
    inst = spec.normalize(instance, dict(params or {}))
    fingerprint = spec.fingerprint(inst)
    return SolvePlan(
        spec=spec,
        instance=inst,
        fingerprint=fingerprint,
        key=key_from_fingerprint(fingerprint, spec.name),
    )


def cached_result(
    plan: SolvePlan, cache: TieredCache
) -> Optional[EngineResult]:
    """The plan's result from the cache stack, rebound to its instance
    (tiers are probed top-down; lower-tier hits are promoted)."""
    hit = cache.get(plan.key)
    if hit is None:
        return None
    return serve_hit(hit, plan.instance)


def install_result(
    plan: SolvePlan, result: EngineResult, cache: TieredCache
) -> None:
    """Write a fresh result through every cache tier."""
    cache.put(plan.key, result)


def _verified(plan: SolvePlan, result: EngineResult) -> EngineResult:
    if plan.spec.verify is not None:
        plan.spec.verify(plan.instance, _as_solved(result))
    return result


def _as_solved(result: EngineResult) -> Solved:
    return Solved(
        algorithm=result.algorithm,
        guarantee=result.guarantee,
        cost=result.cost,
        throughput=result.throughput,
        schedule=result.schedule,
        assignment_by_position=result.assignment_by_position,
        detail=result.detail,
    )
