"""Registry entries for the topology objectives: ``ring`` and ``tree``.

Ring dispatch mirrors the planar 2-D table with cylinder geometry
(Section 5 / Theorem 3.3 transfer): arc-length ratio ``γ₁ <= β`` runs
plain FirstFit on the cylinder, larger ratios run the bucketed variant.
Tree instances run the paper's one-sided greedy extension
(:func:`~repro.topology.tree_greedy.tree_one_sided_greedy`); on a path
graph with a shared endpoint this reduces exactly to Observation 3.1.

Both encode results positionally in ``detail`` (canonical item
positions per machine/thread or per tree set), so cached results
transfer between content-identical instances.
"""

from __future__ import annotations

import math
from typing import Any, List, Mapping

from ..core.errors import InstanceError
from ..core.registry import (
    REGISTRY,
    ObjectiveSpec,
    Solved,
    rebuild_threaded_machines,
    threads_by_position,
)
from ..engine.fingerprint import fingerprint_v2
from ..rect.bucket import PAPER_BETA
from .instance import RingInstance, TreeInstance
from .ring_firstfit import (
    RingMachine,
    RingSchedule,
    ring_bucket_first_fit,
    ring_first_fit,
)
from .tree_greedy import tree_one_sided_greedy, tree_schedule_cost

__all__ = ["RING_SPEC", "TREE_SPEC"]


# ----------------------------------------------------------------------
# ring
# ----------------------------------------------------------------------


def _ring_normalize(instance: Any, params: Mapping[str, Any]) -> RingInstance:
    return instance


def _ring_fingerprint(instance: RingInstance) -> str:
    return fingerprint_v2(
        "ring",
        instance.g,
        [(j.a0, j.alen, j.t0, j.t1) for j in instance.jobs],
        scalars={"circumference": instance.circumference},
    )


def ring_rebuild_schedule(
    instance: RingInstance, machines_pos
) -> RingSchedule:
    """Inflate a positional machine/thread encoding over this instance."""
    return RingSchedule(
        g=instance.g,
        machines=rebuild_threaded_machines(
            instance.jobs,
            machines_pos,
            lambda mid: RingMachine(g=instance.g, machine_id=mid),
        ),
    )


def _ring_solve(instance: RingInstance) -> Solved:
    if instance.n == 0:
        return Solved(
            algorithm="empty",
            guarantee=None,
            cost=0.0,
            throughput=0,
            detail={"machines": (), "n_machines": 0},
        )
    arc_lens = [j.len1 for j in instance.jobs]
    gamma1 = max(arc_lens) / min(arc_lens)
    if gamma1 <= PAPER_BETA:
        schedule = ring_first_fit(instance.jobs, instance.g)
        algorithm = "ring_first_fit"
        guarantee = 6.0 * gamma1 + 4.0
    else:
        schedule = ring_bucket_first_fit(
            instance.jobs, instance.g, PAPER_BETA
        )
        buckets = max(
            1, math.ceil(math.log(gamma1) / math.log(PAPER_BETA) - 1e-12)
        )
        algorithm = f"ring_bucket_first_fit(beta={PAPER_BETA})"
        guarantee = buckets * (6.0 * PAPER_BETA + 4.0)
    return Solved(
        algorithm=algorithm,
        guarantee=guarantee,
        cost=schedule.cost,
        throughput=instance.n,
        detail={
            "machines": threads_by_position(
                instance.jobs, schedule.machines
            ),
            "n_machines": len(schedule.machines),
        },
    )


def _ring_verify(instance: RingInstance, solved: Solved) -> None:
    if solved.detail is None or "machines" not in solved.detail:
        raise InstanceError("ring result carries no machine encoding")
    schedule = ring_rebuild_schedule(instance, solved.detail["machines"])
    placed = [j for m in schedule.machines for j in m.jobs]
    if len(placed) != instance.n or {id(j) for j in placed} != {
        id(j) for j in instance.jobs
    }:
        raise InstanceError("ring schedule does not cover the instance")
    for m in schedule.machines:
        for thread in m.threads:
            for i in range(len(thread)):
                for k in range(i + 1, len(thread)):
                    if thread[i].overlaps(thread[k]):
                        raise InstanceError(
                            f"ring machine {m.machine_id}: overlapping "
                            "jobs share a thread"
                        )


RING_SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="ring",
        aliases=("ring2d", "cylinder"),
        instance_types=(RingInstance,),
        normalize=_ring_normalize,
        fingerprint=_ring_fingerprint,
        solve=_ring_solve,
        verify=_ring_verify,
        description="busy-area minimization on ring topologies (Section 5)",
    )
)


# ----------------------------------------------------------------------
# tree
# ----------------------------------------------------------------------


def _tree_normalize(instance: Any, params: Mapping[str, Any]) -> TreeInstance:
    return instance


def _tree_fingerprint(instance: TreeInstance) -> str:
    return fingerprint_v2(
        "tree",
        instance.g,
        [(float(p.u), float(p.v)) for p in instance.paths],
        scalars={
            "nodes": instance.tree.n,
            "edges": tuple(instance.edge_rows()),
        },
    )


def _tree_solve(instance: TreeInstance) -> Solved:
    if instance.n == 0:
        return Solved(
            algorithm="empty",
            guarantee=None,
            cost=0.0,
            throughput=0,
            detail={"sets": (), "n_machines": 0},
        )
    sets = tree_one_sided_greedy(instance.tree, instance.paths, instance.g)
    position = {id(p): i for i, p in enumerate(instance.paths)}
    sets_pos = tuple(
        tuple(position[id(p)] for p in s.members) for s in sets
    )
    return Solved(
        algorithm="tree_one_sided_greedy",
        guarantee=None,
        cost=tree_schedule_cost(instance.tree, sets),
        throughput=instance.n,
        detail={"sets": sets_pos, "n_machines": len(sets)},
    )


def _tree_verify(instance: TreeInstance, solved: Solved) -> None:
    if solved.detail is None or "sets" not in solved.detail:
        raise InstanceError("tree result carries no set encoding")
    seen: List[int] = []
    for members in solved.detail["sets"]:
        if len(members) > instance.g:
            raise InstanceError(
                f"tree set holds {len(members)} > g={instance.g} paths"
            )
        seen.extend(members)
    if sorted(seen) != list(range(instance.n)):
        raise InstanceError("tree sets do not partition the path set")


TREE_SPEC = REGISTRY.register(
    ObjectiveSpec(
        name="tree",
        aliases=("paths", "lightpaths"),
        instance_types=(TreeInstance,),
        normalize=_tree_normalize,
        fingerprint=_tree_fingerprint,
        solve=_tree_solve,
        verify=_tree_verify,
        description="regenerator grooming on tree topologies (Section 5)",
    )
)
