"""Pluggable objective/solver registry.

The engine's front door (:meth:`repro.api.Session.solve`) used to be a
hard-coded two-objective switch.  This module is the ``core``-level
replacement: each problem family registers an :class:`ObjectiveSpec`
bundling everything the serving layer needs to route, cache, and verify
solves for that family —

* the canonical objective ``name`` plus accepted ``aliases``,
* the ``instance_types`` the objective accepts (type-checked at the
  front door so mismatches raise :class:`~repro.core.errors.
  InstanceError` instead of an ``AttributeError`` deep in a solver),
* a ``normalize`` hook turning caller input plus per-call parameters
  (e.g. ``budget=``, ``power=``) into the canonical instance actually
  solved (idempotent, so worker processes can re-normalize safely),
* a ``fingerprint`` producing the content digest that keys the LRU and
  the persistent store,
* a ``solve`` hook implementing the family's structure-aware dispatch
  table and returning a :class:`Solved` outcome,
* an optional ``verify`` re-checking a solved outcome against the
  instance (independent of how it was produced).

The registry itself is deliberately dumb — a name table with alias
resolution and good error messages.  Families register from their own
packages (``repro.<family>.objective``);
:mod:`repro.engine.objectives` imports those modules so that every
registration has happened before the engine routes its first solve.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .errors import InstanceError
from .schedule import Schedule

__all__ = [
    "Solved",
    "ObjectiveSpec",
    "ObjectiveRegistry",
    "REGISTRY",
    "schedule_by_position",
    "threads_by_position",
    "rebuild_threaded_machines",
]


def threads_by_position(items: Sequence[Any], machines) -> tuple:
    """Machine/thread structure as canonical item positions.

    Works for any machine objects exposing ``threads`` that hold the
    instance's own item objects (2-D rectangles, ring jobs).  Items are
    mapped by identity, so duplicated contents cannot collide.
    """
    position = {id(item): i for i, item in enumerate(items)}
    return tuple(
        tuple(
            tuple(position[id(x)] for x in thread) for thread in m.threads
        )
        for m in machines
    )


def rebuild_threaded_machines(
    items: Sequence[Any], machines_pos, make_machine: Callable[[int], Any]
) -> List[Any]:
    """Inflate a positional machine/thread encoding over ``items``.

    ``make_machine(machine_id)`` constructs an empty machine whose
    ``threads`` lists are then filled with the items at the encoded
    positions — the inverse of :func:`threads_by_position` for any
    instance with the same content fingerprint.
    """
    machines: List[Any] = []
    for mid, threads in enumerate(machines_pos):
        m = make_machine(mid)
        for tau, thread in enumerate(threads):
            m.threads[tau] = [items[p] for p in thread]
        machines.append(m)
    return machines


def schedule_by_position(
    jobs: Sequence[Any], schedule: Schedule
) -> Tuple[Optional[int], ...]:
    """Machine per canonical job position (``None`` = unscheduled).

    The positional encoding is what makes cached results portable: it
    references jobs by their index in the instance's canonical order
    instead of by their (process-local) ids, so any instance with the
    same content fingerprint can re-express the result over its own
    ``Job`` objects.
    """
    position = {job: i for i, job in enumerate(jobs)}
    vector: List[Optional[int]] = [None] * len(jobs)
    for job, machine in schedule.assignment.items():
        vector[position[job]] = machine
    return tuple(vector)


@dataclass(frozen=True)
class Solved:
    """One family-level solve outcome, before engine bookkeeping.

    ``cost`` is the objective value (busy time, busy area, energy —
    whatever the family minimizes); ``throughput`` the number of placed
    items.  ``schedule`` is set for families whose result is a 1-D
    :class:`~repro.core.schedule.Schedule` (MinBusy, MaxThroughput,
    capacity, energy) and ``None`` otherwise; ``assignment_by_position``
    mirrors it positionally so cache hits can be re-expressed over
    content-identical instances.  Families with non-``Schedule`` result
    structures (2-D, ring, tree, flexible) put a positional encoding in
    ``detail`` instead — positions index the canonical sorted order of
    the instance's items, so the encoding is valid for any instance with
    the same fingerprint.
    """

    algorithm: str
    guarantee: Optional[float]
    cost: float
    throughput: int
    schedule: Optional[Schedule] = None
    assignment_by_position: Tuple[Optional[int], ...] = ()
    detail: Optional[dict] = None


# normalize(instance, params) -> canonical instance
Normalizer = Callable[[Any, Mapping[str, Any]], Any]
Fingerprinter = Callable[[Any], str]
Solver = Callable[[Any], Solved]
Verifier = Callable[[Any, Solved], None]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Everything the engine needs to serve one objective."""

    name: str
    aliases: Tuple[str, ...]
    instance_types: Tuple[type, ...]
    normalize: Normalizer
    fingerprint: Fingerprinter
    solve: Solver
    verify: Optional[Verifier] = None
    description: str = ""
    #: Optional near-miss repair descriptor (``repro.engine.repair.
    #: RepairSpec``) for families whose FirstFit arm supports one-job
    #: incremental re-solve.  ``None`` = family not repairable.
    repair: Optional[Any] = None

    def check_instance(self, instance: Any) -> Any:
        """Type-check caller input; raise a routed InstanceError."""
        if not isinstance(instance, self.instance_types):
            expected = " or ".join(t.__name__ for t in self.instance_types)
            raise InstanceError(
                f"objective {self.name!r} expects {expected}, got "
                f"{type(instance).__name__}"
            )
        return instance


class ObjectiveRegistry:
    """Thread-safe name/alias table of :class:`ObjectiveSpec` entries."""

    def __init__(self) -> None:
        self._specs: Dict[str, ObjectiveSpec] = {}
        self._aliases: Dict[str, str] = {}
        self._lock = threading.Lock()

    def register(self, spec: ObjectiveSpec) -> ObjectiveSpec:
        """Add (or idempotently replace) an objective.

        Replacing is keyed by canonical name; an alias colliding with a
        *different* objective's name or alias is an error, so families
        cannot silently shadow each other.
        """
        with self._lock:
            for alias in (spec.name,) + spec.aliases:
                owner = self._aliases.get(alias.lower())
                if owner is not None and owner != spec.name:
                    raise ValueError(
                        f"objective alias {alias!r} already registered "
                        f"for {owner!r}"
                    )
            self._specs[spec.name] = spec
            self._aliases[spec.name.lower()] = spec.name
            for alias in spec.aliases:
                self._aliases[alias.lower()] = spec.name
        return spec

    def get(self, objective: str) -> ObjectiveSpec:
        """Resolve a name or alias; unknown names raise InstanceError
        listing every registered objective."""
        try:
            canonical = self._aliases[objective.lower()]
        except (KeyError, AttributeError):
            raise InstanceError(
                f"unknown objective {objective!r}; "
                f"registered objectives: {self.names()}"
            ) from None
        return self._specs[canonical]

    def canonical(self, objective: str) -> str:
        return self.get(objective).name

    def names(self) -> List[str]:
        """Canonical objective names, sorted."""
        with self._lock:
            return sorted(self._specs)

    def aliases(self) -> List[str]:
        """Every accepted spelling (canonical names + aliases), sorted."""
        with self._lock:
            return sorted(self._aliases)

    def specs(self) -> List[ObjectiveSpec]:
        with self._lock:
            return [self._specs[name] for name in sorted(self._specs)]

    def specs_for_instance(self, instance: Any) -> List[ObjectiveSpec]:
        """The objectives whose instance_types accept this instance."""
        return [
            spec
            for spec in self.specs()
            if isinstance(instance, spec.instance_types)
        ]

    def __contains__(self, objective: str) -> bool:
        try:
            self.get(objective)
            return True
        except InstanceError:
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)


#: The process-wide registry the engine routes through.  Families
#: register into it from ``repro.<family>.objective`` modules;
#: :func:`repro.engine.objectives.ensure_registered` imports them all.
REGISTRY = ObjectiveRegistry()
