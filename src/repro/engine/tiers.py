"""The cache layer: uniform tiers composed into one lookup stack.

Before this module the engine special-cased each memoization tier
inline — ``solve`` probed the LRU, then the persistent store, promoted
hits by hand, and wrote fresh results to each tier with
tier-specific stripping.  Every new execution mode (the batch path,
the CLI, the serve front end) re-implemented that pipeline.

Here the pipeline is data: every tier implements the small
:class:`CacheTier` protocol (``get`` / ``get_many`` / ``put`` /
``put_many`` / ``stats`` / ``clear``) and a :class:`TieredCache`
composes an ordered stack of them —

* lookups probe top-down and stop at the first hit,
* a hit in a lower tier is *promoted* into every tier above it (the
  LRU warms from the store exactly as before),
* writes go through every tier, each tier applying its own
  storage transform (both the LRU and the store strip live
  ``Schedule`` objects down to positional encodings),
* ``stats`` reports per-tier counters under the tier's name.

The concrete tiers wrap the existing engines unchanged:
:class:`LRUTier` over :class:`repro.engine.cache.LRUCache` and
:class:`StoreTier` over :class:`repro.engine.store.ResultStore`.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from dataclasses import replace

from ..core.schedule import Schedule
from ..obs import trace as obs_trace
from .cache import LRUCache
from .store import ResultStore

__all__ = [
    "CacheTier",
    "LRUTier",
    "StoreTier",
    "TieredCache",
    "strip_for_store",
]


def strip_for_store(result: Any) -> Any:
    """The cached form of an engine result: positional encodings
    only, no live objects.

    Both the store and the in-process LRU keep results in this form,
    so a cached entry never pins the ``Job`` objects of the instance
    that produced it;
    :func:`~repro.engine.engine.serve_hit` rebuilds every served
    schedule from ``assignment_by_position`` anyway.  A schedule that no
    position can rebuild (empty instance, or a budget too small to
    schedule anything) is kept as a fresh empty one: it is the only
    way a served hit can know the objective carries a schedule —
    the hit still gets a freshly rebuilt one, so nothing is
    aliased.  The check reads the positions, never the schedule, so a
    positional schedule stays unbuilt.
    """
    schedule = result.schedule
    if schedule is not None:
        by_position = result.assignment_by_position
        if by_position.count(None) < len(by_position):
            schedule = None
        else:
            schedule = Schedule(g=schedule.g)
    return replace(result, schedule=schedule, from_cache=False)


@runtime_checkable
class CacheTier(Protocol):
    """One level of the result-cache stack.

    ``get``/``get_many`` return raw cached values (the engine rebinds
    them to the querying instance); ``put``/``put_many`` may transform
    the value into the tier's own storage form.  ``stats`` returns a
    flat JSON-able mapping of counters.
    """

    name: str

    def get(self, key: str) -> Optional[Any]: ...

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]: ...

    def put(self, key: str, value: Any) -> None: ...

    def put_many(self, items: Mapping[str, Any]) -> None: ...

    def stats(self) -> Dict[str, Any]: ...

    def clear(self) -> None: ...


class LRUTier:
    """The in-process tier: a bounded LRU of stripped results.

    Every value goes in through :func:`strip_for_store`, so a cached
    entry does not keep the caller's jobs alive.
    """

    name = "lru"

    def __init__(self, cache: LRUCache) -> None:
        self.cache = cache

    def get(self, key: str) -> Optional[Any]:
        return self.cache.get(key)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        found: Dict[str, Any] = {}
        for key in keys:
            value = self.cache.get(key)
            if value is not None:
                found[key] = value
        return found

    def put(self, key: str, value: Any) -> None:
        self.cache.put(key, strip_for_store(value))

    def put_many(self, items: Mapping[str, Any]) -> None:
        for key, value in items.items():
            self.put(key, value)

    def stats(self) -> Dict[str, Any]:
        info = self.cache.info()
        return {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.size,
            "maxsize": info.maxsize,
        }

    def clear(self) -> None:
        self.cache.clear()


class StoreTier:
    """The cross-process tier: the disk-backed segment store.

    Every value goes in through :func:`strip_for_store`, like the LRU
    tier's, so persisted records stay compact, positional, and id-free.
    """

    name = "store"

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    def get(self, key: str) -> Optional[Any]:
        return self.store.get(key)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        return self.store.get_many(keys)

    def put(self, key: str, value: Any) -> None:
        self.put_many({key: value})

    def put_many(self, items: Mapping[str, Any]) -> None:
        self.store.put_many(
            {k: strip_for_store(v) for k, v in items.items()}
        )

    def stats(self) -> Dict[str, Any]:
        s = self.store.stats()
        return {
            "hits": s.hits,
            "misses": s.misses,
            "puts": s.puts,
            "entries": s.entries,
            "segments": s.segments,
            "total_bytes": s.total_bytes,
            "path": s.path,
        }

    def clear(self) -> None:
        self.store.clear()


class TieredCache:
    """An ordered stack of cache tiers behind one mapping interface.

    Probe order is the construction order (fastest first); hits found
    in tier *i* are promoted into tiers ``0..i-1`` so subsequent
    lookups stop earlier.  Writes go through every tier (write-through;
    each tier's ``put`` applies its own storage transform).  Promotion
    deliberately writes *upward only* — a store hit never re-appends to
    the store, so persistent ``puts`` counters keep meaning "fresh
    results persisted".
    """

    def __init__(self, tiers: Sequence[CacheTier]) -> None:
        self.tiers: List[CacheTier] = list(tiers)

    def get(self, key: str) -> Optional[Any]:
        with obs_trace.span("cache.probe") as probe:
            for i, tier in enumerate(self.tiers):
                value = tier.get(key)
                if value is not None:
                    probe.set("hit", tier.name)
                    for upper in self.tiers[:i]:
                        upper.put(key, value)
                    return value
            probe.set("hit", "none")
        return None

    def get_many(self, keys: Iterable[str]) -> Dict[str, Any]:
        """Batched top-down probe: each tier sees one batched lookup of
        the keys every faster tier missed, and its hits are promoted
        upward in one batched write per tier."""
        pending: List[str] = []
        seen = set()
        for key in keys:  # preserve order, drop duplicates
            if key not in seen:
                seen.add(key)
                pending.append(key)
        found: Dict[str, Any] = {}
        with obs_trace.span("cache.probe_many", keys=len(pending)) as probe:
            for i, tier in enumerate(self.tiers):
                if not pending:
                    break
                hits = tier.get_many(pending)
                if hits:
                    for upper in self.tiers[:i]:
                        upper.put_many(hits)
                    found.update(hits)
                    pending = [k for k in pending if k not in hits]
            probe.set("hits", len(found))
        return found

    def put(self, key: str, value: Any) -> None:
        for tier in self.tiers:
            tier.put(key, value)

    def put_many(self, items: Mapping[str, Any]) -> None:
        if not items:
            return
        for tier in self.tiers:
            tier.put_many(items)

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-tier counters keyed by tier name, in probe order."""
        return {tier.name: tier.stats() for tier in self.tiers}

    def clear(self) -> None:
        for tier in self.tiers:
            tier.clear()

    def __len__(self) -> int:
        return len(self.tiers)
