"""Content→shard partitioning: the routing rule under sharded fan-out.

A :class:`Partitioner` maps an objective-qualified cache key (the same
key the cache tiers and the async executor coalesce on) to the shard
that owns its keyspace: :class:`RingPartitioner`, a weighted
consistent-hash ring with ~100 virtual nodes per weight unit.  Adding
or removing one shard moves only the keys the departed/arrived shard
owns (~1/N of the space for equal weights); every other key keeps its
owner, so the fleet's warm shard caches survive reshard events.
Weights scale a shard's share of the ring, so heterogeneous fleets can
be balanced by capacity.

:meth:`~Partitioner.preference` lists *every* shard in failover order
for a key, owner first, which is what lets the sharded executor
re-route a dead shard's slice deterministically: survivors take over
exactly the keys whose preference list reaches them next.

The ring layout is **byte-stable**: vnode placement hashes only the
shard index, vnode index, and digest size (``blake2b``, unsalted), so
the same weights produce the same ring on every host, process, and
Python version — pinned by a digest regression test in
``tests/test_sharding.py``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

__all__ = [
    "DEFAULT_REPLICAS_PER_UNIT",
    "Partitioner",
    "RingPartitioner",
]

#: Virtual nodes per unit of shard weight; ~100 keeps the max/min
#: shard-share ratio within a few percent for equal weights.
DEFAULT_REPLICAS_PER_UNIT = 100


def _ring_point(data: str) -> int:
    """A stable 64-bit ring coordinate (blake2b, unsalted, big-endian)."""
    return int.from_bytes(
        hashlib.blake2b(data.encode(), digest_size=8).digest(), "big"
    )


@runtime_checkable
class Partitioner(Protocol):
    """The routing rule: key → owning shard, plus the failover order."""

    n_shards: int

    def shard_of(self, key: str) -> int: ...

    def preference(self, key: str) -> Tuple[int, ...]: ...


class RingPartitioner:
    """Weighted consistent-hash ring: reshards move only ~1/N of keys.

    Each shard *i* with weight *w* places ``max(1, round(100 * w))``
    virtual nodes on a 64-bit ring at ``blake2b("shard{i}:vnode{j}")``;
    a key belongs to the first vnode clockwise of its own ring point.
    Because vnode placement depends only on the shard index, removing
    shard *k* leaves every other shard's vnodes exactly where they
    were — keys owned by survivors never move.
    """

    def __init__(
        self,
        weights: Sequence[float],
        *,
        replicas_per_unit: int = DEFAULT_REPLICAS_PER_UNIT,
    ) -> None:
        weights = [float(w) for w in weights]
        if not weights:
            raise ValueError("RingPartitioner needs at least one shard weight")
        for i, w in enumerate(weights):
            if not w > 0:
                raise ValueError(
                    f"shard weights must be > 0, got {w} for shard {i}"
                )
        if replicas_per_unit < 1:
            raise ValueError(
                f"replicas_per_unit must be >= 1, got {replicas_per_unit}"
            )
        self.weights: Tuple[float, ...] = tuple(weights)
        self.n_shards = len(weights)
        self.replicas_per_unit = replicas_per_unit
        placed: List[Tuple[int, int]] = []
        for shard, weight in enumerate(weights):
            vnodes = max(1, round(replicas_per_unit * weight))
            for vnode in range(vnodes):
                placed.append(
                    (_ring_point(f"shard{shard}:vnode{vnode}"), shard)
                )
        # Sorting (point, shard) pairs makes point collisions (none at
        # 64 bits in practice, but cheap to rule out) deterministic.
        placed.sort()
        self._points: List[int] = [point for point, _ in placed]
        self._owners: List[int] = [shard for _, shard in placed]

    def _slot(self, key: str) -> int:
        """Index of the first vnode clockwise of the key's ring point."""
        return bisect.bisect_right(
            self._points, _ring_point(key)
        ) % len(self._points)

    def shard_of(self, key: str) -> int:
        return self._owners[self._slot(key)]

    def preference(self, key: str) -> Tuple[int, ...]:
        """All shards in ring-walk order from the key's point.

        The walk visits vnodes clockwise and collects each shard the
        first time it appears — the standard consistent-hashing
        failover order: when the owner dies, the next *distinct* shard
        around the ring inherits exactly its keys.
        """
        start = self._slot(key)
        order: List[int] = []
        seen = set()
        for step in range(len(self._owners)):
            shard = self._owners[(start + step) % len(self._owners)]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
                if len(order) == self.n_shards:
                    break
        return tuple(order)

    def layout_digest(self) -> str:
        """SHA-256 over the sorted (point, owner) layout.

        The regression pin: any change to vnode placement — hash
        function, digest size, vnode naming, sort rule — changes this
        digest and is caught as the keyspace remap it would be.
        """
        h = hashlib.sha256()
        for point, owner in zip(self._points, self._owners):
            h.update(f"{point}:{owner};".encode())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RingPartitioner({list(self.weights)}, "
            f"replicas_per_unit={self.replicas_per_unit})"
        )
