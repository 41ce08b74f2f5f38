"""The sharded solver client: a thin Session over a ShardedExecutor.

:class:`ShardedClient` closes the ROADMAP's fleet-scale item on top of
two seams at once.  Shards stay interchangeable
:class:`~repro.api.protocol.SolverClient`\\ s — local
:class:`~repro.api.session.Session`\\ s, remote
:class:`~repro.api.remote.RemoteSession`\\ s, even nested sharded
clients — and the fan-out itself is now an *engine layer*: a private
router :class:`Session` whose default executor is a
:class:`~repro.engine.executors.ShardedExecutor`.  Every call
therefore runs the full layered pipeline locally —

    plan → tiered-cache probe → in-batch fingerprint dedup
         → ShardedExecutor (route / fan out / fail over) → install

— and only the *unique misses* cross the fleet: a dead shard does not
kill the batch (its slice re-routes to survivors and the failure is
recorded in the fleet's circuit state), duplicates dedup before any
socket is touched, and per-call deadlines ride the executor's
``with_deadline`` view.  ``solve``, ``solve_many`` and ``solve_stream``
all take this one path (a stream is one router batch, yielded in
order), and ``objectives`` is the router's own registry listing.

Routing is by **consistent hash** of the objective-qualified content
key (:class:`~repro.engine.partition.RingPartitioner`, weighted), so
content-identical instances always land on the same shard — whatever
that shard cached stays authoritative for its keyspace — and a fleet
resize moves only the departed/arrived shard's slice of the keyspace.
The shard re-plans the (already normalized) instance on its own side:
one redundant SHA-256 per item, the deliberate price of shards
speaking the plain ``SolverClient`` protocol (normalization is
idempotent, so re-planning is a content no-op).  Results are
byte-identical to an unsharded solve by construction — the conformance
suite in ``tests/test_api_clients.py`` pins this across all eight
objective families, and ``tests/test_sharding.py`` re-pins it with a
shard SIGKILLed mid-batch.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..engine.engine import EngineResult, SolvePlan
from ..engine.executors import ShardedExecutor
from ..engine.partition import Partitioner, RingPartitioner
from .config import EngineConfig, ShardSpec, parse_shard_entry

__all__ = ["ShardedClient"]


class ShardedClient:
    """A :class:`~repro.api.protocol.SolverClient` that partitions work
    across other clients by content fingerprint, with failover.

    ``clients`` is any mix of conforming clients; the sharded client
    owns them — :meth:`close` closes every shard (concurrently, and
    idempotently).  ``weights`` (or an explicit ``partitioner``)
    shape the consistent-hash ring; ``hedge_delay`` arms hedged
    requests against slow shards::

        fleet = ShardedClient([
            Session(store_path=None),
            RemoteSession(port=8753),
            RemoteSession("10.0.0.2", 8753),
        ], weights=[1, 1, 2], hedge_delay=5.0)
        results = fleet.solve_many(instances)   # same bytes, 3-way split

    ``config`` shapes the *router* session (its LRU bound, default
    deadline, optionally a store); by default the router
    carries no persistent store — the shards' caches are the fleet's
    memory.
    """

    def __init__(
        self,
        clients: Sequence[Any],
        *,
        config: Optional[EngineConfig] = None,
        partitioner: Optional[Partitioner] = None,
        weights: Optional[Sequence[float]] = None,
        hedge_delay: Optional[float] = None,
    ) -> None:
        if not clients:
            raise ValueError("ShardedClient needs at least one client")
        self.clients: List[Any] = list(clients)
        if config is None:
            config = EngineConfig(store_path=None)
        self.config = config
        if partitioner is None:
            if weights is not None and len(weights) != len(self.clients):
                raise ValueError(
                    f"{len(weights)} weights for {len(self.clients)} "
                    "clients"
                )
            partitioner = RingPartitioner(
                list(weights)
                if weights is not None
                else [1.0] * len(self.clients)
            )
        self.executor = ShardedExecutor(
            self.clients,
            partitioner=partitioner,
            deadline=config.deadline,
            hedge_delay=hedge_delay,
        )
        # The router: a full local pipeline (LRU probe, fingerprint
        # dedup, install) whose execute slot is the fleet.
        self.session = _router_session(config, self.executor)
        self._closed = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction from shard specs
    # ------------------------------------------------------------------
    @classmethod
    def from_specs(
        cls,
        specs: Sequence[Any],
        *,
        config: Optional[EngineConfig] = None,
        hedge_delay: Optional[float] = None,
        timeout: Optional[float] = 30.0,
    ) -> "ShardedClient":
        """Build a fleet from :class:`~repro.api.config.ShardSpec`\\ s
        (or their string spellings — ``"host:port*weight"``/``"local"``).

        Local entries become private store-less sessions; remote ones
        connect a :class:`~repro.api.remote.RemoteSession` eagerly, so
        an unreachable endpoint fails here, naming the shard, instead
        of mid-batch.  Weights come from the specs.
        """
        from .remote import RemoteSession
        from .session import Session

        parsed: List[ShardSpec] = [
            parse_shard_entry(s, source="shards")
            if isinstance(s, str)
            else s
            for s in specs
        ]
        base = config if config is not None else EngineConfig(store_path=None)
        clients: List[Any] = []
        try:
            for spec in parsed:
                if spec.is_local:
                    clients.append(
                        Session(
                            EngineConfig(
                                cache_size=base.cache_size,
                                store_path=None,
                            )
                        )
                    )
                else:
                    try:
                        clients.append(
                            RemoteSession(
                                spec.host, spec.port, timeout=timeout
                            )
                        )
                    except OSError as exc:
                        raise OSError(
                            f"cannot connect to shard {spec}: {exc}"
                        ) from exc
        except BaseException:
            for client in clients:
                try:
                    client.close()
                except Exception:
                    pass
            raise
        return cls(
            clients,
            config=base,
            weights=[spec.weight for spec in parsed],
            hedge_delay=hedge_delay,
        )

    # ------------------------------------------------------------------
    # routing (kept public: tests and operators inspect placement)
    # ------------------------------------------------------------------
    def shard_of(self, plan: SolvePlan) -> int:
        """The shard index owning this plan's cache keyspace."""
        return self.executor.partitioner.shard_of(plan.key)

    # ------------------------------------------------------------------
    # SolverClient surface (delegated to the router session)
    # ------------------------------------------------------------------
    def solve(
        self,
        instance: Any,
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        verify: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> EngineResult:
        """One solve through the router pipeline; the fleet computes.

        ``use_cache=False`` forces a fresh pass through the router's
        tiers; the owning shard may still serve its own cache — its
        keyspace, its authority.  ``verify=True`` re-checks the merged
        result locally with the family's registered verifier.
        """
        self._check_open()
        return self.session.solve(
            instance,
            objective,
            budget=budget,
            use_cache=use_cache,
            verify=verify,
            deadline=deadline,
            **params,
        )

    def solve_many(
        self,
        instances: Sequence[Any],
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> List[EngineResult]:
        """One router batch: probe, dedup, fan out, fail over, merge.

        Results come back in input order.  A shard that dies mid-batch
        has its slice re-routed to the survivors (recorded in the
        fleet's circuit state, visible in :meth:`cache_stats`); the
        call only raises when *every* shard is gone.
        """
        self._check_open()
        return self.session.solve_many(
            instances,
            objective,
            budget=budget,
            use_cache=use_cache,
            deadline=deadline,
            **params,
        )

    def solve_stream(
        self,
        instances: Sequence[Any],
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> Iterator[EngineResult]:
        """Results in input order, from one :meth:`solve_many` batch.

        The stream runs the batch pipeline unchanged — router LRU,
        in-batch dedup, fan-out with hedging and failover, install —
        so its first item arrives when the whole router batch is done.
        """
        yield from self.solve_many(
            instances,
            objective,
            budget=budget,
            use_cache=use_cache,
            deadline=deadline,
            **params,
        )

    def cache_stats(self) -> Dict[str, Any]:
        """Router tiers plus the fleet: per-shard cache counters and
        circuit health under ``"shards"`` (keyed ``shard0..N-1``)."""
        return self.session.cache_stats()

    def objectives(self) -> List[str]:
        """The router's registry listing: the router plans every call,
        so these are exactly the objectives this client can solve."""
        return self.session.objectives()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ShardedClient is closed")

    def close(self) -> None:
        """Close the fleet: idempotent, shards in parallel.

        Closes all shard clients concurrently, then the router
        session.  The first shard-close failure propagates after every
        shard was attempted; repeated calls are no-ops.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        errors: List[BaseException] = []

        def close_one(client: Any) -> None:
            try:
                client.close()
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)

        with ThreadPoolExecutor(
            max_workers=len(self.clients)
        ) as pool:
            list(pool.map(close_one, self.clients))
        self.session.close()
        if errors:  # pragma: no cover - defensive
            raise errors[0]

    def __enter__(self) -> "ShardedClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.clients)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedClient({len(self.clients)} shards, "
            f"partitioner={self.executor.partitioner!r})"
        )


def _router_session(config: EngineConfig, executor: ShardedExecutor):
    """The router session: local pipeline, fleet in the execute slot.

    A function (not an inline import in ``__init__``) so the
    ``api.session`` ↔ ``api.sharded`` import cycle stays one-way at
    module import time.
    """
    from .session import Session

    return Session(config, executor=executor)
