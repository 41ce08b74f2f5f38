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

— and only the *unique misses* cross the fleet.  That composition is
what PR 5's client-side fan-out could not do: a dead shard no longer
kills the batch (its slice re-routes to survivors and the failure is
recorded in the fleet's circuit state), duplicates dedup before any
socket is touched, and per-call deadlines ride the executor's
``with_deadline`` view.

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

import contextvars
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from ..engine.engine import MINBUSY, EngineResult, SolvePlan, plan_solve
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
        self._pump_lock = threading.Lock()
        self._pumps: Set[threading.Thread] = set()
        self._stops: Set[threading.Event] = set()

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

    def _plan(
        self,
        instance: Any,
        objective: Optional[str],
        params: Dict[str, Any],
    ) -> SolvePlan:
        return plan_solve(instance, objective or MINBUSY, params)

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
        self._reap_pumps()
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
        self._reap_pumps()
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
        """Results in input order, pulled from per-shard streams.

        Each shard's sub-batch stream is consumed by its own pump
        thread into a queue, so every shard starts computing (and
        streaming) immediately; the merger yields position *i* from
        the queue of the shard owning it.  A shard that dies
        mid-stream does not kill the stream: its failure feeds the
        fleet's circuit state and the unfinished remainder of its
        slice is *repaired locally* by the router session on an
        explicit non-fleet backend (byte-identical by the executor
        conformance suite) — survivors' connections are mid-stream
        and a connection never serves two requests at once, so the
        repair must not fan back out; the next batch routes around
        the dead shard via its circuit instead.  Abandoning the
        generator (``break`` / ``close()`` / GC) signals every pump
        to stop after its in-flight item and returns promptly —
        draining finishes in the background, and the next call on
        this client (or :meth:`close`) joins the stragglers, so no
        threads leak past ``close``.
        """
        self._check_open()
        self._reap_pumps()
        if budget is not None:
            params["budget"] = budget
        plans = [
            self._plan(inst, objective, params) for inst in instances
        ]
        if not plans:
            return
        available = set(self.executor.health.available_shards())
        if not available:
            available = set(range(len(self.clients)))
        by_shard: Dict[int, List[int]] = {}
        for i, plan in enumerate(plans):
            shard = self.executor.route(plan.key, available)
            by_shard.setdefault(shard, []).append(i)

        stop = threading.Event()
        queues: Dict[int, "queue.SimpleQueue"] = {
            shard: queue.SimpleQueue() for shard in by_shard
        }

        def pump(shard: int, indices: List[int]) -> None:
            out = queues[shard]
            stream = None
            failed = False
            try:
                # The shard lock spans the whole sub-stream: a fleet
                # call (stats, objectives) between two streamed
                # results would otherwise interleave on its connection.
                with self.executor.shard_locks[shard]:
                    try:
                        stream = self.clients[shard].solve_stream(
                            [plans[i].instance for i in indices],
                            plans[indices[0]].spec.name,
                            use_cache=use_cache,
                            deadline=deadline,
                        )
                        while not stop.is_set():
                            try:
                                result = next(stream)
                            except StopIteration:
                                break
                            out.put((None, result))
                    finally:
                        if stream is not None:
                            try:
                                stream.close()
                            except BaseException:
                                pass
            except BaseException as exc:
                failed = True
                self.executor.health.record_failure(shard, exc)
                out.put((exc, None))
            finally:
                if not failed and not stop.is_set():
                    self.executor.health.record_success(shard)
                with self._pump_lock:
                    self._pumps.discard(threading.current_thread())

        threads: List[threading.Thread] = []
        with self._pump_lock:
            self._stops.add(stop)
        for shard, indices in by_shard.items():
            # Each pump carries the caller's contextvars (a copy per
            # thread), so trace context crosses into the per-shard
            # streams and their spans chain under the caller's.
            ctx = contextvars.copy_context()
            t = threading.Thread(
                target=ctx.run,
                args=(pump, shard, indices),
                daemon=True,
                name=f"repro-shard{shard}-pump",
            )
            with self._pump_lock:
                self._pumps.add(t)
            threads.append(t)
            t.start()
        shard_of_index = {
            i: shard
            for shard, indices in by_shard.items()
            for i in indices
        }
        consumed: Dict[int, int] = {shard: 0 for shard in by_shard}
        recovered: Dict[int, EngineResult] = {}
        try:
            for i in range(len(plans)):
                if i in recovered:
                    yield recovered.pop(i)
                    continue
                shard = shard_of_index[i]
                error, result = queues[shard].get()
                if error is not None:
                    # The pump died mid-stream (failure already fed
                    # the circuit).  Repair the slice it never
                    # delivered through the router session on a local
                    # backend — the fleet executor would contend for
                    # the survivors' in-flight stream connections.
                    remaining = by_shard[shard][consumed[shard]:]
                    repaired = self.session.solve_many(
                        [plans[j].instance for j in remaining],
                        objective,
                        use_cache=use_cache,
                        deadline=deadline,
                        backend="serial" if deadline is None else "async",
                        **params,
                    )
                    recovered.update(zip(remaining, repaired))
                    yield recovered.pop(i)
                    continue
                consumed[shard] += 1
                yield result
            # Normal completion: every pump has produced its last item
            # and exits as soon as it observes its stream's end.
            for t in threads:
                t.join()
        finally:
            stop.set()
            with self._pump_lock:
                self._stops.discard(stop)

    def cache_stats(self) -> Dict[str, Any]:
        """Router tiers plus the fleet: per-shard cache counters and
        circuit health under ``"shards"`` (keyed ``shard0..N-1``)."""
        return self.session.cache_stats()

    def objectives(self) -> List[str]:
        """The registry listing, from the first shard that answers."""
        errors: List[BaseException] = []
        candidates = self.executor.health.available_shards() or range(
            len(self.clients)
        )
        for shard in candidates:
            try:
                with self.executor.shard_locks[shard]:
                    listing = self.clients[shard].objectives()
            except Exception as exc:
                errors.append(exc)
                self.executor.health.record_failure(shard, exc)
                continue
            self.executor.health.record_success(shard)
            return listing
        raise errors[-1]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ShardedClient is closed")

    def _reap_pumps(self) -> None:
        """Join pump threads left draining by abandoned streams.

        Pumps own their shard client's (single) connection until their
        sub-batch stream is drained; joining them before new work is
        what keeps one connection from serving two requests at once.
        """
        with self._pump_lock:
            pumps = list(self._pumps)
        for t in pumps:
            t.join()

    def close(self) -> None:
        """Close the fleet: idempotent, shards in parallel.

        Signals every live stream pump to stop, closes all shard
        clients concurrently (closing a remote shard's socket unblocks
        its pump's read), closes the router session, then joins any
        straggling pumps.  The first shard-close failure propagates
        after every shard was attempted; repeated calls are no-ops.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        with self._pump_lock:
            for stop in list(self._stops):
                stop.set()
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
        with self._pump_lock:
            pumps = list(self._pumps)
        for t in pumps:
            t.join(timeout=5.0)
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
