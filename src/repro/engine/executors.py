"""The executor layer: pluggable backends that run cache-miss solves.

The engine's front door decides *what* needs solving (normalization,
fingerprinting, cache probes, in-batch dedup); an :class:`Executor`
decides *how* the remaining misses run.  Every backend consumes the
same unit of work — a :class:`SolveTask` (normalized instance +
objective + fingerprint) — and returns results in submission order, so
backends are interchangeable and byte-identical by construction (the
differential suite in ``tests/test_executors.py`` pins this across all
eight registry families).

Backends:

* :class:`SerialExecutor` — in-process loop; the reference semantics.
* :class:`ProcessPoolExecutor` — the deterministic chunked
  ``multiprocessing`` fan-out that used to live inline in
  ``solve_many`` (forked workers read the batch in place, ordered
  ``pool.map``, ~4 chunks per worker).
* :class:`AsyncQueueExecutor` — an ``asyncio`` queue with bounded
  concurrency, optional per-request deadlines, and in-flight request
  coalescing: duplicate concurrent solves of the same fingerprint
  compute once and every waiter shares the result.  This is the
  backend under ``repro serve``; its async API (:meth:`submit`) is
  what the service awaits per request, and its sync :meth:`run` makes
  it a drop-in ``solve_many`` backend.
* :class:`ShardedExecutor` — fan-out over a fleet of shard clients
  (local ``Session``s or remote serve sockets) routed by a
  :class:`~repro.engine.partition.Partitioner`, with circuit-breaker
  health tracking (:mod:`repro.engine.health`), failover (a failed
  shard's slice re-routes to the survivors next in its keys'
  preference order) and optional request hedging.  Because it is just
  another :class:`Executor`, it plugs in *under* ``solve_many``'s
  cache probe and fingerprint dedup: a sharded batch dedups once at
  the router, then fans only unique misses out to the fleet.

:func:`resolve_executor` maps the public ``backend=`` knob
(``auto | serial | process | async``) plus ``workers=`` onto a
concrete backend, preserving the historical ``solve_many`` behaviour:
``auto`` fans out across processes iff ``workers >= 2``.
"""

from __future__ import annotations

import asyncio
import contextvars
import copy
import itertools
import multiprocessing
import threading
from concurrent.futures import (
    ThreadPoolExecutor as _ThreadPool,
    as_completed,
    wait as _wait_futures,
)
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .health import FleetHealth
from .partition import Partitioner, RingPartitioner

__all__ = [
    "BACKENDS",
    "SolveTask",
    "SolveTimeout",
    "Executor",
    "SerialExecutor",
    "ProcessPoolExecutor",
    "AsyncQueueExecutor",
    "ShardedExecutor",
    "ShardFleetError",
    "resolve_executor",
]

#: Accepted spellings of the ``backend=`` knob.
BACKENDS = ("auto", "serial", "process", "async")

_EXEC_TASKS = obs_metrics.counter(
    "repro_executor_tasks_total",
    "Cache-miss solve tasks run, by executor backend",
    labels=("backend",),
)


@dataclass(frozen=True)
class SolveTask:
    """One unit of executor work: an already-normalized instance.

    ``key`` is the objective-qualified cache key — it is what the
    async backend coalesces duplicate in-flight requests on, and what
    the engine folds the result back into the cache stack under.
    """

    instance: Any
    objective: str
    fingerprint: str
    key: str


class SolveTimeout(TimeoutError):
    """A solve exceeded its per-request deadline (async backend)."""

    def __init__(self, task: SolveTask, deadline: float) -> None:
        super().__init__(
            f"solve of {task.objective}:{task.fingerprint[:12]}... "
            f"exceeded its {deadline:.3g}s deadline"
        )
        self.task = task
        self.deadline = deadline


def _solve_task(task: SolveTask):
    """Run one task to an :class:`~repro.engine.engine.EngineResult`.

    Module-level (and importing the engine lazily) so process-pool
    workers can call it without re-entering this module's import of
    the engine.
    """
    from .engine import _solve_uncached, _spec_for

    spec = _spec_for(task.objective)
    return _solve_uncached(task.instance, spec, task.fingerprint)


@runtime_checkable
class Executor(Protocol):
    """A backend that runs solve tasks and preserves submission order."""

    name: str

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]: ...


class SerialExecutor:
    """In-process sequential execution — the reference backend."""

    name = "serial"

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        _EXEC_TASKS.labels(self.name).inc(len(tasks))
        with obs_trace.span(
            "executor.run", backend=self.name, tasks=len(tasks)
        ):
            return [_solve_task(task) for task in tasks]


class ProcessPoolExecutor:
    """Deterministic chunked fan-out over a ``multiprocessing`` pool.

    ``pool.map`` preserves submission order, so the output equals the
    serial path regardless of worker scheduling; each worker gets ~4
    chunks.  Single-task batches short-circuit to the serial path (a
    pool would only add fork/teardown cost).

    Workers are forked after the batch is parked in a module-level
    table, so they read their tasks in place: only ``(token, index)``
    pairs and the results cross the pipe.  Where ``fork`` is missing
    the pool spawns and pickles each task instead.
    """

    name = "process"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        if self.workers <= 1 or len(tasks) <= 1:
            return SerialExecutor().run(tasks)
        _EXEC_TASKS.labels(self.name).inc(len(tasks))
        with obs_trace.span(
            "executor.run",
            backend=self.name,
            tasks=len(tasks),
            workers=self.workers,
        ):
            chunk = max(1, len(tasks) // (self.workers * 4))
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(processes=self.workers) as pool:
                    return pool.map(_solve_task, tasks, chunksize=chunk)
            token = next(_BATCH_TOKENS)
            _FORKED_BATCHES[token] = tasks
            try:
                with ctx.Pool(processes=self.workers) as pool:
                    return pool.map(
                        _solve_forked,
                        [(token, i) for i in range(len(tasks))],
                        chunksize=chunk,
                    )
            finally:
                del _FORKED_BATCHES[token]


#: Batches in flight on forked pools, by token; workers inherit the
#: table at fork and look their tasks up instead of unpickling them.
_FORKED_BATCHES: Dict[int, Sequence[SolveTask]] = {}
_BATCH_TOKENS = itertools.count()


def _solve_forked(ref: Tuple[int, int]) -> Any:
    """Worker entry: solve task ``i`` of the inherited batch ``token``."""
    token, i = ref
    return _solve_task(_FORKED_BATCHES[token][i])


class _Inflight:
    """One coalesced in-flight solve: a future plus its owning loop."""

    __slots__ = ("loop", "future")

    def __init__(
        self, loop: asyncio.AbstractEventLoop, future: "asyncio.Future"
    ) -> None:
        self.loop = loop
        self.future = future


class AsyncQueueExecutor:
    """Bounded-concurrency asyncio backend with request coalescing.

    * ``max_concurrency`` solves run at once (a semaphore gates entry);
      the rest queue.  Each admitted solve runs in a worker thread
      (``asyncio.to_thread``) so the event loop stays free to accept
      further requests — this is what lets one server process keep
      many connections live while solves grind.
    * ``deadline`` (seconds, per request; overridable per
      :meth:`submit` call) bounds how long a caller waits; exceeding it
      raises :class:`SolveTimeout`.  The underlying computation is not
      interrupted — its result still lands in the coalescing slot for
      any later identical request.
    * Duplicate concurrent submissions of the same ``task.key``
      *coalesce*: the first starts the solve, the rest await the same
      future and share the one result.
    * ``delegate`` replaces the in-process solve with another
      :class:`Executor`: each admitted task runs ``delegate.run([task])``
      in the worker thread instead of computing locally.  This is how
      ``repro serve --shard`` keeps the service's coalescing, bounded
      concurrency and per-request deadlines *above* a
      :class:`ShardedExecutor` fanning the actual solves out to a
      fleet.
    """

    name = "async"

    def __init__(
        self,
        max_concurrency: int = 8,
        *,
        deadline: Optional[float] = None,
        delegate: Optional["Executor"] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.max_concurrency = max_concurrency
        self.deadline = deadline
        self.delegate = delegate
        self._inflight: Dict[str, _Inflight] = {}
        # Strong refs to in-flight compute tasks: the event loop only
        # keeps weak ones, and a GC'd task would strand its waiters.
        self._tasks: set = set()
        self._semaphores: Dict[
            asyncio.AbstractEventLoop, asyncio.Semaphore
        ] = {}

    # ------------------------------------------------------------------
    # async API (what the service awaits)
    # ------------------------------------------------------------------
    def _semaphore(self) -> asyncio.Semaphore:
        # Semaphores bind to the running loop; keep one per loop so the
        # executor works both under the long-lived service loop and
        # under the short-lived loop of a sync ``run`` call.
        loop = asyncio.get_running_loop()
        sem = self._semaphores.get(loop)
        if sem is None:
            sem = asyncio.Semaphore(self.max_concurrency)
            self._semaphores[loop] = sem
            if len(self._semaphores) > 8:  # drop closed loops' entries
                self._semaphores = {
                    lp: s for lp, s in self._semaphores.items()
                    if not lp.is_closed()
                }
        return sem

    def _run_one(self, task: SolveTask) -> Any:
        # Counted here (not in run_async) so coalesced duplicates are
        # not double-counted: one computation, one task.
        _EXEC_TASKS.labels(self.name).inc()
        with obs_trace.span(
            "executor.solve",
            backend=self.name,
            objective=task.objective,
        ):
            if self.delegate is not None:
                return self.delegate.run([task])[0]
            return _solve_task(task)

    async def _compute(self, task: SolveTask, slot: _Inflight) -> None:
        try:
            async with self._semaphore():
                result = await asyncio.to_thread(self._run_one, task)
        except asyncio.CancelledError:
            # Event-loop shutdown: cancel (not fail) the slot so a
            # never-awaited future doesn't log at GC time, and let the
            # cancellation propagate as asyncio expects.
            if not slot.future.done():
                slot.future.cancel()
            raise
        except BaseException as exc:  # propagate to every waiter
            if not slot.future.done():
                slot.future.set_exception(exc)
                # Mark the exception as observed even if every waiter
                # timed out before it landed; awaiting still re-raises.
                slot.future.exception()
        else:
            if not slot.future.done():
                slot.future.set_result(result)
        finally:
            if self._inflight.get(task.key) is slot:
                del self._inflight[task.key]

    def submit(
        self, task: SolveTask, *, deadline: Optional[float] = None
    ) -> Awaitable[Any]:
        """Coalesced, deadline-bounded solve of one task (awaitable)."""
        return self._submit(task, deadline)

    async def _submit(
        self, task: SolveTask, deadline: Optional[float]
    ) -> Any:
        loop = asyncio.get_running_loop()
        slot = self._inflight.get(task.key)
        if slot is None or slot.loop is not loop or slot.future.done():
            slot = _Inflight(loop, loop.create_future())
            self._inflight[task.key] = slot
            compute = loop.create_task(self._compute(task, slot))
            self._tasks.add(compute)
            compute.add_done_callback(self._tasks.discard)
        if deadline is None:
            deadline = self.deadline
        waiter = asyncio.shield(slot.future)
        if deadline is None:
            return await waiter
        try:
            return await asyncio.wait_for(waiter, timeout=deadline)
        except asyncio.TimeoutError:
            raise SolveTimeout(task, deadline) from None

    async def run_async(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """All tasks, bounded + coalesced, results in submission order."""
        with obs_trace.span(
            "executor.run", backend=self.name, tasks=len(tasks)
        ):
            return list(
                await asyncio.gather(
                    *(self._submit(t, None) for t in tasks)
                )
            )

    # ------------------------------------------------------------------
    # sync API (the solve_many backend contract)
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        if not tasks:
            return []
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.run_async(tasks))
        # Called from inside a running event loop (e.g. engine code
        # driven by the service): run on a private loop in a helper
        # thread instead of deadlocking the caller's loop.
        box: List[Any] = []
        error: List[BaseException] = []

        def _runner() -> None:
            try:
                box.append(asyncio.run(self.run_async(tasks)))
            except BaseException as exc:  # pragma: no cover - passthrough
                error.append(exc)

        thread = threading.Thread(target=_runner, daemon=True)
        thread.start()
        thread.join()
        if error:
            raise error[0]
        return box[0]


class ShardFleetError(RuntimeError):
    """Every shard that could own a slice failed or is ejected."""

    def __init__(self, n_shards: int, failures: Sequence[Dict[str, Any]]):
        recent = "; ".join(
            f"shard{f['shard']}: {f['error']}" for f in list(failures)[-3:]
        )
        super().__init__(
            f"all {n_shards} shards failed or are ejected"
            + (f" — recent failures: {recent}" if recent else "")
        )
        self.failures = list(failures)


class ShardedExecutor:
    """Fan solve tasks out across a fleet of shard clients.

    ``shards`` is any sequence of :class:`~repro.api.protocol.
    SolverClient`-shaped objects (local sessions, remote sessions,
    even nested sharded clients) — the executor only calls their
    ``solve_many``/``cache_stats``.  Routing is by ``task.key``
    through ``partitioner`` (default: an equal-weight
    :class:`~repro.engine.partition.RingPartitioner`), so
    content-identical work always lands on the same shard and that
    shard's cache stays authoritative for its keyspace.

    Failover is round-based: each round routes the remaining tasks to
    the first *available* shard in their keys' preference order and
    fans out one ``solve_many`` per shard (its own thread).  A shard
    that raises has its failure recorded in :class:`~repro.engine.
    health.FleetHealth` (suspect → ejected with re-probe backoff) and
    its slice re-routed to survivors next round — the caller sees
    merged results in submission order, never the shard failure.  Only
    when *no* shard remains routable does :class:`ShardFleetError`
    propagate.

    ``hedge_delay`` (seconds) arms hedged requests: a shard slower
    than the delay gets its slice speculatively re-submitted to the
    next shard in preference order, first response wins.  Per-shard
    locks serialize calls into each client (remote sessions hold one
    socket), so hedges and overlapping runs never interleave requests
    on one connection.

    The executor satisfies the :class:`Executor` protocol, which is
    the point: plugged under ``Session.solve_many`` it runs *after*
    the router's cache probe and in-batch fingerprint dedup — each
    unique fingerprint crosses the fleet exactly once.
    """

    name = "sharded"

    def __init__(
        self,
        shards: Sequence[Any],
        *,
        partitioner: Optional[Partitioner] = None,
        deadline: Optional[float] = None,
        hedge_delay: Optional[float] = None,
    ) -> None:
        if not shards:
            raise ValueError("ShardedExecutor needs at least one shard")
        self.shards: List[Any] = list(shards)
        if partitioner is None:
            partitioner = RingPartitioner([1.0] * len(self.shards))
        if partitioner.n_shards != len(self.shards):
            raise ValueError(
                f"partitioner covers {partitioner.n_shards} shards but "
                f"{len(self.shards)} clients were given"
            )
        self.partitioner = partitioner
        self.deadline = deadline
        if hedge_delay is not None and hedge_delay <= 0:
            raise ValueError(
                f"hedge_delay must be > 0 seconds, got {hedge_delay}"
            )
        self.hedge_delay = hedge_delay
        #: Recorded (not propagated) shard failures, most recent last.
        self.failures: List[Dict[str, Any]] = []
        #: One lock per shard client: every call into a client holds
        #: it, so one connection never serves two requests.
        self.shard_locks = [threading.Lock() for _ in self.shards]
        self.health = FleetHealth(len(self.shards))

    def with_deadline(
        self, deadline: Optional[float]
    ) -> "ShardedExecutor":
        """A view with a different per-call deadline.

        Shares the shard clients, partitioner, circuit state, failure
        log and per-shard locks — only the deadline differs, so the
        session layer can plumb per-call deadlines through without
        forking fleet state.
        """
        if deadline is None or deadline == self.deadline:
            return self
        clone = copy.copy(self)
        clone.deadline = deadline
        return clone

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, key: str, available: Set[int]) -> Optional[int]:
        """First shard of ``available`` in the key's preference order."""
        for shard in self.partitioner.preference(key):
            if shard in available:
                return shard
        return None

    def _record_failure(
        self, shard: int, error: BaseException, n_tasks: int
    ) -> None:
        self.health.record_failure(shard, error)
        self.failures.append(
            {
                "shard": shard,
                "error": f"{type(error).__name__}: {error}",
                "tasks": n_tasks,
            }
        )
        del self.failures[:-100]  # bound the log

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def _attempt(
        self, shard: int, tasks: Sequence[SolveTask]
    ) -> List[Any]:
        """One shard's slice, via its client's own ``solve_many`` with
        the shard's cache on (its keyspace, its authority).

        The shard re-plans the (already normalized) instances on its
        side — normalization is idempotent, so this is a content
        no-op; the lock serializes access to the client's single
        connection.
        """
        client = self.shards[shard]
        by_objective: Dict[str, List[int]] = {}
        for position, task in enumerate(tasks):
            by_objective.setdefault(task.objective, []).append(position)
        results: List[Any] = [None] * len(tasks)
        with obs_trace.span(
            "shard.solve_many", shard=shard, tasks=len(tasks)
        ):
            with self.shard_locks[shard]:
                for objective, positions in by_objective.items():
                    served = client.solve_many(
                        [tasks[p].instance for p in positions],
                        objective,
                        deadline=self.deadline,
                    )
                    for position, result in zip(positions, served):
                        results[position] = result
        return results

    def _submit_attempt(self, pool, shard, slice_tasks):
        """Submit one shard attempt, carrying the ambient trace
        context across the pool's thread boundary."""
        ctx = contextvars.copy_context()
        return pool.submit(ctx.run, self._attempt, shard, slice_tasks)

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        if not tasks:
            return []
        _EXEC_TASKS.labels(self.name).inc(len(tasks))
        results: List[Any] = [None] * len(tasks)
        remaining = list(range(len(tasks)))
        dead: Set[int] = set()  # shards that failed during THIS run
        # No context manager: shutdown(wait=False) lets a hung hedged
        # primary finish in the background instead of blocking the
        # merged results that are already complete.
        pool = _ThreadPool(max_workers=max(2 * len(self.shards), 2))
        fleet_span = obs_trace.span(
            "fleet.run", shards=len(self.shards), tasks=len(tasks)
        )
        try:
            with fleet_span:
                while remaining:
                    avail = {
                        s
                        for s in self.health.available_shards()
                        if s not in dead
                    }
                    if not avail:
                        raise ShardFleetError(
                            len(self.shards), self.failures
                        )
                    by_shard: Dict[int, List[int]] = {}
                    for i in remaining:
                        owner = self.route(tasks[i].key, avail)
                        by_shard.setdefault(owner, []).append(i)
                    futures = {
                        shard: self._submit_attempt(
                            pool, shard, [tasks[i] for i in idxs]
                        )
                        for shard, idxs in by_shard.items()
                    }
                    hedges: Dict[int, Tuple[int, Any]] = {}
                    if self.hedge_delay is not None and len(avail) > 1:
                        _, laggards = _wait_futures(
                            list(futures.values()),
                            timeout=self.hedge_delay,
                        )
                        for shard, idxs in by_shard.items():
                            if futures[shard] not in laggards:
                                continue
                            alt = self.route(
                                tasks[idxs[0]].key, avail - {shard}
                            )
                            if alt is not None:
                                hedges[shard] = (
                                    alt,
                                    self._submit_attempt(
                                        pool,
                                        alt,
                                        [tasks[i] for i in idxs],
                                    ),
                                )
                    next_remaining: List[int] = []
                    for shard, idxs in by_shard.items():
                        candidates = [(shard, futures[shard])]
                        if shard in hedges:
                            candidates.append(hedges[shard])
                        fut_owner = {fut: s for s, fut in candidates}
                        served: Optional[List[Any]] = None
                        for fut in as_completed(list(fut_owner)):
                            responder = fut_owner[fut]
                            try:
                                served = fut.result()
                            except Exception as exc:
                                self._record_failure(
                                    responder, exc, len(idxs)
                                )
                                dead.add(responder)
                            else:
                                self.health.record_success(responder)
                                break
                        if served is None:
                            next_remaining.extend(idxs)
                        else:
                            for i, result in zip(idxs, served):
                                results[i] = result
                    remaining = next_remaining
        finally:
            pool.shutdown(wait=False)
        return results

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-shard cache counters + circuit state, keyed ``shardN``.

        A shard whose ``cache_stats`` call fails (dead endpoint)
        contributes its circuit state plus the error string — the
        fleet view stays renderable with members down.
        """
        stats: Dict[str, Dict[str, Any]] = {}
        for i, client in enumerate(self.shards):
            entry: Dict[str, Any] = {
                "health": self.health.circuit(i).stats()
            }
            try:
                with self.shard_locks[i]:
                    tiers = client.cache_stats()
                for tier, counters in tiers.items():
                    entry[tier] = counters
            except Exception as exc:
                entry["health"] = {
                    **entry["health"],
                    "stats_error": f"{type(exc).__name__}: {exc}",
                }
            stats[f"shard{i}"] = entry
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedExecutor({len(self.shards)} shards, "
            f"partitioner={self.partitioner!r})"
        )


def resolve_executor(
    backend: str = "auto",
    *,
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Executor:
    """Map the public ``backend=`` knob onto a concrete executor.

    ``auto`` keeps the historical ``solve_many`` contract: fan out
    across ``workers`` processes iff ``workers >= 2``, else run
    serially.  ``process`` defaults to 2 workers when none are given;
    ``async`` reads ``workers`` as its concurrency bound (default 8).
    Unknown names raise ``ValueError`` listing :data:`BACKENDS`.
    """
    if backend == "auto":
        if workers is not None and workers >= 2:
            return ProcessPoolExecutor(workers)
        return SerialExecutor()
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ProcessPoolExecutor(workers or 2)
    if backend == "async":
        return AsyncQueueExecutor(workers or 8, deadline=deadline)
    raise ValueError(
        f"unknown backend {backend!r}; choose one of {', '.join(BACKENDS)}"
    )
