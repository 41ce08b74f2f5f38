"""The local solver client: one session = one engine configuration.

A :class:`Session` owns all engine state — its *own* result LRU, its
*own* persistent-store binding, its *own* executor defaults — captured
in an immutable
:class:`~repro.api.config.EngineConfig`.  Two sessions in one process
therefore have disjoint cache stacks: what one session solves and
memoizes is invisible to the other (the isolation suite in
``tests/test_api_clients.py`` pins this).

A session runs the engine's layered pipeline per call::

    plan_solve -> cached_result (tiered probe) -> executor -> install

and exposes the :class:`~repro.api.protocol.SolverClient` surface —
``solve``, ``solve_many``, ``solve_stream``, ``cache_stats``,
``objectives``, ``close`` — which makes it interchangeable with
:class:`~repro.api.remote.RemoteSession` and
:class:`~repro.api.sharded.ShardedClient`.

All store-binding mutation happens under one re-entrant lock, so
concurrent threads (or the async backend's worker threads) can never
race a half-rebound store into the tier stack.
"""

from __future__ import annotations

import os
import threading
import time
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
)

from ..engine.cache import CacheInfo, LRUCache
from ..engine.engine import (
    EngineResult,
    SolvePlan,
    _verified,
    cached_result,
    install_result,
    objectives as registry_objectives,
    plan_solve,
    serve_hit,
    strip_for_store,
)
from ..engine.executors import Executor, resolve_executor
from ..engine.repair import RepairTier, clear_repair_index
from ..engine.store import ResultStore, StoreStats
from ..engine.tiers import LRUTier, StoreTier, TieredCache
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .config import (
    STORE_ENV_VAR,
    EngineConfig,
    _FollowEnv,
    enforceable_backend,
)

__all__ = ["Session"]

_SOLVES = obs_metrics.counter(
    "repro_solves_total",
    "Session solves by entry point and outcome",
    labels=("entry", "outcome"),
)
_SOLVE_SECONDS = obs_metrics.histogram(
    "repro_solve_seconds",
    "End-to-end session solve latency",
    labels=("entry",),
)


class Session:
    """A local :class:`~repro.api.protocol.SolverClient` with private
    engine state.

    Construct with an :class:`EngineConfig`, keyword overrides, or
    both (overrides win)::

        with Session(EngineConfig(store_path="/data/cache")) as s:
            res = s.solve(instance)
        fast = Session(backend="process", workers=8)

    The store binding is resolved eagerly, so an unusable store
    directory fails at construction with an ``OSError`` instead of a
    traceback mid-solve.

    ``executor=`` installs a *default executor* that replaces backend
    resolution: every solve dispatches through it unless a call names
    an explicit ``backend=`` or passes its own ``executor=``.  This is
    the seam the sharded client uses — a router session whose default
    executor is a :class:`~repro.engine.executors.ShardedExecutor`
    runs the full local pipeline (cache probe, fingerprint dedup,
    install) with only the unique misses crossing the fleet.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        executor: Optional[Executor] = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        self.config = config
        self.default_executor = executor
        self._lock = threading.RLock()
        self._lru = LRUCache(config.cache_size)
        self._store: Optional[ResultStore] = None
        self._store_env: Optional[str] = None
        self._store_resolved = False
        self._repair_tier: Optional[RepairTier] = None
        self._closed = False
        self.store()  # fail fast on an unusable store directory

    # ------------------------------------------------------------------
    # the cache stack
    # ------------------------------------------------------------------
    def store(self) -> Optional[ResultStore]:
        """This session's persistent tier, or ``None`` when disabled.

        Under :data:`~repro.api.FOLLOW_ENV` the ``REPRO_CACHE_DIR``
        binding is re-checked whenever the variable changes (so tests
        and subprocesses behave predictably); explicit paths are pinned
        at first resolution.  All rebinding happens under the session
        lock.
        """
        with self._lock:
            if self._closed:
                # close() released the handle; never re-open silently.
                return None
            target = self.config.store_path
            if isinstance(target, _FollowEnv):
                env = os.environ.get(STORE_ENV_VAR)
                if env != self._store_env or not self._store_resolved:
                    self._store = ResultStore(env) if env else None
                    self._store_env = env
                    self._store_resolved = True
            elif not self._store_resolved:
                self._store = (
                    ResultStore(target) if target is not None else None
                )
                self._store_resolved = True
            return self._store

    def _repair(self, store: Optional[ResultStore]) -> Optional[RepairTier]:
        """The session's repair tier, built lazily against the live store.

        The tier holds an in-memory similarity index, so unlike the
        adapter tiers it is *cached* — keyed by store identity, and
        rebuilt whenever the store binding changes (``REPRO_CACHE_DIR``
        re-resolution under :data:`~repro.api.FOLLOW_ENV`).
        """
        if not self.config.repair or store is None:
            return None
        with self._lock:
            tier = self._repair_tier
            if tier is None or tier.store is not store:
                tier = RepairTier(store)
                self._repair_tier = tier
            return tier

    def cache(self) -> TieredCache:
        """This session's cache stack: LRU over the optional store,
        with the near-miss repair tier between them when enabled.

        Rebuilt per call from the live bindings (cheap — adapter
        objects plus the cached repair tier), so store rebinding takes
        effect immediately and every entry point shares one
        composition rule.
        """
        tiers: List[Any] = [LRUTier(self._lru)]
        store = self.store()
        if store is not None:
            repair = self._repair(store)
            if repair is not None:
                tiers.append(repair)
            tiers.append(StoreTier(store, prepare=strip_for_store))
        return TieredCache(tiers)

    # ------------------------------------------------------------------
    # the layered pipeline, per-session
    # ------------------------------------------------------------------
    def plan(
        self,
        instance: Any,
        objective: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
    ) -> SolvePlan:
        """Registry dispatch with this session's default objective."""
        return plan_solve(
            instance, objective or self.config.objective, params
        )

    def cached_result(self, plan: SolvePlan) -> Optional[EngineResult]:
        """One tiered probe of this session's stack (with promotion)."""
        return cached_result(plan, self.cache())

    def install_result(
        self, plan: SolvePlan, result: EngineResult
    ) -> None:
        """Write a fresh result through this session's tiers."""
        install_result(plan, result, self.cache())

    def _executor(
        self,
        backend: Optional[str],
        *,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        deadline: Optional[float] = None,
        single: bool = False,
    ) -> Executor:
        """Map call-site knobs + config defaults onto a backend.

        A deadline needs a backend that can enforce it: under ``auto``
        the async backend is selected; an explicit ``serial``/
        ``process`` backend with a deadline is a ``ValueError`` (the
        same rule :class:`EngineConfig` applies at construction).

        A session-level default executor wins whenever the call names
        no explicit ``backend`` — per-call deadlines are plumbed
        through its ``with_deadline`` view when it has one (the
        sharded executor does).
        """
        if self.default_executor is not None and backend is None:
            executor = self.default_executor
            if deadline is None:
                deadline = self.config.deadline
            with_deadline = getattr(executor, "with_deadline", None)
            if deadline is not None and with_deadline is not None:
                return with_deadline(deadline)
            return executor
        backend = backend or self.config.backend
        if workers is None:
            workers = self.config.workers
        if chunksize is None:
            chunksize = self.config.chunksize
        if deadline is None:
            deadline = self.config.deadline
        backend = enforceable_backend(backend, deadline)
        if single:
            # Single solves never fan out; ``auto`` means serial here
            # (a pool would only add fork/teardown cost).
            return resolve_executor(
                "serial" if backend == "auto" else backend,
                deadline=deadline,
            )
        return resolve_executor(
            backend, workers=workers, chunksize=chunksize, deadline=deadline
        )

    # ------------------------------------------------------------------
    # SolverClient surface
    # ------------------------------------------------------------------
    def solve(
        self,
        instance: Any,
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        verify: bool = False,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        executor: Optional[Executor] = None,
        **params: Any,
    ) -> EngineResult:
        """Solve one instance with the strongest applicable algorithm.

        ``objective`` is any registered objective name or alias —
        ``minbusy`` (the config default), ``maxthroughput`` (alias
        ``throughput``), ``capacity``, ``rect2d``, ``ring``, ``tree``,
        ``flexible``, ``energy``; see :meth:`objectives`.  Family
        parameters ride along as keywords (``budget=`` for
        MaxThroughput, ``power=`` for energy).  Results are memoized by
        objective-qualified content fingerprint through this session's
        cache stack; ``use_cache=False`` forces a fresh solve (the
        result still refreshes every tier).  ``verify=True`` re-checks
        the result with the family's registered verifier.
        """
        self._check_open()
        if budget is not None:
            params["budget"] = budget
        t0 = time.perf_counter()
        plan = self.plan(instance, objective, params)
        with obs_trace.span(
            "session.solve", objective=plan.spec.name
        ) as sp:
            cache = self.cache()
            if use_cache:
                result = cached_result(plan, cache)
                if result is not None:
                    sp.set("outcome", "hit")
                    _SOLVES.labels("solve", "hit").inc()
                    _SOLVE_SECONDS.labels("solve").observe(
                        time.perf_counter() - t0
                    )
                    return _verified(plan, result) if verify else result
            if executor is None:
                executor = self._executor(
                    backend, deadline=deadline, single=True
                )
            result = executor.run([plan.task()])[0]
            install_result(plan, result, cache)
            sp.set("outcome", "solved")
        _SOLVES.labels("solve", "solved").inc()
        _SOLVE_SECONDS.labels("solve").observe(time.perf_counter() - t0)
        return _verified(plan, result) if verify else result

    def solve_many(
        self,
        instances: Sequence[Any],
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        use_cache: bool = True,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        executor: Optional[Executor] = None,
        **params: Any,
    ) -> List[EngineResult]:
        """Solve a batch of instances; results in input order.

        The batch runs the layered pipeline once: plan every instance,
        probe the cache stack with one batched top-down pass,
        deduplicate the remaining misses by fingerprint
        (content-identical instances in one batch are solved once and
        fanned back out positionally), run the unique misses on the
        selected executor backend, and fold fresh results through
        every tier.

        ``backend`` overrides the config default; ``auto`` preserves
        the historical contract — fan out across a ``multiprocessing``
        pool iff ``workers >= 2``, else solve in-process (``serial``,
        ``process`` and ``async`` force a backend, all byte-identical
        and differential-tested).  An explicit ``executor=`` instance
        overrides the knob entirely.
        """
        self._check_open()
        if budget is not None:
            params["budget"] = budget
        t0 = time.perf_counter()
        objective = objective or self.config.objective
        plans = [
            plan_solve(inst, objective, params) for inst in instances
        ]
        with obs_trace.span(
            "session.solve_many",
            objective=objective,
            instances=len(plans),
        ) as sp:
            cache = self.cache()
            results: List[Optional[EngineResult]] = [None] * len(plans)

            misses = list(range(len(plans)))
            if use_cache and plans:
                # One batched top-down probe of the whole stack; hits
                # found in lower tiers are promoted on the way up.
                hits = cache.get_many(
                    [plan.key for plan in plans],
                    contexts={plan.key: plan for plan in plans},
                )
                still: List[int] = []
                for i, plan in enumerate(plans):
                    hit = hits.get(plan.key)
                    if hit is not None:
                        results[i] = serve_hit(hit, plan.instance)
                    else:
                        still.append(i)
                misses = still
            n_hits = len(plans) - len(misses)
            if n_hits:
                _SOLVES.labels("solve_many", "hit").inc(n_hits)
            sp.set("hits", n_hits)
            sp.set("misses", len(misses))

            if not misses:
                _SOLVE_SECONDS.labels("solve_many").observe(
                    time.perf_counter() - t0
                )
                return results  # type: ignore[return-value]

            # Fingerprint-dedup before dispatch: duplicate keys inside
            # one batch are solved once; every occurrence shares the
            # result (rebound to its own jobs if the ids differ).
            representative: Dict[str, int] = {}
            unique: List[int] = []
            for i in misses:
                if plans[i].key not in representative:
                    representative[plans[i].key] = i
                    unique.append(i)

            if executor is None:
                executor = self._executor(
                    backend,
                    workers=workers,
                    chunksize=chunksize,
                    deadline=deadline,
                )
            solved_list = executor.run([plans[i].task() for i in unique])
            solved = {
                plans[i].key: res for i, res in zip(unique, solved_list)
            }

            cache.put_many(
                solved, contexts={plans[i].key: plans[i] for i in unique}
            )
            for i in misses:
                result = solved[plans[i].key]
                if i != representative[plans[i].key]:
                    # In-batch duplicate: served from the entry its
                    # representative just populated, rebound to its own
                    # jobs.
                    result = serve_hit(result, plans[i].instance)
                results[i] = result
        _SOLVES.labels("solve_many", "solved").inc(len(misses))
        _SOLVE_SECONDS.labels("solve_many").observe(
            time.perf_counter() - t0
        )
        return results  # type: ignore[return-value]

    def solve_stream(
        self,
        instances: Sequence[Any],
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        executor: Optional[Executor] = None,
        **params: Any,
    ) -> Iterator[EngineResult]:
        """Results in input order, yielded as each item completes.

        Lazy: each item runs the full plan → probe → execute → install
        cycle when the consumer pulls it, so duplicates later in the
        stream are served from the tiers their representative just
        warmed.
        """
        self._check_open()
        for inst in instances:
            yield self.solve(
                inst,
                objective,
                budget=budget,
                use_cache=use_cache,
                backend=backend,
                deadline=deadline,
                executor=executor,
                **params,
            )

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-tier counters of this session's stack, keyed by tier.

        When the default executor is a shard fleet, its aggregated
        per-shard counters (cache tiers + circuit health) ride along
        under ``"shards"`` — one call shows the whole stack, router
        tiers and fleet alike.
        """
        stats = self.cache().stats()
        shard_stats = getattr(self.default_executor, "shard_stats", None)
        if shard_stats is not None:
            stats["shards"] = shard_stats()
        return stats

    def objectives(self) -> List[str]:
        """Canonical names of every registered objective."""
        return registry_objectives()

    def close(self) -> None:
        """Release the store handle; further solves raise.

        Stats accessors stay callable but degrade to the store-less
        view (``store()`` returns ``None`` and never re-opens).
        """
        with self._lock:
            self._closed = True
            self._store = None
            self._store_resolved = False
            self._drop_repair_tier()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Session is closed")

    def _drop_repair_tier(self) -> None:
        """Detach the repair tier, flushing its buffered counters so
        another process (or a fresh tier) sees them (caller holds the
        lock or is tearing the session down)."""
        tier = self._repair_tier
        if tier is not None:
            try:
                tier.flush_counters()
            except Exception:
                pass
        self._repair_tier = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        store = self.config.store_path
        return (
            f"Session(backend={self.config.backend!r}, "
            f"cache_size={self.config.cache_size}, store={store!r})"
        )

    # ------------------------------------------------------------------
    # cache/store management
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss/size counters of this session's result LRU."""
        return self._lru.info()

    def clear_cache(self) -> None:
        """Drop cached results and reset counters (LRU tier only)."""
        self._lru.clear()

    def store_stats(self) -> Optional[StoreStats]:
        """Counters of the persistent tier, or ``None`` when disabled."""
        store = self.store()
        return store.stats() if store is not None else None

    def clear_store(self) -> None:
        """Drop every persisted result (no-op when disabled).

        The repair tier's similarity index lives beside the store's
        segments, so it is dropped (and the cached tier rebuilt) too —
        a cleared store must repair nothing.
        """
        store = self.store()
        if store is not None:
            store.clear()
            clear_repair_index(store.root)
            with self._lock:
                # No flush here: buffered counters died with the index
                # on purpose — flushing would resurrect them.
                self._repair_tier = None
