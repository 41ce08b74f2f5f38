"""Batch solver engine: registry dispatch over cache tiers + executors.

The rest of the library is organized around the paper's case analysis —
one module per algorithm, one call per instance.  This package is the
execution core on top, built as explicit layers (``ARCHITECTURE.md``
has the full picture; :mod:`repro.service` is the network front end
over the same primitives, and :mod:`repro.api` is the session layer
above both — explicit :class:`~repro.api.Session` objects own the
cache and executor state; this package holds no module-global state):

* **Registry dispatch** — :func:`plan_solve` routes any instance to
  the strongest applicable algorithm for the requested objective.  All
  eight problem families resolve through the pluggable registry
  (:data:`repro.core.registry.REGISTRY`): ``minbusy``,
  ``maxthroughput``, ``capacity``, ``rect2d``, ``ring``, ``tree``,
  ``flexible`` and ``energy``; :func:`objectives` lists them.  A solve
  returns an :class:`EngineResult` with the objective value, algorithm
  provenance and timing.
* **Cache layer** (:mod:`repro.engine.tiers`) — solves are memoized by
  a versioned, objective-qualified SHA-256 content fingerprint
  (:mod:`repro.engine.fingerprint`) in a :class:`TieredCache` probed
  top-down with upward promotion: a per-session :class:`LRUTier` over
  an optional disk-backed, cross-process :class:`StoreTier`
  (:mod:`repro.engine.store`; bind with
  ``Session(store_path=...)``/``EngineConfig`` or the
  ``REPRO_CACHE_DIR`` environment variable, inspect with
  ``Session.store_stats()`` or ``repro cache stats``).  Worker pools
  and repeated CLI invocations share persisted hits.
* **Executor layer** (:mod:`repro.engine.executors`) — cache misses
  run on a pluggable backend selected by ``backend=auto|serial|
  process|async``: an in-process loop, the deterministic chunked
  ``multiprocessing`` fan-out (``workers=N``), or an asyncio queue
  with bounded concurrency, per-request deadlines and in-flight
  coalescing.  All backends are byte-identical (differential-tested);
  results always come back in input order.  Content-identical
  instances inside one batch are fingerprint-deduped before dispatch.
* **Vectorized hot paths** — below the dispatchers, large instances
  run the sweep kernels of :mod:`repro.core.vectorized` and the
  FirstFit family runs the event-indexed occupancy engine of
  :mod:`repro.core.occupancy`; both are bit-exact against their scalar
  oracles, so the engine's results are independent of instance size.
  The E16/E17 benchmarks track the speedups; E18 tracks the store
  tier, E19 the serving layer.

Quickstart (through a :class:`~repro.api.Session`)::

    from repro.api import Session

    s = Session()
    res = s.solve(instance)                          # MinBusy by default
    res = s.solve(instance, "maxthroughput", budget=42.0)
    res = s.solve(RectInstance(rects, g=3), "rect2d")
    res = s.solve(instance, "energy", power=PowerModel(wake_cost=3.0))
    batch = s.solve_many(instances, workers=4)       # deterministic order
    batch = s.solve_many(instances, backend="async") # same bytes out

Registering a new objective
---------------------------

1. Give the family an instance type with a *canonical item order*
   (sort in ``__post_init__``, like
   :class:`repro.rect.instance.RectInstance`) — positions into that
   order are how cached results transfer between content-identical
   instances, and why item ids never enter fingerprints.
2. Write a ``repro.<family>.objective`` module building an
   :class:`~repro.core.registry.ObjectiveSpec` with: ``normalize``
   (idempotent; folds per-call parameters such as ``budget=`` into the
   canonical instance), ``fingerprint`` (call
   :func:`~repro.engine.fingerprint.fingerprint_v2` with a fresh
   family tag — never reuse another family's), ``solve`` (the
   structure-aware dispatch table returning a
   :class:`~repro.core.registry.Solved` whose ``schedule`` or
   positional ``detail`` encodes the result), and ``verify`` (an
   independent validity re-check).
3. ``REGISTRY.register(spec)`` at module level, and add the module to
   ``_FAMILY_MODULES`` in :mod:`repro.engine.objectives`.  The engine
   then serves the family through ``Session.solve``/``solve_many``
   with LRU + store caching and deterministic multiprocessing — no
   engine changes needed.
"""

from .cache import DEFAULT_CACHE_SIZE, CacheInfo, LRUCache
from .dispatch import pick_throughput_solver
from .engine import (
    MAXTHROUGHPUT,
    MINBUSY,
    EngineResult,
    SolvePlan,
    cached_result,
    install_result,
    objectives,
    plan_solve,
    serve_hit,
    strip_for_store,
)
from .executors import (
    BACKENDS,
    AsyncQueueExecutor,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ShardedExecutor,
    ShardFleetError,
    SolveTask,
    SolveTimeout,
    resolve_executor,
)
from .fingerprint import fingerprint_v2, instance_fingerprint, solve_key
from .health import EJECTED, HEALTHY, SUSPECT, FleetHealth, ShardCircuit
from .partition import Partitioner, RingPartitioner
from .store import STORE_VERSION, ResultStore, StoreStats, default_store_dir
from .tiers import CacheTier, LRUTier, StoreTier, TieredCache

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "CacheInfo",
    "LRUCache",
    "pick_throughput_solver",
    "MAXTHROUGHPUT",
    "MINBUSY",
    "EngineResult",
    "SolvePlan",
    "cached_result",
    "install_result",
    "objectives",
    "plan_solve",
    "serve_hit",
    "strip_for_store",
    "BACKENDS",
    "AsyncQueueExecutor",
    "Executor",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "ShardedExecutor",
    "ShardFleetError",
    "SolveTask",
    "SolveTimeout",
    "resolve_executor",
    "FleetHealth",
    "ShardCircuit",
    "HEALTHY",
    "SUSPECT",
    "EJECTED",
    "Partitioner",
    "RingPartitioner",
    "CacheTier",
    "LRUTier",
    "StoreTier",
    "TieredCache",
    "fingerprint_v2",
    "instance_fingerprint",
    "solve_key",
    "STORE_VERSION",
    "ResultStore",
    "StoreStats",
    "default_store_dir",
]
