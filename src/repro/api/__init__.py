"""The session layer: explicit solver clients over the engine core.

This package is the public API seam above the engine (see
``ARCHITECTURE.md``, "Session layer"): one protocol —
:class:`SolverClient` — with three conforming, byte-identical
implementations, so local and remote solving are interchangeable:

* :class:`Session` — in-process; owns a private
  :class:`EngineConfig` (result LRU, persistent-store binding,
  executor backend/workers, default deadline/objective), so two
  sessions in one process have disjoint cache stacks;
* :class:`RemoteSession` — the same calls over a ``repro serve``
  socket (:class:`~repro.service.client.ServiceClient` underneath);
* :class:`ShardedClient` — a thin Session whose execute slot is a
  :class:`~repro.engine.executors.ShardedExecutor`: consistent-hash
  fan-out across N other clients with shard failover and fleet
  circuit health (the ROADMAP's fleet-scale item).  Shard endpoints
  parse from :data:`SHARDS_ENV_VAR` (``REPRO_SHARDS``) or CLI
  ``--shard`` flags into :class:`ShardSpec`\\ s.

A session is the only way into the engine: there is no module-global
solve entry point, so every caller says which cache stack it uses.

Quickstart::

    from repro.api import EngineConfig, Session

    with Session(EngineConfig(store_path="/data/cache")) as s:
        res = s.solve(instance)                      # MinBusy by default
        res = s.solve(instance, "maxthroughput", budget=42.0)
        batch = s.solve_many(instances, backend="process", workers=4)
        for res in s.solve_stream(instances):        # input order
            ...
        print(s.cache_stats())                       # per-tier counters

Swap in a server fleet without touching the call sites::

    from repro.api import RemoteSession, ShardedClient

    fleet = ShardedClient([RemoteSession(h, 8753) for h in hosts],
                          weights=[1, 2], hedge_delay=5.0)
    batch = fleet.solve_many(instances)              # same bytes out
    # or, straight from endpoint specs / REPRO_SHARDS:
    fleet = ShardedClient.from_specs(["10.0.0.1:8753", "local*2"])
"""

from .config import (
    FOLLOW_ENV,
    REPAIR_ENV_VAR,
    SHARDS_ENV_VAR,
    STORE_ENV_VAR,
    EngineConfig,
    ShardSpec,
    parse_bool_env,
    parse_shard_entry,
    parse_shards,
)
from .protocol import SolverClient
from .remote import RemoteSession, result_from_doc
from .session import Session
from .sharded import ShardedClient

__all__ = [
    "FOLLOW_ENV",
    "REPAIR_ENV_VAR",
    "SHARDS_ENV_VAR",
    "STORE_ENV_VAR",
    "EngineConfig",
    "ShardSpec",
    "SolverClient",
    "Session",
    "RemoteSession",
    "ShardedClient",
    "parse_bool_env",
    "parse_shard_entry",
    "parse_shards",
    "result_from_doc",
]
