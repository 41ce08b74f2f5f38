"""Command-line interface.

Usage (after ``pip install -e .``)::

    repro solve jobs.json                           # MinBusy, dispatcher
    repro solve jobs.csv --g 3                      # CSV needs --g
    repro solve jobs.json --objective capacity      # any registry family
    repro solve rects.json --objective rect2d
    repro solve jobs.json --objective energy --wake-cost 3
    repro solve a.json b.json c.json --batch        # engine batch solve
    repro solve *.json --batch --workers 4          # fan out misses
    repro throughput jobs.json --budget 42
    repro classify jobs.json                        # instance structure
    repro generate clique --n 50 --g 3 -o inst.json
    repro cache stats --json                        # persistent store
    repro serve --port 8753 --max-concurrency 32    # NDJSON solve service
    repro loadgen --port 8753 --requests 500        # validated load test
    repro loadgen --fuzz --duration 60              # divergence hunting
    repro loadgen --replay reproducers/repro-*.json # re-run a failure
    repro metrics --port 8753                       # Prometheus scrape
    repro metrics --format json --shard h1:8753 --shard h2:8753
    repro solve jobs.json --trace                   # print the span tree
    repro trace tail -n 30                          # recent spans
    repro trace show TRACE_ID                       # one reassembled tree

(``python -m repro ...`` works identically.)  Output is a
human-readable report on stdout; ``--json`` switches to a
machine-readable document (for piping into other tools).

``repro solve`` and ``repro serve`` each construct an explicit
:class:`repro.api.Session` from one shared flag set (``--backend``,
``--workers``, ``--deadline``, ``--cache-size``, ``--store`` /
``--no-store``) — no module-global engine state — and route every
objective through the pluggable registry plus fingerprint-keyed
caching.  With a persistent store attached (``--store DIR``, or the
``REPRO_CACHE_DIR`` environment variable) repeated invocations share
results across processes: the second ``repro solve`` of the same
instance is served from disk, observable in the ``repro cache stats``
hit counters.

Running a sharded fleet
-----------------------

Both front doors scale past one process by naming shard endpoints —
repeatable ``--shard`` flags, or the ``REPRO_SHARDS`` environment
variable (comma-separated; same grammar)::

    repro serve --port 8701 &                       # three plain shards
    repro serve --port 8702 &
    repro serve --port 8703 &

    repro solve *.json --batch \\
        --shard 127.0.0.1:8701 --shard 127.0.0.1:8702 \\
        --shard 127.0.0.1:8703                      # consistent-hash fan-out

    REPRO_SHARDS=10.0.0.1:8753,10.0.0.2:8753*2,local repro serve \\
        --port 8700                                 # a router in front

Entries are ``host:port`` or ``local`` (an in-process shard), each
with an optional ``*weight`` scaling its share of the consistent-hash
ring.  Routing is by content fingerprint, so content-identical
instances always hit the same shard's cache; a shard that dies
mid-batch has its slice re-routed to the survivors (``--hedge-delay
S`` additionally hedges slow shards), and results stay byte-identical
to an unsharded solve.  Fleet observability rides the same wire:
``repro cache stats --json --shard HOST:PORT ...`` reports per-shard
cache counters plus circuit health and an aggregate (a dead shard is
rendered as unreachable in the report, never a traceback), and the
NDJSON ``{"op": "health"}`` probe answers readiness per shard.

Exercising a live service
-------------------------

``repro loadgen`` closes the loop: it fans Zipf-skewed mixed-family
traffic — every registry family via the seeded workload generators,
with the paper's adversarial constructions in the cold tail — at a
live endpoint (or a ``--shard`` fleet, rotating away from dead
members mid-run), validates **every** response against a local oracle
session plus the registry verifier, and reports p50/p99 latency,
throughput, per-tier cache hit rates and orphaned-batch counters.
With ``--fuzz`` it additionally mutates instances and request framing
(oversized ids, near-zero deadlines, abandoned streams, dropped
connections) hunting for divergence; any failure is delta-debugged
down to a minimal reproducer file, and
``repro loadgen --replay FILE`` re-runs that exact request — exit 1
while the bug lives, exit 0 once it is fixed.

Observability
-------------

``repro metrics`` renders the unified exposition document — the
low-overhead metrics registry (solve counters/latency histograms,
tier probes, shard attempts, server request counts) merged with a
read-time projection of every existing ``cache_stats`` block — as
Prometheus text (``--format prom``, the default) or the pinned JSON
snapshot (``--format json``).  Point it at one server
(``--host``/``--port``), a fleet (repeatable ``--shard host:port``,
merged into an exact-sum aggregate), or nothing (the process-local
registry).

Tracing is off by default; ``repro solve --trace`` (or
``REPRO_TRACE=1``) turns it on, propagates the trace context over the
wire to every shard that negotiated the capability in ``hello``, and
prints the single reassembled span tree — client → router → per-shard
cache tiers and executors — after the solve report.  ``repro trace
tail``/``repro trace show TRACE_ID`` read the in-memory ring plus the
``REPRO_TRACE_DIR`` JSONL sink.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from .analysis.verify import verify_budget_schedule, verify_min_busy_schedule
from .core.bounds import combined_lower_bound
from .core.errors import InstanceError
from .core.instance import BudgetInstance, Instance
from .io import (
    FAMILY_FORMAT_OBJECTIVES,
    load_instance,
    load_instance_csv,
    load_objective_instance,
    save_instance,
)
from .obs.expo import sum_stats as _sum_stats

__all__ = ["main"]


def _load(path: str, g: Optional[int], budget: Optional[float]):
    if path.endswith(".csv"):
        if g is None:
            raise SystemExit("CSV input requires --g")
        return load_instance_csv(path, g, budget=budget)
    inst = load_instance(path)
    # CLI flags override file contents when provided.
    if g is not None and g != inst.g:
        if isinstance(inst, BudgetInstance):
            inst = BudgetInstance(jobs=inst.jobs, g=g, budget=inst.budget)
        else:
            inst = Instance(jobs=inst.jobs, g=g)
    if budget is not None:
        jobs = inst.jobs
        inst = BudgetInstance(jobs=jobs, g=inst.g, budget=budget)
    return inst


def _resolve_objective(name: str) -> str:
    from .core.registry import REGISTRY
    from .engine.objectives import ensure_registered

    ensure_registered()
    try:
        return REGISTRY.canonical(name)
    except InstanceError as exc:
        raise SystemExit(str(exc)) from exc


def _shard_specs(args: argparse.Namespace) -> list:
    """The fleet named by ``--shard`` flags, else ``REPRO_SHARDS``.

    Empty when neither names any shards (the single-session case).
    Malformed entries exit with the parser's actionable message — it
    names the offending source (``--shard`` or the variable) and the
    accepted grammar.
    """
    import os

    from .api import SHARDS_ENV_VAR, parse_shard_entry, parse_shards

    try:
        flags = getattr(args, "shard", None)
        if flags:
            return [
                parse_shard_entry(s, source="--shard") for s in flags
            ]
        raw = os.environ.get(SHARDS_ENV_VAR)
        if raw:
            return list(parse_shards(raw))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    return []


def session_from_args(
    args: argparse.Namespace,
    *,
    default_backend: str = "auto",
    include_deadline: bool = True,
):
    """One :class:`repro.api.Session` built from the shared engine flags.

    Both ``repro solve`` and ``repro serve`` construct their engine
    state here, an :class:`~repro.api.EngineConfig` built from the
    flags.  The store binding is resolved eagerly (inside ``Session``
    construction) so an unusable store directory (unwritable, or a
    path through a regular file) fails with an actionable message
    instead of a traceback mid-solve; an unenforceable
    ``--deadline``/``--backend`` combination fails the same way.
    ``include_deadline=False`` keeps the deadline out of the session
    (``repro serve`` enforces it per request in its own executor, so
    its batch backend may be serial/process).

    When ``--shard``/``REPRO_SHARDS`` names a fleet, the return value
    is a :class:`repro.api.ShardedClient` instead — same call surface,
    consistent-hash fan-out underneath (``repro serve`` unwraps its
    router session; ``repro solve`` uses it directly).  The store and
    LRU flags then shape the *router*; the shards own their own
    caches.
    """
    from .api import FOLLOW_ENV, EngineConfig, Session, ShardedClient

    specs = _shard_specs(args)

    if getattr(args, "no_store", False):
        store = None
    elif getattr(args, "store", None):
        store = args.store
    else:
        store = FOLLOW_ENV
    kwargs = {}
    if getattr(args, "cache_size", None) is not None:
        kwargs["cache_size"] = args.cache_size
    if include_deadline:
        kwargs["deadline"] = getattr(args, "deadline", None)
    try:
        config = EngineConfig(
            store_path=store,
            backend=args.backend or default_backend,
            workers=getattr(args, "workers", None),
            **kwargs,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if specs:
        if args.backend in ("serial", "process"):
            raise SystemExit(
                f"--backend {args.backend} cannot drive a shard fleet "
                "(the fleet executor does the fan-out); drop --backend "
                "or use auto/async alongside --shard/REPRO_SHARDS"
            )
        try:
            return ShardedClient.from_specs(
                specs,
                config=config,
                hedge_delay=getattr(args, "hedge_delay", None),
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        except OSError as exc:
            raise SystemExit(
                f"cannot assemble the shard fleet: {exc}\n"
                "every remote shard must be a live `repro serve` "
                "endpoint; start it, fix the address, or drop it from "
                "--shard/REPRO_SHARDS"
            ) from exc
    try:
        return Session(config)
    except OSError as exc:
        source = (
            f"--store {args.store}"
            if getattr(args, "store", None)
            else "REPRO_CACHE_DIR"
        )
        raise SystemExit(
            f"cannot use the result store directory from {source}: {exc}\n"
            "fix the directory, point REPRO_CACHE_DIR elsewhere, or pass "
            "--no-store to run without the persistent cache"
        ) from exc


def _solve_params(args: argparse.Namespace, objective: str) -> dict:
    params: dict = {}
    if objective == "maxthroughput" and args.budget is not None:
        params["budget"] = args.budget
    if objective == "energy":
        from .energy import PowerModel

        params["power"] = PowerModel(
            busy_power=args.busy_power,
            idle_power=args.idle_power,
            wake_cost=args.wake_cost,
        )
    return params


def _load_for_objective(path: str, objective: str, args: argparse.Namespace):
    if objective in FAMILY_FORMAT_OBJECTIVES:
        if path.endswith(".csv"):
            raise SystemExit(
                f"objective {objective!r} needs its JSON format "
                "(see repro.io); CSV is jobs-only"
            )
        inst = load_objective_instance(path, objective)
        if args.g is not None and args.g != inst.g:
            # Honor the capacity override for family formats too.
            import dataclasses

            inst = dataclasses.replace(inst, g=args.g)
        return inst
    budget = args.budget if objective == "maxthroughput" else None
    inst = _load(path, args.g, budget)
    if objective == "minbusy" and isinstance(inst, BudgetInstance):
        inst = inst.min_busy_instance
    return inst


def _n_machines(res) -> object:
    if res.schedule is not None:
        return res.schedule.n_machines()
    if res.detail and "n_machines" in res.detail:
        return res.detail["n_machines"]
    return None


def _cmd_solve(args: argparse.Namespace) -> int:
    """Solve instance files through an explicit engine session.

    When the session routes to remote shards (``--shard host:port``),
    each shard connection honors ``REPRO_WIRE`` — ``binary`` requires
    the frame upgrade, ``ndjson`` pins plain lines, ``auto`` (default)
    negotiates and transparently falls back; results are canonically
    identical either way.

    ``--trace`` turns span recording on for this invocation and
    prints the reassembled span tree (client → router → shards) to
    stderr after the report, keeping stdout pipeable.
    """
    if not getattr(args, "trace", False):
        return _run_solve(args)
    from .obs import trace as obs_trace

    # Tracing must be enabled before the session exists: remote shard
    # connections negotiate the trace capability in their hello at
    # connect time, inside session_from_args.
    obs_trace.enable_tracing()
    with obs_trace.span("cli.solve", files=len(args.instance)) as root:
        code = _run_solve(args)
    print(file=sys.stderr)
    print(obs_trace.render_tree(root.trace_id), file=sys.stderr)
    return code


def _run_solve(args: argparse.Namespace) -> int:
    objective = _resolve_objective(args.objective)
    session = session_from_args(args)
    if args.batch or len(args.instance) > 1:
        return _cmd_solve_batch(args, objective, session)

    path = args.instance[0]
    try:
        inst = _load_for_objective(path, objective, args)
    except (OSError, InstanceError) as exc:
        raise SystemExit(f"{path}: {exc}") from exc
    try:
        result = session.solve(
            inst,
            objective,
            **_solve_params(args, objective),
        )
    except (InstanceError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    except TimeoutError as exc:
        raise SystemExit(
            f"{exc}\nraise --deadline (or drop it) to let this "
            "instance finish"
        ) from exc

    if objective == "minbusy":
        # The classic report: independently re-verified cost + bound.
        cost = verify_min_busy_schedule(inst, result.schedule)
        lb = combined_lower_bound(inst)
        if args.json:
            doc = {
                "problem": "minbusy",
                "n": inst.n,
                "g": inst.g,
                "algorithm": result.algorithm,
                "guarantee": result.guarantee,
                "cost": cost,
                "lower_bound": lb,
                "machines": result.schedule.n_machines(),
                "cached": result.from_cache,
                "assignment": {
                    str(j.job_id): m
                    for j, m in result.schedule.assignment.items()
                },
            }
            print(json.dumps(doc, indent=2))
        else:
            print(f"instance      : {inst}")
            print(f"algorithm     : {result.algorithm}")
            print(f"guarantee     : {result.guarantee or 'exact'}")
            print(f"total busy    : {cost:.6g}")
            print(f"lower bound   : {lb:.6g}")
            print(f"machines used : {result.schedule.n_machines()}")
            if result.from_cache:
                print("cached        : yes")
            if args.gantt:
                from .analysis.gantt import render_gantt

                print(render_gantt(result.schedule))
        return 0

    # Generic registry-objective report.
    machines = _n_machines(result)
    if args.json:
        doc = {
            "problem": objective,
            "n": inst.n,
            "g": inst.g,
            "algorithm": result.algorithm,
            "guarantee": result.guarantee,
            "cost": result.cost,
            "throughput": result.throughput,
            "machines": machines,
            "cached": result.from_cache,
            "fingerprint": result.fingerprint,
        }
        if result.detail:
            doc["detail"] = {
                k: v
                for k, v in result.detail.items()
                if isinstance(v, (int, float, str))
            }
        print(json.dumps(doc, indent=2))
    else:
        print(f"objective     : {objective}")
        print(f"instance      : {inst}")
        print(f"algorithm     : {result.algorithm}")
        guarantee = (
            f"{result.guarantee:.4g}" if result.guarantee else "exact/heuristic"
        )
        print(f"guarantee     : {guarantee}")
        print(f"cost          : {result.cost:.6g}")
        print(f"scheduled     : {result.throughput} / {inst.n}")
        if machines is not None:
            print(f"machines used : {machines}")
        print(f"cached        : {'yes' if result.from_cache else 'no'}")
        if args.gantt and result.schedule is not None:
            from .analysis.gantt import render_gantt

            print(render_gantt(result.schedule))
    return 0


def _cmd_solve_batch(
    args: argparse.Namespace, objective: str, session
) -> int:
    """Any registry objective over many instance files, batched."""
    instances = []
    for path in args.instance:
        try:
            inst = _load_for_objective(path, objective, args)
        except (OSError, InstanceError) as exc:
            raise SystemExit(f"{path}: {exc}") from exc
        instances.append(inst)
    try:
        results = session.solve_many(
            instances,
            objective,
            **_solve_params(args, objective),
        )
    except (InstanceError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    except TimeoutError as exc:
        raise SystemExit(
            f"{exc}\nraise --deadline (or drop it) to let this "
            "batch finish"
        ) from exc
    if args.json:
        docs = [
            {
                "instance": path,
                "problem": objective,
                "n": inst.n,
                "g": inst.g,
                "algorithm": res.algorithm,
                "guarantee": res.guarantee,
                "cost": res.cost,
                "machines": _n_machines(res),
                "cached": res.from_cache,
                "fingerprint": res.fingerprint,
            }
            for path, inst, res in zip(args.instance, instances, results)
        ]
        print(json.dumps(docs, indent=2))
    else:
        width = max(len(p) for p in args.instance)
        for path, inst, res in zip(args.instance, instances, results):
            cached = " (cached)" if res.from_cache else ""
            print(
                f"{path:{width}s}  n={inst.n:<6d} g={inst.g:<3d} "
                f"{res.algorithm:22s} cost={res.cost:<12.6g} "
                f"machines={_n_machines(res)}{cached}"
            )
            if args.gantt and res.schedule is not None:
                from .analysis.gantt import render_gantt

                print(render_gantt(res.schedule))
    return 0


def _flat_items(stats: dict, prefix: str = ""):
    """``(dotted_key, value)`` leaves of a nested counters dict —
    ``wire.by_format.binary.hits`` instead of a dict repr inline."""
    for key, value in stats.items():
        if isinstance(value, dict):
            yield from _flat_items(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _scrape_fleet(
    entries: List[str], ask: Callable[[Any], Any]
) -> List[Tuple[str, Any, str]]:
    """``ask(client)`` of every ``--shard host:port`` serve endpoint.

    Returns ``(host:port, answer, error)`` per entry in ``--shard``
    order; ``answer`` is None (and ``error`` says why) for an endpoint
    that did not answer.  ``local`` entries name no server and are
    rejected before any connection; an entirely dark fleet is fatal.
    """
    from .api import parse_shard_entry
    from .service.client import ServiceClient, ServiceError

    try:
        specs = [parse_shard_entry(s, source="--shard") for s in entries]
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if any(spec.is_local for spec in specs):
        raise SystemExit(
            "--shard local has no server to ask; point --shard at "
            "`repro serve` endpoints (host:port)"
        )
    answers: List[Tuple[str, Any, str]] = []
    for spec in specs:
        key = f"{spec.host}:{spec.port}"
        try:
            with ServiceClient(
                spec.host, spec.port, timeout=10.0
            ) as client:
                answers.append((key, ask(client), ""))
        except (OSError, ServiceError, InstanceError) as exc:
            # InstanceError covers a shard dying mid-response: the
            # partial line fails protocol decoding, and that is the
            # same operational fact as a refused connection — the
            # shard is down, which the caller reports instead of a
            # traceback.
            answers.append((key, None, str(exc)))
    if all(answer is None for _, answer, _ in answers):
        raise SystemExit(
            "none of the --shard endpoints answered:\n"
            + "\n".join(f"  {key}: {error}" for key, _, error in answers)
            + "\nstart the shards with `repro serve` or fix the addresses"
        )
    return answers


def _cmd_cache_sharded_stats(args: argparse.Namespace) -> int:
    """``repro cache stats`` against live serve endpoints.

    Each ``--shard host:port`` is asked for its cache counters and its
    ``health`` snapshot over the wire; the report carries the
    per-shard breakdown plus a counters-only aggregate.  Unreachable
    shards are reported, not fatal — unless the whole fleet is dark.
    """
    answers = _scrape_fleet(
        args.shard,
        lambda client: {
            "stats": client.cache_stats(),
            "health": client.health(),
        },
    )
    shards: dict = {}
    for key, answer, error in answers:
        if answer is None:
            shards[key] = {
                "reachable": False,
                "state": "unreachable",
                "error": error,
            }
        else:
            shards[key] = {"reachable": True, "state": "ok", **answer}
    reachable = sum(answer is not None for _, answer, _ in answers)
    aggregate = _sum_stats(
        [s["stats"] for s in shards.values() if s["reachable"]]
    )
    # Fleet circuit summary: how many endpoints answered, how many are
    # dark — in the aggregate, so one ejected shard degrades the report
    # instead of aborting it.
    aggregate["fleet"] = {
        "reachable": reachable,
        "unreachable": len(answers) - reachable,
    }
    doc = {
        "n_shards": len(answers),
        "reachable": reachable,
        "shards": shards,
        "aggregate": aggregate,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print(f"shards      : {reachable}/{len(answers)} reachable")
    for key, info in shards.items():
        if not info["reachable"]:
            print(f"{key:21s}: unreachable ({info['error']})")
            continue
        health = info["health"]
        tiers = ", ".join(
            f"{tier} {stats.get('hits', 0)}h/{stats.get('misses', 0)}m"
            for tier, stats in info["stats"].items()
            if isinstance(stats, dict) and "hits" in stats
        )
        print(
            f"{key:21s}: {health.get('status', '?')} "
            f"(pid {health.get('pid', '?')}, "
            f"inflight {health.get('inflight', '?')}) — {tiers}"
        )
        transport = info["stats"].get("wire_transport")
        if isinstance(transport, dict):
            print(
                f"{'':21s}  wire {transport.get('mode', '?')}: "
                f"{transport.get('ndjson_connections', 0)} ndjson / "
                f"{transport.get('binary_connections', 0)} binary conns, "
                f"binary {transport.get('binary_bytes_in', 0)}B in / "
                f"{transport.get('binary_bytes_out', 0)}B out"
            )
    for tier, stats in doc["aggregate"].items():
        if isinstance(stats, dict):
            rendered = ", ".join(
                f"{k}={v}" for k, v in sorted(_flat_items(stats))
            )
            print(f"aggregate {tier:11s}: {rendered}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect/clear the persistent result store."""
    from .engine.store import ResultStore, default_store_dir

    if getattr(args, "shard", None):
        if args.action != "stats":
            raise SystemExit(
                "--shard only applies to `repro cache stats`; clear/"
                "path operate on a local store directory"
            )
        return _cmd_cache_sharded_stats(args)

    def _open_store(root: Path) -> "ResultStore":
        try:
            return ResultStore(root)
        except OSError as exc:
            raise SystemExit(
                f"cannot open the result store at {root}: {exc}\n"
                "fix the directory or pass --dir DIR to pick another one"
            ) from exc

    root = Path(args.dir) if args.dir else default_store_dir()
    if args.action == "path":
        print(root)
        return 0
    if args.action == "clear":
        if root.exists():
            _open_store(root).clear()
            print(f"cleared {root}")
        else:
            print(f"{root}: no store")
        return 0
    # stats
    if root.exists():
        s = _open_store(root).stats()
        doc = {
            "path": s.path,
            "exists": True,
            "hits": s.hits,
            "misses": s.misses,
            "puts": s.puts,
            "entries": s.entries,
            "segments": s.segments,
            "total_bytes": s.total_bytes,
        }
    else:
        doc = {
            "path": str(root),
            "exists": False,
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "entries": 0,
            "segments": 0,
            "total_bytes": 0,
        }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for k, v in _flat_items(doc):
            print(f"{k:12s}: {v}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render the metrics exposition: local, one server, or a fleet.

    ``--shard host:port`` (repeatable) scrapes every endpoint's
    ``metrics`` wire op and merges the snapshot-shaped documents into
    one exact-sum aggregate — the same deterministic merge shard
    counters get everywhere else.  ``--port`` scrapes a single server;
    with neither the process-local registry is rendered (mostly useful
    for embedding checks).  Unreachable fleet members degrade the
    aggregate with a stderr warning; an entirely dark fleet is fatal.
    """
    from .obs import expo as obs_expo
    from .obs import metrics as obs_metrics

    docs: List[dict] = []
    if getattr(args, "shard", None):
        for key, answer, error in _scrape_fleet(
            args.shard, lambda client: client.metrics()
        ):
            if answer is None:
                print(
                    f"warning: unreachable shard {key}: {error}",
                    file=sys.stderr,
                )
            else:
                docs.append(answer)
    elif args.port is not None:
        from .service.client import ServiceClient, ServiceError

        try:
            with ServiceClient(
                args.host, args.port, timeout=10.0
            ) as client:
                docs.append(client.metrics())
        except (OSError, ServiceError, InstanceError) as exc:
            raise SystemExit(
                f"cannot scrape {args.host}:{args.port}: {exc}\n"
                "start the server with `repro serve` or fix "
                "--host/--port"
            ) from exc
    else:
        docs.append(obs_expo.metrics_document(obs_metrics.REGISTRY))
    merged = (
        docs[0] if len(docs) == 1 else obs_metrics.merge_snapshots(docs)
    )
    if args.format == "json":
        print(json.dumps(obs_expo.render_json(merged), indent=2))
    else:
        sys.stdout.write(obs_expo.render_prometheus(merged))
    return 0


def _collect_trace_spans(args: argparse.Namespace) -> List[dict]:
    """Spans from the in-process ring plus the JSONL sink files.

    The sink directory comes from ``--dir`` or ``REPRO_TRACE_DIR``;
    one ``spans-<pid>.jsonl`` per traced process.  Duplicate span ids
    (a span both buffered locally and persisted) collapse; malformed
    sink lines are skipped, not fatal — a half-written final line is
    normal while a traced process is still running.
    """
    from .obs import trace as obs_trace

    spans = list(obs_trace.ring_spans())
    seen = {(s.get("trace_id"), s.get("span_id")) for s in spans}
    root = args.dir or obs_trace.sink_dir()
    if root:
        for path in sorted(Path(root).glob("spans-*.jsonl")):
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(doc, dict):
                    continue
                ident = (doc.get("trace_id"), doc.get("span_id"))
                if ident in seen:
                    continue
                seen.add(ident)
                spans.append(doc)
    spans.sort(key=lambda s: (s.get("start", 0.0), s.get("span_id", "")))
    return spans


def _cmd_trace(args: argparse.Namespace) -> int:
    """Inspect recorded trace spans: ``tail`` | ``show TRACE_ID``."""
    from .obs import trace as obs_trace

    if args.action == "show" and not args.trace_id:
        raise SystemExit(
            "`repro trace show` needs a TRACE_ID — find one with "
            "`repro trace tail`"
        )
    spans = _collect_trace_spans(args)
    if args.action == "tail":
        tail = spans[-args.n :] if args.n > 0 else spans
        if args.json:
            print(json.dumps(tail, indent=2))
            return 0
        if not tail:
            print(
                "no spans recorded — run with REPRO_TRACE=1 (and set "
                "REPRO_TRACE_DIR to persist spans across processes)"
            )
            return 0
        for s in tail:
            attrs = s.get("attrs") or {}
            extra = "".join(
                f" {k}={v}" for k, v in sorted(attrs.items())
            )
            print(
                f"{s.get('trace_id')} {s.get('name', '?'):24s} "
                f"{s.get('duration_ms', 0.0):9.2f}ms "
                f"pid={s.get('pid', '?')}{extra}"
            )
        return 0
    matching = [s for s in spans if s.get("trace_id") == args.trace_id]
    if not matching:
        raise SystemExit(
            f"trace {args.trace_id}: no spans in the ring or the sink; "
            "check the id (`repro trace tail`) and that REPRO_TRACE_DIR "
            "pointed at the same directory when the trace ran"
        )
    if args.json:
        print(
            json.dumps(
                obs_trace.span_tree(args.trace_id, matching), indent=2
            )
        )
    else:
        print(obs_trace.render_tree(args.trace_id, matching))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio solve service (blocking until interrupted).

    ``--wire`` (or ``REPRO_WIRE``) picks the formats offered to
    clients: ``auto``/``binary`` accept the negotiated binary frame
    upgrade (NDJSON connections always stay accepted — there is no
    flag day), ``ndjson`` declines every upgrade, which is how a
    mixed fleet keeps byte-identical canonical results while rolling
    the binary wire out shard by shard.
    """
    from .service.server import SolveServer

    # The server owns an explicit Session built from the same shared
    # flags as `repro solve`.  The deadline stays out of the session —
    # the server enforces it per request in its own async executor, so
    # serial/process batch backends remain valid alongside --deadline.
    # A --shard/REPRO_SHARDS fleet arrives as a ShardedClient; the
    # server speaks to its router session (whose default executor is
    # the fleet), which is what makes this process a sharding router:
    # local tiers and request coalescing in front, consistent-hash
    # fan-out with failover behind.
    session = session_from_args(
        args, default_backend="async", include_deadline=False
    )
    from .api import ShardedClient

    fleet = None
    if isinstance(session, ShardedClient):
        fleet = session
        session = fleet.session
    try:
        # Executor knobs (backend, workers) derive from the session's
        # config — one source of truth for both front doors.  An
        # explicit --backend is passed through so `--backend auto`
        # keeps meaning the engine's auto contract for batches (the
        # session-config derivation maps auto to the serving default).
        server = SolveServer(
            host=args.host,
            port=args.port,
            backend=args.backend,
            max_concurrency=args.max_concurrency,
            deadline=args.deadline,
            session=session,
            max_orphaned_batches=args.max_orphaned_batches,
            inject_fault=args.inject_fault,
            wire=args.wire,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc

    def _announce(bound) -> None:
        # Fired post-bind, so the banner is a real readiness signal
        # (and reports the resolved port when --port 0 was asked).
        sharded = f", shards={len(fleet)}" if fleet is not None else ""
        print(
            f"repro service listening on {args.host}:{bound.port} "
            f"(backend={server.backend}, "
            f"max_concurrency={args.max_concurrency}{sharded})",
            flush=True,
        )

    try:
        server.run(_announce)
    except OSError as exc:
        raise SystemExit(
            f"cannot serve on {args.host}:{args.port}: {exc}\n"
            "the port is occupied or the interface cannot be bound; "
            "pick another one with --port/--host"
        ) from exc
    finally:
        if fleet is not None:
            fleet.close()
    return 0


def _loadgen_targets(args: argparse.Namespace) -> list:
    """The endpoints loadgen drives: ``--shard`` flags, else host:port."""
    from .api import parse_shard_entry

    flags = getattr(args, "shard", None)
    if not flags:
        return [(args.host, args.port)]
    targets = []
    try:
        for raw in flags:
            spec = parse_shard_entry(raw, source="--shard")
            if spec.is_local:
                raise SystemExit(
                    "loadgen drives live sockets; --shard local has "
                    "nothing to connect to (use host:port endpoints)"
                )
            targets.append((spec.host, spec.port))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    return targets


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive validated traffic at a live service — or replay a repro.

    Exit code contract: ``--replay`` exits 1 while the recorded
    failure still reproduces and 0 once it stops (red while broken —
    usable directly as a regression guard); a traffic run exits 1 on
    any divergence, unexpected error, or unanswered request.
    """
    from .loadgen import (
        LoadgenOptions,
        TrafficModel,
        replay_reproducer,
        run_loadgen,
    )
    from .service.protocol import resolve_wire

    targets = _loadgen_targets(args)

    if args.replay:
        try:
            outcome, report = replay_reproducer(
                Path(args.replay), targets, timeout=args.timeout
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        except ConnectionError as exc:
            raise SystemExit(str(exc)) from exc
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"reproducer : {report['reproducer']}")
            print(f"objective  : {report['objective']}")
            recorded = report.get("recorded_failure", {})
            print(
                f"recorded   : {recorded.get('status', '?')} — "
                f"{recorded.get('detail', '')}"
            )
            print(f"outcome    : {outcome.status} — {outcome.detail}")
            print(
                "reproduced : yes (the bug is still live)"
                if report["reproduced"]
                else "reproduced : no (the failure no longer occurs)"
            )
        return 1 if report["reproduced"] else 0

    try:
        traffic = TrafficModel(
            seed=args.seed,
            corpus_size=args.corpus_size,
            zipf=args.zipf,
            solve_many_fraction=args.solve_many_fraction,
            fuzz=args.fuzz,
            fuzz_fraction=args.fuzz_fraction,
            # Frame corruptions only make sense when frames can be
            # negotiated at all.
            binary_fuzz=(
                args.fuzz and resolve_wire(args.wire) != "ndjson"
            ),
        )
        options = LoadgenOptions(
            targets=targets,
            duration=args.duration,
            max_requests=args.requests or None,
            concurrency=args.concurrency,
            timeout=args.timeout,
            wire=args.wire,
            minimize=not args.no_minimize,
            reproducer_dir=(
                Path(args.reproducer_dir) if args.reproducer_dir else None
            ),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    try:
        report = run_loadgen(options, traffic)
    except ConnectionError as exc:
        raise SystemExit(
            f"{exc}\nstart the service with `repro serve` or point "
            "--host/--port/--shard at a live one"
        ) from exc

    validation = report["validation"]
    transport = report["transport"]
    clean = (
        validation["divergences"] == 0
        and validation["unexpected_errors"] == 0
        and transport["failed"] == 0
    )
    if args.json:
        print(json.dumps(report, indent=2))
        return 0 if clean else 1
    latency = report["latency_ms"]
    print(f"targets    : {', '.join(report['targets'])}")
    print(
        f"traffic    : {report['answered']}/{report['requests']} answered "
        f"in {report['wall_seconds']:.1f}s "
        f"({report['rps']:.1f} req/s, "
        f"{report['bytes_per_sec'] / 1024:.1f} KiB/s)"
    )
    print(
        f"latency    : p50 {latency['p50_ms']:.1f}ms  "
        f"p99 {latency['p99_ms']:.1f}ms  max {latency['max_ms']:.1f}ms"
    )
    print(
        f"validation : {validation['validated']} validated, "
        f"{validation['expected_errors']} expected errors, "
        f"{validation['divergences']} divergences, "
        f"{validation['unexpected_errors']} unexpected errors "
        f"({validation['validated_fraction']:.1%} clean)"
    )
    print(
        f"transport  : {transport['retries']} retries, "
        f"{transport['reconnects']} reconnects, "
        f"{transport['abandoned']} abandoned, "
        f"{transport['dropped']} dropped, "
        f"{transport['failed']} failed"
    )
    wire = report.get("wire") or {}
    if wire:
        conns = wire.get("connections", {})
        print(
            f"wire       : {wire.get('mode', '?')} "
            f"({conns.get('binary', 0)} binary / "
            f"{conns.get('ndjson', 0)} ndjson conns, "
            f"{wire.get('frame_mutations', 0)} frame mutations)"
        )
    for tier, stats in sorted(report["tiers"].items()):
        print(
            f"tier {tier:10s}: {stats['hits']:.0f}h/{stats['misses']:.0f}m "
            f"({stats['hit_rate']:.1%} hit)"
        )
    orphaned = report.get("orphaned_batches") or {}
    if orphaned:
        rendered = ", ".join(
            f"{k}={v:.0f}" for k, v in sorted(orphaned.items())
        )
        print(f"orphans    : {rendered}")
    for failure in report["failures"]:
        print(
            f"FAILURE    : {failure['status']} "
            f"[{failure['family']}/{failure['op']}"
            f"{'/' + failure['mutation'] if failure['mutation'] else ''}] "
            f"{failure['detail']}"
        )
    for path in report["reproducers"]:
        print(f"reproducer : {path}  (re-run: repro loadgen --replay {path})")
    return 0 if clean else 1


def _cmd_throughput(args: argparse.Namespace) -> int:
    from .engine.dispatch import pick_throughput_solver

    inst = _load(args.instance, args.g, args.budget)
    if not isinstance(inst, BudgetInstance):
        raise SystemExit(
            "throughput needs a budget (--budget or a 'budget' key in JSON)"
        )
    name, solver, _guarantee = pick_throughput_solver(inst)
    sched = solver(inst)
    tput, cost = verify_budget_schedule(inst, sched)
    if args.json:
        doc = {
            "problem": "maxthroughput",
            "n": inst.n,
            "g": inst.g,
            "budget": inst.budget,
            "algorithm": name,
            "throughput": tput,
            "cost": cost,
            "scheduled_job_ids": sorted(
                j.job_id for j in sched.scheduled_jobs
            ),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"instance      : {inst}")
        print(f"algorithm     : {name}")
        print(f"scheduled     : {tput} / {inst.n} jobs")
        print(f"busy used     : {cost:.6g} <= {inst.budget:.6g}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    inst = _load(args.instance, args.g, None)
    base = (
        inst.min_busy_instance if isinstance(inst, BudgetInstance) else inst
    )
    doc = {
        "n": base.n,
        "g": base.g,
        "is_clique": base.is_clique,
        "is_proper": base.is_proper,
        "is_proper_clique": base.is_proper_clique,
        "one_sided": base.one_sided,
        "is_connected": base.is_connected,
        "components": len(base.components()),
        "total_length": base.total_length,
        "span": base.span,
        "lower_bound": combined_lower_bound(base),
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for k, v in doc.items():
            print(f"{k:14s}: {v}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads import (
        random_clique_instance,
        random_general_instance,
        random_one_sided_instance,
        random_proper_clique_instance,
        random_proper_instance,
    )

    gens = {
        "general": random_general_instance,
        "clique": random_clique_instance,
        "proper": random_proper_instance,
        "proper-clique": random_proper_clique_instance,
        "one-sided": random_one_sided_instance,
    }
    inst = gens[args.kind](args.n, args.g, seed=args.seed)
    save_instance(inst, args.output)
    print(f"wrote {inst} to {args.output}")
    return 0


def _engine_flags_parent() -> argparse.ArgumentParser:
    """The engine flags `repro solve` and `repro serve` share.

    One argparse parent → one :class:`repro.api.EngineConfig` → one
    :class:`repro.api.Session`, so the two front doors accept and honor
    the same knobs (``--backend``, ``--workers``, ``--deadline``,
    ``--cache-size``, ``--store``/``--no-store``) with the same
    semantics and the same actionable failure messages.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--backend",
        default=None,
        choices=["auto", "serial", "process", "async"],
        help="executor backend (solve default: auto — processes iff "
        "--workers >= 2; serve default: async — the shared coalescing "
        "executor; all backends return identical results)",
    )
    parent.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the process backend / concurrency "
        "bound for the async backend (default: in-process)",
    )
    parent.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-solve deadline in seconds (default: none; needs a "
        "backend that can enforce it — async, or auto which then "
        "selects async)",
    )
    parent.add_argument(
        "--cache-size",
        type=int,
        default=None,
        metavar="N",
        help="bound of the in-process result LRU (default 1024)",
    )
    parent.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="attach the persistent result store at DIR "
        "(default: $REPRO_CACHE_DIR when set)",
    )
    parent.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent store even if REPRO_CACHE_DIR is set",
    )
    parent.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="SPEC",
        help="add a fleet shard: 'host:port' (a live `repro serve`) or "
        "'local' (in-process), optionally '*weight' for its share of "
        "the consistent-hash ring; repeatable — without flags, "
        "REPRO_SHARDS (comma-separated, same grammar) is read instead",
    )
    parent.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="S",
        help="with shards: hedge a shard's batch onto another shard "
        "after S seconds without an answer (default: no hedging)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Busy-time scheduling (Mertzios et al., IPDPS 2012)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    engine_flags = _engine_flags_parent()

    sp = sub.add_parser(
        "solve",
        help="solve any registered objective via the engine",
        parents=[engine_flags],
    )
    sp.add_argument(
        "instance", nargs="+", help="JSON or CSV instance file(s)"
    )
    sp.add_argument(
        "--objective",
        default="minbusy",
        metavar="NAME",
        help="objective family: minbusy (default), throughput, capacity, "
        "rect2d, ring, tree, flexible, energy — any registered name or "
        "alias; unknown names list the registry",
    )
    sp.add_argument("--g", type=int, default=None, help="capacity override")
    sp.add_argument(
        "--budget",
        type=float,
        default=None,
        help="busy-time budget (throughput objective)",
    )
    sp.add_argument(
        "--busy-power", type=float, default=1.0,
        help="energy objective: power while busy",
    )
    sp.add_argument(
        "--idle-power", type=float, default=0.3,
        help="energy objective: power while idle",
    )
    sp.add_argument(
        "--wake-cost", type=float, default=2.0,
        help="energy objective: wake-up cost",
    )
    sp.add_argument("--json", action="store_true")
    sp.add_argument(
        "--gantt", action="store_true", help="ASCII Gantt chart of the result"
    )
    sp.add_argument(
        "--batch",
        action="store_true",
        help="solve through the batch engine (implied by multiple files)",
    )
    sp.add_argument(
        "--trace",
        action="store_true",
        help="record trace spans for this solve (client, router, and "
        "every shard that negotiates the capability) and print the "
        "reassembled span tree to stderr",
    )
    sp.set_defaults(func=_cmd_solve)

    cc = sub.add_parser(
        "cache", help="persistent result store: stats | clear | path"
    )
    cc.add_argument("action", choices=["stats", "clear", "path"])
    cc.add_argument(
        "--dir",
        default=None,
        help="store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/store)",
    )
    cc.add_argument("--json", action="store_true")
    cc.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="for `stats`: ask live `repro serve` endpoint(s) over the "
        "wire instead of reading a local store directory (repeatable; "
        "reports per-shard counters, health, and an aggregate)",
    )
    cc.set_defaults(func=_cmd_cache)

    sv = sub.add_parser(
        "serve",
        help="run the NDJSON solve service over a socket",
        parents=[engine_flags],
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8753, help="TCP port (default 8753)"
    )
    sv.add_argument(
        "--max-concurrency",
        type=int,
        default=16,
        help="solves in flight at once (default 16)",
    )
    sv.add_argument(
        "--max-orphaned-batches",
        type=int,
        default=8,
        metavar="N",
        help="serial/process solve_many batches allowed to keep "
        "computing after their request's deadline expired; at the cap "
        "new deadline-bearing batches are rejected (default 8)",
    )
    sv.add_argument(
        "--inject-fault",
        default=None,
        metavar="OBJECTIVE[:DELTA]",
        help="(testing) perturb served cost documents for one "
        "objective by DELTA (default 1.0) — a deliberate serving-layer "
        "bug for `repro loadgen` to catch",
    )
    sv.add_argument(
        "--wire",
        choices=("auto", "ndjson", "binary"),
        default=None,
        help="wire formats offered to clients: auto/binary accept the "
        "negotiated binary frame upgrade (NDJSON always stays "
        "accepted), ndjson declines it (default: REPRO_WIRE or auto)",
    )
    sv.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="on SIGTERM: stop accepting connections, give in-flight "
        "requests up to S seconds to finish, then exit 0 "
        "(default 10)",
    )
    sv.set_defaults(func=_cmd_serve)

    mt = sub.add_parser(
        "metrics",
        help="metrics exposition: Prometheus text or pinned JSON",
        description="Render the unified metrics document — registry "
        "counters/histograms merged with a read-time projection of "
        "the cache_stats blocks — for the local process, one live "
        "`repro serve` endpoint (--port), or a fleet (--shard ..., "
        "merged into an exact-sum aggregate).",
    )
    mt.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format: Prometheus text exposition (default) or "
        "the pinned JSON snapshot document",
    )
    mt.add_argument("--host", default="127.0.0.1")
    mt.add_argument(
        "--port",
        type=int,
        default=None,
        help="scrape one live `repro serve` endpoint over the wire",
    )
    mt.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="scrape a fleet endpoint (repeatable); documents merge "
        "into one aggregate, unreachable members degrade with a "
        "warning",
    )
    mt.set_defaults(func=_cmd_metrics)

    tr = sub.add_parser(
        "trace",
        help="inspect recorded trace spans: tail | show TRACE_ID",
        description="Read spans from the in-process ring and the "
        "REPRO_TRACE_DIR JSONL sink. `tail` lists the most recent "
        "spans (one line each, trace id first); `show TRACE_ID` "
        "renders one trace's reassembled span tree.",
    )
    tr.add_argument("action", choices=["tail", "show"])
    tr.add_argument("trace_id", nargs="?")
    tr.add_argument(
        "-n",
        type=int,
        default=20,
        help="tail: spans to list (default 20; 0 = all)",
    )
    tr.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="span sink directory (default: $REPRO_TRACE_DIR)",
    )
    tr.add_argument("--json", action="store_true")
    tr.set_defaults(func=_cmd_trace)

    lg = sub.add_parser(
        "loadgen",
        help="drive validated adversarial traffic at a live service",
        description="Fan Zipf-skewed mixed-family traffic (with the "
        "paper's adversarial constructions in the tail) at a live "
        "`repro serve` endpoint or shard fleet; validate every "
        "response against a local oracle plus the registry verifier; "
        "optionally fuzz instances and request framing, shrinking any "
        "divergence into a reproducer file that --replay re-runs.",
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument(
        "--port", type=int, default=8753, help="TCP port (default 8753)"
    )
    lg.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="drive a fleet endpoint instead of --host/--port "
        "(repeatable; workers spread over the endpoints and rotate "
        "away from dead ones)",
    )
    lg.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="run for S seconds (combines with --requests; first "
        "bound reached stops the run)",
    )
    lg.add_argument(
        "--requests",
        type=int,
        default=200,
        metavar="N",
        help="stop after N requests (default 200; 0 = unbounded, "
        "then --duration must be set)",
    )
    lg.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="concurrent connections (default 8)",
    )
    lg.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request timeout in seconds (default 30)",
    )
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument(
        "--corpus-size",
        type=int,
        default=48,
        metavar="N",
        help="instance documents in the corpus (default 48, incl. the "
        "adversarial tail)",
    )
    lg.add_argument(
        "--zipf",
        type=float,
        default=1.2,
        help="popularity skew exponent (default 1.2)",
    )
    lg.add_argument(
        "--solve-many-fraction",
        type=float,
        default=0.15,
        metavar="F",
        help="fraction of requests sent as solve_many batches "
        "(default 0.15)",
    )
    lg.add_argument(
        "--fuzz",
        action="store_true",
        help="mutate instances and request framing hunting for "
        "divergence between the service and the local oracle",
    )
    lg.add_argument(
        "--fuzz-fraction",
        type=float,
        default=0.35,
        metavar="F",
        help="with --fuzz: fraction of requests mutated (default 0.35)",
    )
    lg.add_argument(
        "--wire",
        choices=("auto", "ndjson", "binary"),
        default=None,
        help="transport the workers negotiate: binary requires the "
        "upgrade, ndjson never negotiates, auto upgrades when the "
        "server accepts; with --fuzz the binary framing itself is "
        "mutated too (default: REPRO_WIRE or auto)",
    )
    lg.add_argument(
        "--reproducer-dir",
        default="reproducers",
        metavar="DIR",
        help="where minimized failure reproducers are written "
        "(default ./reproducers; empty string disables)",
    )
    lg.add_argument(
        "--no-minimize",
        action="store_true",
        help="record failures without shrinking them to reproducers",
    )
    lg.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run one reproducer file against the target; exits 1 "
        "while the recorded failure still reproduces, 0 once fixed",
    )
    lg.add_argument("--json", action="store_true")
    lg.set_defaults(func=_cmd_loadgen)

    tp = sub.add_parser("throughput", help="MaxThroughput under a budget")
    tp.add_argument("instance")
    tp.add_argument("--g", type=int, default=None)
    tp.add_argument("--budget", type=float, default=None)
    tp.add_argument("--json", action="store_true")
    tp.set_defaults(func=_cmd_throughput)

    cp = sub.add_parser("classify", help="report instance structure")
    cp.add_argument("instance")
    cp.add_argument("--g", type=int, default=None)
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(func=_cmd_classify)

    gp = sub.add_parser("generate", help="write a random instance file")
    gp.add_argument(
        "kind",
        choices=["general", "clique", "proper", "proper-clique", "one-sided"],
    )
    gp.add_argument("--n", type=int, default=20)
    gp.add_argument("--g", type=int, default=3)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("-o", "--output", default="instance.json")
    gp.set_defaults(func=_cmd_generate)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro ... | head`) closed early; that
        # is not an error.  Point stdout at devnull so the interpreter's
        # exit-time flush doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
