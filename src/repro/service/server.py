"""The asyncio solve service: NDJSON over TCP, stdlib only.

One :class:`SolveServer` process serves every registered objective
family over a socket, running the engine's layered core per request —
``plan -> tiered-cache probe -> executor -> install`` — with the
:class:`~repro.engine.executors.AsyncQueueExecutor` in the execute
slot, so the server keeps accepting connections while solves grind in
worker threads, concurrency stays bounded, per-request deadlines are
enforced, and duplicate concurrent solves of the same fingerprint
compute once (in-flight coalescing).

Request handling:

* ``solve`` — the layered cycle above; warm-cache requests never touch
  the executor.
* ``solve_many`` — per-item fan-out through the same coalescing
  executor; responses stream back one line per result *in input
  order*, so clients consume results while later items still compute.
* ``cache_stats`` — per-tier counters of the live cache stack.
* ``objectives`` / ``ping`` / ``health`` — introspection, liveness,
  and the readiness probe (serving config, in-flight load, and the
  downstream shard-fleet summary when this server routes to one).

Connections are independent asyncio tasks; within a connection,
pipelined requests are handled concurrently and responses (tagged
with the request's ``id``) are written under a per-connection lock.
Every per-request failure becomes an error *response line* — a bad
request never tears down the connection, let alone the server.

Both framings (NDJSON lines, negotiated binary frames) only cut bytes
off the socket; one request step then runs replay probe -> decode ->
hello -> dispatch for either.  The replay tier is one LRU of
pre-encoded ``solve`` responses keyed on the request minus its
envelope (``id``, ``trace``, ``deadline``): a request without an
envelope keys on its raw bytes and is answered before decoding, while
an id-carrying, traced or deadline-bearing repeat finds the same entry
after decoding and gets it back with its own id (and spans).

``repro serve`` is the CLI front end; tests and benchmarks use
:func:`SolveServer.run_in_thread` to host a live server in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Awaitable, Callable, Dict, List, Optional

from ..core.errors import InstanceError
from ..engine.cache import LRUCache
from ..engine.executors import BACKENDS, AsyncQueueExecutor
from ..io import objective_instance_from_dict
from ..obs import expo as obs_expo
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .binary import (
    HEADER_BYTES,
    INTERN_VERSION,
    OP_DOC,
    TRACE_VERSION,
    WIRE_VERSION,
    InternPool,
    decode_binary,
    decode_payload,
    encode_binary,
    intern_frame,
    parse_header,
    resolve_wire,
)
from .protocol import (
    MAX_LINE_BYTES,
    deadline_from_doc,
    decode,
    encode,
    error_doc,
    params_from_doc,
    result_to_doc,
)

__all__ = ["SolveServer", "ServerHandle"]

Send = Callable[[Dict[str, Any]], Awaitable[None]]

_REQUESTS = obs_metrics.counter(
    "repro_server_requests_total",
    "Wire requests handled, by op and status",
    labels=("op", "status"),
)

#: Per-request fields that never change a solve's answer; the replay
#: tier keys on the request without them.
_ENVELOPE = ("id", "trace", "deadline")

#: Entries the replay tier keeps (see ``SolveServer.response_cache``).
_RESPONSE_CACHE_SIZE = 4096


class _Connection:
    """One client connection: its negotiated state and its writer.

    ``wire`` flips from ``"ndjson"`` to ``"binary"`` on an accepted
    hello (after in-flight responses drain, so every response before
    the flip is a line and every one after is a frame); ``tx``/``rx``
    are the column-intern pools (responses out / requests in) when the
    hello negotiated interning, and ``trace`` whether it negotiated
    trace propagation.
    """

    def __init__(
        self, writer: asyncio.StreamWriter, transport: Dict[str, int]
    ) -> None:
        self.writer = writer
        self.transport = transport
        self.lock = asyncio.Lock()
        self.wire = "ndjson"
        self.trace = False
        self.tx: Optional[InternPool] = None
        self.rx: Optional[InternPool] = None
        self.counted = False  # tallied in *_connections yet
        self.tasks: List["asyncio.Task"] = []

    async def send(self, doc: Dict[str, Any]) -> None:
        await self.send_bytes(
            encode_binary(doc) if self.wire == "binary" else encode(doc)
        )

    async def send_bytes(self, data: bytes) -> None:
        async with self.lock:
            if self.wire == "binary":
                # Interning covers every outgoing frame — fresh
                # encodings and replays alike (the replay tier stores
                # canonical frames) — so the client's receive pool sees
                # one deterministic blob sequence.  It runs under the
                # write lock: pool registration order must match write
                # order, or a REF could reach the client before its raw
                # bytes.
                if self.tx is not None:
                    data = intern_frame(data, self.tx, self.transport)
                self.transport["binary_bytes_out"] += len(data)
            self.writer.write(data)
            await self.writer.drain()


class SolveServer:
    """Serve ``solve``/``solve_many``/``cache stats`` over a socket.

    ``backend`` selects the executor for ``solve_many`` batches
    (``async`` — the default — shares the coalescing executor with
    single solves; ``serial``/``process`` route batches through the
    engine's other backends, ``process`` fanning out over ``workers``
    processes).  ``max_concurrency`` bounds simultaneous solves,
    ``deadline`` is the default per-request time limit in seconds
    (``None`` = unbounded), and ``port=0`` binds an ephemeral port
    (read :attr:`port` after startup).  ``session`` is the
    :class:`repro.api.Session` whose cache stack the server probes and
    installs into (default: ``Session(EngineConfig())``, a private
    stack with the default settings).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        max_concurrency: int = 16,
        deadline: Optional[float] = None,
        session=None,
        max_orphaned_batches: int = 8,
        inject_fault: Optional[str] = None,
        wire: Optional[str] = None,
        max_line_bytes: int = MAX_LINE_BYTES,
        drain_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        # Wire preference: "ndjson" declines every hello (clients stay
        # on lines), "auto"/"binary" upgrade binary-capable clients.
        # NDJSON requests are always accepted — negotiation, not a flag
        # day — so "binary" only states the preference the CLI banner
        # and hello response advertise.  None reads REPRO_WIRE.
        self.wire = resolve_wire(wire)
        # One cap for both framings: the NDJSON line limit and the
        # binary frame limit.  Over-limit input gets an actionable
        # error response and the connection stays usable (the oversized
        # line/frame is drained, not fatal).
        self.max_line_bytes = int(max_line_bytes)
        self._wire_transport = {
            "ndjson_connections": 0,
            "binary_connections": 0,
            "binary_bytes_in": 0,
            "binary_bytes_out": 0,
            "intern_connections": 0,
            "intern_blobs_out": 0,
            "intern_bytes_saved_out": 0,
        }
        self._wire_tier = {
            "ndjson": {"hits": 0, "misses": 0},
            "binary": {"hits": 0, "misses": 0},
        }
        # The cache stack this server probes and installs into.  An
        # explicit Session isolates the server from everything else in
        # the process (the CLI's `repro serve` builds one from its
        # flags); the default is a private session with the default
        # settings.
        if session is None:
            from ..api import EngineConfig, Session

            session = Session(EngineConfig())
        self.session = session
        # Executor knobs default to the session's own config, so a
        # server given Session(backend="process", workers=8) serves
        # batches that way without the caller repeating itself; the
        # config's "auto" (= no batch preference) maps to the serving
        # default, the shared coalescing async executor.
        if backend is None:
            backend = session.config.backend
            if backend == "auto":
                backend = "async"
        if workers is None:
            workers = session.config.workers
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose one of "
                f"{', '.join(BACKENDS)}"
            )
        self.backend = backend
        self.workers = workers
        self.deadline = deadline
        # A session with a default executor (e.g. the ShardedExecutor
        # behind `repro serve --shard`) delegates the actual solves to
        # it: the service keeps its coalescing/deadline layer on top
        # while the fleet does the computing underneath.
        self.executor = AsyncQueueExecutor(
            max_concurrency,
            deadline=deadline,
            delegate=getattr(session, "default_executor", None),
        )
        # The wire (replay) tier: envelope-free request bytes ->
        # pre-encoded bare response bytes (see _replay_key).  The
        # engine's tiered cache dedupes *solves*; this dedupes the
        # serving work around them (JSON decode, instance rebuild,
        # normalization, fingerprinting, result serialization), so a
        # warm plain repeat costs one dict lookup and one socket write.
        # Sound for the same reason the engine tiers are: responses are
        # pure functions of request content and never mutated; keys are
        # literal bytes, so a request that differs at all — even in
        # field order — simply misses and takes the full path.
        self.response_cache = LRUCache(_RESPONSE_CACHE_SIZE)
        # Keys whose install is currently in flight.  Coalesced waiters
        # all resume at once when a shared solve lands; the first to
        # reach the install step claims the key here (atomic between
        # awaits — one event loop) and the rest skip, so one
        # computation means one store append, not one per waiter.
        self._installing: set = set()
        # Strong refs to batch tasks that outlived their request's
        # deadline: the loop only keeps weak ones, and the abandoned
        # batch must finish (it warms the cache for later requests).
        self._background: set = set()
        # Batches whose waiter already timed out but whose to_thread
        # work is still computing.  They cannot be interrupted, so the
        # only bound on runaway abandonment is backpressure: once
        # max_orphaned_batches are live, new deadline-bearing
        # serial/process batches are rejected until one finishes.
        self.max_orphaned_batches = max_orphaned_batches
        self._orphaned: set = set()
        self._orphan_total = 0
        self._orphan_completed = 0
        self._orphan_rejected = 0
        # Optional fault injection ("objective[:delta]"): served cost
        # documents for that objective are perturbed by delta.  Loadgen
        # CI points its oracle-divergence detector at exactly this.
        self._fault_objective: Optional[str] = None
        self._fault_delta = 0.0
        self._fault_injected = 0
        if inject_fault:
            from ..core.registry import REGISTRY
            from ..engine.objectives import ensure_registered

            ensure_registered()
            spec, _, delta = inject_fault.partition(":")
            self._fault_objective = REGISTRY.canonical(spec.strip())
            self._fault_delta = float(delta) if delta else 1.0
        # Graceful drain (SIGTERM in serve_async): stop accepting, let
        # requests already being dispatched finish for up to
        # drain_timeout seconds, then exit cleanly.  _active_requests
        # counts dispatches whose final response is not yet written
        # (single-threaded event loop — plain int arithmetic is safe);
        # _draining flips the health probe to "draining" so a balancer
        # stops routing here before the listener even closes.
        self.drain_timeout = float(drain_timeout)
        self._active_requests = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    def _result_doc(self, result) -> Dict[str, Any]:
        """Serialize one result — the only place faults are injected.

        Every served result document flows through here (including the
        wire-tier put), so a configured ``inject_fault`` perturbs what
        clients *see* while the engine, caches and store stay correct —
        exactly the class of serving-layer bug loadgen's oracle
        comparison exists to catch.
        """
        doc = result_to_doc(result)
        if (
            self._fault_objective is not None
            and doc.get("objective") == self._fault_objective
        ):
            doc["cost"] = float(doc.get("cost") or 0.0) + self._fault_delta
            self._fault_injected += 1
        return doc

    def _canonical_objective(self, doc: Dict[str, Any]) -> str:
        from ..core.registry import REGISTRY
        from ..engine.objectives import ensure_registered

        ensure_registered()
        return REGISTRY.canonical(doc.get("objective", "minbusy"))

    async def _solve_one(
        self,
        plan,
        *,
        use_cache: bool,
        deadline: Optional[float],
    ):
        """The layered core for one request: probe, execute, install.

        Probes and installs go through the server's *session* (its own
        tiered stack) and run off-loop (``to_thread``): with a
        persistent store attached they are real disk I/O — fcntl-locked
        fsync'd appends, segment scans — and must not stall the event
        loop for every other connection.
        """
        if use_cache:
            hit = await asyncio.to_thread(self.session.cached_result, plan)
            if hit is not None:
                return hit
        result = await self.executor.submit(plan.task(), deadline=deadline)
        if plan.key not in self._installing:
            self._installing.add(plan.key)
            try:
                await asyncio.to_thread(
                    self.session.install_result, plan, result
                )
            finally:
                self._installing.discard(plan.key)
        return result

    @staticmethod
    def _replay_key(
        doc: Dict[str, Any], raw: bytes, wire: str
    ) -> Optional[bytes]:
        """The replay-tier key of a decoded request; ``None`` = never
        replayed.

        Only cached ``solve`` requests qualify.  The envelope varies
        per request while the answer does not, so it is split out: a
        request without one keys on its raw bytes (probed before
        decoding), one with an envelope on its document minus the
        envelope, re-encoded in the request's framing — exactly the
        bytes the same request sends without it, so both share one
        entry.  A malformed envelope is never replayed; the handler
        answers its error.
        """
        if doc.get("op") != "solve" or not doc.get("cache", True):
            return None
        if doc.keys().isdisjoint(_ENVELOPE):
            return raw
        try:
            deadline_from_doc(doc)
            bare = {k: v for k, v in doc.items() if k not in _ENVELOPE}
            return encode_binary(bare) if wire == "binary" else encode(bare)
        except InstanceError:
            return None

    async def _handle_solve(
        self,
        doc: Dict[str, Any],
        send: Send,
        wire: str,
        key: Optional[bytes],
        entry: Optional[bytes],
    ) -> None:
        from ..engine.engine import plan_solve

        deadline = deadline_from_doc(doc, self.deadline)
        if entry is not None:
            # A replayed repeat that carries an envelope: the stored
            # bare response, plus this request's own id.
            body = decode_binary(entry) if wire == "binary" else decode(entry)
            await send({**body, "id": doc.get("id")})
            return
        objective = self._canonical_objective(doc)
        use_cache = bool(doc.get("cache", True))
        params = params_from_doc(objective, doc.get("params"))
        inst = objective_instance_from_dict(doc.get("instance"), objective)
        plan = await asyncio.to_thread(plan_solve, inst, objective, params)
        result = await self._solve_one(
            plan, use_cache=use_cache, deadline=deadline
        )
        result_doc = self._result_doc(result)
        if key is not None:
            # Install the fully-encoded bare response.  Replays *are*
            # cache hits, whichever tier first served us.  The stored
            # bytes match the requesting connection's wire format, so
            # a plain replay is a pure write with no re-encoding.
            body = {
                "ok": True,
                "result": {**result_doc, "from_cache": True},
            }
            self.response_cache.put(
                key,
                encode_binary(body) if wire == "binary" else encode(body),
            )
        await send(
            {"ok": True, "result": result_doc, "id": doc.get("id")}
        )

    async def _handle_solve_many(
        self, doc: Dict[str, Any], send: Send
    ) -> None:
        from ..engine.engine import plan_solve

        deadline = deadline_from_doc(doc, self.deadline)
        objective = self._canonical_objective(doc)
        params = params_from_doc(objective, doc.get("params"))
        docs = doc.get("instances")
        if not isinstance(docs, list):
            raise InstanceError(
                'solve_many needs "instances": [instance documents]'
            )
        instances = [
            objective_instance_from_dict(d, objective) for d in docs
        ]
        use_cache = bool(doc.get("cache", True))
        request_id = doc.get("id")

        if self.backend == "async":
            # Per-item fan-out through the shared coalescing executor:
            # results stream back in input order as they complete, and
            # duplicate fingerprints (inside the batch or across other
            # live requests) compute once.
            plans = await asyncio.to_thread(
                lambda: [
                    plan_solve(inst, objective, params)
                    for inst in instances
                ]
            )
            pending = [
                asyncio.ensure_future(
                    self._solve_one(
                        plan, use_cache=use_cache, deadline=deadline
                    )
                )
                for plan in plans
            ]
            try:
                for seq, fut in enumerate(pending):
                    result = await fut
                    await send(
                        {
                            "ok": True,
                            "seq": seq,
                            "result": self._result_doc(result),
                            "id": request_id,
                        }
                    )
            finally:
                for fut in pending:
                    fut.cancel()
        else:
            # serial/process/auto: one session batch call off-loop —
            # chunked multiprocessing and the in-batch fingerprint
            # dedup come from the engine unchanged.  The deadline
            # bounds how long this *request* waits (same contract as
            # the async executor): the batch itself is not interrupted,
            # so its results still land in the cache for later
            # requests.  Because an abandoned batch cannot be stopped,
            # the number of live orphans is capped: at the cap, new
            # deadline-bearing batches are rejected up front instead of
            # piling unbounded work onto the thread pool.
            if (
                deadline is not None
                and len(self._orphaned) >= self.max_orphaned_batches
            ):
                self._orphan_rejected += 1
                raise RuntimeError(
                    f"solve_many rejected: {len(self._orphaned)} "
                    f"abandoned batches are still computing (cap "
                    f"{self.max_orphaned_batches}); retry once one "
                    "finishes, raise --max-orphaned-batches, or drop "
                    "the deadline"
                )
            runner = asyncio.ensure_future(
                asyncio.to_thread(
                    lambda: self.session.solve_many(
                        instances,
                        objective,
                        workers=self.workers,
                        use_cache=use_cache,
                        backend=self.backend,
                        **params,
                    )
                )
            )
            self._background.add(runner)

            def _batch_done(task: "asyncio.Task") -> None:
                self._background.discard(task)
                if task in self._orphaned:
                    self._orphaned.discard(task)
                    self._orphan_completed += 1
                if not task.cancelled():
                    # Mark any failure retrieved even if the waiter
                    # timed out before it landed; awaiting re-raises.
                    task.exception()

            runner.add_done_callback(_batch_done)
            if deadline is None:
                results = await runner
            else:
                try:
                    results = await asyncio.wait_for(
                        asyncio.shield(runner), timeout=deadline
                    )
                except asyncio.TimeoutError:
                    # No await between the wait_for raise and this add
                    # (single-threaded loop), so the done callback
                    # cannot slip in between: a finished runner is
                    # never counted as a live orphan.
                    if not runner.done():
                        self._orphaned.add(runner)
                        self._orphan_total += 1
                    raise TimeoutError(
                        f"solve_many of {len(instances)} instances "
                        f"exceeded its {deadline:.3g}s deadline "
                        f"(batch backend {self.backend!r}; the batch "
                        "keeps computing and will warm the cache)"
                    ) from None
            for seq, result in enumerate(results):
                await send(
                    {
                        "ok": True,
                        "seq": seq,
                        "result": self._result_doc(result),
                        "id": request_id,
                    }
                )
        await send(
            {
                "ok": True,
                "done": True,
                "count": len(instances),
                "id": request_id,
            }
        )

    async def _handle_cache_stats(
        self, doc: Dict[str, Any], send: Send
    ) -> None:
        stats = await asyncio.to_thread(self._collect_stats)
        await send({"ok": True, "stats": stats, "id": doc.get("id")})

    async def _handle_metrics(
        self, doc: Dict[str, Any], send: Send
    ) -> None:
        """The ``metrics`` op: this process's registry snapshot merged
        with the projected ``cache_stats`` view, one pinned-schema
        document a scraper (or ``repro metrics``) renders directly."""
        document = await asyncio.to_thread(
            lambda: obs_expo.metrics_document(
                obs_metrics.REGISTRY, self._collect_stats()
            )
        )
        await send(
            {"ok": True, "metrics": document, "id": doc.get("id")}
        )

    def _collect_stats(self) -> Dict[str, Any]:
        """The full ``cache_stats`` document (sync; call off-loop)."""
        stats = self.session.cache_stats()
        by_format: Dict[str, Any] = {}
        for fmt, tier in self._wire_tier.items():
            total = tier["hits"] + tier["misses"]
            by_format[fmt] = {
                "hits": tier["hits"],
                "misses": tier["misses"],
                "hit_rate": (tier["hits"] / total) if total else 0.0,
            }
        stats["wire"] = {
            "hits": sum(t["hits"] for t in self._wire_tier.values()),
            "misses": sum(t["misses"] for t in self._wire_tier.values()),
            "size": len(self.response_cache),
            "maxsize": self.response_cache.maxsize,
            "by_format": by_format,
        }
        stats["wire_transport"] = {
            "mode": self.wire,
            **self._wire_transport,
        }
        stats["orphaned_batches"] = {
            "live": len(self._orphaned),
            "total": self._orphan_total,
            "completed": self._orphan_completed,
            "rejected": self._orphan_rejected,
            "cap": self.max_orphaned_batches,
        }
        if self._fault_objective is not None:
            stats["fault_injection"] = {
                "objective": self._fault_objective,
                "delta": self._fault_delta,
                "injected": self._fault_injected,
            }
        return stats

    async def _handle_meta(
        self, doc: Dict[str, Any], send: Send
    ) -> None:
        from ..engine.engine import objectives

        op = doc["op"]
        if op == "ping":
            await send({"ok": True, "pong": True, "id": doc.get("id")})
        elif op == "health":
            from .protocol import health_doc

            await send(
                {"ok": True, "id": doc.get("id"), **health_doc(self)}
            )
        else:
            await send(
                {"ok": True, "objectives": objectives(), "id": doc.get("id")}
            )

    async def _dispatch(
        self,
        doc: Dict[str, Any],
        conn: _Connection,
        key: Optional[bytes],
        entry: Optional[bytes],
    ) -> None:
        self._active_requests += 1
        try:
            trace_doc = doc.get("trace") if conn.trace else None
            if trace_doc is None or not obs_trace.tracing_enabled():
                await self._dispatch_inner(
                    doc, conn.send, conn.wire, key, entry
                )
                return
            # A traced request: adopt the client's context so server-side
            # spans chain under its sending span, collect everything this
            # request records (including spans finished in to_thread
            # workers — the scope list is shared by reference), and ship
            # the collection back on the *final* response — the single
            # reply of a solve (a replay included), the done line of a
            # solve_many stream, or the error doc — which is exactly the
            # non-``seq`` one.
            final: List[Dict[str, Any]] = []

            async def traced_send(out: Dict[str, Any]) -> None:
                if "seq" in out:
                    await conn.send(out)
                else:
                    final.append(out)

            scope = obs_trace.recording_scope()
            with scope as spans:
                with obs_trace.adopted(trace_doc):
                    with obs_trace.span(
                        f"server.{doc.get('op')}", port=self.port
                    ):
                        await self._dispatch_inner(
                            doc, traced_send, conn.wire, key, entry
                        )
            for out in final:
                await conn.send({**out, "trace": {"spans": spans}})
        finally:
            self._active_requests -= 1

    async def _dispatch_inner(
        self,
        doc: Dict[str, Any],
        send: Send,
        wire: str,
        key: Optional[bytes],
        entry: Optional[bytes],
    ) -> None:
        op = doc.get("op")
        status = "ok"
        try:
            if op == "solve":
                await self._handle_solve(doc, send, wire, key, entry)
            elif op == "solve_many":
                await self._handle_solve_many(doc, send)
            elif op == "cache_stats":
                await self._handle_cache_stats(doc, send)
            elif op == "metrics":
                await self._handle_metrics(doc, send)
            elif op in ("ping", "objectives", "health"):
                await self._handle_meta(doc, send)
            else:
                raise InstanceError(
                    f"unknown op {op!r}; expected solve, solve_many, "
                    "cache_stats, metrics, objectives, ping or health"
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Every per-request failure — family errors, timeouts, a
            # sick store tier (OSError), even a solver bug — becomes an
            # error *response line*; the client must never be left
            # waiting on a request that silently died.
            status = "error"
            await send(error_doc(exc, doc.get("id")))
        finally:
            _REQUESTS.labels(str(op), status).inc()

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    async def _drain_oversize_line(
        self, reader: asyncio.StreamReader
    ) -> bool:
        """Consume the rest of an over-limit NDJSON line.

        ``readuntil`` leaves the scanned bytes buffered on
        ``LimitOverrunError``; they are read off in bounded chunks until
        the newline lands, so the connection stays in sync for the next
        request.  Returns ``False`` on EOF or when the line exceeds the
        drain budget (4x the cap — past that the peer is hostile and
        the connection is dropped).
        """
        budget = self.max_line_bytes * 4
        drained = 0
        while True:
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as exc:
                n = max(int(exc.consumed), 1)
                try:
                    await reader.readexactly(n)
                except asyncio.IncompleteReadError:
                    return False
                drained += n
                if drained > budget:
                    return False
            except asyncio.IncompleteReadError:
                return False

    async def _drain_bytes(
        self, reader: asyncio.StreamReader, length: int
    ) -> bool:
        """Discard ``length`` payload bytes of an over-limit frame."""
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(remaining, 1 << 20))
            if not chunk:
                return False
            remaining -= len(chunk)
        return True

    async def _read_line(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> Optional[bytes]:
        """The NDJSON framing: the next request line.

        ``b""`` means nothing to serve (a blank line, or an over-limit
        one answered and drained here); ``None`` means close.
        """
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            await conn.send(
                error_doc(
                    InstanceError(
                        f"request line exceeds {self.max_line_bytes} "
                        "bytes; split the batch or negotiate --wire "
                        "binary"
                    )
                )
            )
            return b"" if await self._drain_oversize_line(reader) else None
        return line if line.strip() else b""

    async def _read_frame(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> Optional[bytes]:
        """The binary framing: the next whole frame, header included.

        Recoverable per-frame problems — over-limit length (drained),
        version skew — are answered here and return ``b""``; ``None``
        means close: EOF, or a bad magic (the stream cannot be resynced
        without trusting the length field of a frame that failed its
        first sanity check).
        """
        try:
            header = await reader.readexactly(HEADER_BYTES)
        except asyncio.IncompleteReadError:
            return None
        try:
            version, opcode, length = parse_header(header)
        except InstanceError as exc:  # bad magic: stream unsyncable
            await conn.send(error_doc(exc))
            return None
        if length > self.max_line_bytes:
            await conn.send(
                error_doc(
                    InstanceError(
                        f"frame of {length} bytes exceeds "
                        f"{self.max_line_bytes}; split the batch"
                    )
                )
            )
            return b"" if await self._drain_bytes(reader, length) else None
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
        self._wire_transport["binary_bytes_in"] += HEADER_BYTES + length
        rx = conn.rx
        if rx is not None and opcode == OP_DOC and version == WIRE_VERSION:
            # Registration must see *every* frame, including the ones
            # the replay tier answers without decoding — skipping those
            # would desync this pool from the client's send pool.
            rx.observe(payload)
        if version != WIRE_VERSION:
            await conn.send(
                error_doc(
                    InstanceError(
                        f"unsupported wire version {version} "
                        f"(this server speaks {WIRE_VERSION})"
                    )
                )
            )
            return b""
        return header + payload

    @staticmethod
    def _decode(conn: _Connection, raw: bytes) -> Dict[str, Any]:
        """One request line or frame as a document; InstanceError if
        malformed."""
        if conn.wire == "ndjson":
            return decode(raw)
        _, opcode, _ = parse_header(raw)
        if opcode != OP_DOC:
            raise InstanceError(f"unknown frame opcode {opcode}")
        return decode_payload(memoryview(raw)[HEADER_BYTES:], intern=conn.rx)

    def _count(self, conn: _Connection, hit: bool) -> None:
        """Tally one request (any but a hello) as a replay hit or miss."""
        self._wire_tier[conn.wire]["hits" if hit else "misses"] += 1
        if not conn.counted:
            conn.counted = True
            self._wire_transport["ndjson_connections"] += 1

    async def _serve(self, conn: _Connection, raw: bytes) -> None:
        """The request step both framings share: replay probe ->
        decode -> hello -> dispatch."""
        # A plain repeat: these exact bytes were answered before —
        # replay the pre-encoded response with no parsing, no task and
        # no engine.
        entry = self.response_cache.get(raw)
        if entry is not None:
            self._count(conn, hit=True)
            await conn.send_bytes(entry)
            return
        try:
            doc = self._decode(conn, raw)
        except InstanceError as exc:
            self._count(conn, hit=False)
            await conn.send(error_doc(exc))
            return
        if doc.get("op") == "hello":
            await self._hello(conn, doc)
            return
        key = self._replay_key(doc, raw, conn.wire)
        if key is not None and key is not raw:
            entry = self.response_cache.get(key)  # an enveloped repeat
        self._count(conn, hit=entry is not None)
        # Pipelined requests on one connection run concurrently;
        # responses carry the request id.
        conn.tasks[:] = [t for t in conn.tasks if not t.done()]
        conn.tasks.append(
            asyncio.ensure_future(self._dispatch(doc, conn, key, entry))
        )

    async def _hello(self, conn: _Connection, doc: Dict[str, Any]) -> None:
        """Answer a capability hello: the NDJSON upgrade request, or a
        re-hello on an upgraded connection (which confirms).

        Outstanding pipelined responses drain first so no line-format
        response crosses the flip.
        """
        pending = [t for t in conn.tasks if not t.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        upgrade = (
            conn.wire == "ndjson"
            and self.wire != "ndjson"
            and doc.get("wire") in ("binary", "auto")
            and doc.get("version") == WIRE_VERSION
        )
        # Trace propagation negotiates independently of the frame
        # upgrade (an NDJSON-pinned client still sends the hello for it)
        # and is only acked when this server records spans at all.
        conn.trace = (
            doc.get("trace") == TRACE_VERSION
            and obs_trace.tracing_enabled()
        )
        if upgrade or conn.wire == "binary":
            reply = {
                "ok": True,
                "wire": "binary",
                "version": WIRE_VERSION,
                "id": doc.get("id"),
            }
            # Column interning is a sub-negotiation of the binary
            # upgrade: active only when the client advertised the same
            # extension version.
            if conn.rx is not None or (
                upgrade and doc.get("intern") == INTERN_VERSION
            ):
                reply["intern"] = INTERN_VERSION
        else:
            reply = {"ok": True, "wire": "ndjson", "id": doc.get("id")}
        if conn.trace:
            reply["trace"] = TRACE_VERSION
        await conn.send(reply)
        if upgrade:
            if "intern" in reply:
                conn.tx, conn.rx = InternPool(), InternPool()
                self._wire_transport["intern_connections"] += 1
            conn.wire = "binary"
            conn.counted = True
            self._wire_transport["binary_connections"] += 1

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, self._wire_transport)
        cancelled = False
        try:
            while True:
                read = (
                    self._read_frame
                    if conn.wire == "binary"
                    else self._read_line
                )
                raw = await read(reader, conn)
                if raw is None:
                    break
                if raw:
                    await self._serve(conn, raw)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown mid-connection: fall through to cleanup
            # and end the handler quietly.
            cancelled = True
        finally:
            if cancelled:
                for task in conn.tasks:
                    task.cancel()
            # A half-closed client (EOF on reads, still listening) gets
            # its remaining pipelined responses before the close.
            try:
                if conn.tasks:
                    await asyncio.gather(*conn.tasks, return_exceptions=True)
            except asyncio.CancelledError:
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> asyncio.AbstractServer:
        """Bind and start accepting; resolves the actual port."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_line_bytes,
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self._server

    async def serve_async(
        self, ready: Optional[Callable[["SolveServer"], None]] = None
    ) -> None:
        """Serve until cancelled — or gracefully drained by SIGTERM.

        SIGTERM flips the drain switch: the listener closes (new
        connections are refused, the health probe answers
        ``draining``), requests already being dispatched get up to
        ``drain_timeout`` seconds to write their final response, and
        this coroutine returns normally — so ``repro serve`` exits 0
        and a supervisor's rolling restart never truncates a response
        mid-write.  Where signal handlers are unavailable (non-main
        thread, platforms without add_signal_handler) the switch is
        simply never armed and shutdown stays cancellation-based.
        """
        server = await self.start()
        if ready is not None:
            ready(self)  # the socket is bound; self.port is resolved
        loop = asyncio.get_running_loop()
        drain = asyncio.Event()
        armed = False
        try:
            loop.add_signal_handler(signal.SIGTERM, drain.set)
            armed = True
        except (ValueError, NotImplementedError, RuntimeError):
            pass
        try:
            async with server:
                forever = asyncio.ensure_future(server.serve_forever())
                trigger = asyncio.ensure_future(drain.wait())
                try:
                    await asyncio.wait(
                        {forever, trigger},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                finally:
                    trigger.cancel()
                if not drain.is_set():
                    await forever  # propagate an accept-loop failure
                    return
                self._draining = True
                forever.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await forever
                server.close()
                deadline = loop.time() + max(0.0, self.drain_timeout)
                while self._active_requests and loop.time() < deadline:
                    await asyncio.sleep(0.05)
                # Idle keep-alive connections are still parked in
                # readline(); asyncio.run's shutdown cancels those
                # handler tasks, whose cleanup closes the writers.
        finally:
            if armed:
                loop.remove_signal_handler(signal.SIGTERM)

    def run(
        self, ready: Optional[Callable[["SolveServer"], None]] = None
    ) -> None:
        """Blocking serve loop (the ``repro serve`` entry point).

        Bind failures (occupied port, bad interface) raise ``OSError``
        out of here before any traffic is handled, so the CLI can turn
        them into actionable exit messages; ``ready`` fires only after
        the socket is actually bound (use it for readiness banners).
        """
        try:
            asyncio.run(self.serve_async(ready))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    def run_in_thread(self) -> "ServerHandle":
        """Host this server on a daemon thread; returns once bound.

        The returned :class:`ServerHandle` exposes the resolved port
        and a ``stop()``; bind errors re-raise here in the caller.
        """
        handle = ServerHandle(self)
        handle._start()
        return handle


class ServerHandle:
    """A live in-process server: its port, and the off switch."""

    def __init__(self, server: SolveServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def _start(self) -> None:
        def _serve() -> None:
            async def _main() -> None:
                try:
                    bound = await self.server.start()
                except BaseException as exc:
                    self._error = exc
                    self._ready.set()
                    return
                self._loop = asyncio.get_running_loop()
                self._ready.set()
                async with bound:
                    try:
                        await bound.serve_forever()
                    except asyncio.CancelledError:
                        pass

            asyncio.run(_main())

        self._thread = threading.Thread(target=_serve, daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error

    def stop(self, timeout: float = 5.0) -> None:
        loop, server = self._loop, self.server._server
        if loop is not None and server is not None:

            def _shutdown() -> None:
                server.close()
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            try:
                loop.call_soon_threadsafe(_shutdown)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
