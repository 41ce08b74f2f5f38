"""Blocking client for the solve service (stdlib sockets).

The synchronous counterpart of :class:`~repro.service.server.
SolveServer`: one TCP connection, newline-delimited JSON requests,
responses parsed back into plain dicts.  Used by the test suites, the
E19 benchmark, and any consumer who wants solves over the wire without
touching asyncio::

    with ServiceClient("127.0.0.1", 8753) as client:
        doc = client.solve({"g": 3, "jobs": [...]})
        for res in client.solve_many([doc1, doc2], objective="rect2d"):
            ...
        stats = client.cache_stats()

Failed requests raise :class:`ServiceError` carrying the server's
error type and message; transport-level hangs are bounded by the
``timeout`` socket option.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..core.errors import InstanceError
from ..obs import trace as obs_trace
from .binary import (
    HEADER_BYTES,
    INTERN_VERSION,
    OP_DOC,
    TRACE_VERSION,
    WIRE_VERSION,
    InternPool,
    decode_payload,
    encode_binary,
    hello_doc,
    intern_frame,
    parse_header,
    resolve_wire,
)
from .protocol import MAX_LINE_BYTES, decode, encode

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(RuntimeError):
    """A request the server answered with ``ok: false``."""

    def __init__(self, error: Dict[str, Any]) -> None:
        self.type = str(error.get("type", "Error"))
        self.message = str(error.get("message", ""))
        super().__init__(f"{self.type}: {self.message}")


class ServiceClient:
    """One blocking connection to a solve server.

    ``wire`` is the transport preference: ``"auto"`` (default; reads
    ``REPRO_WIRE``) sends a ``hello`` and upgrades to the binary frame
    protocol when the server accepts, transparently staying on NDJSON
    against an older or ``--wire ndjson`` server; ``"ndjson"`` never
    negotiates; ``"binary"`` raises :class:`ConnectionError` if the
    server cannot speak frames.  :attr:`wire_format` reports what this
    connection actually negotiated.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8753,
        *,
        timeout: Optional[float] = 30.0,
        wire: Optional[str] = None,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.wire = resolve_wire(wire)
        self.wire_format = "ndjson"  # per-connection negotiated format
        self.trace_ok = False  # server acked the trace capability
        self.max_line_bytes = int(max_line_bytes)
        self._closed = False
        self._sock: Optional[socket.socket] = None
        self._fh = None
        self._broken = False
        # Column-interning pools (negotiated per connection alongside
        # the binary upgrade): tx = requests out, rx = responses in.
        self._intern_tx: Optional[InternPool] = None
        self._intern_rx: Optional[InternPool] = None
        self._connect()  # fail fast on an unreachable endpoint

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._teardown()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._fh = self._sock.makefile("rb")
        self._broken = False
        self.wire_format = "ndjson"
        self.trace_ok = False
        # Pools never survive a reconnect: the server's per-connection
        # pools died with the old socket.
        self._intern_tx = None
        self._intern_rx = None
        # An NDJSON-pinned client still negotiates when tracing is on —
        # the hello then advertises wire="ndjson", so the server
        # declines the frame upgrade but acks the trace capability.
        if self.wire != "ndjson" or obs_trace.tracing_enabled():
            self._negotiate()

    def _negotiate(self) -> None:
        """Send the hello line; upgrade this connection on acceptance.

        The hello and its response ride NDJSON, so a binary-unaware
        server simply answers with an unknown-op error — treated as a
        decline.  ``wire="binary"`` turns a decline into an error;
        ``wire="auto"`` falls back silently.
        """
        try:
            self._sock.sendall(
                encode(
                    hello_doc(
                        "binary" if self.wire != "ndjson" else "ndjson"
                    )
                )
            )
            response = self._recv()
        except OSError:
            self._broken = True
            raise
        self.trace_ok = (
            response.get("ok", False)
            and response.get("trace") == TRACE_VERSION
        )
        accepted = (
            response.get("ok", False)
            and response.get("wire") == "binary"
            and response.get("version") == WIRE_VERSION
        )
        if accepted:
            self.wire_format = "binary"
            if response.get("intern") == INTERN_VERSION:
                self._intern_tx = InternPool()
                self._intern_rx = InternPool()
        elif self.wire == "binary":
            detail = response.get("error", {}).get(
                "message", "server declined the binary upgrade"
            )
            raise ConnectionError(
                f"wire='binary' requested but "
                f"{self.host}:{self.port} cannot speak it ({detail}); "
                "use wire='auto' to fall back to NDJSON"
            )

    def _teardown(self) -> None:
        fh, sock = self._fh, self._sock
        self._fh = None
        self._sock = None
        try:
            if fh is not None:
                fh.close()
        except OSError:  # pragma: no cover - best-effort close
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:  # pragma: no cover - best-effort close
            pass

    def _send(self, doc: Dict[str, Any]) -> None:
        # A connection known broken (EOF, reset, or a timed-out read
        # that left a response in flight) is replaced at the next
        # request boundary — that is what lets a shard that died and
        # came back on the same port heal through the circuit's
        # half-open probe instead of failing forever on a dead socket.
        if self._broken or self._sock is None:
            if self._closed:
                raise ConnectionError("this ServiceClient is closed")
            self._connect()
        try:
            if self.wire_format == "binary":
                data = encode_binary(doc)
                if self._intern_tx is not None:
                    data = intern_frame(data, self._intern_tx)
                self._sock.sendall(data)
            else:
                self._sock.sendall(encode(doc))
        except OSError:
            self._broken = True
            raise

    def _read_exact(self, n: int) -> bytes:
        data = self._fh.read(n)  # BufferedReader: n bytes or EOF
        if data is None or len(data) < n:
            self._broken = True
            raise ConnectionError("server closed the connection")
        return data

    def _recv_frame(self) -> Dict[str, Any]:
        version, opcode, length = parse_header(
            self._read_exact(HEADER_BYTES)
        )
        if length > self.max_line_bytes:
            # The declared payload would blow the read budget; there
            # is no resync point mid-frame, so the connection is
            # replaced at the next request boundary.
            self._broken = True
            raise InstanceError(
                f"response frame of {length} bytes exceeds "
                f"{self.max_line_bytes}; raise max_line_bytes"
            )
        payload = self._read_exact(length)
        if version != WIRE_VERSION:
            raise InstanceError(
                f"unsupported wire version {version} "
                f"(this client speaks {WIRE_VERSION})"
            )
        if opcode != OP_DOC:
            raise InstanceError(f"unknown frame opcode {opcode}")
        if self._intern_rx is not None:
            self._intern_rx.observe(payload)
        return decode_payload(payload, intern=self._intern_rx)

    def _recv(self) -> Dict[str, Any]:
        fh = self._fh
        if fh is None:
            raise ConnectionError("this ServiceClient is closed")
        try:
            if self.wire_format == "binary":
                return self._recv_frame()
            line = fh.readline(self.max_line_bytes + 1)
        except OSError:
            self._broken = True
            raise
        if not line:
            self._broken = True
            raise ConnectionError("server closed the connection")
        if len(line) > self.max_line_bytes and not line.endswith(b"\n"):
            # An over-limit response line: surface an actionable error
            # instead of silently truncating mid-JSON.  The connection
            # cannot be resynced mid-line, so it is replaced at the
            # next request boundary.
            self._broken = True
            raise InstanceError(
                f"response line exceeds {self.max_line_bytes} bytes; "
                "raise max_line_bytes or negotiate wire='binary'"
            )
        return decode(line)

    def _attach_trace(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp the active trace context on a request (only on
        connections that negotiated the capability)."""
        if self.trace_ok:
            ctx = obs_trace.wire_context()
            if ctx is not None:
                doc["trace"] = ctx
        return doc

    @staticmethod
    def _ingest_trace(response: Dict[str, Any]) -> None:
        """Merge the response's server-side spans into the local ring
        (and any active recording scope — a router forwards them up)."""
        tr = response.get("trace")
        if isinstance(tr, dict):
            obs_trace.ingest(tr.get("spans"))

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one response line; raises on ``ok: false``."""
        self._send(doc)
        response = self._recv()
        if not response.get("ok", False):
            raise ServiceError(response.get("error", {}))
        self._ingest_trace(response)
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def solve(
        self,
        instance: Dict[str, Any],
        objective: str = "minbusy",
        *,
        params: Optional[Dict[str, Any]] = None,
        cache: bool = True,
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Solve one instance document; returns the result document."""
        doc: Dict[str, Any] = {
            "op": "solve",
            "objective": objective,
            "instance": instance,
            "cache": cache,
        }
        if params:
            doc["params"] = params
        if deadline is not None:
            doc["deadline"] = deadline
        return self.request(self._attach_trace(doc))["result"]

    def iter_solve_many(
        self,
        instances: Sequence[Dict[str, Any]],
        objective: str = "minbusy",
        *,
        params: Optional[Dict[str, Any]] = None,
        cache: bool = True,
        deadline: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Stream result documents in input order as the server emits
        them.

        The connection is left clean however the stream ends.  The
        terminal ``done`` line is read before the last result is handed
        out, so a consumer that takes exactly ``len(instances)`` results
        and never resumes leaves nothing unread.  A consumer that stops
        early (``break``, ``close()``, garbage collection) has the rest
        of the batch read off when the generator closes; that blocks
        until the server finishes the batch.  Without either, the next
        request on this connection would read a stale line as its
        response."""
        doc: Dict[str, Any] = {
            "op": "solve_many",
            "objective": objective,
            "instances": list(instances),
            "cache": cache,
        }
        if params:
            doc["params"] = params
        if deadline is not None:
            doc["deadline"] = deadline
        self._send(self._attach_trace(doc))
        left = len(doc["instances"])
        pending = True  # the batch's terminal line is still unread
        try:
            while pending:
                response = self._recv()
                if not response.get("ok", False):
                    pending = False
                    raise ServiceError(response.get("error", {}))
                if response.get("done"):
                    pending = False
                    self._ingest_trace(response)
                    return
                left -= 1
                if left == 0:
                    # ``done`` is read before the last result goes out.
                    tail = self._recv()
                    pending = False
                    if not tail.get("ok", False):
                        raise ServiceError(tail.get("error", {}))
                    self._ingest_trace(tail)
                yield response["result"]
        finally:
            # Abandoned early: read off the rest of the batch.  A failed
            # read marks the connection broken, so the next request
            # replaces it.
            try:
                while pending and not self._broken:
                    response = self._recv()
                    if response.get("done") or not response.get("ok", False):
                        pending = False
            except (OSError, ValueError):
                self._broken = True

    def solve_many(
        self,
        instances: Sequence[Dict[str, Any]],
        objective: str = "minbusy",
        **kwargs: Any,
    ) -> List[Dict[str, Any]]:
        """All result documents of one streamed batch, in input order."""
        return list(self.iter_solve_many(instances, objective, **kwargs))

    def cache_stats(self) -> Dict[str, Any]:
        """Per-tier counters of the server's cache stack."""
        return self.request({"op": "cache_stats"})["stats"]

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics exposition document (``metrics`` op):
        its registry snapshot merged with the projected
        ``cache_stats`` view, under the pinned JSON schema."""
        return self.request({"op": "metrics"})["metrics"]

    def objectives(self) -> List[str]:
        return list(self.request({"op": "objectives"})["objectives"])

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def health(self) -> Dict[str, Any]:
        """The server's liveness/readiness snapshot (``health`` op)."""
        response = self.request({"op": "health"})
        return {
            k: v for k, v in response.items() if k not in ("ok", "id")
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
