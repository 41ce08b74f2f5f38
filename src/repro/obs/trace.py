"""Trace spans: one solve's path through sessions, tiers, and shards.

A *span* is one timed operation (``session.solve``, ``cache.probe``,
``shard.solve_many``) with a ``trace_id`` shared by every span of one
logical request and a ``span_id``/``parent_id`` chain giving the tree.
Context rides a :class:`contextvars.ContextVar`, so it follows the
request through ``asyncio`` tasks and ``asyncio.to_thread`` for free;
code that hops raw threads (the sharded fan-out) carries it with
:func:`contextvars.copy_context`.

Tracing is **off by default** and the disabled path is one module
attribute read returning a no-op singleton — nothing allocates, which
is what keeps the E23 overhead contract honest.  Enable with
``REPRO_TRACE=1`` (or :func:`enable_tracing`); finished spans land in
a bounded in-memory ring (:data:`RING_SIZE`), optionally appended as
JSONL under ``REPRO_TRACE_DIR`` (one ``spans-<pid>.jsonl`` per
process — the sink ``repro trace tail``/``show`` reads).

Cross-process propagation is the wire's job: a client under an active
span attaches ``{"trace": {"trace_id", "parent_id"}}`` to its request
(only on connections that negotiated the capability in ``hello``);
the server adopts that context (:func:`adopted`), records its spans
in a request scope (:func:`recording_scope`), and ships them back in
the response's ``trace`` key, where :func:`ingest` merges them into
the client's ring — so one solve against a 3-shard fleet reassembles
into a single tree client-side with no collector in the middle.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "RING_SIZE",
    "TRACE_ENV_VAR",
    "TRACE_DIR_ENV_VAR",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "span",
    "current_context",
    "wire_context",
    "adopted",
    "recording_scope",
    "ingest",
    "ring_spans",
    "trace_spans",
    "span_tree",
    "render_tree",
    "clear_ring",
    "sink_dir",
]

TRACE_ENV_VAR = "REPRO_TRACE"
TRACE_DIR_ENV_VAR = "REPRO_TRACE_DIR"

#: Finished spans kept in memory (oldest evicted first).
RING_SIZE = 4096

_TRUE = {"1", "true", "yes", "on"}

_enabled = os.environ.get(TRACE_ENV_VAR, "").strip().lower() in _TRUE

_ring: "deque[Dict[str, Any]]" = deque(maxlen=RING_SIZE)
# Ids currently buffered, kept in lockstep with the ring so ingest's
# dedup is O(1) per span instead of a full ring scan per response.
_ring_ids: set = set()
_ring_lock = threading.Lock()

# (trace_id, span_id) of the innermost active span, or None.
_ctx: "contextvars.ContextVar[Optional[Tuple[str, str]]]" = (
    contextvars.ContextVar("repro_trace_ctx", default=None)
)
# The request-scoped collection list (server side), or None.  The list
# object itself is shared across context copies, so spans finished in
# to_thread workers still land in the scope that opened it.
_scope: "contextvars.ContextVar[Optional[List[Dict[str, Any]]]]" = (
    contextvars.ContextVar("repro_trace_scope", default=None)
)

_sink_lock = threading.Lock()
_sink_path: Optional[str] = None
_sink_fh = None


def tracing_enabled() -> bool:
    return _enabled


def enable_tracing() -> None:
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    global _enabled
    _enabled = False


def new_id() -> str:
    """A fresh 64-bit hex id (trace or span)."""
    return os.urandom(8).hex()


def clear_ring() -> None:
    """Drop every buffered span (test hygiene)."""
    with _ring_lock:
        _ring.clear()
        _ring_ids.clear()


def sink_dir() -> Optional[str]:
    """The JSONL sink directory ``REPRO_TRACE_DIR`` names, if any."""
    return os.environ.get(TRACE_DIR_ENV_VAR) or None


def _sink(doc: Dict[str, Any]) -> None:
    """Append one span to the JSONL sink when ``REPRO_TRACE_DIR`` is
    set; failures are swallowed (telemetry never breaks a solve)."""
    global _sink_path, _sink_fh
    root = sink_dir()
    if not root:
        return
    try:
        path = os.path.join(root, f"spans-{os.getpid()}.jsonl")
        with _sink_lock:
            if _sink_fh is None or _sink_path != path:
                os.makedirs(root, exist_ok=True)
                if _sink_fh is not None:
                    _sink_fh.close()
                _sink_fh = open(path, "a", encoding="utf-8")
                _sink_path = path
            _sink_fh.write(
                json.dumps(doc, separators=(",", ":")) + "\n"
            )
            _sink_fh.flush()
    except OSError:
        pass


def _record(doc: Dict[str, Any]) -> None:
    with _ring_lock:
        if len(_ring) == RING_SIZE:
            evicted = _ring[0]
            _ring_ids.discard(
                (evicted.get("trace_id"), evicted.get("span_id"))
            )
        _ring.append(doc)
        _ring_ids.add((doc.get("trace_id"), doc.get("span_id")))
    scope = _scope.get()
    if scope is not None:
        scope.append(doc)
    _sink(doc)


class _NoopSpan:
    """The disabled-tracing span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_t0",
        "_start",
        "_token",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "_Span":
        parent = _ctx.get()
        if parent is None:
            self.trace_id = new_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = new_id()
        self._token = _ctx.set((self.trace_id, self.span_id))
        self._start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        duration = time.perf_counter() - self._t0
        _ctx.reset(self._token)
        doc: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self._start,
            "duration_ms": duration * 1e3,
            "pid": os.getpid(),
        }
        if exc_type is not None:
            doc["error"] = exc_type.__name__
        if self.attrs:
            doc["attrs"] = {
                k: v
                for k, v in self.attrs.items()
                if isinstance(v, (str, int, float, bool)) or v is None
            }
        _record(doc)


def span(name: str, **attrs: Any):
    """A context manager recording one span (no-op when disabled)."""
    if not _enabled:
        return NOOP_SPAN
    return _Span(name, attrs)


def current_context() -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` of the active span, or ``None``."""
    return _ctx.get()


def wire_context() -> Optional[Dict[str, str]]:
    """The ``trace`` document a request should carry, or ``None``.

    Only produced under an active span with tracing enabled — a
    trace-negotiated connection with no live trace sends nothing.
    """
    if not _enabled:
        return None
    ctx = _ctx.get()
    if ctx is None:
        return None
    return {"trace_id": ctx[0], "parent_id": ctx[1]}


class adopted:
    """Adopt a wire ``trace`` document as the ambient context.

    Used server-side: spans opened inside the ``with`` block chain
    under the client's sending span, so the reassembled tree crosses
    the process boundary seamlessly.  A malformed document adopts
    nothing (the request still runs).
    """

    def __init__(self, trace_doc: Any) -> None:
        ctx = None
        if isinstance(trace_doc, dict):
            trace_id = trace_doc.get("trace_id")
            parent = trace_doc.get("parent_id")
            if isinstance(trace_id, str) and isinstance(parent, str):
                ctx = (trace_id, parent)
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> "adopted":
        if self._ctx is not None:
            self._token = _ctx.set(self._ctx)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._token is not None:
            _ctx.reset(self._token)
            self._token = None


class recording_scope:
    """Collect every span finished while the scope is active.

    The yielded list is shared by reference across context copies
    (``to_thread``, task groups), so worker-side spans appear in it;
    it is what a server attaches to the response's ``trace`` key.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._token = None

    def __enter__(self) -> List[Dict[str, Any]]:
        self._token = _scope.set(self.spans)
        return self.spans

    def __exit__(self, *exc: Any) -> None:
        if self._token is not None:
            _scope.reset(self._token)
            self._token = None


def ingest(spans: Any) -> int:
    """Merge remote span documents (a response's ``trace.spans``) into
    the local ring — and the active recording scope, so a router
    forwards shard spans upward.  Span ids already buffered are
    skipped (an in-process test server records straight into the same
    ring its client ingests from).  Returns the number ingested."""
    if not isinstance(spans, (list, tuple)):
        return 0
    n = 0
    for doc in spans:
        if (
            isinstance(doc, dict)
            and isinstance(doc.get("trace_id"), str)
            and isinstance(doc.get("span_id"), str)
            and isinstance(doc.get("name"), str)
        ):
            ident = (doc["trace_id"], doc["span_id"])
            with _ring_lock:
                duplicate = ident in _ring_ids
            if duplicate:
                continue
            _record(dict(doc))
            n += 1
    return n


def ring_spans() -> List[Dict[str, Any]]:
    """Every buffered span, oldest first."""
    with _ring_lock:
        return list(_ring)


def trace_spans(trace_id: str) -> List[Dict[str, Any]]:
    """The buffered spans of one trace, oldest first."""
    with _ring_lock:
        return [s for s in _ring if s.get("trace_id") == trace_id]


def span_tree(
    trace_id: str, spans: Optional[Iterable[Dict[str, Any]]] = None
) -> List[Dict[str, Any]]:
    """The trace as a forest of ``{**span, "children": [...]}`` nodes.

    ``spans`` defaults to the ring; spans whose parent is missing
    (evicted, or the root) become roots.  Children sort by start time,
    then span id — deterministic for equal clocks.
    """
    pool = [
        dict(s)
        for s in (spans if spans is not None else ring_spans())
        if s.get("trace_id") == trace_id
    ]
    by_id = {s["span_id"]: s for s in pool}
    for s in pool:
        s["children"] = []
    roots: List[Dict[str, Any]] = []
    for s in pool:
        parent = s.get("parent_id")
        if parent is not None and parent in by_id:
            by_id[parent]["children"].append(s)
        else:
            roots.append(s)

    def _sort(nodes: List[Dict[str, Any]]) -> None:
        nodes.sort(key=lambda s: (s.get("start", 0.0), s["span_id"]))
        for node in nodes:
            _sort(node["children"])

    _sort(roots)
    return roots


def render_tree(trace_id: str, spans: Optional[Iterable[Dict[str, Any]]] = None) -> str:
    """A human-readable indented rendering of one trace's span tree."""
    lines = [f"trace {trace_id}"]

    def _walk(node: Dict[str, Any], depth: int) -> None:
        attrs = node.get("attrs") or {}
        extra = "".join(
            f" {k}={v}" for k, v in sorted(attrs.items())
        )
        error = f" ERROR={node['error']}" if node.get("error") else ""
        lines.append(
            f"{'  ' * depth}- {node.get('name')} "
            f"[{node.get('duration_ms', 0.0):.2f}ms "
            f"pid={node.get('pid')}]"
            f"{extra}{error}"
        )
        for child in node.get("children", ()):
            _walk(child, depth + 1)

    for root in span_tree(trace_id, spans):
        _walk(root, 1)
    return "\n".join(lines)
