"""In-memory spans around the public functions of each layer.

The traced benchmark run attributes wall time to the repo's layers
without touching ``src/``: :func:`install` replaces a fixed list of
public functions, methods, one property and the registered objective
specs' ``normalize``/``fingerprint``/``solve`` fields with timing
wrappers, and returns the function that puts every original back.
Untraced runs never call :func:`install`, so they execute the code
exactly as shipped.

A span is ``(span_id, parent_id, name, t0, t1, quantity)``.  Parents
come from a context variable, so they follow calls into
``asyncio.to_thread`` workers and tasks created inside a span.  Times
are ``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so client and server spans share one time
axis.  ``quantity`` is an optional size recorded with the span (bytes
encoded or decoded, tasks handed to an executor).

Span names are the layer names the per-layer metrics use, so that a
later in-program tracer can emit the same names without renaming.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import itertools
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The benchmark's own span around one whole request.
ROOT = "request"
ROUNDTRIP = "service.client.roundtrip"
EXECUTORS = "engine.executors"

#: Registry objective name -> layer prefix of its kernel span.
KERNEL_LAYERS = {
    "minbusy": "minbusy",
    "maxthroughput": "maxthroughput",
    "capacity": "capacity",
    "rect2d": "rect",
    "ring": "topology.ring",
    "tree": "topology.tree",
    "flexible": "flexible",
    "energy": "energy",
}
KERNEL_SPANS = tuple(f"{layer}.solve" for layer in KERNEL_LAYERS.values())


def _out_len(args: tuple, out: Any) -> int:
    return len(out)


def _arg_len(args: tuple, out: Any) -> int:
    return len(args[0])


def _task_count(args: tuple, out: Any) -> int:
    return len(args[1])


def _one(args: tuple, out: Any) -> int:
    return 1


#: Module-level functions: (span name, module, attribute, quantity).
#: Every loaded ``repro`` module that imported the function by name is
#: patched too, so call sites see the wrapper wherever they bound it.
FUNCTIONS = (
    ("engine.plan", "repro.engine.engine", "plan_solve", None),
    ("engine.rebind", "repro.engine.engine", "serve_hit", None),
    ("engine.rebind", "repro.api.remote", "result_from_doc", None),
    ("io.to_dict", "repro.io", "objective_instance_to_dict", None),
    ("io.to_dict", "repro.io", "instance_to_dict", None),
    ("io.from_dict", "repro.io", "objective_instance_from_dict", None),
    ("io.from_dict", "repro.io", "instance_from_dict", None),
    ("service.binary.encode", "repro.service.binary", "encode_binary", None),
    ("service.binary.encode", "repro.service.binary", "intern_frame", None),
    ("service.binary.decode", "repro.service.binary", "decode_payload", None),
    ("service.protocol.encode", "repro.service.protocol", "encode", _out_len),
    ("service.protocol.decode", "repro.service.protocol", "decode", _arg_len),
    (
        "service.protocol.result_doc",
        "repro.service.protocol",
        "result_to_doc",
        None,
    ),
    ("minbusy.dispatch", "repro.minbusy.dispatch", "route_min_busy", None),
    ("minbusy.firstfit", "repro.minbusy.firstfit", "first_fit_machines", None),
)

#: Methods: (span name, module, class, method, quantity, is_async).
METHODS = (
    ("service.binary.decode", "repro.service.binary", "InternPool",
     "observe", None, False),
    (ROUNDTRIP, "repro.service.client", "ServiceClient", "request",
     None, False),
    (ROUNDTRIP, "repro.service.client", "ServiceClient", "solve_many",
     None, False),
    ("engine.tiers.probe", "repro.engine.tiers", "TieredCache", "get",
     None, False),
    ("engine.tiers.probe", "repro.engine.tiers", "TieredCache", "get_many",
     None, False),
    ("engine.tiers.install", "repro.engine.tiers", "TieredCache", "put",
     None, False),
    ("engine.tiers.install", "repro.engine.tiers", "TieredCache",
     "put_many", None, False),
    (EXECUTORS, "repro.engine.executors", "SerialExecutor", "run",
     _task_count, False),
    (EXECUTORS, "repro.engine.executors", "AsyncQueueExecutor", "submit",
     _one, True),
)

#: Properties: (span name, module, class, property).
PROPERTIES = (("core.schedule.cost", "repro.core.schedule", "Schedule", "cost"),)

#: Objective-spec fields wrapped on every registered spec.
SPEC_FIELDS = (("normalize", "engine.normalize"), ("fingerprint", "engine.fingerprint"))

#: Modules imported before patching, so every by-name binding exists.
PRELOAD = (
    "repro.api",
    "repro.api.remote",
    "repro.api.session",
    "repro.cli",
    "repro.engine.objectives",
    "repro.loadgen.validate",
    "repro.service.server",
    "repro.service.client",
)

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "layerbench_parent", default=None
)

Span = Tuple[int, Optional[int], str, float, float, Optional[int]]


class Recorder:
    """Collects spans in memory.

    ``require_parent=True`` (the client) records only spans that run
    inside a :meth:`request` root, so set-up, validation and stats
    calls leave no spans.  The server records everything; the client
    later keeps the server spans that fall inside its round trips.
    """

    def __init__(self, *, require_parent: bool) -> None:
        self.require_parent = require_parent
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def wrap(
        self,
        name: str,
        fn: Callable,
        quantity: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable:
        record = self.spans.append
        ids = self._ids
        require_parent = self.require_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None and require_parent:
                return fn(*args, **kwargs)
            sid = next(ids)
            token = _CURRENT.set(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                _CURRENT.reset(token)
                qty = None if quantity is None or out is None else quantity(args, out)
                record((sid, parent, name, t0, t1, qty))

        return traced

    def wrap_async(
        self,
        name: str,
        fn: Callable,
        quantity: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable:
        """Wrap a function that returns an awaitable: the span covers
        the await, and tasks the awaitable creates inherit the span as
        their parent."""
        record = self.spans.append
        ids = self._ids
        require_parent = self.require_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None and require_parent:
                return fn(*args, **kwargs)

            async def timed():
                sid = next(ids)
                token = _CURRENT.set(sid)
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    _CURRENT.reset(token)
                    qty = quantity(args, None) if quantity else None
                    record((sid, parent, name, t0, t1, qty))

            return timed()

        return traced

    def request(self, call: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``call`` as one root span; returns (result, seconds)."""
        sid = next(self._ids)
        token = _CURRENT.set(sid)
        t0 = time.perf_counter()
        try:
            return call(), time.perf_counter() - t0
        finally:
            t1 = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, None, ROOT, t0, t1, None))


def _targets() -> List[Tuple[Any, str, Any, Any]]:
    """Every ``(owner, attribute, original, replacement factory)``."""
    for module in PRELOAD:
        importlib.import_module(module)
    from repro.core.registry import REGISTRY
    from repro.engine.objectives import ensure_registered

    ensure_registered()
    out = []
    for name, module_name, attr, quantity in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            if vars(module).get(attr) is original:
                out.append(
                    (module, attr, original,
                     lambda rec, fn=original, n=name, q=quantity:
                     rec.wrap(n, fn, q))
                )
    for name, module_name, cls_name, attr, quantity, is_async in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = vars(cls)[attr]
        out.append(
            (cls, attr, original,
             lambda rec, fn=original, n=name, q=quantity, a=is_async:
             (rec.wrap_async if a else rec.wrap)(n, fn, q))
        )
    for name, module_name, cls_name, attr in PROPERTIES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = vars(cls)[attr]
        out.append(
            (cls, attr, original,
             lambda rec, p=original, n=name: property(rec.wrap(n, p.fget)))
        )
    for spec in REGISTRY.specs():
        for field, name in SPEC_FIELDS + (
            ("solve", f"{KERNEL_LAYERS[spec.name]}.solve"),
        ):
            original = getattr(spec, field)
            out.append(
                (spec, field, original,
                 lambda rec, fn=original, n=name: rec.wrap(n, fn))
            )
    return out


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # Objective specs are frozen dataclasses; their fields are
        # plain instance attributes underneath.
        object.__setattr__(owner, attr, value)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them all."""
    targets = _targets()
    # One wrapper per original, shared by every module that bound it,
    # so a function reads the same wherever it is looked up.
    wrappers: Dict[int, Any] = {}
    for owner, attr, original, make in targets:
        if id(original) not in wrappers:
            wrappers[id(original)] = make(recorder)
        _set(owner, attr, wrappers[id(original)])

    def restore() -> None:
        for owner, attr, original, _make in reversed(targets):
            _set(owner, attr, original)

    return restore


def snapshot() -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, current value)`` of every target; call it
    while nothing is installed."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _o, _m in _targets()]


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------


def _covered(t0: float, t1: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, t0), min(e, t1)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Attribution:
    """Self time per layer over a set of request trees.

    ``self_s[name]`` is the summed self time (duration minus the part of
    it that child spans cover) of every span of that name reachable
    from a request root; ``calls[name]`` counts them.  ``qty[side,
    name]`` sums recorded quantities per process side (``"c"`` client,
    ``"s"`` server).  The roots' own self time is the wall time that no
    layer span covers: ``self_s[ROOT]``.
    """

    def __init__(self, client: List[Span], server: List[Span]) -> None:
        nodes: Dict[Tuple[str, int], Span] = {}
        children: Dict[Tuple[str, int], List[Tuple[str, int]]] = defaultdict(list)
        for side, spans in (("c", client), ("s", server)):
            for span in spans:
                nodes[(side, span[0])] = span
        server_top = []
        for (side, sid), span in nodes.items():
            parent = span[1]
            if parent is not None and (side, parent) in nodes:
                children[(side, parent)].append((side, sid))
            elif side == "s":
                server_top.append((side, sid))
        # Server spans have no parent in the client process; each
        # top-level one becomes a child of the client round trip it
        # ran inside.  Spans outside every round trip (set-up, warm-up,
        # stats requests) are dropped.
        trips = sorted(
            (span[3], span[4], key)
            for key, span in nodes.items()
            if key[0] == "c" and span[2] == ROUNDTRIP
        )
        starts = [t[0] for t in trips]
        for key in server_top:
            span = nodes[key]
            mid = (span[3] + span[4]) / 2
            i = bisect.bisect_right(starts, mid) - 1
            if i >= 0 and mid <= trips[i][1]:
                children[trips[i][2]].append(key)

        self.wall_s = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.qty: Dict[Tuple[str, str], int] = defaultdict(int)
        stack = [key for key, span in nodes.items()
                 if key[0] == "c" and span[2] == ROOT]
        self.requests = len(stack)
        while stack:
            key = stack.pop()
            _sid, _parent, name, t0, t1, qty = nodes[key]
            kids = children.get(key, ())
            covered = _covered(
                t0, t1, [(nodes[k][3], nodes[k][4]) for k in kids]
            )
            self.self_s[name] += (t1 - t0) - covered
            self.calls[name] += 1
            if name == ROOT:
                self.wall_s += t1 - t0
            if qty is not None:
                self.qty[(key[0], name)] += qty
            stack.extend(kids)
