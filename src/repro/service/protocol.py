"""Wire protocol of the solve service: newline-delimited JSON.

One request per line, one (or, for streams, several) response lines
per request — a protocol trivially speakable from any language, shell
(``nc``), or test harness, with no dependencies beyond the stdlib.

A negotiated binary twin (:func:`encode_binary`/:func:`decode_binary`,
re-exported from :mod:`repro.service.binary`) carries the same
documents as length-prefixed frames with raw NumPy column buffers for
the payload-heavy lists; connections start on NDJSON and upgrade via
the ``hello`` op (:func:`hello_doc`), so a peer that has never heard
of frames keeps speaking plain lines.

Requests are JSON objects::

    {"op": "solve", "objective": "minbusy", "instance": {...},
     "params": {...}, "id": 7, "deadline": 2.5}
    {"op": "solve_many", "objective": "rect2d", "instances": [{...}]}
    {"op": "cache_stats"} | {"op": "objectives"} | {"op": "ping"}
    {"op": "health"}

``ping`` is pure liveness (one line in, one ``pong`` line out);
``health`` is the readiness probe behind fleet health checks — it
reports the serving configuration, in-flight load, and (for a sharded
server) the downstream fleet's circuit summary (:func:`health_doc`).

``instance`` documents use exactly the family JSON shapes of
:mod:`repro.io` (the CLI's file formats — one source of truth);
``params`` carries per-call family parameters (``budget`` for
MaxThroughput; ``power`` as a ``{busy_power, idle_power, wake_cost}``
object for energy).  ``id`` is an opaque client token echoed on every
response line; ``deadline`` (seconds) bounds one request's wait.

Responses::

    {"ok": true, "result": {...}, "id": 7}              # solve
    {"ok": true, "seq": 0, "result": {...}}             # solve_many item
    {"ok": true, "done": true, "count": 3}              # solve_many end
    {"ok": false, "error": {"type": "InstanceError", "message": "..."}}

``solve_many`` responses stream: one line per result in input order,
then a terminal ``done`` line — a client can consume results as they
arrive.  Result documents are the canonical JSON rendering of
:class:`~repro.engine.EngineResult` (:func:`result_to_doc`): scalar
provenance fields plus the *positional* assignment/detail encodings,
which is what makes service results byte-comparable with direct
in-process solves (the tier-2 smoke test asserts exactly that).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Mapping, Optional

from ..core.errors import InstanceError
from ..io import json_default
from .binary import (  # noqa: F401  (protocol's public binary surface)
    MAX_FRAME_BYTES,
    WIRE_MODES,
    WIRE_VERSION,
    decode_binary,
    encode_binary,
    hello_doc,
    resolve_wire,
)

__all__ = [
    "MAX_LINE_BYTES",
    "MAX_FRAME_BYTES",
    "WIRE_MODES",
    "WIRE_VERSION",
    "encode",
    "decode",
    "encode_binary",
    "decode_binary",
    "hello_doc",
    "resolve_wire",
    "result_to_doc",
    "params_from_doc",
    "deadline_from_doc",
    "error_doc",
    "health_doc",
]

#: Upper bound on one request/response line; protects the server from
#: unbounded buffering on garbage input (a ~1M-job instance document
#: still fits comfortably).
MAX_LINE_BYTES = 64 << 20


def encode(doc: Mapping[str, Any]) -> bytes:
    """One protocol line: compact JSON + newline (a column-wise job
    table is written out as its record list)."""
    return (
        json.dumps(doc, separators=(",", ":"), default=json_default).encode()
        + b"\n"
    )


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; malformed input raises InstanceError.

    ``RecursionError`` is in the malformed category too: pathologically
    nested JSON (``[[[[...``) must come back as an error *response*,
    not tear down the connection.
    """
    try:
        doc = json.loads(line)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise InstanceError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(
            f"request must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def _jsonify(value: Any) -> Any:
    """Positional encodings to plain JSON (tuples become lists)."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # numpy scalars and friends: collapse to their Python value.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def result_to_doc(result: Any) -> Dict[str, Any]:
    """The canonical JSON form of an ``EngineResult``.

    Everything positional, nothing object-bound: the ``schedule`` is
    represented by ``assignment_by_position`` (its id-free encoding),
    so a service response and a direct in-process solve of the same
    content serialize identically — the differential tests compare
    these documents for byte equality.
    """
    return {
        "objective": result.objective,
        "algorithm": result.algorithm,
        "guarantee": result.guarantee,
        "cost": result.cost,
        "throughput": result.throughput,
        "fingerprint": result.fingerprint,
        "assignment_by_position": _jsonify(
            list(result.assignment_by_position)
        ),
        # The presence bit matters when the assignment is empty (an
        # empty instance still carries an empty Schedule): without it
        # a remote client could not tell a schedule-bearing family
        # from a detail-only one and would drop the Schedule a local
        # session keeps — same reason strip_for_store preserves empty
        # schedules.
        "has_schedule": result.schedule is not None,
        "detail": _jsonify(result.detail),
        "from_cache": result.from_cache,
        "solve_seconds": result.solve_seconds,
    }


def params_from_doc(
    objective: str, params: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Engine keyword arguments from a request's ``params`` object.

    JSON carries only data, so family parameters that are objects in
    the Python API are rebuilt here: ``power`` (energy objective)
    becomes a :class:`~repro.energy.PowerModel`.  Scalars pass through
    unchanged; non-object params documents raise InstanceError.
    """
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise InstanceError(
            f"params must be a JSON object, got {type(params).__name__}"
        )
    out: Dict[str, Any] = dict(params)
    power = out.get("power")
    if power is not None:
        from ..energy import PowerModel

        if not isinstance(power, Mapping):
            raise InstanceError(
                "params.power must be an object like "
                '{"busy_power": 1.0, "idle_power": 0.3, "wake_cost": 2.0}'
            )
        try:
            out["power"] = PowerModel(**{str(k): v for k, v in power.items()})
        except TypeError as exc:
            raise InstanceError(f"bad power model: {exc}") from exc
    if "budget" in out and out["budget"] is not None:
        try:
            out["budget"] = float(out["budget"])
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"bad budget: {exc}") from exc
    return out


def deadline_from_doc(
    doc: Mapping[str, Any], default: Optional[float] = None
) -> Optional[float]:
    """A request's ``deadline`` in seconds (``default`` when absent).

    Checked like :class:`~repro.api.EngineConfig`'s deadline — seconds
    above zero, or ``null`` for unbounded — and, as it arrives as
    untyped JSON, also a finite real number: strings, lists and
    booleans raise InstanceError naming the field.
    """
    if "deadline" not in doc:
        return default
    value = doc["deadline"]
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise InstanceError(
            "deadline must be a finite number of seconds > 0 or null, "
            f"got {value!r}"
        )
    return float(value)


def health_doc(server: Any) -> Dict[str, Any]:
    """The ``health`` response body for one serve process.

    ``server`` is anything server-shaped (``backend``, ``executor``
    with ``max_concurrency``/``_inflight``, ``session``); duck-typed
    so tests can probe it without a socket.  When the server's session
    fans out to a shard fleet, the fleet's circuit summary rides along
    under ``"shards"`` — a load balancer can eject a router whose
    whole downstream fleet is dark without a second request.
    """
    import os

    executor = getattr(server, "executor", None)
    doc: Dict[str, Any] = {
        "status": "healthy",
        "pid": os.getpid(),
        "backend": getattr(server, "backend", None),
        "max_concurrency": getattr(executor, "max_concurrency", None),
        "inflight": len(getattr(executor, "_inflight", ()) or ()),
    }
    session = getattr(server, "session", None)
    fleet = getattr(
        getattr(session, "default_executor", None), "health", None
    )
    if fleet is not None:
        doc["shards"] = fleet.summary()
        if doc["shards"].get("healthy", 0) == 0:
            doc["status"] = "degraded"
    if getattr(server, "_draining", False):
        # SIGTERM received: the listener is (about to be) closed, so a
        # balancer should route elsewhere while in-flight work drains.
        doc["status"] = "draining"
    return doc


def error_doc(
    exc: BaseException, request_id: Any = None
) -> Dict[str, Any]:
    """The error-response line for one failed request."""
    doc: Dict[str, Any] = {
        "ok": False,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }
    if request_id is not None:
        doc["id"] = request_id
    return doc
