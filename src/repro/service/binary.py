"""Length-prefixed binary wire format: the NDJSON protocol's fast twin.

Frame layout (all integers little-endian)::

    +-------+---------+--------+----------+=================+
    | magic | version | opcode | length   | payload         |
    | "RB"  | u8 = 1  | u8     | u32      | length bytes    |
    +-------+---------+--------+----------+=================+

    payload (opcode OP_DOC):
    +----------+===========+---------+--------------------------+
    | ctrl_len | ctrl JSON | n_blobs | n_blobs x (code,len,raw) |
    | u32      | bytes     | u32     | u8,u32,raw column bytes  |
    +----------+===========+---------+--------------------------+

The control segment is the request/response document as compact JSON —
hand-rolled struct framing, no third-party codec — with every
payload-heavy list (job records, rectangle records, tree edge/path
rows, positional assignments) lifted out into raw little-endian NumPy
column buffers: exactly the flat coordinate layout
:mod:`repro.core.occupancy` consumes.  A 10k-job instance rides the
wire as a handful of ``float64``/``int64`` columns instead of ~1.5 MB
of JSON text, and decoding is ``np.frombuffer`` over the frame's
memoryview — zero-copy until the document dicts are materialized.

Column extraction is *conservative*: a list is packed only when it is
uniform (records sharing one key set with scalar values; rows of equal
width; flat numeric runs), otherwise it stays in the control JSON.
That makes ``decode_binary(encode_binary(doc)) == doc`` hold for every
document, not just the well-formed ones — the round-trip property the
wire tests assert over all families.  ``None`` entries in non-negative
integer columns (unscheduled positions in ``assignment_by_position``)
ride as a ``-1`` sentinel in an ``int64`` column.

A job table already held column-wise (:class:`~repro.io.RecordColumns`
over an instance's :class:`~repro.core.jobs.JobTable`, what a remote
solve's instance document carries) goes through the same column packer
without ever becoming records: a typed column is written as its array's
bytes, with no type sweep or conversion, and the frame is
byte-identical to the one its record list would give.

Capability negotiation (the ``hello`` op) rides NDJSON so a
binary-unaware peer can always parse it: the client's first line is
``{"op": "hello", "wire": "binary", "version": 1}``; a binary-capable
server answers ``{"ok": true, "wire": "binary", "version": 1}`` and
both sides switch to frames, while an old server answers with an
unknown-op error (or a ``--wire ndjson`` server declines with
``{"ok": true, "wire": "ndjson"}``) and the client transparently stays
on NDJSON — no flag day.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InstanceError
from ..core.jobs import column_kind
from ..io import RecordColumns, json_default

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "OP_DOC",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "WIRE_MODES",
    "INTERN_VERSION",
    "TRACE_VERSION",
    "INTERN_MIN_BLOB_BYTES",
    "InternPool",
    "intern_frame",
    "resolve_wire",
    "hello_doc",
    "parse_header",
    "encode_binary",
    "decode_binary",
    "decode_payload",
]

MAGIC = b"RB"
WIRE_VERSION = 1
#: The only frame kind so far: one request/response document.
OP_DOC = 1

_HEADER = struct.Struct("<2sBBI")
HEADER_BYTES = _HEADER.size
_U32 = struct.Struct("<I")
_BLOB_HEADER = struct.Struct("<BI")

#: Same ceiling as the NDJSON line cap — one frame is one request.
MAX_FRAME_BYTES = 64 << 20

#: Client/server wire preference: ``auto`` negotiates binary and falls
#: back, ``ndjson``/``binary`` force a side of the negotiation.
WIRE_MODES = ("auto", "ndjson", "binary")

# Lists shorter than this stay inline JSON: the blob bookkeeping costs
# more than it saves below a handful of elements.
_MIN_PACK = 8
# Per-blob dtype codes.
_CODE_I64 = 0
_CODE_F64 = 1
#: A blob whose payload is the 16-byte digest of a column both peers
#: have already seen on this connection direction (see
#: :class:`InternPool`), replacing the raw bytes.
_CODE_REF = 2
_DTYPES = {_CODE_I64: "<i8", _CODE_F64: "<f8"}
_KIND_CODES = {"i": _CODE_I64, "f": _CODE_F64}
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Version of the column-interning extension negotiated in the hello
#: (``"intern"`` key); peers that do not echo it never see REF blobs.
INTERN_VERSION = 1
#: Version of the trace-propagation extension negotiated in the hello
#: (``"trace"`` key).  A client that negotiated it may attach a
#: ``trace`` context document to solve requests and receives the
#: server's request-scoped spans back in the response; peers that do
#: not echo it never see either key.  Orthogonal to the frame upgrade —
#: an NDJSON-pinned client still sends the hello (with
#: ``wire="ndjson"``) when tracing is on, so the server declines the
#: binary upgrade but acks the trace capability.
TRACE_VERSION = 1
#: Columns below this many raw bytes are never interned — the digest
#: bookkeeping would cost more than the resend.
INTERN_MIN_BLOB_BYTES = 512
#: Registration budget per connection direction; once either bound is
#: reached, new columns simply ride raw (a deterministic rule, so both
#: peers stop registering at the same frame).
INTERN_MAX_ENTRIES = 4096
INTERN_MAX_BYTES = 64 << 20
_DIGEST_BYTES = 16


def resolve_wire(wire: Optional[str] = None) -> str:
    """Validate a wire mode; ``None`` reads ``REPRO_WIRE`` (default auto)."""
    source = "wire"
    if wire is None:
        wire = os.environ.get("REPRO_WIRE") or "auto"
        source = "environment variable REPRO_WIRE"
    wire = str(wire).strip().lower()
    if wire not in WIRE_MODES:
        raise ValueError(
            f"{source} must be one of {WIRE_MODES}, got {wire!r}"
        )
    return wire


def hello_doc(wire: str = "binary") -> Dict[str, Any]:
    """The client's capability-negotiation request (sent as NDJSON).

    ``"intern"`` advertises the column-interning extension, ``"trace"``
    the trace-propagation extension; an older server ignores unknown
    keys (and never echoes them back), so REF blobs and span documents
    only ever flow between peers that both negotiated them.  ``wire``
    is the frame preference — an NDJSON-pinned client negotiating only
    the trace capability passes ``"ndjson"`` so the server declines
    the binary upgrade.
    """
    return {
        "op": "hello",
        "wire": wire,
        "version": WIRE_VERSION,
        "intern": INTERN_VERSION,
        "trace": TRACE_VERSION,
    }


# ----------------------------------------------------------------------
# column interning
# ----------------------------------------------------------------------
class InternPool:
    """One connection direction's interned-column state.

    Repeated solves ship the same columns over and over — a delta
    stream re-sends every unchanged coordinate column of an instance,
    and warm-cache responses re-send identical assignment columns.
    Interning replaces a repeated column blob with a 16-byte BLAKE2b
    digest of its raw bytes (:data:`_CODE_REF`), cutting the frame to
    control JSON plus digests.

    Synchronization is by *deterministic replay*, never by messages:
    both peers apply the identical registration rule — every raw blob
    of dtype code i64/f64 with at least :data:`INTERN_MIN_BLOB_BYTES`
    bytes, in frame order, until the entry/byte budget fills — to the
    same frame sequence (TCP gives each direction one total order), so
    the sender's pool and the receiver's pool always agree on which
    digests are known.  The receiver registers via :meth:`observe`,
    which walks only the blob *headers* of a payload — cheap enough to
    run on every received frame, including ones a replay cache answers
    without ever JSON-decoding (skipping those would desync the pools).

    Digests are content-addressed, so a REF means the same bytes on
    any connection; pools are still per-direction because resolution
    requires having *seen* the raw bytes on that direction before.
    """

    __slots__ = ("max_entries", "max_bytes", "_known", "_bytes", "stats")

    def __init__(
        self,
        max_entries: int = INTERN_MAX_ENTRIES,
        max_bytes: int = INTERN_MAX_BYTES,
    ) -> None:
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._known: Dict[bytes, Tuple[int, bytes]] = {}
        self._bytes = 0
        self.stats = {"registered": 0, "refs": 0, "bytes_saved": 0}

    @staticmethod
    def digest(data: bytes) -> bytes:
        return hashlib.blake2b(data, digest_size=_DIGEST_BYTES).digest()

    @staticmethod
    def internable(code: int, nbytes: int) -> bool:
        return code in _DTYPES and nbytes >= INTERN_MIN_BLOB_BYTES

    def __len__(self) -> int:
        return len(self._known)

    def register(self, code: int, data: bytes) -> Optional[bytes]:
        """Fold one raw blob in; returns its digest when (now) known.

        ``None`` means the blob is not internable or the budget is
        full — either way it rides raw, on both ends, forever.
        """
        if not self.internable(code, len(data)):
            return None
        d = self.digest(data)
        if d in self._known:
            return d
        if (
            len(self._known) >= self.max_entries
            or self._bytes + len(data) > self.max_bytes
        ):
            return None
        self._known[d] = (code, bytes(data))
        self._bytes += len(data)
        self.stats["registered"] += 1
        return d

    def lookup(self, digest: bytes) -> Optional[Tuple[int, bytes]]:
        return self._known.get(digest)

    def resolve(self, digest: bytes) -> Tuple[int, bytes]:
        """The ``(code, raw bytes)`` a REF names; unknown = hard error
        (the frame cannot be decoded, same as a truncated blob)."""
        entry = self._known.get(digest)
        if entry is None:
            raise InstanceError(
                "interned column ref names an unknown digest; the "
                "peers' intern pools are out of sync"
            )
        return entry

    def observe(self, payload: Any) -> None:
        """Receiver-side registration pass over one frame payload.

        Walks the blob headers only (no control-JSON decode), so it is
        safe and cheap to call on *every* received binary frame —
        which is exactly what keeps this pool in lockstep with the
        sender's.  Malformed payloads are ignored here; the decoder
        raises the actionable error.
        """
        view = memoryview(payload)
        total = len(view)
        try:
            (ctrl_len,) = _U32.unpack_from(view, 0)
            offset = _U32.size + ctrl_len
            (n_blobs,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            for _ in range(n_blobs):
                code, nbytes = _BLOB_HEADER.unpack_from(view, offset)
                offset += _BLOB_HEADER.size
                if offset + nbytes > total:
                    return
                if code in _DTYPES:
                    self.register(code, bytes(view[offset:offset + nbytes]))
                offset += nbytes
        except struct.error:
            return


def intern_frame(
    frame: bytes,
    pool: InternPool,
    stats: Optional[Dict[str, int]] = None,
) -> bytes:
    """Sender-side interning: one canonical frame -> its wire form.

    Every known-digest column blob is replaced by a REF; every fresh
    internable blob is sent raw and registered (so the *next* frame can
    REF it — including a later blob of this same frame).  Frames that
    are not ``OP_DOC`` v1, or where nothing substitutes, pass through
    byte-identical.  ``stats`` (when given) accumulates
    ``intern_blobs_out`` / ``intern_bytes_saved_out``.
    """
    version, opcode, length = parse_header(frame)
    if version != WIRE_VERSION or opcode != OP_DOC:
        return frame
    view = memoryview(frame)[HEADER_BYTES:]
    total = len(view)
    (ctrl_len,) = _U32.unpack_from(view, 0)
    offset = _U32.size + ctrl_len
    (n_blobs,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    head = bytes(view[:offset])
    parts: List[bytes] = [head]
    replaced = 0
    saved = 0
    for i in range(n_blobs):
        code, nbytes = _BLOB_HEADER.unpack_from(view, offset)
        offset += _BLOB_HEADER.size
        data = bytes(view[offset:offset + nbytes])
        offset += nbytes
        digest = None
        if code in _DTYPES and pool.internable(code, nbytes):
            digest = pool.digest(data)
            if pool.lookup(digest) is None:
                pool.register(code, data)
                digest = None  # first occurrence rides raw
        if digest is not None:
            parts.append(_BLOB_HEADER.pack(_CODE_REF, _DIGEST_BYTES))
            parts.append(digest)
            replaced += 1
            saved += nbytes - _DIGEST_BYTES
            pool.stats["refs"] += 1
            pool.stats["bytes_saved"] += nbytes - _DIGEST_BYTES
        else:
            parts.append(_BLOB_HEADER.pack(code, nbytes))
            parts.append(data)
    if not replaced:
        return frame
    if stats is not None:
        stats["intern_blobs_out"] = (
            stats.get("intern_blobs_out", 0) + replaced
        )
        stats["intern_bytes_saved_out"] = (
            stats.get("intern_bytes_saved_out", 0) + saved
        )
    payload = b"".join(parts)
    return _HEADER.pack(MAGIC, WIRE_VERSION, OP_DOC, len(payload)) + payload


# ----------------------------------------------------------------------
# column extraction
# ----------------------------------------------------------------------
def _column_blob(
    kind: Optional[str],
    values: Sequence[Any],
    blobs: List[Tuple[int, bytes]],
) -> Optional[List[Any]]:
    """Append one column buffer of :func:`column_kind` ``kind``;
    returns its ``[kind, index]`` ref.

    ``None`` (keep the column as JSON) when ``kind`` is ``None`` or an
    int does not fit int64.
    """
    if kind is None:
        return None
    try:
        if kind == "f":
            data = np.fromiter(values, "<f8", len(values)).tobytes()
            code = _CODE_F64
        elif kind == "i":
            data = np.fromiter(values, "<i8", len(values)).tobytes()
            code = _CODE_I64
        else:  # "oi": non-negative ints or None; -1 is the sentinel
            data = np.fromiter(
                [-1 if v is None else v for v in values], "<i8", len(values)
            ).tobytes()
            code = _CODE_I64
    except OverflowError:
        return None
    blobs.append((code, data))
    return [kind, len(blobs) - 1]


def _pack_columns(
    keys: Tuple[str, ...],
    columns: Sequence[Tuple[Optional[str], Any]],
    n: int,
    blobs: List[Tuple[int, bytes]],
) -> Optional[Dict[str, Any]]:
    """Named ``(kind, values)`` columns of ``n`` records -> one
    ``"recs"`` control entry.

    A typed column (:class:`~repro.core.jobs.JobTable` kind ``"f"`` or
    ``"i"``) is written as its array's bytes; an untyped one (kind
    ``None``) is typed here from its values.  Non-columnable values stay
    as inline JSON columns, so irregular records merely lose the fast
    path, never correctness; ``None`` (keep the records inline) when no
    column packs at all.
    """
    cols: Dict[str, Any] = {}
    packed_any = False
    for key, (kind, values) in zip(keys, columns):
        if kind is not None:
            blobs.append((_KIND_CODES[kind], values.tobytes()))
            ref = [kind, len(blobs) - 1]
        else:
            ref = _column_blob(column_kind(values), values, blobs)
        if ref is None:
            cols[key] = ["j", values]
        else:
            cols[key] = ref
            packed_any = True
    if not packed_any:
        return None
    return {"__b__": ["recs", n, cols]}


def _pack_records(
    value: List[Any], blobs: List[Tuple[int, bytes]]
) -> Optional[Dict[str, Any]]:
    """Uniform flat dicts (job/rect records) -> per-key columns.

    Only the key *set* must agree across records (values are extracted
    by name), then the columns go through :func:`_pack_columns`, the
    one packer a :class:`~repro.io.RecordColumns` table uses directly.
    """
    first = value[0]
    keys = tuple(first)
    if any(type(k) is not str or k.startswith("__") for k in keys):
        return None
    # Key-set uniformity at C speed: equal lengths plus every named key
    # present (the itemgetter sweep below raises on a missing one)
    # together imply identical key sets — no per-record set builds.
    n_keys = len(keys)
    if not all(map(n_keys.__eq__, map(len, value))):
        return None
    try:
        columns = [
            (None, [*map(operator.itemgetter(key), value)]) for key in keys
        ]
    except (KeyError, TypeError, IndexError):
        return None
    return _pack_columns(keys, columns, len(value), blobs)


def _pack_rows(
    value: List[Any], blobs: List[Tuple[int, bytes]]
) -> Optional[Dict[str, Any]]:
    """Uniform numeric rows (tree ``edges``/``paths``) -> columns."""
    width = len(value[0])
    if not 1 <= width <= 16:
        return None
    for row in value:
        if type(row) is not list or len(row) != width:
            return None
    refs = []
    for c in range(width):
        col = [row[c] for row in value]
        ref = _column_blob(column_kind(col), col, blobs)
        if ref is None:
            return None
        refs.append(ref)
    return {"__b__": ["rows", len(value), refs]}


def _pack_list(
    value: List[Any], blobs: List[Tuple[int, bytes]]
) -> Optional[Dict[str, Any]]:
    kind = column_kind(value)
    if kind is not None:
        ref = _column_blob(kind, value, blobs)
        if ref is not None:
            return {"__b__": ref}
        return None
    first = value[0]
    if isinstance(first, dict):
        return _pack_records(value, blobs)
    if isinstance(first, list):
        return _pack_rows(value, blobs)
    return None


def _pack(value: Any, blobs: List[Tuple[int, bytes]]) -> Any:
    if isinstance(value, RecordColumns):
        # Exactly what the record list it stands for packs to.
        if len(value) >= _MIN_PACK:
            ref = _pack_columns(value.keys, value.columns, len(value), blobs)
            if ref is not None:
                return ref
        return [_pack(v, blobs) for v in value]
    if isinstance(value, dict):
        packed = {k: _pack(v, blobs) for k, v in value.items()}
        if "__b__" in value or "__e__" in value:
            # A document that literally contains our marker keys is
            # wrapped so decode can tell it apart from a column ref.
            return {"__e__": packed}
        return packed
    if isinstance(value, list):
        if len(value) >= _MIN_PACK:
            ref = _pack_list(value, blobs)
            if ref is not None:
                return ref
        return [_pack(v, blobs) for v in value]
    return value


# ----------------------------------------------------------------------
# column resolution
# ----------------------------------------------------------------------
def _resolve_ref(ref: Any, blobs: List[Tuple[int, memoryview]]) -> List[Any]:
    if not isinstance(ref, list) or len(ref) != 2:
        raise InstanceError(f"malformed column ref {ref!r}")
    kind, payload = ref
    if kind == "j":
        if not isinstance(payload, list):
            raise InstanceError("malformed inline column")
        return payload
    if kind not in ("i", "f", "oi") or not isinstance(payload, int):
        raise InstanceError(f"malformed column ref {ref!r}")
    if not 0 <= payload < len(blobs):
        raise InstanceError(
            f"column ref #{payload} out of range ({len(blobs)} blobs)"
        )
    code, data = blobs[payload]
    expected = _CODE_F64 if kind == "f" else _CODE_I64
    if code != expected:
        raise InstanceError(
            f"column ref #{payload} dtype mismatch (kind {kind!r})"
        )
    values = np.frombuffer(data, dtype=_DTYPES[code]).tolist()
    if kind == "oi":
        return [None if v < 0 else v for v in values]
    return values


def _unpack(value: Any, blobs: List[Tuple[int, memoryview]]) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {"__b__"}:
            spec = value["__b__"]
            if isinstance(spec, list) and spec and spec[0] == "recs":
                _, n, cols = spec
                resolved = {
                    key: _resolve_ref(ref, blobs)
                    for key, ref in cols.items()
                }
                for key, col in resolved.items():
                    if len(col) != n:
                        raise InstanceError(
                            f"column {key!r} holds {len(col)} values, "
                            f"expected {n}"
                        )
                keys = list(resolved)
                return [
                    dict(zip(keys, row))
                    for row in zip(*(resolved[k] for k in keys))
                ]
            if isinstance(spec, list) and spec and spec[0] == "rows":
                _, n, refs = spec
                cols = [_resolve_ref(ref, blobs) for ref in refs]
                for col in cols:
                    if len(col) != n:
                        raise InstanceError(
                            f"row column holds {len(col)} values, "
                            f"expected {n}"
                        )
                return [list(row) for row in zip(*cols)] if n else []
            return _resolve_ref(spec, blobs)
        if set(value.keys()) == {"__e__"}:
            inner = value["__e__"]
            if not isinstance(inner, dict):
                raise InstanceError("malformed escape wrapper")
            return {k: _unpack(v, blobs) for k, v in inner.items()}
        return {k: _unpack(v, blobs) for k, v in value.items()}
    if isinstance(value, list):
        return [_unpack(v, blobs) for v in value]
    return value


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def parse_header(header: bytes) -> Tuple[int, int, int]:
    """``(version, opcode, length)`` of a frame header; checks magic."""
    if len(header) < HEADER_BYTES:
        raise InstanceError(
            f"short frame header: {len(header)} bytes, "
            f"expected {HEADER_BYTES}"
        )
    magic, version, opcode, length = _HEADER.unpack(header[:HEADER_BYTES])
    if magic != MAGIC:
        raise InstanceError(
            f"bad frame magic {magic!r}: not a repro binary frame "
            f"(expected {MAGIC!r}; is the peer speaking NDJSON?)"
        )
    return version, opcode, length


def encode_binary(doc: Dict[str, Any], opcode: int = OP_DOC) -> bytes:
    """One document as a framed binary message (header included)."""
    blobs: List[Tuple[int, bytes]] = []
    ctrl = json.dumps(
        _pack(doc, blobs), separators=(",", ":"), default=json_default
    ).encode()
    parts = [_U32.pack(len(ctrl)), ctrl, _U32.pack(len(blobs))]
    for code, data in blobs:
        parts.append(_BLOB_HEADER.pack(code, len(data)))
        parts.append(data)
    payload = b"".join(parts)
    if len(payload) > MAX_FRAME_BYTES:
        raise InstanceError(
            f"frame payload of {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(MAGIC, WIRE_VERSION, opcode, len(payload)) + payload


def decode_payload(
    payload: Any, *, intern: Optional[InternPool] = None
) -> Dict[str, Any]:
    """The document of one ``OP_DOC`` frame payload (header stripped).

    Accepts ``bytes`` or ``memoryview``; column buffers are read as
    zero-copy ``np.frombuffer`` views of the payload.  Every malformed
    shape — short segments, bad control JSON, blob count/length
    mismatches, trailing garbage — raises :class:`InstanceError` so the
    server can answer with an error *response* instead of dying.

    ``intern`` resolves :data:`_CODE_REF` blobs against the
    connection's receive-direction pool (registration itself happens
    in :meth:`InternPool.observe`, which callers run on every frame);
    without a pool a REF blob is a protocol error.
    """
    view = memoryview(payload)
    total = len(view)
    if total < _U32.size:
        raise InstanceError("truncated frame: missing control length")
    (ctrl_len,) = _U32.unpack_from(view, 0)
    offset = _U32.size
    if total < offset + ctrl_len + _U32.size:
        raise InstanceError(
            f"truncated frame: control segment of {ctrl_len} bytes "
            f"does not fit in a {total}-byte payload"
        )
    ctrl_bytes = bytes(view[offset:offset + ctrl_len])
    offset += ctrl_len
    try:
        ctrl = json.loads(ctrl_bytes)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise InstanceError(
            f"frame control segment is not valid JSON: {exc}"
        ) from exc
    (n_blobs,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    blobs: List[Tuple[int, memoryview]] = []
    for i in range(n_blobs):
        if total < offset + _BLOB_HEADER.size:
            raise InstanceError(
                f"truncated frame: blob #{i} header missing"
            )
        code, nbytes = _BLOB_HEADER.unpack_from(view, offset)
        offset += _BLOB_HEADER.size
        if code == _CODE_REF:
            if intern is None:
                raise InstanceError(
                    f"blob #{i} is an interned column ref, but "
                    "interning was not negotiated on this connection"
                )
            if nbytes != _DIGEST_BYTES:
                raise InstanceError(
                    f"blob #{i}: column ref digest of {nbytes} bytes, "
                    f"expected {_DIGEST_BYTES}"
                )
        elif code not in _DTYPES:
            raise InstanceError(f"unknown column dtype code {code}")
        elif nbytes % 8:
            raise InstanceError(
                f"blob #{i} length {nbytes} is not a multiple of 8"
            )
        if total < offset + nbytes:
            raise InstanceError(
                f"truncated frame: blob #{i} declares {nbytes} bytes, "
                f"{total - offset} remain"
            )
        if code == _CODE_REF:
            rcode, rdata = intern.resolve(bytes(view[offset:offset + nbytes]))
            blobs.append((rcode, memoryview(rdata)))
        else:
            blobs.append((code, view[offset:offset + nbytes]))
        offset += nbytes
    if offset != total:
        raise InstanceError(
            f"frame payload has {total - offset} trailing bytes"
        )
    doc = _unpack(ctrl, blobs)
    if not isinstance(doc, dict):
        raise InstanceError(
            f"frame must carry a JSON object, got {type(doc).__name__}"
        )
    return doc


def decode_binary(frame: bytes) -> Dict[str, Any]:
    """Parse one complete framed message (the inverse of
    :func:`encode_binary`)."""
    version, opcode, length = parse_header(frame)
    if version != WIRE_VERSION:
        raise InstanceError(
            f"unsupported wire version {version} "
            f"(this peer speaks {WIRE_VERSION})"
        )
    if opcode != OP_DOC:
        raise InstanceError(f"unknown frame opcode {opcode}")
    if length != len(frame) - HEADER_BYTES:
        raise InstanceError(
            f"frame declares {length} payload bytes, "
            f"got {len(frame) - HEADER_BYTES}"
        )
    return decode_payload(memoryview(frame)[HEADER_BYTES:])
