"""The loadgen driver: asyncio fan-out, post-run validation, replay.

A run has four phases:

1. **traffic** — ``concurrency`` asyncio workers each own one
   connection (NDJSON, or binary frames after a per-connection hello
   upgrade — see ``LoadgenOptions.wire``) and pull requests from the
   shared :class:`~repro.loadgen.traffic.TrafficModel` stream,
   round-robin across the target endpoints.  A transport failure (a SIGKILLed
   shard, a reset) rotates the worker to the next target and retries
   the request, so a dying fleet member costs retries, not answers.
   Latency and byte counters are recorded here, with nothing else on
   the timed path;
2. **validation** — every recorded response line is judged by the
   :class:`~repro.loadgen.validate.OracleValidator` (registry verifier
   + byte equality against a local session).  Validation is deliberately
   after the traffic phase: oracle solves must not pollute the latency
   measurements;
3. **minimization** — divergences shrink via
   :func:`~repro.loadgen.minimize.minimize_instance` against the live
   fleet and are written as reproducer files;
4. **report** — percentiles, bytes/sec, per-tier hit-rate deltas
   (cache_stats snapshots bracket the traffic phase) and
   orphaned-batch counters.

:func:`replay_reproducer` is the other direction: load a reproducer
file, re-send its exact request, re-judge the response — the command
fails while the bug lives and passes once it is fixed.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import InstanceError
from ..obs.expo import sum_stats
from ..service.binary import HEADER_BYTES, decode_payload, parse_header
from ..service.client import ServiceClient, ServiceError
from ..service.protocol import (
    MAX_LINE_BYTES,
    decode,
    encode,
    encode_binary,
    hello_doc,
    resolve_wire,
)
from .minimize import (
    minimize_instance,
    reproducer_record,
    write_reproducer,
)
from .report import latency_summary
from .traffic import PlannedRequest, TrafficModel
from .validate import OracleValidator, Outcome

__all__ = [
    "LoadgenOptions",
    "run_loadgen",
    "replay_reproducer",
]

#: Clean-EOF rotations one request may absorb before its failures
#: start consuming the regular attempt budget (a draining server
#: closes between requests; an entire fleet mid-restart should not
#: spin forever).
_DRAIN_ROTATIONS = 3


@dataclass
class LoadgenOptions:
    """Knobs of one loadgen run."""

    targets: List[Tuple[str, int]]
    duration: Optional[float] = None
    max_requests: Optional[int] = 200
    concurrency: int = 8
    timeout: float = 30.0
    max_attempts: int = 4
    minimize: bool = True
    max_minimize: int = 3
    reproducer_dir: Optional[Path] = None
    #: Transport the workers negotiate per connection: ``"binary"``
    #: requires the upgrade (a declining target counts as unreachable
    #: and the worker rotates on), ``"ndjson"`` never negotiates,
    #: ``"auto"`` upgrades when the server accepts and falls back
    #: silently.  ``None`` reads ``REPRO_WIRE``.
    wire: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("loadgen needs at least one target endpoint")
        if self.duration is None and self.max_requests is None:
            raise ValueError("set duration and/or max_requests")
        self.wire = resolve_wire(self.wire)


@dataclass
class _Sample:
    """One answered request: what was sent, what came back, how fast."""

    request: PlannedRequest
    responses: List[Dict[str, Any]]
    latency: Optional[float]
    complete: bool  # False for planned abandons/drops (never validated
    # as a full exchange — only the lines actually read)


@dataclass
class _RunState:
    options: LoadgenOptions
    stream: Any
    started: float = 0.0
    issued: int = 0
    samples: List[_Sample] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    retries: int = 0
    reconnects: int = 0
    transport_failures: List[str] = field(default_factory=list)
    abandoned: int = 0
    dropped: int = 0
    wire_connections: Dict[str, int] = field(
        default_factory=lambda: {"ndjson": 0, "binary": 0}
    )
    frame_mutations: int = 0

    def next_request(self) -> Optional[PlannedRequest]:
        opts = self.options
        if (
            opts.max_requests is not None
            and self.issued >= opts.max_requests
        ):
            return None
        if (
            opts.duration is not None
            and time.monotonic() - self.started >= opts.duration
        ):
            return None
        self.issued += 1
        return next(self.stream)


def _mutate_frame(frame: bytes, mutation: str) -> bytes:
    """Corrupt one encoded binary frame (the binary fuzz mutations)."""
    if mutation == "truncate-frame":
        # Fewer bytes than the header declares; the sender hangs up
        # mid-frame and the server's readexactly comes up short.
        return frame[: max(HEADER_BYTES + 1, len(frame) // 2)]
    buf = bytearray(frame)
    if mutation == "bad-magic":
        buf[0:2] = b"XX"
    elif mutation == "version-skew":
        buf[2] = (buf[2] + 41) % 256
    elif mutation == "bad-length":
        # Declare four extra bytes and append garbage: the frame stays
        # well-delimited (the stream keeps its sync) but the payload
        # tail must fail decoding.
        buf += b"\xde\xad\xbe\xef"
        struct.pack_into("<I", buf, 4, len(frame) - HEADER_BYTES + 4)
    else:
        raise ValueError(f"unknown frame mutation {mutation!r}")
    return bytes(buf)


class _Connection:
    """One worker's connection, rotating over the targets.

    Fresh connections negotiate the wire format per
    ``options.wire`` — a hello line before the first request, exactly
    like :class:`repro.service.client.ServiceClient`.  Under
    ``wire="binary"`` a target that declines the upgrade is treated as
    unreachable and the worker rotates on (in a mixed fleet the worker
    finds the binary-capable members); under ``"auto"`` it silently
    stays on NDJSON.
    """

    def __init__(
        self,
        targets: Sequence[Tuple[str, int]],
        first: int,
        state: _RunState,
    ) -> None:
        self._targets = list(targets)
        self._index = first % len(self._targets)
        self._state = state
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._binary = False

    async def ensure(self) -> None:
        if self._writer is not None:
            return
        last_error: Optional[BaseException] = None
        for _ in range(len(self._targets)):
            host, port = self._targets[self._index]
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    host, port, limit=MAX_LINE_BYTES
                )
                await self._negotiate()
                return
            except OSError as exc:
                last_error = exc
                if self._writer is not None:
                    self._writer.close()
                    self._reader = self._writer = None
                self.rotate()
        raise ConnectionError(
            f"no loadgen target reachable (last: {last_error})"
        )

    async def _negotiate(self) -> None:
        assert self._reader is not None and self._writer is not None
        self._binary = False
        wire = self._state.options.wire
        if wire == "ndjson":
            self._state.wire_connections["ndjson"] += 1
            return
        # The loadgen deliberately opts out of column interning: its
        # adversarial replay/mutation harness needs every frame to stay
        # canonical (byte-for-byte reproducible), and this transport
        # maintains no intern pools.  Dropping the key from the hello
        # keeps the server from ever sending interned refs our way.
        hello = hello_doc()
        hello.pop("intern", None)
        payload = encode(hello)
        self._writer.write(payload)
        await self._writer.drain()
        self._state.bytes_sent += len(payload)
        line = await self._reader.readuntil(b"\n")
        self._state.bytes_received += len(line)
        response = decode(line)
        if response.get("ok") and response.get("wire") == "binary":
            self._binary = True
            self._state.wire_connections["binary"] += 1
            return
        if wire == "binary":
            # ConnectionError is an OSError: ensure() rotates on.
            raise ConnectionError(
                f"target declined the binary upgrade: {response}"
            )
        self._state.wire_connections["ndjson"] += 1

    def rotate(self) -> None:
        self._index = (self._index + 1) % len(self._targets)

    async def drop(self, *, rotate: bool = False) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
        self._reader = self._writer = None
        if rotate:
            self.rotate()
            self._state.reconnects += 1

    async def _read_response(self) -> Dict[str, Any]:
        assert self._reader is not None
        if self._binary:
            header = await self._reader.readexactly(HEADER_BYTES)
            _version, _opcode, length = parse_header(header)
            body = await self._reader.readexactly(length)
            self._state.bytes_received += HEADER_BYTES + length
            return decode_payload(body)
        line = await self._reader.readuntil(b"\n")
        self._state.bytes_received += len(line)
        return decode(line)

    async def roundtrip(
        self, request: PlannedRequest
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Send one request, read its response line(s) or frame(s).

        Returns ``(responses, complete)``; planned abandons and drops
        come back incomplete by design.  Transport errors propagate to
        the worker, which rotates and retries.
        """
        await self.ensure()
        assert self._reader is not None and self._writer is not None
        mutation = request.frame_mutation if self._binary else None
        if self._binary:
            payload = encode_binary(request.wire_doc())
            if mutation is not None:
                payload = _mutate_frame(payload, mutation)
                self._state.frame_mutations += 1
        else:
            payload = encode(request.wire_doc())
        self._writer.write(payload)
        await self._writer.drain()
        self._state.bytes_sent += len(payload)
        if mutation == "truncate-frame":
            # Half a frame, then a hangup: the server's readexactly
            # comes up short and it closes; nothing comes back.
            await self.drop()
            self._state.dropped += 1
            return [], False
        if request.drop_connection:
            await self.drop()
            self._state.dropped += 1
            return [], False
        responses: List[Dict[str, Any]] = []
        expected = (
            1 if request.kind == "solve" else len(request.docs) + 1
        )
        if mutation is not None:
            # The corrupted frame never decodes into a batch; the
            # server answers with exactly one error response.
            expected = 1
        while len(responses) < expected:
            doc = await self._read_response()
            responses.append(doc)
            if request.kind == "solve_many" and mutation is None:
                if not doc.get("ok") or doc.get("done"):
                    break  # terminal: batch error or end-of-stream
                if (
                    request.abandon_after is not None
                    and len(responses) >= request.abandon_after
                ):
                    await self.drop()
                    self._state.abandoned += 1
                    return responses, False
        if mutation == "bad-magic":
            # The server answered, then closed the unsyncable stream;
            # follow suit so the next request reconnects cleanly.
            await self.drop()
        return responses, True


async def _worker(
    wid: int, state: _RunState, targets: Sequence[Tuple[str, int]]
) -> None:
    conn = _Connection(targets, wid, state)
    try:
        while True:
            request = state.next_request()
            if request is None:
                return
            attempt = 0
            drained = 0
            while True:
                try:
                    t0 = time.perf_counter()
                    responses, complete = await asyncio.wait_for(
                        conn.roundtrip(request),
                        timeout=state.options.timeout,
                    )
                    latency = time.perf_counter() - t0
                    state.samples.append(
                        _Sample(
                            request=request,
                            responses=responses,
                            latency=latency if complete else None,
                            complete=complete,
                        )
                    )
                    break
                except (
                    OSError,
                    ConnectionError,
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    asyncio.TimeoutError,
                ) as exc:
                    await conn.drop(rotate=True)
                    if (
                        isinstance(exc, asyncio.IncompleteReadError)
                        and not exc.partial
                        and drained < _DRAIN_ROTATIONS
                    ):
                        # A clean EOF before any response bytes is a
                        # target draining (SIGTERM rolling restart),
                        # not a failed request: the server finished
                        # what it had accepted and closed between
                        # requests.  Rotate to the next target without
                        # burning one of this request's attempts —
                        # bounded, so a fleet that is *all* shutting
                        # down still fails over to the attempt budget.
                        drained += 1
                        continue
                    attempt += 1
                    if attempt >= state.options.max_attempts:
                        state.transport_failures.append(
                            f"request #{request.seq} ({request.kind} "
                            f"{request.family}): "
                            f"{type(exc).__name__}: {exc}"
                        )
                        break
                    state.retries += 1
    finally:
        await conn.drop()


async def _drive(state: _RunState) -> None:
    state.started = time.monotonic()
    workers = [
        asyncio.ensure_future(
            _worker(i, state, state.options.targets)
        )
        for i in range(state.options.concurrency)
    ]
    await asyncio.gather(*workers)


# ----------------------------------------------------------------------
# stats snapshots (blocking; runs outside the timed traffic phase)
# ----------------------------------------------------------------------

def _ask(
    host: str, port: int, doc: Dict[str, Any], timeout: float
) -> Optional[Dict[str, Any]]:
    """One NDJSON round trip; ``None`` when the endpoint is unreachable.

    A server-side error comes back as its ``ok: false`` document (the
    shape the validator reads); only transport failures and protocol
    errors on the connection (an over-long line) count as unreachable.
    """
    try:
        with ServiceClient(
            host, port, timeout=timeout, wire="ndjson"
        ) as client:
            try:
                return client.request(doc)
            except ServiceError as exc:
                return {
                    "ok": False,
                    "error": {"type": exc.type, "message": exc.message},
                }
    except (OSError, InstanceError):
        return None


def _fleet_stats(
    targets: Sequence[Tuple[str, int]], timeout: float
) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for host, port in targets:
        resp = _ask(host, port, {"op": "cache_stats"}, timeout)
        if resp and resp.get("ok"):
            out[f"{host}:{port}"] = resp.get("stats", {})
    return out


def _hit_counts(stats: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Each tier's ``hits``/``misses`` from one ``cache_stats`` doc."""
    return {
        tier: {k: block.get(k, 0) for k in ("hits", "misses")}
        for tier, block in stats.items()
        if isinstance(block, dict)
        and ("hits" in block or "misses" in block)
    }


def _run_hits(
    before: Optional[Dict[str, Any]], after: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    """One target's per-tier hits/misses over the run.

    ``after`` minus ``before``; a target with no ``before`` snapshot,
    or whose counters went down (it restarted mid-run), counts its
    ``after`` snapshot alone.  ``hit_rate`` is filled in by the sum.
    """
    now = _hit_counts(after)
    then = _hit_counts(before or {})
    delta = {
        tier: {k: v - then.get(tier, {}).get(k, 0) for k, v in c.items()}
        for tier, c in now.items()
    }
    if any(v < 0 for c in delta.values() for v in c.values()):
        delta = now
    return {tier: {**c, "hit_rate": 0.0} for tier, c in delta.items()}


def _fleet_counters(
    before: Dict[str, Dict[str, Any]],
    after: Dict[str, Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The report's ``tiers`` (hit/miss counts over the run, with hit
    rates) and ``orphaned_batches`` (end-of-run totals) sections, each
    one :func:`~repro.obs.expo.sum_stats` across targets."""
    return {
        "tiers": sum_stats(
            _run_hits(before.get(key), stats) for key, stats in after.items()
        ),
        "orphaned_batches": sum_stats(
            stats.get("orphaned_batches") or {} for stats in after.values()
        ),
    }


# ----------------------------------------------------------------------
# validation + minimization
# ----------------------------------------------------------------------

def _validate_samples(
    state: _RunState, validator: OracleValidator
) -> Tuple[Dict[str, int], List[Dict[str, Any]]]:
    counts = {
        "checked": 0,
        "validated": 0,
        "divergences": 0,
        "expected_errors": 0,
        "unexpected_errors": 0,
    }
    failures: List[Dict[str, Any]] = []

    def judge(
        request: PlannedRequest,
        entry_pos: int,
        response: Dict[str, Any],
    ) -> None:
        doc = request.docs[min(entry_pos, len(request.docs) - 1)]
        outcome = validator.check(
            request.family,
            doc,
            request.params,
            response,
            allowed_errors=request.allowed_errors,
        )
        counts["checked"] += 1
        if outcome.status == "validated":
            counts["validated"] += 1
        elif outcome.status == "expected-error":
            counts["expected_errors"] += 1
        else:
            key = (
                "divergences"
                if outcome.status == "divergence"
                else "unexpected_errors"
            )
            counts[key] += 1
            failures.append(
                {
                    "status": outcome.status,
                    "detail": outcome.detail,
                    "family": request.family,
                    "op": request.kind,
                    "mutation": request.mutation,
                    "seq": request.seq,
                    "doc": doc,
                    "params": request.params,
                    "use_cache": request.use_cache,
                }
            )

    def judge_batch_error(
        request: PlannedRequest, response: Dict[str, Any]
    ) -> None:
        # One error line fails the whole batch, and the wire does not
        # say which document caused it.  The error is *expected* iff
        # it is an allowed type or the oracle rejects at least one of
        # the batch's documents; otherwise every member is content the
        # oracle solves, and the rejection is the server's fault.
        counts["checked"] += 1
        err_type = str((response.get("error") or {}).get("type", "?"))
        if err_type in request.allowed_errors:
            counts["expected_errors"] += 1
            return
        for doc in request.docs:
            outcome = validator.check(
                request.family, doc, request.params, response
            )
            if outcome.status == "expected-error":
                counts["expected_errors"] += 1
                return
        counts["unexpected_errors"] += 1
        failures.append(
            {
                "status": "unexpected-error",
                "detail": (
                    f"server failed a batch of {len(request.docs)} "
                    f"documents the oracle all solves: "
                    f"{(response.get('error') or {}).get('message', '')}"
                )[:400],
                "family": request.family,
                "op": request.kind,
                "mutation": request.mutation,
                "seq": request.seq,
                "doc": request.docs[0],
                "params": request.params,
                "use_cache": request.use_cache,
            }
        )

    for sample in state.samples:
        request = sample.request
        if request.kind == "solve":
            for response in sample.responses:
                judge(request, 0, response)
            continue
        for response in sample.responses:
            if response.get("done"):
                continue
            if not response.get("ok"):
                judge_batch_error(request, response)
                continue
            seq = response.get("seq")
            pos = seq if isinstance(seq, int) else 0
            judge(request, pos, response)
    return counts, failures


def _minimize_failures(
    failures: List[Dict[str, Any]],
    options: LoadgenOptions,
    validator: OracleValidator,
    seed: int,
) -> List[str]:
    """Shrink the first divergences into reproducer files."""
    if not options.reproducer_dir:
        return []
    written: List[str] = []
    seen: set = set()
    for failure in failures:
        if len(written) >= options.max_minimize:
            break
        if failure["op"] != "solve":
            continue
        content = json.dumps(
            [failure["family"], failure["doc"]], sort_keys=True
        )
        if content in seen:
            continue
        seen.add(content)

        def still_fails(doc: Dict[str, Any]) -> bool:
            response = _live_check(
                options, failure["family"], doc, failure["params"],
                failure["use_cache"],
            )
            if response is None:
                return False  # fleet gone: nothing sound to shrink
            outcome = validator.check(
                failure["family"], doc, failure["params"], response
            )
            return outcome.failed

        minimized = minimize_instance(
            failure["family"], failure["doc"], still_fails
        )
        record = reproducer_record(
            family=failure["family"],
            doc=failure["doc"],
            minimized=minimized,
            params=failure["params"],
            failure_status=failure["status"],
            failure_detail=failure["detail"],
            mutation=failure["mutation"],
            use_cache=failure["use_cache"],
            seed=seed,
        )
        written.append(
            str(write_reproducer(record, Path(options.reproducer_dir)))
        )
    return written


def _live_check(
    options: LoadgenOptions,
    family: str,
    doc: Dict[str, Any],
    params: Dict[str, Any],
    use_cache: bool,
) -> Optional[Dict[str, Any]]:
    request: Dict[str, Any] = {
        "op": "solve",
        "objective": family,
        "instance": doc,
    }
    if params:
        request["params"] = params
    if not use_cache:
        request["cache"] = False
    for host, port in options.targets:
        response = _ask(host, port, request, options.timeout)
        if response is not None:
            return response
    return None


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def run_loadgen(
    options: LoadgenOptions,
    traffic: TrafficModel,
    *,
    validator: Optional[OracleValidator] = None,
) -> Dict[str, Any]:
    """One full loadgen run; returns the report document."""
    own_validator = validator is None
    if validator is None:
        validator = OracleValidator()
    try:
        # Oracle pre-warm keeps first-contact solves out of phase 2's
        # accounting surprises (and exercises every corpus doc once).
        validator.prewarm(traffic.corpus)
        before = _fleet_stats(options.targets, options.timeout)
        if not before:
            raise ConnectionError(
                "no loadgen target reachable: "
                + ", ".join(f"{h}:{p}" for h, p in options.targets)
            )
        state = _RunState(options=options, stream=traffic.requests())
        wall0 = time.perf_counter()
        asyncio.run(_drive(state))
        wall = time.perf_counter() - wall0
        after = _fleet_stats(options.targets, options.timeout)

        counts, failures = _validate_samples(state, validator)
        reproducers = (
            _minimize_failures(failures, options, validator, traffic.seed)
            if options.minimize and failures
            else []
        )

        latencies = [
            s.latency for s in state.samples if s.latency is not None
        ]
        answered = len(state.samples)
        checked = counts["checked"]
        report: Dict[str, Any] = {
            "targets": [f"{h}:{p}" for h, p in options.targets],
            "seed": traffic.seed,
            "fuzz": traffic.fuzz,
            "requests": state.issued,
            "answered": answered,
            "wall_seconds": wall,
            "rps": answered / wall if wall > 0 else 0.0,
            "bytes_sent": state.bytes_sent,
            "bytes_received": state.bytes_received,
            "bytes_per_sec": (
                (state.bytes_sent + state.bytes_received) / wall
                if wall > 0
                else 0.0
            ),
            "latency_ms": latency_summary(latencies),
            "validation": {
                **counts,
                "validated_fraction": (
                    (counts["validated"] + counts["expected_errors"])
                    / checked
                    if checked
                    else 0.0
                ),
            },
            "transport": {
                "retries": state.retries,
                "reconnects": state.reconnects,
                "failed": len(state.transport_failures),
                "failures": state.transport_failures[:10],
                "abandoned": state.abandoned,
                "dropped": state.dropped,
            },
            "wire": {
                "mode": options.wire,
                "connections": dict(state.wire_connections),
                "frame_mutations": state.frame_mutations,
            },
            **_fleet_counters(before, after),
            "failures": failures[:20],
            "reproducers": reproducers,
        }
        return report
    finally:
        if own_validator:
            validator.close()


def replay_reproducer(
    path: Path,
    targets: List[Tuple[str, int]],
    *,
    timeout: float = 30.0,
    validator: Optional[OracleValidator] = None,
) -> Tuple[Outcome, Dict[str, Any]]:
    """Re-run one reproducer file against a live endpoint.

    Returns the validation outcome plus a small report.  The outcome
    *failing* means the recorded bug still reproduces.
    """
    from .minimize import load_reproducer

    record = load_reproducer(path)
    family = record["objective"]
    params = record.get("params") or {}
    use_cache = bool(record.get("framing", {}).get("cache", True))
    options = LoadgenOptions(
        targets=targets, max_requests=1, timeout=timeout
    )
    response = _live_check(
        options, family, record["instance"], params, use_cache
    )
    if response is None:
        raise ConnectionError(
            "no replay target reachable; start `repro serve` or fix "
            "--host/--port/--shard"
        )
    own_validator = validator is None
    if validator is None:
        validator = OracleValidator()
    try:
        outcome = validator.check(
            family, record["instance"], params, response
        )
    finally:
        if own_validator:
            validator.close()
    return outcome, {
        "reproducer": str(path),
        "objective": family,
        "recorded_failure": record.get("failure", {}),
        "outcome": {"status": outcome.status, "detail": outcome.detail},
        "reproduced": outcome.failed,
    }
