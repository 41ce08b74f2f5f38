"""Binary wire format: codec, negotiation, caps, interning.

The binary protocol's contract is *transparency*: every document the
NDJSON wire carries must round-trip the binary framing bit-exactly
(``decode ∘ encode = id``), and a binary-unaware peer must keep
working against an upgraded server byte-identically.  These tests pin
all of it:

* codec round-trips over every registry family's instance *and*
  result documents (schedules included: empty ones, and the tree
  family's ``[u, v, id]`` path triples);
* column-wise instance documents encoding byte-identically to their
  list-of-dicts form on both wires, interned frames included;
* hello negotiation — upgrade, decline, forced-binary failure, and
  the wire counters the server reports;
* frame/line caps and deterministic frame corruptions (the unit-level
  twins of the loadgen fuzzer's mutations);
* a mixed one-binary-one-NDJSON fleet under ``ShardedClient``
  byte-identical to a local session;
* column interning: pools, codec, negotiation, replay-cache lockstep.
"""

from __future__ import annotations

import json
import socket
import struct

import numpy as np
import pytest

from repro.api import RemoteSession, Session, ShardedClient
from repro.core.instance import Instance
from repro.engine import instance_fingerprint, plan_solve
from repro.io import RecordColumns, objective_instance_to_dict
from repro.service import ServiceClient, SolveServer
from repro.service.binary import (
    HEADER_BYTES,
    MAGIC,
    OP_DOC,
    WIRE_VERSION,
    decode_binary,
    encode_binary,
    hello_doc,
    parse_header,
)
from repro.service.protocol import decode, encode, result_to_doc
from tests.helpers import (
    ALL_FAMILIES,
    family_instance,
    family_request,
    records_instance_to_dict,
    spawn_serve_subprocess,
)

SEEDS = range(6)


def canonical(result) -> str:
    doc = result_to_doc(result)
    doc.pop("solve_seconds")
    doc.pop("from_cache")
    return json.dumps(doc, sort_keys=True)


def fresh_server(**kwargs):
    defaults = dict(port=0, session=Session(store_path=None))
    defaults.update(kwargs)
    return SolveServer(**defaults)


def drop_provenance(doc):
    return {
        k: v
        for k, v in doc.items()
        if k not in ("solve_seconds", "from_cache")
    }


# ----------------------------------------------------------------------
# codec round-trips: decode ∘ encode = id
# ----------------------------------------------------------------------


class TestCodecRoundTrip:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_instance_documents(self, family, seed):
        doc, params = family_request(family, seed)
        request = {"op": "solve", "objective": family, "instance": doc}
        if params:
            request["params"] = params
        assert decode_binary(encode_binary(request)) == request

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_result_documents(self, family):
        """Result docs round-trip too — schedules, tree paths and all."""
        with Session(store_path=None) as session:
            inst, params = family_instance(family, 1)
            result = session.solve(inst, family, use_cache=False, **params)
        doc = result_to_doc(result)
        assert decode_binary(encode_binary(doc)) == doc

    def test_empty_schedule(self):
        with Session(store_path=None) as session:
            result = session.solve(
                Instance(jobs=(), g=2), "minbusy", use_cache=False
            )
        doc = result_to_doc(result)
        assert decode_binary(encode_binary(doc)) == doc

    def test_awkward_scalars_and_shapes(self):
        """Documents the column extractor must *decline* still hold."""
        docs = [
            {},
            {"empty": [], "nested": [[], [1, 2, 3] * 10]},
            {"big": [2**80] * 10, "mixed": [1, "a", None] * 5},
            {"floats": [float(i) / 7 for i in range(64)]},
            {"holes": [None, 1, None, 2] * 8},
            {"unicode": ["jöb", "✓"] * 9, "b": True},
        ]
        for doc in docs:
            assert decode_binary(encode_binary(doc)) == doc


# ----------------------------------------------------------------------
# column-wise instance documents: same bytes as the record lists
# ----------------------------------------------------------------------


def _edge_instances():
    """``(name, objective, instance)`` for the shapes a column packer
    can get wrong: sizes around the pack threshold, Python number
    types the wire must keep, and ids beyond int64."""
    from repro.core.instance import BudgetInstance
    from repro.core.jobs import Job
    from repro.workloads import random_general_instance

    def jobs(n, start=lambda i: float(i), job_id=lambda i: i):
        return tuple(
            Job(start=start(i), end=start(i) + 2.5, job_id=job_id(i))
            for i in range(n)
        )

    return [
        ("n10k", "minbusy", random_general_instance(10_000, 3, seed=4)),
        ("n5", "minbusy", Instance(jobs=jobs(5), g=2)),
        ("empty", "minbusy", Instance(jobs=(), g=2)),
        ("int-starts", "minbusy", Instance(jobs=jobs(12, start=int), g=2)),
        (
            "mixed-int-float",
            "minbusy",
            Instance(
                jobs=jobs(12, start=lambda i: i if i % 2 else i + 0.5), g=2
            ),
        ),
        (
            "budget",
            "maxthroughput",
            BudgetInstance(jobs=jobs(20), g=2, budget=9.0),
        ),
        (
            "huge-ids",
            "minbusy",
            Instance(jobs=jobs(12, job_id=lambda i: 2**63 + i), g=2),
        ),
    ]


EDGE_CASES = _edge_instances()


def _with_records(pair):
    """``(document, params)`` with a column-wise job table expanded
    into its record list."""
    doc, params = pair
    if isinstance(doc.get("jobs"), RecordColumns):
        doc = {**doc, "jobs": doc["jobs"].records()}
    return doc, params


def _v1_reference_digest(instance) -> str:
    """The v1 fingerprint computed job by job."""
    import hashlib

    from repro.engine.fingerprint import _VERSION

    h = hashlib.sha256()
    h.update(_VERSION)
    budget = getattr(instance, "budget", None)
    h.update(f"|n={instance.n}|g={instance.g}|T={budget!r}|".encode())
    if instance.n:
        packed = np.empty((instance.n, 4), dtype=np.float64)
        for col, attr in enumerate(("start", "end", "weight", "demand")):
            packed[:, col] = [getattr(j, attr) for j in instance.jobs]
        h.update(packed.tobytes())
    return h.hexdigest()


class TestColumnDocumentBytes:
    """``objective_instance_to_dict`` keeps base job tables
    column-wise; every encoder must emit the bytes the record list
    gives (the server's replay tier keys on those bytes)."""

    @staticmethod
    def _docs(instance, objective, params=None):
        plan = plan_solve(instance, objective, params)
        return (
            objective_instance_to_dict(plan.instance, objective),
            records_instance_to_dict(plan.instance, objective),
        )

    @staticmethod
    def _request(objective, instance_doc, params):
        # The shape ServiceClient.solve sends.
        request = {
            "op": "solve",
            "objective": objective,
            "instance": instance_doc,
            "cache": True,
        }
        if params:
            request["params"] = params
        return request

    @staticmethod
    def assert_same_bytes(new, old):
        from repro.service.binary import InternPool, intern_frame

        assert encode(new) == encode(old)
        assert encode_binary(new) == encode_binary(old)
        # Interning twice: the first frame rides raw, the second as refs.
        tx_new, tx_old = InternPool(), InternPool()
        for _ in range(2):
            assert intern_frame(encode_binary(new), tx_new) == intern_frame(
                encode_binary(old), tx_old
            )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_wire_corpus(self, family, seed):
        instance, params = family_instance(family, seed)
        new, old = self._docs(instance, family, params)
        assert _with_records(new) == old
        self.assert_same_bytes(
            self._request(family, *new), self._request(family, *old)
        )

    @pytest.mark.parametrize(
        "name, objective, instance",
        EDGE_CASES,
        ids=[case[0] for case in EDGE_CASES],
    )
    def test_edge_cases(self, name, objective, instance):
        new, old = self._docs(instance, objective)
        self.assert_same_bytes(
            self._request(objective, *new), self._request(objective, *old)
        )
        assert instance_fingerprint(instance) == _v1_reference_digest(
            instance
        )

    @pytest.mark.parametrize("size", [3, 12])
    def test_solve_many_batch(self, size):
        """A batch of 8+ instance documents packs as records itself,
        which leaves each job table inline in the control JSON."""
        from repro.workloads import random_general_instance

        pairs = [
            self._docs(random_general_instance(20, 3, seed=s), "minbusy")
            for s in range(size)
        ]

        def batch(docs):
            # The shape ServiceClient.iter_solve_many sends.
            return {
                "op": "solve_many",
                "objective": "minbusy",
                "instances": docs,
                "cache": True,
            }

        self.assert_same_bytes(
            batch([new[0] for new, _ in pairs]),
            batch([old[0] for _, old in pairs]),
        )


# ----------------------------------------------------------------------
# negotiation: upgrade, decline, transparency, counters
# ----------------------------------------------------------------------


class TestNegotiation:
    def test_binary_unaware_peer_is_untouched(self):
        """A peer that never says hello gets plain NDJSON lines —
        the same response a forced-ndjson client receives."""
        doc, _params = family_request("minbusy", 0)
        request_doc = {"op": "solve", "objective": "minbusy", "instance": doc}
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="ndjson"
            ) as client:
                expected = client.request(dict(request_doc))
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30.0
            ) as sock:
                sock.sendall(encode(request_doc))
                buf = b""
                while b"\n" not in buf:
                    buf += sock.recv(65536)
            raw = decode(buf.split(b"\n", 1)[0] + b"\n")
        finally:
            handle.stop()
        assert drop_provenance(raw["result"]) == drop_provenance(
            expected["result"]
        )

    def test_upgrade_and_counters(self):
        doc, _params = family_request("capacity", 3)
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="binary"
            ) as client:
                assert client.wire_format == "binary"
                first = client.solve(doc, "capacity")
                second = client.solve(doc, "capacity")
                stats = client.cache_stats()
        finally:
            handle.stop()
        # The repeat is a wire-tier replay of the first response.
        assert drop_provenance(second) == drop_provenance(first)
        transport = stats["wire_transport"]
        assert transport["binary_connections"] == 1
        assert transport["binary_bytes_in"] > 0
        assert transport["binary_bytes_out"] > 0
        by_format = stats["wire"]["by_format"]
        assert by_format["binary"]["hits"] >= 1

    def test_ndjson_server_declines_and_auto_falls_back(self):
        doc, _params = family_request("minbusy", 2)
        handle = fresh_server(wire="ndjson").run_in_thread()
        try:
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="auto"
            ) as client:
                assert client.wire_format == "ndjson"
                result = client.solve(doc, "minbusy")
                stats = client.cache_stats()
            with pytest.raises(ConnectionError, match="wire='binary'"):
                ServiceClient(
                    port=handle.port, timeout=30.0, wire="binary"
                )
        finally:
            handle.stop()
        assert result["cost"] >= 0
        assert stats["wire_transport"]["binary_connections"] == 0
        assert stats["wire_transport"]["ndjson_connections"] >= 1

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_formats_canonically_identical(self, family):
        """One server, both wires, every family: same canonical docs."""
        pairs = [family_instance(family, seed) for seed in range(4)]
        instances = [inst for inst, _ in pairs]
        params = pairs[0][1]
        with Session(store_path=None) as ref:
            expected = [
                canonical(r)
                for r in ref.solve_many(
                    instances, family, use_cache=False, **params
                )
            ]
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            for wire in ("ndjson", "binary"):
                with RemoteSession(port=handle.port, wire=wire) as remote:
                    got = [
                        canonical(r)
                        for r in remote.solve_many(
                            instances, family, **params
                        )
                    ]
                assert got == expected, f"{family}/{wire} diverged"
        finally:
            handle.stop()


class TestMixedFleet:
    def test_one_binary_one_ndjson_shard_matches_local(self):
        """A fleet whose shards negotiated different wires is still
        byte-identical to a local session."""
        binary_proc, binary_port = spawn_serve_subprocess("--wire", "auto")
        ndjson_proc, ndjson_port = spawn_serve_subprocess(
            "--wire", "ndjson"
        )
        try:
            pairs = [family_instance("minbusy", s) for s in range(8)]
            instances = [inst for inst, _ in pairs]
            with Session(store_path=None) as ref:
                expected = [
                    canonical(r)
                    for r in ref.solve_many(
                        instances, "minbusy", use_cache=False
                    )
                ]
            fleet = ShardedClient(
                [
                    RemoteSession(port=binary_port, wire="binary"),
                    RemoteSession(port=ndjson_port, wire="auto"),
                ]
            )
            try:
                got = [
                    canonical(r)
                    for r in fleet.solve_many(instances, "minbusy")
                ]
            finally:
                fleet.close()
            assert got == expected
        finally:
            for proc in (binary_proc, ndjson_proc):
                proc.terminate()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# caps and deterministic frame corruptions
# ----------------------------------------------------------------------


class _RawBinaryConn:
    """A raw socket that has completed the hello upgrade."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=30.0
        )
        self.sock.sendall(encode(hello_doc()))
        buf = b""
        while b"\n" not in buf:
            buf += self.sock.recv(65536)
        response = decode(buf.split(b"\n", 1)[0] + b"\n")
        assert response.get("wire") == "binary", response

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_frame(self) -> dict:
        buf = b""
        while len(buf) < HEADER_BYTES:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("EOF before header")
            buf += chunk
        _version, _opcode, length = parse_header(buf[:HEADER_BYTES])
        while len(buf) < HEADER_BYTES + length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("EOF mid-frame")
            buf += chunk
        return decode_binary(buf[: HEADER_BYTES + length])

    def at_eof(self) -> bool:
        self.sock.settimeout(5.0)
        try:
            return self.sock.recv(1) == b""
        except socket.timeout:
            return False

    def close(self) -> None:
        self.sock.close()


class TestCapsAndCorruption:
    @pytest.fixture()
    def small_server(self):
        handle = fresh_server(
            wire="auto", max_line_bytes=4096
        ).run_in_thread()
        yield handle
        handle.stop()

    def test_oversize_ndjson_line_gets_error_not_hangup(
        self, small_server
    ):
        doc, _ = family_request("minbusy", 0)
        with socket.create_connection(
            ("127.0.0.1", small_server.port), timeout=30.0
        ) as sock:
            jumbo = encode(
                {
                    "op": "solve",
                    "objective": "minbusy",
                    "instance": doc,
                    "id": "x" * 8192,
                }
            )
            assert len(jumbo) > 4096
            sock.sendall(jumbo)
            buf = b""
            while b"\n" not in buf:
                buf += sock.recv(65536)
            line, buf = buf.split(b"\n", 1)
            response = decode(line + b"\n")
            assert response["ok"] is False
            assert "4096" in response["error"]["message"]
            # The connection survived: a small request still answers.
            sock.sendall(encode({"op": "ping"}))
            while b"\n" not in buf:
                buf += sock.recv(65536)
            assert decode(buf.split(b"\n", 1)[0] + b"\n")["ok"]

    def test_oversize_binary_frame_gets_error_not_hangup(
        self, small_server
    ):
        conn = _RawBinaryConn(small_server.port)
        try:
            payload = b"\x00" * 8192
            header = struct.pack(
                "<2sBBI", MAGIC, WIRE_VERSION, OP_DOC, len(payload)
            )
            conn.send(header + payload)
            response = conn.read_frame()
            assert response["ok"] is False
            assert "split the batch" in response["error"]["message"]
            conn.send(encode_binary({"op": "ping"}))
            assert conn.read_frame()["ok"]
        finally:
            conn.close()

    def test_version_skew_answers_and_continues(self, small_server):
        conn = _RawBinaryConn(small_server.port)
        try:
            frame = bytearray(encode_binary({"op": "ping"}))
            frame[2] = (WIRE_VERSION + 41) % 256
            conn.send(bytes(frame))
            response = conn.read_frame()
            assert response["ok"] is False
            assert "version" in response["error"]["message"]
            conn.send(encode_binary({"op": "ping"}))
            assert conn.read_frame()["ok"]
        finally:
            conn.close()

    def test_trailing_garbage_answers_and_continues(self, small_server):
        conn = _RawBinaryConn(small_server.port)
        try:
            frame = bytearray(encode_binary({"op": "ping"}))
            frame += b"\xde\xad\xbe\xef"
            struct.pack_into("<I", frame, 4, len(frame) - HEADER_BYTES)
            conn.send(bytes(frame))
            response = conn.read_frame()
            assert response["ok"] is False
            assert response["error"]["type"] == "InstanceError"
            conn.send(encode_binary({"op": "ping"}))
            assert conn.read_frame()["ok"]
        finally:
            conn.close()

    def test_bad_magic_answers_then_closes(self, small_server):
        conn = _RawBinaryConn(small_server.port)
        try:
            frame = bytearray(encode_binary({"op": "ping"}))
            frame[0:2] = b"XX"
            conn.send(bytes(frame))
            response = conn.read_frame()
            assert response["ok"] is False
            # The stream cannot be resynced: the server hangs up.
            assert conn.at_eof()
        finally:
            conn.close()


# ----------------------------------------------------------------------
# loadgen: binary wire + framing fuzz stays 100% validated
# ----------------------------------------------------------------------


class TestLoadgenBinaryWire:
    def test_binary_fuzz_run_validates_clean(self):
        from repro.loadgen import LoadgenOptions, TrafficModel, run_loadgen

        handle = fresh_server(wire="auto").run_in_thread()
        try:
            traffic = TrafficModel(
                seed=7,
                corpus_size=16,
                adversarial_tail=4,
                fuzz=True,
                binary_fuzz=True,
                fuzz_fraction=0.7,
                families=("minbusy", "capacity", "rect2d", "ring"),
            )
            options = LoadgenOptions(
                targets=[("127.0.0.1", handle.port)],
                max_requests=40,
                concurrency=3,
                timeout=30.0,
                wire="binary",
                minimize=False,
            )
            report = run_loadgen(options, traffic)
        finally:
            handle.stop()
        validation = report["validation"]
        assert validation["divergences"] == 0
        assert validation["unexpected_errors"] == 0
        assert report["transport"]["failed"] == 0
        wire = report["wire"]
        assert wire["mode"] == "binary"
        assert wire["connections"]["binary"] >= 1
        assert wire["connections"]["ndjson"] == 0

    def test_binary_mutations_reach_the_plan(self):
        from repro.loadgen.traffic import (
            BINARY_FRAMING_MUTATIONS,
            TrafficModel,
        )

        model = TrafficModel(
            seed=11, fuzz=True, binary_fuzz=True, fuzz_fraction=0.9
        )
        planned = model.plan(400)
        seen = {
            r.frame_mutation
            for r in planned
            if r.frame_mutation is not None
        }
        assert seen == set(BINARY_FRAMING_MUTATIONS)
        for request in planned:
            if request.frame_mutation in (
                "bad-magic",
                "version-skew",
                "bad-length",
            ):
                assert "InstanceError" in request.allowed_errors

    def test_plans_unchanged_without_binary_fuzz(self):
        """Adding the pool must not reshuffle existing fuzz streams."""
        from repro.loadgen.traffic import TrafficModel

        baseline = TrafficModel(seed=5, fuzz=True).plan(120)
        again = TrafficModel(seed=5, fuzz=True, binary_fuzz=False).plan(120)
        assert [r.mutation for r in baseline] == [
            r.mutation for r in again
        ]
        assert all(r.frame_mutation is None for r in baseline)


# ----------------------------------------------------------------------
# column interning: pools, codec, negotiation, replay-cache lockstep
# ----------------------------------------------------------------------


def _big_solve_doc(n: int = 200, *, cache: bool = True) -> dict:
    """A solve request whose coordinate columns clear the interning
    floor (n float64s per column >= INTERN_MIN_BLOB_BYTES)."""
    rng = np.random.default_rng(17)
    starts = rng.uniform(0.0, 1000.0, n)
    jobs = [
        {"start": float(s), "end": float(s + ln)}
        for s, ln in zip(starts, rng.uniform(0.5, 50.0, n))
    ]
    return {
        "op": "solve",
        "objective": "minbusy",
        "instance": {"g": 3, "jobs": jobs},
        "cache": cache,
    }


class TestInternPool:
    def test_register_gates_and_budgets(self):
        from repro.service.binary import (
            INTERN_MIN_BLOB_BYTES,
            InternPool,
        )

        pool = InternPool(max_entries=2)
        big = b"\x01" * INTERN_MIN_BLOB_BYTES
        small = b"\x01" * (INTERN_MIN_BLOB_BYTES - 1)
        assert pool.register(0, small) is None  # under the floor
        assert pool.register(7, big) is None  # not a column dtype
        d = pool.register(0, big)
        assert d is not None and pool.lookup(d) == (0, big)
        assert pool.register(0, big) == d  # idempotent re-register
        assert pool.register(1, b"\x02" * 600) is not None
        # Entry budget full: the third distinct blob rides raw forever.
        assert pool.register(0, b"\x03" * 600) is None
        assert len(pool) == 2

    def test_byte_budget(self):
        from repro.service.binary import InternPool

        pool = InternPool(max_bytes=1000)
        assert pool.register(0, b"\x01" * 600) is not None
        assert pool.register(0, b"\x02" * 600) is None  # would exceed

    def test_resolve_unknown_digest_is_actionable(self):
        from repro.core.errors import InstanceError
        from repro.service.binary import InternPool

        with pytest.raises(InstanceError, match="out of sync"):
            InternPool().resolve(b"\x00" * 16)


class TestInternCodec:
    def test_second_frame_shrinks_and_round_trips(self):
        from repro.service.binary import (
            InternPool,
            decode_payload,
            intern_frame,
        )

        tx, rx = InternPool(), InternPool()
        doc1 = _big_solve_doc()
        doc2 = _big_solve_doc(cache=False)  # same columns, new ctrl

        frame1 = intern_frame(encode_binary(doc1), tx)
        # First occurrence rides raw: byte-identical passthrough.
        assert frame1 == encode_binary(doc1)
        payload1 = frame1[HEADER_BYTES:]
        rx.observe(payload1)
        assert decode_payload(payload1, intern=rx) == doc1

        raw2 = encode_binary(doc2)
        frame2 = intern_frame(raw2, tx)
        assert len(frame2) < len(raw2)  # columns now ride as refs
        payload2 = frame2[HEADER_BYTES:]
        rx.observe(payload2)
        assert decode_payload(payload2, intern=rx) == doc2

    def test_ref_without_negotiation_is_actionable(self):
        from repro.core.errors import InstanceError
        from repro.service.binary import (
            InternPool,
            decode_payload,
            intern_frame,
        )

        tx = InternPool()
        intern_frame(encode_binary(_big_solve_doc()), tx)
        frame = intern_frame(encode_binary(_big_solve_doc(cache=False)), tx)
        payload = frame[HEADER_BYTES:]
        with pytest.raises(InstanceError, match="intern"):
            decode_payload(payload)  # no pool: never negotiated
        with pytest.raises(InstanceError, match="out of sync"):
            decode_payload(payload, intern=InternPool())  # empty pool

    def test_unchanged_frames_pass_through(self):
        from repro.service.binary import InternPool, intern_frame

        doc = {"op": "ping"}  # no internable columns at all
        frame = encode_binary(doc)
        assert intern_frame(frame, InternPool()) == frame


class TestInternNegotiation:
    def test_hello_advertises_intern(self):
        from repro.service.binary import INTERN_VERSION

        assert hello_doc()["intern"] == INTERN_VERSION

    def test_server_omits_intern_for_plain_hello(self):
        """A binary peer that does not ask for interning never sees a
        ref — the reply omits the key and frames stay canonical (the
        loadgen's adversarial transport relies on exactly this)."""
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10.0
            ) as sock:
                plain = dict(hello_doc())
                plain.pop("intern")
                sock.sendall(encode(plain))
                fh = sock.makefile("rb")
                reply = decode(fh.readline())
                assert reply.get("ok") and reply.get("wire") == "binary"
                assert "intern" not in reply
        finally:
            handle.stop()

    def test_interned_connection_end_to_end(self):
        """Repeated big solves over one connection: counters tick,
        results stay byte-identical to the first, and an NDJSON peer
        sees the same answers."""
        doc = _big_solve_doc()
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="binary"
            ) as client:
                first = drop_provenance(client.request(doc)["result"])
                again = drop_provenance(
                    client.request(dict(doc, cache=False))["result"]
                )
                assert again == first
                wt = client.cache_stats()["wire_transport"]
                assert wt["intern_connections"] >= 1
                assert wt["intern_blobs_out"] >= 1
                assert wt["intern_bytes_saved_out"] > 0
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="ndjson"
            ) as client:
                plain = drop_provenance(client.request(doc)["result"])
                assert plain == first
        finally:
            handle.stop()

    def test_replayed_frames_keep_pools_in_lockstep(self):
        """The server's replay cache answers repeated request bytes
        without decoding them — it must still *observe* those frames,
        or a later ref from the client would name a digest the server
        never registered."""
        doc = _big_solve_doc()
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="binary"
            ) as client:
                first = drop_provenance(client.request(doc)["result"])
            # Fresh connection, fresh pools: request 1 re-sends the
            # canonical raw frame, which the server answers straight
            # from its replay cache (no decode).  Request 2 shares the
            # columns but changes the control JSON, so it is NOT a
            # replay hit — the server must decode it, resolving refs
            # registered only by observing the replayed frame.
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="binary"
            ) as client:
                replayed = drop_provenance(client.request(doc)["result"])
                fresh = drop_provenance(
                    client.request(dict(doc, cache=False))["result"]
                )
                assert replayed == first
                assert fresh == first
        finally:
            handle.stop()

    def test_enveloped_repeats_replay_with_interning(self):
        """Repeats carrying envelope fields decode (resolving refs) and
        then hit the replay tier on their envelope-free key; each reply
        echoes its own id."""
        doc = _big_solve_doc()
        handle = fresh_server(wire="auto").run_in_thread()
        try:
            with ServiceClient(
                port=handle.port, timeout=30.0, wire="binary"
            ) as client:
                assert client._intern_tx is not None
                replies = [
                    client.request(dict(doc, id=i, deadline=30.0))
                    for i in range(3)
                ]
                stats = client.cache_stats()
                refs_sent = client._intern_tx.stats["refs"]
            assert refs_sent >= 2  # repeats 2 and 3 ride as refs
            assert [r["id"] for r in replies] == [0, 1, 2]
            assert [r["result"]["from_cache"] for r in replies] == [
                False,
                True,
                True,
            ]
            first = drop_provenance(replies[0]["result"])
            assert all(
                drop_provenance(r["result"]) == first for r in replies
            )
            assert stats["wire"]["by_format"]["binary"]["hits"] == 2
        finally:
            handle.stop()
