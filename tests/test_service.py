"""The solve service: protocol, ops, and the concurrency smoke test.

The tier-2 acceptance scenario lives here: a live in-process server
driven by 50 concurrent mixed-family client requests whose responses
must be bit-equal to direct in-process ``Session.solve`` calls.  Around
it, focused tests pin the protocol surface (streamed ``solve_many``
order, cache stats, error responses for malformed input, per-request
deadlines) and the client's error contract.
"""

from __future__ import annotations

import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Session
from repro.service import ServiceClient, ServiceError, SolveServer
from repro.service.protocol import result_to_doc
from tests.helpers import ALL_FAMILIES, family_instance, family_request


@pytest.fixture(scope="module")
def server():
    handle = SolveServer(port=0, max_concurrency=16).run_in_thread()
    yield handle
    handle.stop()


def client_for(server, timeout=30.0, wire=None) -> ServiceClient:
    return ServiceClient(port=server.port, timeout=timeout, wire=wire)


def direct_doc(family: str, seed: int) -> dict:
    """The canonical result document of an in-process solve."""
    inst, params = family_instance(family, seed)
    with Session(store_path=None) as session:
        result = session.solve(inst, family, **params)
    doc = result_to_doc(result)
    doc.pop("from_cache")
    doc.pop("solve_seconds")
    return doc


def wire_canonical(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("from_cache")
    doc.pop("solve_seconds")
    return doc


class TestServiceOps:
    def test_ping_and_objectives(self, server):
        with client_for(server) as c:
            assert c.ping()
            assert c.objectives() == sorted(ALL_FAMILIES)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_solve_matches_direct_engine(self, server, family):
        with client_for(server) as c:
            for seed in range(3):
                doc, params = family_request(family, seed)
                served = c.solve(doc, family, params=params or None)
                assert wire_canonical(served) == direct_doc(family, seed)

    def test_solve_many_streams_in_input_order(self, server):
        docs = [family_request("minbusy", s)[0] for s in range(6)]
        with client_for(server) as c:
            results = c.solve_many(docs)
        expected = [direct_doc("minbusy", s) for s in range(6)]
        assert [wire_canonical(r) for r in results] == expected

    def test_solve_many_coalesces_duplicates(self, server):
        doc, _ = family_request("rect2d", 1)
        with client_for(server) as c:
            results = c.solve_many([doc, doc, doc], "rect2d", cache=False)
        assert len(results) == 3
        assert len({json.dumps(wire_canonical(r)) for r in results}) == 1

    def test_cache_stats_reports_tiers(self, server):
        doc, _ = family_request("minbusy", 0)
        with client_for(server) as c:
            # cache=False skips every read tier (including the wire
            # replay), so the solve always lands in the engine LRU.
            c.solve(doc, cache=False)
            stats = c.cache_stats()
        assert "lru" in stats
        assert "wire" in stats
        assert stats["lru"]["size"] >= 1
        assert stats["wire"]["maxsize"] >= 1

    def test_warm_requests_served_from_cache(self, server):
        doc, _ = family_request("ring", 4)
        with client_for(server) as c:
            cold = c.solve(doc, "ring")
            warm = c.solve(doc, "ring")
        assert not cold["from_cache"]
        assert warm["from_cache"]
        assert wire_canonical(warm) == wire_canonical(cold)

    def test_solve_many_deadline_enforced_on_batch_backends(self):
        """A non-async batch backend must still bound how long a
        solve_many *request* waits (regression: the deadline was
        silently dropped on the serial/process path)."""
        handle = SolveServer(
            port=0, backend="serial", session=Session(store_path=None)
        ).run_in_thread()
        try:
            docs = [family_request("minbusy", 700 + s)[0] for s in range(4)]
            with ServiceClient(port=handle.port, timeout=30.0) as c:
                with pytest.raises(ServiceError, match="deadline"):
                    c.solve_many(docs, cache=False, deadline=1e-7)
                # The connection survives and an unbounded retry works.
                results = c.solve_many(docs, cache=False)
            assert len(results) == 4
        finally:
            handle.stop()

    def test_wire_replay_counts_hits(self, server):
        doc, _ = family_request("tree", 3)
        with client_for(server) as c:
            before = c.cache_stats()["wire"]["hits"]
            first = c.solve(doc, "tree")
            second = c.solve(doc, "tree")  # identical bytes: replayed
            after = c.cache_stats()["wire"]["hits"]
        assert second["from_cache"]
        assert wire_canonical(second) == wire_canonical(first)
        assert after == before + 1

    def test_request_ids_opt_out_of_wire_replay(self, server):
        doc, _ = family_request("flexible", 6)
        with client_for(server) as c:
            responses = []
            for request_id in (1, 2):
                c._send(
                    {
                        "op": "solve",
                        "objective": "flexible",
                        "instance": doc,
                        "id": request_id,
                    }
                )
                responses.append(c._recv())
        assert [r["id"] for r in responses] == [1, 2]
        assert wire_canonical(responses[0]["result"]) == wire_canonical(
            responses[1]["result"]
        )

    def test_aliases_resolve_on_the_wire(self, server):
        doc, _ = family_request("maxthroughput", 2)
        with client_for(server) as c:
            a = c.solve(doc, "throughput")
            b = c.solve(doc, "maxthroughput")
        assert wire_canonical(a) == wire_canonical(b)


class TestServiceErrors:
    def test_unknown_objective(self, server):
        doc, _ = family_request("minbusy", 0)
        with client_for(server) as c:
            with pytest.raises(ServiceError, match="unknown objective"):
                c.solve(doc, "makespan")
            assert c.ping()  # connection survives the error

    def test_malformed_instance_document(self, server):
        with client_for(server) as c:
            with pytest.raises(ServiceError, match="malformed|missing"):
                c.solve({"g": 3}, "rect2d")  # no "rects"
            with pytest.raises(ServiceError, match="object"):
                c.solve(None)
            assert c.ping()

    def test_unknown_op(self, server):
        with client_for(server) as c:
            with pytest.raises(ServiceError, match="unknown op"):
                c.request({"op": "explode"})

    def test_invalid_json_line(self, server):
        # Raw NDJSON garbage is only meaningful on an NDJSON connection;
        # on a negotiated binary one it is a framing violation (covered
        # in tests/test_wire_binary.py).
        with client_for(server, wire="ndjson") as c:
            c._sock.sendall(b"{this is not json\n")
            response = c._recv()
            assert response["ok"] is False
            assert "JSON" in response["error"]["message"]
            assert c.ping()

    def test_request_id_echoed_on_errors(self, server):
        with client_for(server) as c:
            c._send({"op": "solve", "objective": "nope", "id": 41})
            response = c._recv()
            assert response["ok"] is False
            assert response["id"] == 41

    def test_deadline_zero_times_out(self, server):
        doc, _ = family_request("minbusy", 9)
        with client_for(server) as c:
            with pytest.raises(ServiceError, match="deadline"):
                c.solve(doc, cache=False, deadline=0.0)
            assert c.ping()

    def test_bad_power_params(self, server):
        doc, _ = family_request("minbusy", 0)
        with client_for(server) as c:
            with pytest.raises(ServiceError, match="power"):
                c.solve(doc, "energy", params={"power": "high"})

    def test_pathologically_nested_json_is_an_error_line(self, server):
        """Deep nesting (RecursionError inside json.loads) must come
        back as an error response, not tear down the connection."""
        with client_for(server, wire="ndjson") as c:
            c._sock.sendall(b"[" * 5000 + b"]" * 5000 + b"\n")
            response = c._recv()
            assert response["ok"] is False
            assert "JSON" in response["error"]["message"]
            assert c.ping()

    def test_unexpected_server_exception_is_an_error_line(
        self, server, monkeypatch
    ):
        """Any per-request failure — even a bug outside the expected
        error types — must produce an error response line instead of
        leaving the client waiting forever."""

        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr("repro.engine.engine.plan_solve", boom)
        doc, _ = family_request("minbusy", 77)
        with client_for(server, timeout=10.0) as c:
            with pytest.raises(ServiceError, match="kaboom") as excinfo:
                c.solve(doc)
            assert excinfo.value.type == "RuntimeError"
            monkeypatch.undo()
            assert c.ping()


class TestServerLifecycle:
    def test_occupied_port_raises_bind_error(self):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(OSError):
                SolveServer(port=port).run_in_thread()
        finally:
            blocker.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SolveServer(backend="threads")

    def test_serial_batch_backend(self):
        handle = SolveServer(port=0, backend="serial").run_in_thread()
        try:
            docs = [family_request("capacity", s)[0] for s in range(4)]
            with ServiceClient(port=handle.port, timeout=30.0) as c:
                results = c.solve_many(docs, "capacity")
            expected = [direct_doc("capacity", s) for s in range(4)]
            assert [wire_canonical(r) for r in results] == expected
        finally:
            handle.stop()


class TestConcurrencySmoke:
    """The CI tier-2 smoke: 50 concurrent mixed-family requests."""

    N_REQUESTS = 50

    def test_50_concurrent_mixed_family_bit_equality(self, server):
        requests = []
        for i in range(self.N_REQUESTS):
            family = ALL_FAMILIES[i % len(ALL_FAMILIES)]
            seed = 100 + i // len(ALL_FAMILIES)
            requests.append((family, seed))

        barrier = threading.Barrier(16)

        def one(req):
            family, seed = req
            doc, params = family_request(family, seed)
            with ServiceClient(port=server.port, timeout=60.0) as c:
                try:
                    barrier.wait(timeout=10.0)
                except threading.BrokenBarrierError:
                    pass  # late thread: proceed anyway, still concurrent
                return wire_canonical(
                    c.solve(doc, family, params=params or None)
                )

        with ThreadPoolExecutor(max_workers=16) as pool:
            served = list(pool.map(one, requests))

        expected = [direct_doc(family, seed) for family, seed in requests]
        assert served == expected
