"""E19 — solve service: concurrent warm serving vs sequential round-trips.

Not a paper experiment: this is the serving-layer benchmark for the
asyncio front end (:mod:`repro.service`).  The scenario is the
ROADMAP's "serve heavy traffic": a warm server (every request content
already solved) is driven two ways —

1. ``sequential`` — the naive client loop: one connection per request,
   one request per round-trip, strictly serialized.  This is the
   pre-service access pattern (repeated one-shot client invocations).
2. ``concurrent`` — sustained load: persistent connections with at
   least 50 requests in flight at once (8 connections x 64 pipelined
   requests each), the pattern the async server and its wire-tier
   response cache exist for.

Requests mix five objective families so the measurement exercises the
registry dispatch, not one family's serialization.  Asserted: every
response on both paths is a cache hit, the concurrent path's
throughput is >= 5x the sequential path's locally
(``E19_MIN_SERVICE_SPEEDUP`` softens the floor on noisy shared CI
runners — concurrency gains shrink when the runner core count is
oversubscribed), and the replayed responses are byte-identical to the
sequential ones.  Measured numbers append to ``BENCH_HISTORY.json``
and feed ``benchmarks/drift.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.analysis.stats import Table
from repro.api import Session
from repro.service import ServiceClient, SolveServer
from repro.service.protocol import encode

from .conftest import report_table
from .history import record_bench

from tests.helpers import family_request

FAMILIES = ("minbusy", "capacity", "rect2d", "ring", "maxthroughput")
N_UNIQUE = 10  # distinct request contents (2 seeds x 5 families)
N_SEQUENTIAL = 50  # sequential round-trips measured
N_CONNECTIONS = 8
PIPELINED_PER_CONNECTION = 64  # >= 50 requests in flight at any moment
# Local acceptance floor; CI softens via the environment like E16-E18.
MIN_SERVICE_SPEEDUP = float(
    os.environ.get("E19_MIN_SERVICE_SPEEDUP", "5.0")
)


def _requests():
    out = []
    for i in range(2):
        for family in FAMILIES:
            doc, params = family_request(family, 1900 + i)
            line = {
                "op": "solve",
                "objective": family,
                "instance": doc,
                "cache": True,
            }
            if params:
                line["params"] = params
            out.append((family, doc, params, encode(line)))
    return out


@pytest.mark.benchmark(group="e19")
def test_e19_concurrent_service_vs_sequential_roundtrips(benchmark):
    def run():
        requests = _requests()
        # A private session isolates the server from any ambient
        # REPRO_CACHE_DIR and from other engine state in this process.
        server = SolveServer(
            port=0, max_concurrency=32, session=Session(store_path=None)
        )
        handle = server.run_in_thread()
        try:
            port = handle.port
            # Warm every tier with the exact bytes the load will replay
            # (raw NDJSON lines, so these connections never upgrade).
            with ServiceClient(
                port=port, timeout=60.0, wire="ndjson"
            ) as warm:
                for _family, _doc, _params, payload in requests:
                    warm._sock.sendall(payload)
                    assert warm._recv()["ok"]

            # 1) sequential round-trips, one fresh connection each.
            sequential_docs = []
            t0 = time.perf_counter()
            for i in range(N_SEQUENTIAL):
                family, doc, params, _payload = requests[i % len(requests)]
                with ServiceClient(port=port, timeout=60.0) as client:
                    sequential_docs.append(
                        client.solve(doc, family, params=params or None)
                    )
            sequential_s = time.perf_counter() - t0

            # 2) concurrent sustained load on persistent connections.
            clients = [
                ServiceClient(port=port, timeout=120.0, wire="ndjson")
                for _ in range(N_CONNECTIONS)
            ]
            barrier = threading.Barrier(N_CONNECTIONS + 1)
            concurrent_docs = [None] * N_CONNECTIONS

            def drive(i):
                client = clients[i]
                blob = b"".join(
                    requests[(i + k) % len(requests)][3]
                    for k in range(PIPELINED_PER_CONNECTION)
                )
                barrier.wait(timeout=30.0)
                client._sock.sendall(blob)
                concurrent_docs[i] = [
                    client._recv() for _ in range(PIPELINED_PER_CONNECTION)
                ]

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(N_CONNECTIONS)
            ]
            for t in threads:
                t.start()
            barrier.wait(timeout=30.0)
            t0 = time.perf_counter()
            for t in threads:
                t.join()
            concurrent_s = time.perf_counter() - t0
            for client in clients:
                client.close()
        finally:
            handle.stop()
        return requests, sequential_docs, sequential_s, concurrent_docs, concurrent_s

    requests, sequential_docs, sequential_s, concurrent_docs, concurrent_s = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    n_concurrent = N_CONNECTIONS * PIPELINED_PER_CONNECTION
    sequential_rps = N_SEQUENTIAL / max(sequential_s, 1e-12)
    concurrent_rps = n_concurrent / max(concurrent_s, 1e-12)
    speedup = concurrent_rps / sequential_rps

    t = Table(
        f"E19 service: {n_concurrent} concurrent vs "
        f"{N_SEQUENTIAL} sequential warm requests",
        ["mode", "requests", "seconds", "requests_per_s"],
    )
    t.add("sequential round-trips", N_SEQUENTIAL, sequential_s, sequential_rps)
    t.add(
        f"concurrent ({N_CONNECTIONS} conns)",
        n_concurrent,
        concurrent_s,
        concurrent_rps,
    )
    t.add("service_speedup", f"{speedup:.1f}x", "", "")
    report_table(t)
    record_bench(
        "e19_service",
        {
            "n_sequential": N_SEQUENTIAL,
            "n_concurrent": n_concurrent,
            "n_connections": N_CONNECTIONS,
            "sequential_seconds": sequential_s,
            "concurrent_seconds": concurrent_s,
            "sequential_rps": sequential_rps,
            "concurrent_rps": concurrent_rps,
            "service_speedup": speedup,
            "min_service_speedup": MIN_SERVICE_SPEEDUP,
        },
    )

    # Warm means warm: every response on both paths was a cache hit.
    assert all(doc["from_cache"] for doc in sequential_docs)
    by_content = {}
    for i, doc in enumerate(sequential_docs):
        family = requests[i % len(requests)][0]
        by_content.setdefault(
            (family, i % len(requests)), json.dumps(doc, sort_keys=True)
        )
    for i, responses in enumerate(concurrent_docs):
        assert responses is not None
        for k, response in enumerate(responses):
            assert response["ok"]
            result = response["result"]
            assert result["from_cache"]
            key = (
                requests[(i + k) % len(requests)][0],
                (i + k) % len(requests),
            )
            # Byte-identical to the sequential path's rendering.
            assert json.dumps(result, sort_keys=True) == by_content[key]
    assert speedup >= MIN_SERVICE_SPEEDUP
