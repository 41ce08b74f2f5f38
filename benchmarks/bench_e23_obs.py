"""E23 — observability overhead: traced vs untraced sustained serving.

Not a paper experiment: the acceptance gate for the observability
subsystem (:mod:`repro.obs`).  The contract is "stay off the hot
path": with tracing fully enabled — client spans attached to every
request, the server adopting the wire context, recording its own
spans and shipping them back for client-side reassembly — sustained
serving may cost at most **2%** more wall time than the identical
load with tracing disabled.

The measured load is E19-style sustained traffic in the shape fleet
serving actually takes: batched ``solve_many`` requests (exactly what
the sharded router sends each shard) of *distinct* cold instances, so
every request performs real solving work.  That shape matters for the
bound's meaning: a span has an irreducible cost of a few
microseconds, so overhead is only a meaningful number relative to
requests that do work — measured against the byte-replay fast path
(a dict lookup and a socket write) no tracing design could price in
at 2%, which is why traced repeats replay from that tier (keyed
without their ``trace`` field) but are not what this gate measures.

Measurement discipline: the same batched loop runs in paired off/on
rounds over one live in-process server, and the gate compares the
*minimum per-round ratio* — pairing keeps each comparison inside one
scheduler regime, and min-of-ratios strips the noise spikes a shared
box injects (any single quiet round suffices to demonstrate the true
overhead, which is what an upper bound needs).
``E23_MAX_OBS_OVERHEAD`` softens the ceiling on
noisy shared CI runners.  Recorded for drift: ``overhead_inv =
1/(1+overhead)`` so instrumentation getting slower reads as a *drop*
(drift.py only flags drops).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.stats import Table
from repro.api import RemoteSession, Session
from repro.obs import trace as obs_trace
from repro.service import SolveServer

from .conftest import report_table
from .history import record_bench

from tests.helpers import family_instance

FAMILIES = ("minbusy", "capacity", "rect2d", "ring", "maxthroughput")
N_BATCHES = 12  # requests per round, rotating objective families
BATCH_SIZE = 20  # distinct instances per solve_many request
ROUNDS = 5  # paired off/on rounds; the best (lowest) ratio wins
MAX_OBS_OVERHEAD = float(os.environ.get("E23_MAX_OBS_OVERHEAD", "0.02"))


def _batches():
    out = []
    for b in range(N_BATCHES):
        family = FAMILIES[b % len(FAMILIES)]
        instances = [
            family_instance(family, 2300 + b * 100 + i)[0]
            for i in range(BATCH_SIZE)
        ]
        out.append((family, instances))
    return out


def _drive(remote, batches):
    t0 = time.perf_counter()
    for family, instances in batches:
        results = remote.solve_many(instances, family, use_cache=False)
        assert len(results) == len(instances)
    return time.perf_counter() - t0


@pytest.mark.benchmark(group="e23")
def test_e23_observability_overhead_is_bounded(benchmark):
    def run():
        batches = _batches()
        server = SolveServer(
            port=0, max_concurrency=8, session=Session(store_path=None)
        )
        handle = server.run_in_thread()
        off_times, on_times = [], []
        was_enabled = obs_trace.tracing_enabled()
        try:
            port = handle.port
            with RemoteSession(port=port) as warm:
                _drive(warm, batches)  # code paths, allocator, sockets
            for _ in range(ROUNDS):
                # off: the disabled path (one attribute read per site)
                obs_trace.disable_tracing()
                with RemoteSession(port=port) as remote:
                    off_times.append(_drive(remote, batches))
                # on: spans + wire payload + client-side reassembly.
                # The session connects *after* enabling so its hello
                # negotiates the trace capability.
                obs_trace.enable_tracing()
                with RemoteSession(port=port) as remote:
                    with obs_trace.span("bench.e23") as root:
                        on_times.append(_drive(remote, batches))
                    assert obs_trace.trace_spans(root.trace_id)
                obs_trace.clear_ring()
        finally:
            if was_enabled:
                obs_trace.enable_tracing()
            else:
                obs_trace.disable_tracing()
            handle.stop()
        return off_times, on_times

    off_times, on_times = benchmark.pedantic(run, rounds=1, iterations=1)
    # Paired ratios: round k's on-time over round k's off-time; the
    # quietest pair is the honest upper bound on the true overhead.
    ratios = [on / off for off, on in zip(off_times, on_times)]
    best = min(range(ROUNDS), key=lambda k: ratios[k])
    t_off, t_on = off_times[best], on_times[best]
    overhead = ratios[best] - 1.0
    overhead_inv = 1.0 / (1.0 + max(overhead, 0.0))
    n_solves = N_BATCHES * BATCH_SIZE

    t = Table(
        f"E23 observability: {N_BATCHES} solve_many requests x "
        f"{BATCH_SIZE} cold solves, best of {ROUNDS} paired rounds",
        ["mode", "seconds", "solves_per_s"],
    )
    t.add("tracing off", f"{t_off:.4f}", f"{n_solves / t_off:.0f}")
    t.add("tracing on", f"{t_on:.4f}", f"{n_solves / t_on:.0f}")
    t.add("overhead", f"{overhead:+.2%}", "")
    report_table(t)
    record_bench(
        "e23_obs",
        {
            "n_batches": N_BATCHES,
            "batch_size": BATCH_SIZE,
            "rounds": ROUNDS,
            "off_seconds": t_off,
            "on_seconds": t_on,
            "overhead": overhead,
            "overhead_inv": overhead_inv,
            "max_obs_overhead": MAX_OBS_OVERHEAD,
        },
    )
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"observability overhead {overhead:+.2%} exceeds the "
        f"{MAX_OBS_OVERHEAD:.0%} budget (off={t_off:.4f}s on={t_on:.4f}s)"
    )
