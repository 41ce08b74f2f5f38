"""E18 — persistent store tier: warm-store serving vs cold solving.

Not a paper experiment: this is the serving-layer benchmark for the
disk-backed result cache (:mod:`repro.engine.store`).  The scenario is
the ROADMAP's "repeated CLI invocations / worker pools share hits": a
process with an *empty LRU* (as every fresh process has) serves a batch
purely from the persistent store and must beat re-solving by a wide
margin.

Protocol:

1. ``cold`` — empty LRU, empty store: ``solve_many`` actually solves
   every instance (and write-behinds each result to disk),
2. ``warm`` — the LRU is cleared to simulate a fresh process and the
   store is *re-opened* (fresh index, built by scanning segments, as a
   new process would): ``solve_many`` is served entirely from disk.

Asserted: warm serving is >= 5x faster than cold solving locally
(``E18_MIN_STORE_SPEEDUP`` softens the floor on noisy shared CI
runners), every warm result is a cache hit, and warm costs equal cold
costs exactly.  Measured numbers append to ``BENCH_HISTORY.json`` and
feed ``benchmarks/drift.py``.
"""

from __future__ import annotations

import os
import tempfile
import time

import pytest

from repro.analysis.stats import Table
from repro.api import Session

from .conftest import report_table
from .history import record_bench
from .timing import bench_instance

N_INSTANCES = 300
N_JOBS = 60
# Local acceptance floor; CI softens via the environment like E16/E17.
MIN_STORE_SPEEDUP = float(os.environ.get("E18_MIN_STORE_SPEEDUP", "5.0"))


@pytest.mark.benchmark(group="e18")
def test_e18_warm_store_vs_cold_solve(benchmark):
    def run():
        instances = [
            bench_instance(N_JOBS, seed=1000 + i) for i in range(N_INSTANCES)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            with Session(store_path=tmp) as cold_session:
                t0 = time.perf_counter()
                cold = cold_session.solve_many(instances)
                cold_s = time.perf_counter() - t0

            # A fresh process: a new session with an empty LRU, the
            # store re-opened from disk (fresh index, segment scan).
            with Session(store_path=tmp) as warm_session:
                t0 = time.perf_counter()
                warm = warm_session.solve_many(instances)
                warm_s = time.perf_counter() - t0
                stats = warm_session.store_stats()
        return cold, warm, cold_s, warm_s, stats

    cold, warm, cold_s, warm_s, stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = cold_s / max(warm_s, 1e-12)

    t = Table(
        f"E18 store tier: {N_INSTANCES} instances x {N_JOBS} jobs",
        ["phase", "seconds", "instances_per_s"],
    )
    t.add("cold solve+persist", cold_s, N_INSTANCES / cold_s)
    t.add("warm from store", warm_s, N_INSTANCES / max(warm_s, 1e-12))
    t.add("store_speedup", f"{speedup:.1f}x", "")
    report_table(t)
    record_bench(
        "e18_store",
        {
            "n_instances": N_INSTANCES,
            "n_jobs": N_JOBS,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "store_speedup": speedup,
            "store_hits": stats.hits,
            "store_puts": stats.puts,
            "min_store_speedup": MIN_STORE_SPEEDUP,
        },
    )

    assert all(r.from_cache for r in warm)
    assert not any(r.from_cache for r in cold)
    assert [r.cost for r in warm] == [r.cost for r in cold]
    assert stats.puts == N_INSTANCES
    assert stats.hits >= N_INSTANCES
    assert speedup >= MIN_STORE_SPEEDUP
