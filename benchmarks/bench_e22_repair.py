"""E22 — near-miss repair tier: incremental re-solve vs cold solve.

Not a paper experiment: this is the serving-layer benchmark for the
repair cache tier (:mod:`repro.engine.repair`).  The scenario is a
delta stream over a warm store — a client re-submitting instances that
differ from something already solved by exactly one job (the ROADMAP's
"near-miss" traffic): the repair tier must certify the overlap against
the stored placement trace and replay only the tail, beating a cold
FirstFit re-solve by a wide margin.

Protocol:

1. ``warm`` — a repair-enabled session solves ``N_BASES`` FirstFit
   instances into a fresh store (populating the similarity index),
2. ``repair`` — the same session solves a one-job substitution delta
   of every base: each probe finds its base, certifies, and replays
   one placement,
3. ``cold`` — a store-less session solves the identical deltas from
   scratch (``use_cache=False``).

Asserted: the repair path is >= 3x faster than cold solving locally
(``E22_MIN_REPAIR_SPEEDUP`` softens the floor on noisy shared CI
runners), every delta actually repaired (hits == deltas, zero aborts),
and repaired costs equal cold costs exactly.  Measured numbers append
to ``BENCH_HISTORY.json`` and feed ``benchmarks/drift.py``.
"""

from __future__ import annotations

import gc
import os
import tempfile
import time

import numpy as np
import pytest

from repro.analysis.stats import Table
from repro.api import EngineConfig, Session
from repro.core.instance import Instance
from repro.core.jobs import Job

from .conftest import report_table
from .history import record_bench

N_BASES = 15
N_JOBS = 1000
# Local acceptance floor; CI softens via the environment like E16-E21.
MIN_REPAIR_SPEEDUP = float(
    os.environ.get("E22_MIN_REPAIR_SPEEDUP", "3.0")
)


def _base_instance(seed: int) -> Instance:
    """A FirstFit-routing MinBusy instance: random jobs plus a nesting
    pair (defeats ``is_proper``) and a far-off job (defeats
    ``is_clique``)."""
    rng = np.random.default_rng(3000 + seed)
    starts = rng.uniform(0.0, 400.0, N_JOBS - 3)
    lengths = rng.uniform(1.0, 12.0, N_JOBS - 3)
    jobs = [
        Job(start=float(s), end=float(s + ln), job_id=i)
        for i, (s, ln) in enumerate(zip(starts, lengths))
    ]
    k = len(jobs)
    jobs.append(Job(start=1.0, end=100.0, job_id=k))
    jobs.append(Job(start=2.0, end=3.0, job_id=k + 1))
    jobs.append(Job(start=2000.0, end=2005.0, job_id=k + 2))
    return Instance(jobs=tuple(jobs), g=3)


def _delta_instance(base: Instance, seed: int) -> Instance:
    """Substitute the *last-sorted* job with an even shorter, later
    one.  FirstFit orders by ``(-length, start, job_id)``, so swapping
    the final job of the solve order keeps the stored placement prefix
    fully shared: the repair certifies n-1 placements and replays one.
    (A mid-stream edit still repairs — the 1000-delta differential
    suite pins that — it just replays a longer tail.)"""
    from repro.minbusy.firstfit import firstfit_sort_key

    jobs = list(base.jobs)
    victim_pos = max(
        range(len(jobs)), key=lambda i: firstfit_sort_key(jobs[i])
    )
    jobs[victim_pos] = Job(
        start=5000.0 + seed,
        end=5000.9 + seed,
        job_id=jobs[victim_pos].job_id,
    )
    return Instance(jobs=tuple(jobs), g=base.g)


@pytest.mark.benchmark(group="e22")
def test_e22_repair_vs_cold_solve(benchmark):
    def run():
        bases = [_base_instance(i) for i in range(N_BASES)]
        deltas = [_delta_instance(b, i) for i, b in enumerate(bases)]
        with tempfile.TemporaryDirectory() as tmp:
            with Session(
                EngineConfig(store_path=tmp, repair=True)
            ) as warm:
                for base in bases:
                    warm.solve(base)
                # Collect untimed: a gen-2 pass over the warm phase's
                # garbage would otherwise land inside the short window.
                gc.collect()
                t0 = time.perf_counter()
                repaired = [warm.solve(d) for d in deltas]
                repair_s = time.perf_counter() - t0
                stats = warm.cache_stats()["repair"]
            # The control is the same warm-store deployment with the
            # repair tier disabled: every delta misses, solves cold,
            # and persists — exactly what the traffic costs without
            # ``REPRO_REPAIR``.
            with tempfile.TemporaryDirectory() as tmp2:
                with Session(store_path=tmp2) as cold_session:
                    for base in bases:
                        cold_session.solve(base)
                    gc.collect()
                    t0 = time.perf_counter()
                    cold = [cold_session.solve(d) for d in deltas]
                    cold_s = time.perf_counter() - t0
        return repaired, cold, repair_s, cold_s, stats

    repaired, cold, repair_s, cold_s, stats = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = cold_s / max(repair_s, 1e-12)
    hit_rate = stats["hits"] / max(stats["attempts"], 1)

    t = Table(
        f"E22 repair tier: {N_BASES} one-job deltas x {N_JOBS} jobs",
        ["phase", "seconds", "deltas_per_s"],
    )
    t.add("cold re-solve", cold_s, N_BASES / max(cold_s, 1e-12))
    t.add("repair replay", repair_s, N_BASES / max(repair_s, 1e-12))
    t.add("repair_speedup", f"{speedup:.1f}x", "")
    report_table(t)
    record_bench(
        "e22_repair",
        {
            "n_bases": N_BASES,
            "n_jobs": N_JOBS,
            "cold_seconds": cold_s,
            "repair_seconds": repair_s,
            "repair_speedup": speedup,
            "repair_hits": stats["hits"],
            "repair_attempts": stats["attempts"],
            "repair_aborts": stats["aborts"],
            "repair_hit_rate": hit_rate,
            "min_repair_speedup": MIN_REPAIR_SPEEDUP,
        },
    )

    assert stats["hits"] == N_BASES, stats
    assert stats["aborts"] == 0, stats
    assert [r.cost for r in repaired] == [r.cost for r in cold]
    # Repair hits are served through the cache stack, so the session
    # brands them like any other hit; the cold control never is.
    assert all(r.from_cache for r in repaired)
    assert not any(r.from_cache for r in cold)
    assert speedup >= MIN_REPAIR_SPEEDUP
