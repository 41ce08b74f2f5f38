"""E16 — batch solver engine: vectorized kernels and instance batching.

Not a paper experiment: this is the serving-layer benchmark for the
engine subsystem.  Two claims are demonstrated and *asserted*:

1. the vectorized overlap/union/depth kernels beat the scalar reference
   sweeps by >= 5x on 10k-job instances (while returning identical
   results — equality is cross-checked inside ``kernel_speedups``), and
2. ``Session.solve_many`` over a 1k-instance batch is deterministic,
   equal to per-instance ``solve``, and effectively free on cache
   re-runs.

Density is held constant as n grows (the horizon scales with n), which
is the regime a production scheduler sees; a fixed horizon would make
the edge count quadratic and flatter the vectorized path unfairly.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.stats import Table, geometric_mean
from repro.api import Session

from .conftest import report_table
from .history import record_bench
from .timing import batch_timing, bench_instance, kernel_speedups

KERNEL_N = 10_000
# The acceptance floor is 5x on a quiet machine; shared CI runners are
# noisy/throttled, so CI overrides this to a softer regression tripwire
# via the environment (see .github/workflows/ci.yml).
MIN_KERNEL_SPEEDUP = float(os.environ.get("E16_MIN_KERNEL_SPEEDUP", "5.0"))
BATCH_INSTANCES = 1_000
BATCH_JOBS = 30


@pytest.mark.benchmark(group="e16")
def test_e16_kernel_speedups(benchmark):
    rows = benchmark.pedantic(
        lambda: kernel_speedups(KERNEL_N, seed=0, repeats=3),
        rounds=1,
        iterations=1,
    )
    t = Table(
        f"E16 engine kernels at n={KERNEL_N}: scalar vs vectorized",
        ["kernel", "scalar_ms", "vectorized_ms", "speedup"],
    )
    for k in rows:
        t.add(
            k.kernel,
            k.scalar_seconds * 1e3,
            k.vectorized_seconds * 1e3,
            f"{k.speedup:.1f}x",
        )
    t.add("geomean", "", "", f"{geometric_mean([k.speedup for k in rows]):.1f}x")
    report_table(t)
    record_bench(
        "e16_kernels",
        {
            "rows": [
                {
                    "kernel": k.kernel,
                    "n": k.n,
                    "scalar_seconds": k.scalar_seconds,
                    "vectorized_seconds": k.vectorized_seconds,
                    "speedup": k.speedup,
                }
                for k in rows
            ],
            "geomean_speedup": geometric_mean([k.speedup for k in rows]),
            "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
        },
    )
    # The overlap and union kernels are the acceptance-criterion pair.
    by_name = {k.kernel: k for k in rows}
    assert by_name["pairwise_overlaps"].speedup >= MIN_KERNEL_SPEEDUP
    assert by_name["union_length"].speedup >= MIN_KERNEL_SPEEDUP


@pytest.mark.benchmark(group="e16")
def test_e16_batch_1k_instances(benchmark):
    timing = benchmark.pedantic(
        lambda: batch_timing(BATCH_INSTANCES, BATCH_JOBS, seed=0),
        rounds=1,
        iterations=1,
    )
    t = Table(
        f"E16 solve_many: {timing.n_instances} instances x "
        f"{timing.n_jobs} jobs",
        ["phase", "seconds", "instances_per_s"],
    )
    t.add("cold", timing.cold_seconds, timing.n_instances / timing.cold_seconds)
    t.add(
        "cached",
        timing.cached_seconds,
        timing.n_instances / max(timing.cached_seconds, 1e-12),
    )
    t.add("cache_speedup", f"{timing.cache_speedup:.1f}x", "")
    report_table(t)
    record_bench(
        "e16_batch",
        {
            "n_instances": timing.n_instances,
            "n_jobs": timing.n_jobs,
            "cold_seconds": timing.cold_seconds,
            "cached_seconds": timing.cached_seconds,
            "cache_speedup": timing.cache_speedup,
        },
    )
    assert timing.cache_speedup > 1.0


@pytest.mark.benchmark(group="e16")
def test_e16_batch_equals_sequential(benchmark):
    """Batch output is the sequential output, in order (spot check)."""
    instances = [bench_instance(20, seed=s) for s in range(50)]

    def run():
        batch = Session(store_path=None).solve_many(instances)
        session = Session(store_path=None)
        seq = [session.solve(inst) for inst in instances]
        return batch, seq

    batch, seq = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [r.cost for r in batch] == [r.cost for r in seq]
    assert [r.algorithm for r in batch] == [r.algorithm for r in seq]
    assert [r.fingerprint for r in batch] == [r.fingerprint for r in seq]
