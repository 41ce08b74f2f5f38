"""The E16/E17 timing helpers (benchmarks/timing.py) at smoke sizes.

Every row cross-checks its scalar oracle against the vectorized path
(edge lists, union lengths, depths, busy time, FirstFit machine/thread
structure) before it reports a number, so running the helpers small
keeps those checks in the tier-1 suite; the benches time them large.
"""

from __future__ import annotations

from benchmarks.timing import batch_timing, firstfit_speedups, kernel_speedups


def test_kernel_speedups_cross_check():
    rows = kernel_speedups(256, repeats=1)
    assert [r.kernel for r in rows] == [
        "pairwise_overlaps",
        "union_length",
        "point_clique_depth",
        "busy_time_accounting",
    ]
    assert all(r.n == 256 and r.speedup > 0 for r in rows)


def test_firstfit_speedups_cross_check_every_variant():
    rows = firstfit_speedups(128, repeats=1, demand_n=128, ring_n=128)
    assert [r.kernel for r in rows] == [
        "firstfit_1d",
        "firstfit_demand",
        "firstfit_ring",
    ]
    assert all(r.n == 128 and r.speedup > 0 for r in rows)


def test_batch_timing_warm_rerun_is_all_hits():
    batch = batch_timing(4, 8)
    assert (batch.n_instances, batch.n_jobs) == (4, 8)
    assert batch.cold_seconds > 0 and batch.cache_speedup > 0
