"""Micro-benchmark helpers: kernel speedups and batch throughput.

Used by ``benchmarks/bench_e16_engine_batch.py``,
``benchmarks/bench_e17_firstfit.py`` and
``benchmarks/bench_e18_store.py``.  Each kernel row times the
scalar reference implementation against the vectorized NumPy kernel on
the *same* input and records the best-of-``repeats`` wall times; the
two paths are also cross-checked for equality on every run, so a
speedup number is never reported for a kernel that drifted from its
oracle.  :func:`firstfit_speedups` applies the same discipline to the
FirstFit placement loops (scalar ``try_add`` probing vs the
event-indexed occupancy engine of :mod:`repro.core.occupancy`),
cross-checking full machine/thread structures, not just costs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.intervals import union_length, union_length_arrays
from repro.core.jobs import pairwise_overlaps_scalar
from repro.core.machines import max_concurrency_scalar
from repro.core.vectorized import (
    grouped_union_lengths,
    job_arrays,
    pairwise_overlap_arrays,
    peak_depth_arrays,
)
from repro.workloads import random_general_instance

__all__ = [
    "KernelTiming",
    "BatchTiming",
    "kernel_speedups",
    "batch_timing",
    "firstfit_speedups",
]


@dataclass(frozen=True)
class KernelTiming:
    """Scalar-vs-vectorized timing of one kernel on one input."""

    kernel: str
    n: int
    scalar_seconds: float
    vectorized_seconds: float

    @property
    def speedup(self) -> float:
        if self.vectorized_seconds <= 0.0:
            return float("inf")
        return self.scalar_seconds / self.vectorized_seconds


@dataclass(frozen=True)
class BatchTiming:
    """solve_many timing on a batch of instances."""

    n_instances: int
    n_jobs: int
    cold_seconds: float
    cached_seconds: float

    @property
    def cache_speedup(self) -> float:
        if self.cached_seconds <= 0.0:
            return float("inf")
        return self.cold_seconds / self.cached_seconds


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_instance(n: int, seed: int = 0, avg_concurrency: float = 8.0):
    """A random general instance with density held constant in ``n``.

    The default generator horizon is fixed, so the interval-graph edge
    count grows quadratically with ``n``; scaling the horizon keeps the
    expected point-clique depth (and edges-per-job) constant, which is
    the regime a production scheduler actually sees.
    """
    mean_len = 15.5  # generator draws lengths uniform in [1, 30]
    horizon = max(100.0, n * mean_len / avg_concurrency)
    return random_general_instance(n, 4, seed=seed, horizon=horizon)


def kernel_speedups(
    n: int = 10_000,
    *,
    seed: int = 0,
    repeats: int = 3,
    avg_concurrency: float = 8.0,
) -> List[KernelTiming]:
    """Time the three sweep kernels, scalar vs vectorized, at size n."""
    inst = bench_instance(n, seed=seed, avg_concurrency=avg_concurrency)
    jobs = list(inst.jobs)
    starts, ends = job_arrays(jobs)
    machine_ids = np.arange(len(jobs)) % max(1, len(jobs) // 32)
    groups_scalar: List[List] = [[] for _ in range(int(machine_ids.max()) + 1)]
    for j, m in zip(jobs, machine_ids.tolist()):
        groups_scalar[m].append(j)

    rows: List[KernelTiming] = []

    # --- pairwise overlaps (interval-graph edge list) ---
    scalar_edges = pairwise_overlaps_scalar(jobs)
    a, b, w = pairwise_overlap_arrays(starts, ends)
    assert scalar_edges == list(zip(a.tolist(), b.tolist(), w.tolist()))
    rows.append(
        KernelTiming(
            "pairwise_overlaps",
            n,
            _best_time(lambda: pairwise_overlaps_scalar(jobs), repeats),
            _best_time(lambda: pairwise_overlap_arrays(starts, ends), repeats),
        )
    )

    # --- union length (span accounting) ---
    intervals = [j.interval for j in jobs]
    assert union_length(intervals) == union_length_arrays(starts, ends)
    rows.append(
        KernelTiming(
            "union_length",
            n,
            _best_time(lambda: union_length(intervals), repeats),
            _best_time(lambda: union_length_arrays(starts, ends), repeats),
        )
    )

    # --- point-clique depth (peak concurrency) ---
    assert max_concurrency_scalar(jobs) == peak_depth_arrays(starts, ends)
    rows.append(
        KernelTiming(
            "point_clique_depth",
            n,
            _best_time(lambda: max_concurrency_scalar(jobs), repeats),
            _best_time(lambda: peak_depth_arrays(starts, ends), repeats),
        )
    )

    # --- grouped busy-time accounting ---
    def scalar_busy() -> float:
        return sum(
            union_length(j.interval for j in grp)
            for grp in groups_scalar
            if grp
        )

    _, lens = grouped_union_lengths(starts, ends, machine_ids)
    assert scalar_busy() == float(lens.sum()) or abs(
        scalar_busy() - float(lens.sum())
    ) <= 1e-9 * max(1.0, scalar_busy())
    rows.append(
        KernelTiming(
            "busy_time_accounting",
            n,
            _best_time(scalar_busy, repeats),
            _best_time(
                lambda: grouped_union_lengths(starts, ends, machine_ids),
                repeats,
            ),
        )
    )
    return rows


def _timed_once(fn: Callable[[], object]):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _machines_structure(machines) -> list:
    """Canonical machine/thread job-id structure for equality checks."""
    return [
        [[getattr(j, "job_id", getattr(j, "rect_id", None)) for j in thread]
         for thread in m.threads]
        for m in machines
    ]


def firstfit_speedups(
    n: int = 10_000,
    *,
    seed: int = 0,
    repeats: int = 2,
    demand_n: Optional[int] = 2_000,
    ring_n: Optional[int] = 2_000,
    avg_concurrency: float = 8.0,
) -> List[KernelTiming]:
    """Time the FirstFit placement loops, scalar vs occupancy engine.

    Rows: ``firstfit_1d`` at size ``n`` (the E17 acceptance row), plus
    ``firstfit_demand`` and ``firstfit_ring`` at their own (smaller
    default) sizes — the scalar loops of those variants are costlier
    per probe, so the sizes are independent knobs; pass ``None`` to
    skip a row.  The scalar side is timed over a single run (it is the
    slow side by ~two orders of magnitude); the vectorized side takes
    best-of-``repeats``.  Every row's two paths are cross-checked for
    *structural* equality — identical machines, threads and placement
    order — before any number is reported.
    """
    from repro.capacity.firstfit import demand_first_fit
    from repro.minbusy.firstfit import first_fit_machines
    from repro.topology.ring import RingJob
    from repro.topology.ring_firstfit import ring_first_fit
    from repro.workloads import random_demand_instance

    rows: List[KernelTiming] = []

    inst = bench_instance(n, seed=seed, avg_concurrency=avg_concurrency)
    jobs = list(inst.jobs)
    scalar_ms, scalar_s = _timed_once(
        lambda: first_fit_machines(jobs, inst.g, backend="scalar")
    )
    vec_ms, vec_s = _timed_once(
        lambda: first_fit_machines(jobs, inst.g, backend="vectorized")
    )
    assert _machines_structure(scalar_ms) == _machines_structure(vec_ms)
    vec_s = min(
        vec_s,
        _best_time(
            lambda: first_fit_machines(jobs, inst.g, backend="vectorized"),
            max(repeats - 1, 0),
        ),
    )
    rows.append(KernelTiming("firstfit_1d", n, scalar_s, vec_s))

    if demand_n:
        dinst = random_demand_instance(
            demand_n,
            4,
            seed=seed,
            horizon=max(100.0, demand_n * 15.5 / avg_concurrency),
        )
        d_scalar, ds = _timed_once(
            lambda: demand_first_fit(dinst, backend="scalar")
        )
        d_vec, dv = _timed_once(
            lambda: demand_first_fit(dinst, backend="vectorized")
        )
        assert [[j.job_id for j in grp] for grp in d_scalar] == [
            [j.job_id for j in grp] for grp in d_vec
        ]
        dv = min(
            dv,
            _best_time(
                lambda: demand_first_fit(dinst, backend="vectorized"),
                max(repeats - 1, 0),
            ),
        )
        rows.append(KernelTiming("firstfit_demand", demand_n, ds, dv))

    if ring_n:
        rng = np.random.default_rng(seed)
        horizon = max(50.0, ring_n * 10.0 / avg_concurrency)
        t0s = rng.uniform(0.0, horizon, ring_n)
        ring_jobs = [
            RingJob(
                a0=float(rng.uniform(0.0, 1.0)),
                alen=float(rng.uniform(0.05, 0.45)),
                t0=float(t),
                t1=float(t + rng.uniform(1.0, 20.0)),
                circumference=1.0,
                job_id=i,
            )
            for i, t in enumerate(t0s)
        ]
        r_scalar, rs = _timed_once(
            lambda: ring_first_fit(ring_jobs, 4, backend="scalar")
        )
        r_vec, rv = _timed_once(
            lambda: ring_first_fit(ring_jobs, 4, backend="vectorized")
        )
        assert _machines_structure(r_scalar.machines) == _machines_structure(
            r_vec.machines
        )
        rv = min(
            rv,
            _best_time(
                lambda: ring_first_fit(ring_jobs, 4, backend="vectorized"),
                max(repeats - 1, 0),
            ),
        )
        rows.append(KernelTiming("firstfit_ring", ring_n, rs, rv))

    return rows


def batch_timing(
    n_instances: int = 1000,
    n_jobs: int = 50,
    *,
    objective: str = "minbusy",
    workers: Optional[int] = None,
    seed: int = 0,
) -> BatchTiming:
    """Time a cold ``solve_many`` batch and the fully-cached re-run on
    a fresh store-less session."""
    from repro.api import Session

    instances = [
        bench_instance(n_jobs, seed=seed + i) for i in range(n_instances)
    ]
    session = Session(store_path=None)
    t0 = time.perf_counter()
    cold = session.solve_many(instances, objective, workers=workers)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = session.solve_many(instances, objective, workers=workers)
    cached_s = time.perf_counter() - t0
    assert [r.cost for r in cold] == [r.cost for r in warm]
    assert all(r.from_cache for r in warm)
    return BatchTiming(
        n_instances=n_instances,
        n_jobs=n_jobs,
        cold_seconds=cold_s,
        cached_seconds=cached_s,
    )
