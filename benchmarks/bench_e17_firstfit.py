"""E17 — FirstFit placement through the event-indexed occupancy engine.

Not a paper experiment: this is the serving-layer benchmark for the
occupancy engine (``repro.core.occupancy``), the PR-2 companion to E16's
sweep kernels.  Two claims are demonstrated and *asserted*:

1. on a 10k-job general instance, the vectorized "first machine that
   fits" scan beats the scalar per-machine ``try_add`` probing by
   >= 3x (locally; CI softens the floor via ``E17_MIN_KERNEL_SPEEDUP``
   the same way E16 does) — while building the *bit-identical*
   machine/thread structure, which ``timing.firstfit_speedups``
   cross-checks on every run before reporting a number;
2. the demand-aware and ring-topology FirstFit variants ride the same
   engine and are reported (and structure-checked) alongside, at
   smaller sizes because their scalar reference loops are costlier per
   probe.

Density is held constant as n grows (the bench instance scales its
horizon), matching E16's regime; measured numbers are appended to the
``BENCH_HISTORY.json`` artifact when ``BENCH_HISTORY_PATH`` is set so
CI runs leave a drift-visible trail.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.stats import Table
from repro.minbusy.firstfit import FIRSTFIT_VECTORIZE_MIN_SIZE

from .conftest import report_table
from .history import record_bench
from .timing import firstfit_speedups

FIRSTFIT_N = 10_000
SATELLITE_N = 2_000
# Local acceptance floor is 3x at n=10k (measured ~50-70x on a quiet
# machine); shared CI runners are noisy/throttled, so CI overrides this
# with a softer regression tripwire via the environment, mirroring E16.
MIN_KERNEL_SPEEDUP = float(os.environ.get("E17_MIN_KERNEL_SPEEDUP", "3.0"))


@pytest.mark.benchmark(group="e17")
def test_e17_firstfit_speedups(benchmark):
    rows = benchmark.pedantic(
        lambda: firstfit_speedups(
            FIRSTFIT_N,
            seed=0,
            repeats=2,
            demand_n=SATELLITE_N,
            ring_n=SATELLITE_N,
        ),
        rounds=1,
        iterations=1,
    )
    t = Table(
        f"E17 FirstFit at n={FIRSTFIT_N} "
        f"(demand/ring at n={SATELLITE_N}): scalar vs occupancy engine",
        ["variant", "n", "scalar_ms", "vectorized_ms", "speedup"],
    )
    for k in rows:
        t.add(
            k.kernel,
            k.n,
            k.scalar_seconds * 1e3,
            k.vectorized_seconds * 1e3,
            f"{k.speedup:.1f}x",
        )
    report_table(t)
    record_bench(
        "e17_firstfit",
        {
            "rows": [
                {
                    "variant": k.kernel,
                    "n": k.n,
                    "scalar_seconds": k.scalar_seconds,
                    "vectorized_seconds": k.vectorized_seconds,
                    "speedup": k.speedup,
                }
                for k in rows
            ],
            "min_kernel_speedup": MIN_KERNEL_SPEEDUP,
        },
    )
    by_name = {k.kernel: k for k in rows}
    # The acceptance-criterion row: 1-D FirstFit at n=10k.
    assert by_name["firstfit_1d"].speedup >= MIN_KERNEL_SPEEDUP
    # The satellites must at least not regress below scalar parity by
    # much — they are reported, not floored, but a vectorized path
    # running at half scalar speed means the dispatch threshold is
    # misplaced.
    assert by_name["firstfit_demand"].speedup >= 0.5
    assert by_name["firstfit_ring"].speedup >= 0.5


@pytest.mark.benchmark(group="e17")
def test_e17_auto_dispatch_routes_by_size(benchmark):
    """Each variant's auto backend switches at its calibrated size."""
    from repro.core.occupancy import (
        DEMAND_FIRSTFIT_MIN_SIZE,
        RING_FIRSTFIT_MIN_SIZE,
        resolve_backend,
    )

    def probe():
        thr = FIRSTFIT_VECTORIZE_MIN_SIZE
        below = resolve_backend("auto", thr - 1, thr)
        at = resolve_backend("auto", thr, thr)
        above = resolve_backend("auto", FIRSTFIT_N, thr)
        return below, at, above

    below, at, above = benchmark.pedantic(probe, rounds=1, iterations=1)
    assert below == "scalar"
    assert at == "vectorized"
    assert above == "vectorized"
    # Demand/ring scalar probes are cheaper per job, so their engines
    # switch later — below their thresholds auto must stay scalar.
    for thr in (DEMAND_FIRSTFIT_MIN_SIZE, RING_FIRSTFIT_MIN_SIZE):
        assert resolve_backend("auto", thr - 1, thr) == "scalar"
        assert resolve_backend("auto", thr, thr) == "vectorized"
        # The E17 satellite rows run well above the crossover.
        assert SATELLITE_N >= thr
