"""Differential tests: occupancy-engine FirstFit vs the scalar oracle.

The contract of :mod:`repro.core.occupancy` is *bit-exact structural
equivalence* with the scalar FirstFit loops — same machine count, same
per-thread assignment, same placement order — so every assertion here
is plain ``==`` on the full machine/thread job-id structure, never on
costs.  Coverage:

* seeded sweeps of >= 1000 generated instances per variant (1-D
  minbusy, demand-aware, ring topology), drawn from the workload
  generators across classes (general / clique / proper / integral)
  plus adversarial constructions (staircase, Figure 3, duplicated
  jobs, equal lengths);
* hypothesis property tests on small adversarial span sets (duplicate
  endpoints, touching intervals, equal-length ties);
* threshold crossing in both directions: ``backend="auto"`` must
  agree with the scalar oracle below, at and above
  ``FIRSTFIT_VECTORIZE_MIN_SIZE``;
* the equal-length tie-break regression pinning the documented
  ``(-length, start, job_id)`` placement key.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jobs import Job, make_jobs
from repro.core.occupancy import (
    FIRSTFIT_VECTORIZE_MIN_SIZE,
    IntervalOccupancy,
    resolve_backend,
)
from repro.capacity.firstfit import demand_first_fit
from repro.minbusy.firstfit import first_fit_machines, firstfit_sort_key
from repro.rect.bucket import bucket_first_fit
from repro.rect.firstfit2d import first_fit_2d
from repro.topology.ring import RingJob
from repro.topology.ring_firstfit import ring_bucket_first_fit, ring_first_fit
from repro.workloads import (
    random_clique_instance,
    random_demand_instance,
    random_general_instance,
    random_proper_clique_instance,
    random_proper_instance,
    random_rects,
)
from repro.workloads.adversarial import fig3_instance, staircase_proper_instance

# Instances per variant in the seeded differential sweeps (the
# acceptance criterion asks for >= 1000 per variant).
N_INSTANCES = 1000


def canon_1d(machines):
    """Machine/thread/job-id structure, in placement order."""
    return [[[j.job_id for j in t] for t in m.threads] for m in machines]


def canon_sched(schedule):
    return [
        [[getattr(j, "job_id", getattr(j, "rect_id", None)) for j in t]
         for t in m.threads]
        for m in schedule.machines
    ]


def canon_groups(groups):
    return [[j.job_id for j in grp] for grp in groups]


# ----------------------------------------------------------------------
# seeded sweeps: >= 1000 instances per variant
# ----------------------------------------------------------------------


def _interval_instance(seed: int):
    """One small instance per seed, cycling classes and parameters."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 45))
    g = int(rng.integers(1, 6))
    kind = seed % 6
    if kind == 0:
        return random_general_instance(n, g, seed=seed)
    if kind == 1:
        return random_clique_instance(n, g, seed=seed)
    if kind == 2:
        return random_proper_instance(n, g, seed=seed)
    if kind == 3:
        # Integral endpoints: duplicate/touching endpoints and many
        # equal-length ties after rounding.
        return random_general_instance(
            n, g, seed=seed, horizon=25.0, max_len=6.0, integral=True
        )
    if kind == 4:
        return random_proper_clique_instance(n, g, seed=seed)
    return staircase_proper_instance(n, g, shift=1.0 + (seed % 3), length=50.0)


def test_minbusy_firstfit_differential_sweep():
    for seed in range(N_INSTANCES):
        inst = _interval_instance(seed)
        jobs = list(inst.jobs)
        scalar = canon_1d(first_fit_machines(jobs, inst.g, backend="scalar"))
        vector = canon_1d(
            first_fit_machines(jobs, inst.g, backend="vectorized")
        )
        assert scalar == vector, f"1-D FirstFit diverged at seed={seed}"


def test_demand_firstfit_differential_sweep():
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = int(rng.integers(2, 8))
        inst = random_demand_instance(
            n, g, seed=seed, horizon=float(rng.choice([30.0, 100.0]))
        )
        scalar = canon_groups(demand_first_fit(inst, backend="scalar"))
        vector = canon_groups(demand_first_fit(inst, backend="vectorized"))
        assert scalar == vector, f"demand FirstFit diverged at seed={seed}"


def _ring_jobs(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 35))
    C = float(rng.choice([1.0, 7.0]))
    # Mix in full-circle arcs (alen == C) to hit the wrap shortcut.
    jobs = []
    for i in range(n):
        alen = C if rng.random() < 0.08 else float(rng.uniform(0.03, 0.95) * C)
        t0 = float(rng.uniform(0.0, 40.0))
        jobs.append(
            RingJob(
                a0=float(rng.uniform(0.0, C * (1 - 1e-9))),
                alen=alen,
                t0=t0,
                t1=t0 + float(rng.uniform(0.5, 15.0)),
                circumference=C,
                job_id=i,
            )
        )
    return jobs


def test_ring_firstfit_differential_sweep():
    for seed in range(N_INSTANCES):
        g = 1 + seed % 5
        jobs = _ring_jobs(seed)
        scalar = canon_sched(ring_first_fit(jobs, g, backend="scalar"))
        vector = canon_sched(ring_first_fit(jobs, g, backend="vectorized"))
        assert scalar == vector, f"ring FirstFit diverged at seed={seed}"
        if seed % 7 == 0:
            sb = canon_sched(ring_bucket_first_fit(jobs, g, backend="scalar"))
            vb = canon_sched(
                ring_bucket_first_fit(jobs, g, backend="vectorized")
            )
            assert sb == vb, f"ring BucketFirstFit diverged at seed={seed}"


@pytest.mark.parametrize("seed", range(60))
def test_rect2d_firstfit_differential(seed):
    """The planar 2-D path sharing the engine (Algorithms 3 and 4)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    g = int(rng.integers(1, 5))
    rects = random_rects(n, seed=seed)
    assert canon_sched(first_fit_2d(rects, g, backend="scalar")) == canon_sched(
        first_fit_2d(rects, g, backend="vectorized")
    )
    assert canon_sched(
        bucket_first_fit(rects, g, backend="scalar")
    ) == canon_sched(bucket_first_fit(rects, g, backend="vectorized"))


@pytest.mark.parametrize("g", [4, 5, 6])
def test_rect2d_fig3_adversarial(g):
    """Figure 3 lower-bound instance: the order-sensitive worst case."""
    rects = fig3_instance(g, gamma1=1.0, eps=0.5)
    assert canon_sched(first_fit_2d(rects, g, backend="scalar")) == canon_sched(
        first_fit_2d(rects, g, backend="vectorized")
    )


# ----------------------------------------------------------------------
# hypothesis: small adversarial span sets
# ----------------------------------------------------------------------

span = st.tuples(
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=1, max_value=12),
).map(lambda t: (float(t[0]), float(t[0] + t[1])))

spans_lists = st.lists(span, min_size=0, max_size=24)


@given(spans_lists, st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_property_1d_matches_scalar(spans, g):
    jobs = make_jobs(spans)
    assert canon_1d(first_fit_machines(jobs, g, backend="scalar")) == canon_1d(
        first_fit_machines(jobs, g, backend="vectorized")
    )


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=0,
        max_size=16,
    ),
    st.integers(min_value=3, max_value=5),
)
@settings(max_examples=150, deadline=None)
def test_property_demand_matches_scalar(rows, g):
    from repro.core.instance import Instance

    spans = [(float(s), float(s + L)) for s, L, _ in rows]
    demands = [d for _, _, d in rows]
    inst = Instance.from_spans(spans, g, demands=demands)
    assert canon_groups(demand_first_fit(inst, backend="scalar")) == canon_groups(
        demand_first_fit(inst, backend="vectorized")
    )


# ----------------------------------------------------------------------
# threshold crossing (both directions)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n",
    [
        FIRSTFIT_VECTORIZE_MIN_SIZE - 1,
        FIRSTFIT_VECTORIZE_MIN_SIZE,
        FIRSTFIT_VECTORIZE_MIN_SIZE + 17,
    ],
)
def test_auto_backend_crosses_threshold(n):
    """auto == scalar oracle on both sides of the dispatch threshold."""
    inst = random_general_instance(n, 3, seed=n, horizon=150.0)
    jobs = list(inst.jobs)
    auto = canon_1d(first_fit_machines(jobs, 3, backend="auto"))
    scalar = canon_1d(first_fit_machines(jobs, 3, backend="scalar"))
    assert auto == scalar
    expected = (
        "vectorized" if n >= FIRSTFIT_VECTORIZE_MIN_SIZE else "scalar"
    )
    assert resolve_backend("auto", n) == expected


def test_backend_validation():
    with pytest.raises(ValueError):
        first_fit_machines([], 2, backend="gpu")


#: Every FirstFit entry point that takes ``backend=``, on a small
#: non-empty input so the call reaches backend resolution.
BACKEND_ENTRY_POINTS = {
    "first_fit_machines": lambda backend: first_fit_machines(
        list(random_general_instance(5, 2, seed=0).jobs), 2, backend=backend
    ),
    "first_fit_2d": lambda backend: first_fit_2d(
        random_rects(5, seed=0), 2, backend=backend
    ),
    "bucket_first_fit": lambda backend: bucket_first_fit(
        random_rects(5, seed=0), 2, backend=backend
    ),
    "demand_first_fit": lambda backend: demand_first_fit(
        random_demand_instance(5, 3, seed=0), backend=backend
    ),
    "ring_first_fit": lambda backend: ring_first_fit(
        _ring_jobs(1), 2, backend=backend
    ),
}


@pytest.mark.parametrize("backend", ["compiled", "junk"])
@pytest.mark.parametrize("entry", sorted(BACKEND_ENTRY_POINTS))
def test_entry_points_reject_unknown_backends(entry, backend):
    """Only auto/scalar/vectorized exist; anything else is refused by
    ``resolve_backend`` before any placement runs."""
    with pytest.raises(ValueError, match="backend must be one of"):
        BACKEND_ENTRY_POINTS[entry](backend)


# ----------------------------------------------------------------------
# the equal-length tie-break regression (documented sort key)
# ----------------------------------------------------------------------


class TestEqualLengthTieBreak:
    """FirstFit's key is ``(-length, start, job_id)``; equal-length jobs
    are placed by (start, job_id), and both backends must honor it."""

    def test_sort_key_is_documented_triple(self):
        j = Job(start=2.0, end=7.0, job_id=9)
        assert firstfit_sort_key(j) == (-5.0, 2.0, 9)

    def test_equal_length_jobs_place_by_start_then_id(self):
        # Four unit-length jobs, two of them identical spans with
        # distinct ids: placement must scan (start, job_id) ascending.
        jobs = [
            Job(0.0, 1.0, job_id=3),
            Job(0.0, 1.0, job_id=1),
            Job(0.5, 1.5, job_id=2),
            Job(2.0, 3.0, job_id=0),
        ]
        for backend in ("scalar", "vectorized"):
            machines = first_fit_machines(jobs, 1, backend=backend)
            assert canon_1d(machines) == [
                # machine 0: job 1 first (lowest id at start 0), then
                # job 0 (starts at 2, no overlap).
                [[1, 0]],
                # machine 1: job 3 (same span as 1, higher id).
                [[3]],
                # machine 2: job 2 overlaps both machines' occupants.
                [[2]],
            ]

    def test_equal_length_sweep_matches_scalar(self):
        # All-equal-length random instances: maximum tie pressure.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            g = int(rng.integers(1, 4))
            starts = rng.integers(0, 12, n)
            jobs = [
                Job(float(s), float(s) + 5.0, job_id=i)
                for i, s in enumerate(starts)
            ]
            assert canon_1d(
                first_fit_machines(jobs, g, backend="scalar")
            ) == canon_1d(first_fit_machines(jobs, g, backend="vectorized"))

    def test_ordering_is_stable_under_input_shuffle(self):
        # The *input* order of the job list must not matter — only the
        # key does.  (This is the fragility the key pins down.)
        rng = np.random.default_rng(7)
        starts = rng.integers(0, 10, 20)
        jobs = [
            Job(float(s), float(s) + 4.0, job_id=i)
            for i, s in enumerate(starts)
        ]
        base = canon_1d(first_fit_machines(jobs, 2))
        for _ in range(5):
            shuffled = list(jobs)
            rng.shuffle(shuffled)
            assert canon_1d(first_fit_machines(shuffled, 2)) == base


# ----------------------------------------------------------------------
# engine unit behavior
# ----------------------------------------------------------------------


class TestOccupancyEngineUnit:
    def test_buffer_growth_preserves_placements(self):
        occ = IntervalOccupancy(2, initial_capacity=2)
        placements = [occ.first_fit(float(i), float(i) + 1.5) for i in range(40)]
        assert occ.n_placed == 40
        # Same sequence against a fresh scalar run.
        jobs = [Job(float(i), float(i) + 1.5, job_id=i) for i in range(40)]
        machines = first_fit_machines(jobs, 2, backend="scalar")
        expected = {}
        for m in machines:
            for tau, thread in enumerate(m.threads):
                for j in thread:
                    expected[j.job_id] = (m.machine_id, tau)
        # Jobs here are fed in sorted order already (equal lengths,
        # ascending starts and ids), so placement i maps to job i.
        assert placements == [expected[i] for i in range(40)]

    def test_invalid_g_rejected(self):
        with pytest.raises(Exception):
            IntervalOccupancy(0)

    def test_new_machine_opens_on_thread_zero(self):
        occ = IntervalOccupancy(3)
        assert occ.first_fit(0.0, 10.0) == (0, 0)
        assert occ.first_fit(0.0, 10.0) == (0, 1)
        assert occ.first_fit(0.0, 10.0) == (0, 2)
        assert occ.first_fit(0.0, 10.0) == (1, 0)
        assert occ.n_machines == 2
