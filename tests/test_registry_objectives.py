"""Differential tests: the registry front door vs direct family calls.

For every registered family, ``Session.solve(objective=F)`` on 200
seeded instances must return results byte-identical to the family's
own entry point — same objective value (float-equal, since both run
the same code path), same structure (machine groups / thread layouts /
placements, compared by item ids).  Also pins the v1 fingerprint
digests (persistent-store compatibility), checks the v2 scheme's
family qualification and id-invariance, and asserts the front door's
unsupported-input error contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity import demand_first_fit, demand_schedule_cost
from repro.core.errors import InstanceError
from repro.core.instance import BudgetInstance, Instance
from repro.core.jobs import Job
from repro.core.registry import REGISTRY
from repro.energy import EnergyInstance, PowerModel, schedule_energy
from repro.engine import fingerprint_v2, instance_fingerprint, objectives
from repro.engine.dispatch import pick_throughput_solver
from repro.engine.objectives import ensure_registered
from repro.flexible import FlexInstance, FlexJob, align_first_fit
from repro.minbusy import solve_min_busy
from repro.rect import RectInstance, bucket_first_fit, first_fit_2d
from repro.rect.bucket import PAPER_BETA
from repro.topology import (
    PathJob,
    RingInstance,
    RingJob,
    Tree,
    TreeInstance,
    ring_bucket_first_fit,
    ring_first_fit,
    tree_one_sided_greedy,
    tree_schedule_cost,
)
from repro.workloads import (
    random_demand_instance,
    random_general_instance,
    random_rects,
)

SEEDS = range(200)

# Direct REGISTRY access below needs the family modules imported.
ensure_registered()


def _ids(threads):
    return [
        [getattr(j, "job_id", getattr(j, "rect_id", None)) for j in t]
        for t in threads
    ]


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


class TestFingerprintPinning:
    def test_v1_instance_digest_pinned(self):
        """v1 digests key users' persistent stores; they must never
        drift.  If this test fails, you broke store compatibility."""
        a = Instance(
            jobs=(
                Job(0.0, 4.0, job_id=0),
                Job(1.0, 5.0, job_id=1),
                Job(6.0, 9.0, job_id=2),
            ),
            g=2,
        )
        assert instance_fingerprint(a) == (
            "954d813abd6bfe3448d19ab8890d4b2de6cc8fae"
            "1e394af1446c6f5a8aa85705"
        )

    def test_v1_budget_digest_pinned(self):
        b = BudgetInstance(
            jobs=(Job(0.0, 4.0, job_id=0), Job(1.0, 5.0, job_id=1)),
            g=3,
            budget=7.5,
        )
        assert instance_fingerprint(b) == (
            "ccfbf2e3fa31c8816f05e393104ce71aec040a7c"
            "ddd936e4ac961d3649dac9eb"
        )

    def test_v1_weight_demand_digest_pinned(self):
        w = Instance.from_spans(
            [(0.0, 2.0), (1.0, 3.0)], g=2, weights=[2.0, 1.0], demands=[1, 2]
        )
        assert instance_fingerprint(w) == (
            "9ae67c3ff21910a3f0315478b9ef1bd9b5a25809"
            "c0c8fbb06fb1b49608f81f94"
        )


class TestFingerprintV2:
    def test_family_qualified(self):
        rows = [(0.0, 1.0, 2.0, 3.0)]
        assert fingerprint_v2("rect2d", 2, rows) != fingerprint_v2(
            "ring", 2, rows
        )
        assert fingerprint_v2("rect2d", 2, rows) != fingerprint_v2(
            "rect2d", 3, rows
        )

    def test_scalars_participate(self):
        rows = [(0.0, 1.0)]
        a = fingerprint_v2("energy", 2, rows, scalars={"wake_cost": 2.0})
        b = fingerprint_v2("energy", 2, rows, scalars={"wake_cost": 3.0})
        assert a != b

    def test_item_ids_excluded(self):
        from repro.rect.rectangles import Rect

        a = RectInstance(
            rects=(Rect(0, 0, 2, 1, rect_id=7), Rect(1, 0, 3, 2, rect_id=9)),
            g=2,
        )
        b = RectInstance(
            rects=(Rect(1, 0, 3, 2, rect_id=0), Rect(0, 0, 2, 1, rect_id=1)),
            g=2,
        )
        spec = REGISTRY.get("rect2d")
        assert spec.fingerprint(a) == spec.fingerprint(b)

    def test_v2_never_collides_with_v1(self):
        inst = random_general_instance(10, 3, seed=0)
        spec = REGISTRY.get("capacity")
        assert spec.fingerprint(inst) != instance_fingerprint(inst)


# ----------------------------------------------------------------------
# unsupported inputs (satellite: InstanceError, not KeyError/AttributeError)
# ----------------------------------------------------------------------


class TestUnsupportedInputs:
    def test_all_eight_registered(self):
        assert objectives() == [
            "capacity",
            "energy",
            "flexible",
            "maxthroughput",
            "minbusy",
            "rect2d",
            "ring",
            "tree",
        ]

    def test_unknown_objective_lists_registered(self, session):
        inst = random_general_instance(5, 2, seed=0)
        with pytest.raises(InstanceError) as exc:
            session.solve(inst, "makespan")
        msg = str(exc.value)
        for name in objectives():
            assert name in msg

    def test_wrong_instance_type_is_instance_error(self, session):
        inst = random_general_instance(5, 2, seed=0)
        with pytest.raises(InstanceError, match="RectInstance"):
            session.solve(inst, "rect2d")
        with pytest.raises(InstanceError, match="Instance"):
            session.solve(RectInstance(rects=(), g=2), "minbusy")

    def test_non_instance_is_instance_error(self, session):
        with pytest.raises(InstanceError):
            session.solve(42, "minbusy")
        with pytest.raises(InstanceError):
            session.solve(None, "capacity")

    def test_solve_many_same_contract(self, session):
        with pytest.raises(InstanceError):
            session.solve_many(
                [random_general_instance(5, 2, seed=0)], "makespan"
            )
        with pytest.raises(InstanceError):
            session.solve_many([object()], "minbusy")

    def test_demand_above_g_is_instance_error(self, session):
        inst = Instance.from_spans([(0, 2)], g=2, demands=[3])
        with pytest.raises(InstanceError, match="demands 3 > g=2"):
            session.solve(inst, "capacity")

    def test_aliases_resolve(self, session):
        inst = random_general_instance(6, 2, seed=1)
        assert session.solve(inst, "min_busy").objective == "minbusy"
        assert (
            session.solve(inst, "throughput", budget=20.0).objective
            == "maxthroughput"
        )
        assert session.solve(inst, "demand").objective == "capacity"


# ----------------------------------------------------------------------
# differential: Session.solve vs direct family entry points
# ----------------------------------------------------------------------


class TestDifferentialMinBusy:
    def test_200_seeds(self, session):
        for seed in SEEDS:
            inst = random_general_instance(12, 3, seed=seed)
            res = session.solve(inst, "minbusy", use_cache=False)
            ref = solve_min_busy(inst)
            assert res.cost == ref.schedule.cost
            assert res.algorithm == ref.algorithm
            assert res.guarantee == ref.guarantee
            assert res.schedule.assignment == ref.schedule.assignment


class TestDifferentialMaxThroughput:
    def test_200_seeds(self, session):
        for seed in SEEDS:
            inst = random_general_instance(12, 3, seed=seed).with_budget(
                30.0 + seed % 17
            )
            res = session.solve(inst, "maxthroughput", use_cache=False)
            name, solver, guarantee = pick_throughput_solver(inst)
            ref = solver(inst)
            assert res.algorithm == name
            assert res.guarantee == guarantee
            assert res.cost == ref.cost
            assert res.throughput == ref.throughput
            assert res.schedule.assignment == ref.assignment


class TestDifferentialCapacity:
    def test_200_seeds(self, session):
        for seed in SEEDS:
            inst = random_demand_instance(14, 4, seed=seed)
            res = session.solve(inst, "capacity", use_cache=False)
            if all(j.demand == 1 for j in inst.jobs):
                ref_cost = solve_min_busy(inst).schedule.cost
                assert res.cost == ref_cost
                continue
            groups = demand_first_fit(inst)
            assert res.algorithm == "demand_first_fit"
            assert res.cost == demand_schedule_cost(groups)
            engine_groups = [
                sorted(j.job_id for j in js)
                for _m, js in sorted(res.schedule.machines().items())
            ]
            assert engine_groups == [
                sorted(j.job_id for j in grp) for grp in groups
            ]


class TestDifferentialRect2d:
    def test_200_seeds(self, session):
        for seed in SEEDS:
            gamma1 = 2.0 if seed % 2 == 0 else 8.0  # both dispatch arms
            rects = tuple(random_rects(12, seed=seed, gamma1=gamma1))
            inst = RectInstance(rects=rects, g=3)
            res = session.solve(inst, "rect2d", use_cache=False)
            if inst.gamma1 <= PAPER_BETA:
                ref = first_fit_2d(inst.rects, inst.g)
                assert res.algorithm == "first_fit_2d"
            else:
                ref = bucket_first_fit(inst.rects, inst.g)
                assert res.algorithm.startswith("bucket_first_fit")
            assert res.cost == ref.cost
            engine_threads = [
                [[inst.rects[p].rect_id for p in thread] for thread in m]
                for m in res.detail["machines"]
            ]
            assert engine_threads == [
                _ids(m.threads) for m in ref.machines
            ]


def _ring_jobs(n, seed, spread):
    rng = np.random.default_rng(seed)
    return tuple(
        RingJob(
            a0=float(rng.uniform(0.0, 1.0)),
            alen=float(rng.uniform(*spread)),
            t0=float(t),
            t1=float(t + rng.uniform(1.0, 10.0)),
            circumference=1.0,
            job_id=i,
        )
        for i, t in enumerate(rng.uniform(0.0, 40.0, n))
    )


class TestDifferentialRing:
    def test_200_seeds(self, session):
        for seed in SEEDS:
            spread = (0.1, 0.3) if seed % 2 == 0 else (0.02, 0.45)
            jobs = _ring_jobs(12, seed, spread)
            inst = RingInstance(jobs=jobs, g=3)
            res = session.solve(inst, "ring", use_cache=False)
            arc = [j.len1 for j in inst.jobs]
            if max(arc) / min(arc) <= PAPER_BETA:
                ref = ring_first_fit(inst.jobs, inst.g)
                assert res.algorithm == "ring_first_fit"
            else:
                ref = ring_bucket_first_fit(inst.jobs, inst.g, PAPER_BETA)
                assert res.algorithm.startswith("ring_bucket_first_fit")
            assert res.cost == ref.cost
            engine_threads = [
                [[inst.jobs[p].job_id for p in thread] for thread in m]
                for m in res.detail["machines"]
            ]
            assert engine_threads == [
                _ids(m.threads) for m in ref.machines
            ]


class TestDifferentialTree:
    def test_200_seeds(self, session):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            tree = Tree.random_tree(8, seed=seed)
            pairs = rng.integers(0, 8, size=(12, 2))
            paths = tuple(
                PathJob(u=int(u), v=int(v), job_id=i)
                for i, (u, v) in enumerate(pairs)
                if u != v
            )
            inst = TreeInstance(tree=tree, paths=paths, g=3)
            res = session.solve(inst, "tree", use_cache=False)
            ref = tree_one_sided_greedy(tree, inst.paths, inst.g)
            assert res.cost == tree_schedule_cost(tree, ref)
            engine_sets = [
                [inst.paths[p].job_id for p in s]
                for s in res.detail["sets"]
            ]
            assert engine_sets == [
                [p.job_id for p in s.members] for s in ref
            ]


class TestDifferentialFlexible:
    def test_200_seeds_slack(self, session):
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            jobs = tuple(
                FlexJob(
                    window_start=float(s),
                    window_end=float(s + w),
                    proc=float(max(0.5, w * rng.uniform(0.3, 0.9))),
                    job_id=i,
                )
                for i, (s, w) in enumerate(
                    zip(rng.uniform(0, 25, 8), rng.uniform(2.0, 8.0, 8))
                )
            )
            inst = FlexInstance(jobs=jobs, g=2)
            res = session.solve(inst, "flexible", use_cache=False)
            assert res.algorithm == "align_first_fit"
            ref = align_first_fit(inst.jobs, inst.g)
            assert res.cost == ref.cost
            ref_placements = {}
            for machine, placed in ref.machines.items():
                for p in placed:
                    ref_placements[p.job.job_id] = (machine, p.start)
            engine_placements = {
                inst.jobs[pos].job_id: placement
                for pos, placement in enumerate(res.detail["placements"])
            }
            assert engine_placements == ref_placements

    def test_tight_routes_through_reduction(self, session):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            jobs = tuple(
                FlexJob(
                    window_start=float(s),
                    window_end=float(s + w),
                    proc=float(w),
                    job_id=i,
                )
                for i, (s, w) in enumerate(
                    zip(rng.uniform(0, 25, 8), rng.uniform(1.0, 6.0, 8))
                )
            )
            inst = FlexInstance(jobs=jobs, g=2)
            res = session.solve(inst, "flexible", use_cache=False)
            assert res.algorithm.startswith("tight_reduction:")
            fixed = Instance.from_spans(
                [(j.window_start, j.window_end) for j in inst.jobs],
                inst.g,
            )
            ref = solve_min_busy(fixed)
            assert res.cost == ref.schedule.cost
            assert res.algorithm == f"tight_reduction:{ref.algorithm}"


class TestDifferentialEnergy:
    def test_200_seeds(self, session):
        model = PowerModel(busy_power=1.0, idle_power=0.4, wake_cost=2.5)
        for seed in SEEDS:
            base = random_general_instance(12, 3, seed=seed)
            inst = EnergyInstance(instance=base, model=model)
            res = session.solve(inst, "energy", use_cache=False)
            ref = solve_min_busy(base)
            assert res.cost == schedule_energy(ref.schedule, model)
            assert res.detail["busy_cost"] == ref.schedule.cost
            assert res.algorithm == f"minbusy:{ref.algorithm}+gap_policy"

    def test_power_param_equals_wrapped_instance(self, session):
        base = random_general_instance(10, 2, seed=3)
        model = PowerModel(wake_cost=4.0)
        a = session.solve(base, "energy", power=model, use_cache=False)
        b = session.solve(
            EnergyInstance(instance=base, model=model),
            "energy",
            use_cache=False,
        )
        assert a.cost == b.cost
        assert a.fingerprint == b.fingerprint


# ----------------------------------------------------------------------
# batch + cache behaviour for registry families
# ----------------------------------------------------------------------


class TestRegistryBatch:
    def test_solve_many_matches_solve_rect(self, session):
        insts = [
            RectInstance(rects=tuple(random_rects(10, seed=s)), g=3)
            for s in range(8)
        ]
        batch = session.solve_many(insts, "rect2d")
        session.clear_cache()
        seq = [session.solve(i, "rect2d") for i in insts]
        assert [r.cost for r in batch] == [r.cost for r in seq]
        assert [r.detail for r in batch] == [r.detail for r in seq]

    def test_solve_many_workers_capacity(self, session):
        insts = [random_demand_instance(20, 4, seed=s) for s in range(6)]
        seq = session.solve_many(insts, "capacity", use_cache=False)
        session.clear_cache()
        par = session.solve_many(insts, "capacity", workers=2, use_cache=False)
        assert [r.cost for r in par] == [r.cost for r in seq]
        assert [r.fingerprint for r in par] == [r.fingerprint for r in seq]

    def test_cache_hits_rebind_capacity_schedule(self, session):
        inst = random_demand_instance(15, 4, seed=2)
        twin = random_demand_instance(15, 4, seed=2)
        fresh = session.solve(inst, "capacity")
        hit = session.solve(twin, "capacity")
        assert hit.from_cache
        assert hit.cost == fresh.cost
        assert set(hit.schedule.assignment) == set(twin.jobs)

    def test_cached_detail_not_aliased(self, session):
        insts = tuple(random_rects(8, seed=1))
        r1 = session.solve(RectInstance(rects=insts, g=2), "rect2d")
        r2 = session.solve(RectInstance(rects=insts, g=2), "rect2d")
        assert r2.from_cache
        r2.detail["machines"] = "POISONED"  # caller mutation...
        r3 = session.solve(RectInstance(rects=insts, g=2), "rect2d")
        assert r3.detail["machines"] == r1.detail["machines"]

    def test_empty_instance_schedule_not_aliased(self, session):
        empty = Instance(jobs=(), g=2)
        session.solve(empty)
        hit = session.solve(empty)
        assert hit.from_cache
        hit.schedule.assign(Job(0, 1), 0)  # caller mutation...
        again = session.solve(empty)
        assert again.schedule.assignment == {}

    def test_cache_hits_flexible_detail(self, session):
        rng = np.random.default_rng(0)
        jobs = tuple(
            FlexJob(
                window_start=float(s),
                window_end=float(s + 6.0),
                proc=3.0,
                job_id=i,
            )
            for i, s in enumerate(rng.uniform(0, 20, 6))
        )
        fresh = session.solve(FlexInstance(jobs=jobs, g=2), "flexible")
        relabeled = tuple(
            FlexJob(
                window_start=j.window_start,
                window_end=j.window_end,
                proc=j.proc,
                job_id=100 + i,
            )
            for i, j in enumerate(jobs)
        )
        hit = session.solve(FlexInstance(jobs=relabeled, g=2), "flexible")
        assert hit.from_cache
        assert hit.cost == fresh.cost
        assert hit.detail == fresh.detail
