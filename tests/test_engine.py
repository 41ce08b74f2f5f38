"""Tests for the batch solver engine (repro.engine).

Covers: objective routing against the underlying dispatchers,
fingerprint identity, LRU cache behavior (hit equivalence, counters),
the positional (lazily built) schedules cache hits carry,
``solve_many`` determinism — sequential == batched ==
multiprocess — and the CLI batch surface.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.verify import (
    verify_budget_schedule,
    verify_min_busy_schedule,
)
from repro.cli import main
from repro.core.errors import InstanceError
from repro.core.instance import BudgetInstance, Instance
from repro.engine import (
    EngineResult,
    LRUCache,
    instance_fingerprint,
    solve_key,
)
from repro.io import save_instance
from repro.minbusy import solve_min_busy
from repro.workloads import (
    random_clique_instance,
    random_general_instance,
    random_one_sided_instance,
    random_proper_clique_instance,
)


def _instances(k=6, n=25):
    return [random_general_instance(n, 3, seed=s) for s in range(k)]


class TestFingerprint:
    def test_stable_and_content_addressed(self):
        a = random_general_instance(20, 3, seed=1)
        b = random_general_instance(20, 3, seed=1)
        c = random_general_instance(20, 3, seed=2)
        assert instance_fingerprint(a) == instance_fingerprint(b)
        assert instance_fingerprint(a) != instance_fingerprint(c)

    def test_g_budget_and_objective_distinguish(self):
        inst = random_general_instance(10, 3, seed=0)
        other_g = Instance(jobs=inst.jobs, g=4)
        assert instance_fingerprint(inst) != instance_fingerprint(other_g)
        b1 = inst.with_budget(50.0)
        b2 = inst.with_budget(60.0)
        assert instance_fingerprint(b1) != instance_fingerprint(b2)
        assert solve_key(inst, "minbusy") != solve_key(inst, "maxthroughput")

    def test_weights_and_demands_matter(self):
        base = Instance.from_spans([(0, 2), (1, 3)], g=2)
        weighted = Instance.from_spans([(0, 2), (1, 3)], g=2, weights=[2, 1])
        assert instance_fingerprint(base) != instance_fingerprint(weighted)

    def test_job_ids_do_not_matter(self):
        # Auto-allocated job ids (process-global counter) are labels,
        # not content: content-identical instances must share a
        # fingerprint so the cache hits across constructions.
        from repro.core.jobs import Job

        a = Instance(jobs=(Job(0, 4), Job(1, 5)), g=2)
        b = Instance(jobs=(Job(0, 4), Job(1, 5)), g=2)
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_cached_columns_stay_out_of_pickles(self):
        import copy
        import pickle

        seeded = random_general_instance(40, 3, seed=2).with_budget(30.0)
        assert "columns" in vars(seeded)  # from_spans built the table
        inst = BudgetInstance(jobs=seeded.jobs, g=3, budget=30.0)
        assert "columns" not in vars(inst)
        before = pickle.dumps(inst)
        fingerprint = instance_fingerprint(inst)  # caches inst.columns
        assert "columns" in vars(inst)
        assert pickle.dumps(inst) == before
        assert pickle.dumps(seeded) == before
        for source in (inst, seeded):
            for back in (pickle.loads(pickle.dumps(source)), copy.copy(source)):
                assert "columns" not in vars(back)
                assert back == source
                assert instance_fingerprint(back) == fingerprint

    def test_cache_hit_rebinds_to_query_jobs(self, session):
        from repro.core.jobs import Job

        a = Instance(jobs=(Job(0, 4), Job(1, 5), Job(6, 9)), g=2)
        b = Instance(jobs=(Job(0, 4), Job(1, 5), Job(6, 9)), g=2)
        fresh = session.solve(a)
        hit = session.solve(b)
        assert hit.from_cache
        assert hit.cost == fresh.cost
        # The served schedule is over b's own Job objects (ids and all).
        assert set(hit.schedule.assignment) == set(b.jobs)
        verify_min_busy_schedule(b, hit.schedule)

    def test_cached_schedule_not_aliased(self, session):
        inst = random_general_instance(15, 2, seed=11)
        first = session.solve(inst)
        second = session.solve(inst)
        assert second.schedule is not first.schedule
        second.schedule.assignment.clear()  # caller mutation...
        third = session.solve(inst)
        assert third.from_cache
        assert third.schedule.assignment  # ...cannot poison the cache


class TestSolve:
    def test_minbusy_matches_dispatcher(self, session):
        for seed in range(4):
            inst = random_general_instance(30, 3, seed=seed)
            res = session.solve(inst)
            ref = solve_min_busy(inst)
            assert res.objective == "minbusy"
            assert res.algorithm == ref.algorithm
            assert res.cost == ref.schedule.cost
            assert res.throughput == inst.n
            verify_min_busy_schedule(inst, res.schedule)

    @pytest.mark.parametrize(
        "gen,expected",
        [
            (lambda: random_one_sided_instance(12, 3, seed=0), "one_sided"),
            (
                lambda: random_proper_clique_instance(12, 3, seed=0),
                "proper_clique_dp",
            ),
            (
                lambda: random_clique_instance(12, 3, seed=0),
                "combined_alg1_alg2",
            ),
            (
                lambda: random_general_instance(12, 3, seed=0),
                "greedy_shortest_first",
            ),
        ],
    )
    def test_throughput_routing(self, gen, expected, session):
        inst = gen()
        res = session.solve(inst, "maxthroughput", budget=40.0)
        assert res.objective == "maxthroughput"
        assert res.algorithm.startswith(expected)
        bi = inst.with_budget(40.0)
        verify_budget_schedule(bi, res.schedule)

    def test_throughput_accepts_budget_instance(self, session):
        bi = random_general_instance(15, 2, seed=3).with_budget(70.0)
        res = session.solve(bi, "throughput")
        assert res.throughput == res.schedule.throughput

    def test_throughput_without_budget_raises(self, session):
        with pytest.raises(InstanceError):
            session.solve(
                random_general_instance(5, 2, seed=0), "maxthroughput"
            )

    def test_unknown_objective_raises(self, session):
        with pytest.raises(InstanceError):
            session.solve(random_general_instance(5, 2, seed=0), "makespan")

    def test_minbusy_accepts_budget_instance(self, session):
        bi = random_general_instance(15, 2, seed=3).with_budget(70.0)
        res = session.solve(bi, "minbusy")
        assert res.throughput == 15  # all jobs scheduled


class TestCache:
    def test_hit_equivalence(self, session):
        inst = random_general_instance(25, 3, seed=5)
        fresh = session.solve(inst)
        hit = session.solve(inst)
        assert not fresh.from_cache and hit.from_cache
        assert hit.cost == fresh.cost
        assert hit.algorithm == fresh.algorithm
        assert hit.fingerprint == fresh.fingerprint
        assert hit.schedule.assignment == fresh.schedule.assignment
        info = session.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_use_cache_false_recomputes_but_refreshes(self, session):
        inst = random_general_instance(25, 3, seed=5)
        session.solve(inst)
        res = session.solve(inst, use_cache=False)
        assert not res.from_cache
        assert session.solve(inst).from_cache

    def test_lru_cache_unit(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refreshes "a"
        c.put("c", 3)  # evicts "b"
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        info = c.info()
        assert info.hits == 3 and info.misses == 1
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


def _eager_schedule(instance, by_position):
    """The schedule an ``assign`` loop builds from positions."""
    from repro.core.schedule import Schedule

    schedule = Schedule(g=instance.g)
    for i, machine in enumerate(by_position):
        if machine is not None:
            schedule.assign(instance.jobs[i], machine)
    return schedule


def _materialized(schedule) -> bool:
    return "assignment" in vars(schedule)


class TestLazyRebind:
    """Cache hits carry positional schedules that build their
    job -> machine dict on first read, indistinguishable from eager
    ones once read."""

    @staticmethod
    def _hit(session, inst, objective="minbusy"):
        session.solve(inst, objective)
        hit = session.solve(inst, objective)
        assert hit.from_cache
        return hit

    def test_same_class_equality_order_and_repr(self, session):
        from repro.core.schedule import Schedule

        inst = random_general_instance(30, 3, seed=21)
        hit = self._hit(session, inst)
        assert type(hit.schedule) is Schedule
        assert not _materialized(hit.schedule)
        eager = _eager_schedule(inst, hit.assignment_by_position)
        assert hit.schedule == eager
        assert list(hit.schedule.assignment.items()) == list(
            eager.assignment.items()
        )
        assert repr(hit.schedule) == repr(eager)
        assert hit.schedule.cost == eager.cost

    def test_partial_assignment_skips_unscheduled(self, session):
        inst = random_general_instance(30, 2, seed=3).with_budget(12.0)
        hit = self._hit(session, inst, "maxthroughput")
        by_position = hit.assignment_by_position
        assert None in by_position
        assert hit.schedule == _eager_schedule(inst, by_position)
        assert hit.schedule.throughput == hit.throughput

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, session, read_first):
        import pickle

        inst = random_general_instance(30, 3, seed=22)
        hit = self._hit(session, inst)
        eager = _eager_schedule(inst, hit.assignment_by_position)
        if read_first:
            hit.schedule.assignment
        assert _materialized(hit.schedule) is read_first
        back = pickle.loads(pickle.dumps(hit.schedule))
        assert back == eager
        assert list(back.assignment.items()) == list(eager.assignment.items())
        assert pickle.loads(pickle.dumps(hit)).schedule == eager

    def test_first_read_from_two_threads(self, session):
        import threading

        from repro.core.schedule import Schedule

        inst = random_general_instance(2000, 3, seed=27)
        hit = self._hit(session, inst)
        eager = _eager_schedule(inst, hit.assignment_by_position)
        barrier = threading.Barrier(2)
        seen = []

        def read():
            barrier.wait()
            seen.append(hit.schedule.assignment)

        threads = [threading.Thread(target=read) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 2 and seen[0] is seen[1]
        assert seen[0] == eager.assignment
        # The losing thread's view: its plain lookup missed, then the
        # other thread built the dict and dropped the positions.
        assert Schedule.__getattr__(hit.schedule, "assignment") is seen[0]
        with pytest.raises(AttributeError):
            Schedule.__getattr__(hit.schedule, "missing")

    def test_assign_on_a_hit_leaks_nowhere(self, session):
        from repro.engine import plan_solve

        inst = random_general_instance(30, 3, seed=23)
        first = self._hit(session, inst)
        key = plan_solve(inst).key
        stored = session.cache().get(key)
        assert stored.schedule is None  # kept positional only
        job = inst.jobs[0]
        first.schedule.assign(job, 999)
        second = session.solve(inst)
        assert second.schedule.assignment[job] != 999
        assert session.cache().get(key) == stored
        assert stored.assignment_by_position == first.assignment_by_position

    def test_stripped_empty_schedule_holds_no_jobs(self):
        from repro.core.schedule import Schedule
        from repro.engine import strip_for_store

        inst = random_general_instance(10, 2, seed=1)
        unscheduled = (None,) * inst.n
        result = EngineResult(
            objective="maxthroughput",
            algorithm="greedy",
            guarantee=None,
            cost=0.0,
            throughput=0,
            schedule=Schedule.from_positions(2, inst.jobs, unscheduled),
            fingerprint="f",
            assignment_by_position=unscheduled,
        )
        stripped = strip_for_store(result).schedule
        assert vars(stripped) == {"g": 2, "assignment": {}}
        assert "_positions" in vars(result.schedule)  # left unbuilt

    def test_cached_entries_do_not_pin_jobs(self, session):
        import gc
        import weakref

        inst = random_general_instance(30, 3, seed=26)
        result = session.solve(inst)
        job = weakref.ref(inst.jobs[0])
        del inst, result
        gc.collect()
        assert job() is None

    def test_result_doc_leaves_the_schedule_unbuilt(self, session):
        from repro.service.protocol import result_to_doc

        inst = random_general_instance(30, 3, seed=24)
        hit = self._hit(session, inst)
        doc = result_to_doc(hit)
        assert doc["has_schedule"] is True
        assert not _materialized(hit.schedule)

    def test_store_hit(self, tmp_path):
        from repro.api import Session

        inst = random_general_instance(30, 3, seed=25)
        with Session(store_path=tmp_path / "store") as writer:
            fresh = writer.solve(inst)
        with Session(store_path=tmp_path / "store") as reader:
            hit = reader.solve(inst)
        assert hit.from_cache
        assert not _materialized(hit.schedule)
        assert hit.schedule == fresh.schedule


class TestSolveMany:
    def test_matches_sequential_solve(self, session):
        insts = _instances()
        batch = session.solve_many(insts)
        session.clear_cache()
        seq = [session.solve(i) for i in insts]
        assert [r.cost for r in batch] == [r.cost for r in seq]
        assert [r.algorithm for r in batch] == [r.algorithm for r in seq]
        assert [r.fingerprint for r in batch] == [r.fingerprint for r in seq]

    def test_workers_deterministic(self, session):
        insts = _instances()
        seq = session.solve_many(insts, use_cache=False)
        session.clear_cache()
        par = session.solve_many(insts, workers=2, use_cache=False)
        assert [r.cost for r in par] == [r.cost for r in seq]
        assert [r.fingerprint for r in par] == [r.fingerprint for r in seq]
        assert [
            sorted(j.job_id for j in r.schedule.assignment) for r in par
        ] == [sorted(j.job_id for j in r.schedule.assignment) for r in seq]

    def test_workers_populate_parent_cache(self, session):
        insts = _instances()
        session.solve_many(insts, workers=2)
        again = session.solve_many(insts, workers=2)
        assert all(r.from_cache for r in again)

    def test_duplicate_instances_share_work(self, session):
        inst = random_general_instance(20, 3, seed=9)
        twin = random_general_instance(20, 3, seed=9)
        results = session.solve_many([inst, twin, inst])
        assert results[0].from_cache is False
        assert results[1].from_cache and results[2].from_cache
        assert len({r.cost for r in results}) == 1

    def test_duplicates_deduped_on_worker_path(self, session):
        insts = _instances(3) + _instances(3)  # each instance twice
        results = session.solve_many(insts, workers=2, use_cache=False)
        # One solve per unique fingerprint; the second occurrence is
        # served from the representative's entry.
        for i in range(3):
            assert results[i].from_cache is False
            assert results[i + 3].from_cache is True
            assert results[i + 3].cost == results[i].cost
            assert results[i + 3].fingerprint == results[i].fingerprint
            assert set(results[i + 3].schedule.assignment) == set(
                insts[i + 3].jobs
            )
        assert len({r.fingerprint for r in results}) == 3

    def test_throughput_batch_with_shared_budget(self, session):
        insts = _instances(4, n=15)
        results = session.solve_many(insts, "maxthroughput", budget=45.0)
        for inst, res in zip(insts, results):
            verify_budget_schedule(inst.with_budget(45.0), res.schedule)

    def test_empty_batch(self, session):
        assert session.solve_many([]) == []


class TestCliBatchAndBench:
    def _write(self, tmp_path, name, seed, n=18):
        path = tmp_path / name
        save_instance(random_general_instance(n, 3, seed=seed), path)
        return str(path)

    def test_solve_batch_text(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1)
        b = self._write(tmp_path, "b.json", 2)
        assert main(["solve", a, b, "--batch"]) == 0
        out = capsys.readouterr().out
        assert "a.json" in out and "b.json" in out
        assert "cost=" in out

    def test_solve_batch_json_with_dedup(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1)
        assert main(["solve", a, a, "--batch", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2
        assert docs[0]["cached"] is False
        assert docs[1]["cached"] is True
        assert docs[0]["fingerprint"] == docs[1]["fingerprint"]
        assert docs[0]["cost"] == docs[1]["cost"]

    def test_multiple_files_imply_batch(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1)
        b = self._write(tmp_path, "b.json", 2)
        assert main(["solve", a, b]) == 0
        assert "cost=" in capsys.readouterr().out

    def test_single_file_keeps_classic_report(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1)
        assert main(["solve", a]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "total busy" in out

    def test_batch_missing_file_is_clean_error(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", 1)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tmp_path / "nope.json"), a, "--batch"])
        assert "nope.json" in str(exc.value)
