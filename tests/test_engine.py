"""Tests for the batch solver engine (repro.engine).

Covers: objective routing against the underlying dispatchers,
fingerprint identity, LRU cache behavior (hit equivalence, counters),
``solve_many`` determinism — sequential == batched ==
multiprocess — and the CLI batch/bench surfaces.
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

    def test_bench_json_smoke(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--n",
                    "300",
                    "--batch-size",
                    "4",
                    "--batch-jobs",
                    "10",
                    "--repeats",
                    "1",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        kernels = {k["kernel"] for k in doc["kernels"]}
        assert "pairwise_overlaps" in kernels and "union_length" in kernels
        assert doc["batch"]["n_instances"] == 4
        assert all(k["speedup"] > 0 for k in doc["kernels"])
