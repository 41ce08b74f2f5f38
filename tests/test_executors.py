"""The executor layer: backend differential suite + unit contracts.

The acceptance bar for the pluggable backends: ``solve_many`` with
``backend=serial|process|async`` must return byte-identical
``EngineResult`` documents across all eight registry families, on 100
seeded instances per family.  On top of that, unit tests pin the
executor contracts (bounded concurrency, per-request deadlines,
in-flight coalescing of the async backend; ordered deterministic
chunking of the process backend, whose forked workers read their
tasks in place), the in-batch fingerprint dedup of
``solve_many``, and the tiered cache stack's promotion/write-through
semantics.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.engine import (
    AsyncQueueExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    SolveTask,
    SolveTimeout,
    TieredCache,
    cached_result,
    install_result,
    plan_solve,
    resolve_executor,
)
from repro.engine import executors as executors_module
from repro.service.protocol import result_to_doc
from tests.helpers import ALL_FAMILIES, family_instance

SEEDS = range(100)


def canonical(result) -> str:
    """The backend-independent rendering of one result.

    ``solve_seconds`` is wall time and ``from_cache`` depends on probe
    history; everything else — cost, algorithm provenance, fingerprint
    and the full positional result encoding — must match bit-for-bit
    across backends.
    """
    doc = result_to_doc(result)
    doc.pop("solve_seconds")
    doc.pop("from_cache")
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# differential: serial vs process vs async, all families
# ----------------------------------------------------------------------


class TestBackendDifferential:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_backends_byte_identical(self, family, session):
        pairs = [family_instance(family, seed) for seed in SEEDS]
        instances = [inst for inst, _params in pairs]
        params = pairs[0][1]

        session.clear_cache()
        serial = session.solve_many(instances, family, backend="serial", **params)
        session.clear_cache()
        process = session.solve_many(
            instances, family, backend="process", workers=2, **params
        )
        session.clear_cache()
        asynchronous = session.solve_many(
            instances, family, backend="async", workers=4, **params
        )

        serial_docs = [canonical(r) for r in serial]
        assert [canonical(r) for r in process] == serial_docs
        assert [canonical(r) for r in asynchronous] == serial_docs
        # None of the backend runs may have been served from cache —
        # each ran cold, so the comparison really exercised the backend.
        assert not any(r.from_cache for r in serial + process + asynchronous)

    def test_auto_matches_explicit_workers_contract(self, session):
        instances = [family_instance("minbusy", s)[0] for s in range(10)]
        session.clear_cache()
        auto_serial = session.solve_many(instances, "minbusy")
        session.clear_cache()
        auto_process = session.solve_many(instances, "minbusy", workers=2)
        assert [canonical(r) for r in auto_serial] == [
            canonical(r) for r in auto_process
        ]

    def test_single_solve_backend_knob(self, session):
        inst, _ = family_instance("minbusy", 3)
        ref = canonical(session.solve(inst, "minbusy", use_cache=False))
        for backend in ("serial", "process", "async"):
            session.clear_cache()
            assert (
                canonical(
                    session.solve(inst, "minbusy", use_cache=False, backend=backend)
                )
                == ref
            )

    def test_unknown_backend_raises(self, session):
        inst, _ = family_instance("minbusy", 0)
        with pytest.raises(ValueError, match="unknown backend"):
            session.solve_many([inst], "minbusy", backend="bogus")
        with pytest.raises(ValueError, match="serial"):
            resolve_executor("threads")


# ----------------------------------------------------------------------
# in-batch fingerprint dedup (coalescing before dispatch)
# ----------------------------------------------------------------------


class CountingExecutor(SerialExecutor):
    """A serial backend that records every task it actually ran."""

    def __init__(self):
        self.tasks = []

    def run(self, tasks):
        self.tasks.extend(tasks)
        return super().run(tasks)


class TestInBatchDedup:
    def test_duplicates_solved_once_cold(self, session):
        """Content-identical instances in one batch reach the executor
        once; the shared result fans back out to every occurrence."""
        base, _ = family_instance("minbusy", 7)
        other, _ = family_instance("minbusy", 8)
        # Same content, rebuilt objects (different Job identities/ids).
        twin, _ = family_instance("minbusy", 7)
        batch = [base, other, twin, base]

        counting = CountingExecutor()
        results = session.solve_many(batch, "minbusy", executor=counting)

        assert len(counting.tasks) == 2  # two unique fingerprints
        assert canonical(results[0]) == canonical(results[2])
        assert canonical(results[0]) == canonical(results[3])
        assert results[0].fingerprint == results[2].fingerprint
        # Each occurrence's schedule is expressed over its *own* jobs.
        assert set(results[2].schedule.assignment) == set(twin.jobs)
        assert set(results[0].schedule.assignment) == set(base.jobs)

    def test_duplicates_deduped_per_family_detail(self, session):
        inst, _ = family_instance("rect2d", 5)
        twin, _ = family_instance("rect2d", 5)
        counting = CountingExecutor()
        results = session.solve_many([inst, twin], "rect2d", executor=counting)
        assert len(counting.tasks) == 1
        assert results[0].detail == results[1].detail

    def test_dedup_composes_with_process_backend(self, session):
        inst, _ = family_instance("capacity", 2)
        twin, _ = family_instance("capacity", 2)
        others = [family_instance("capacity", s)[0] for s in range(3, 8)]
        batch = [inst] + others + [twin]
        serial = session.solve_many(batch, "capacity", backend="serial")
        session.clear_cache()
        process = session.solve_many(
            batch, "capacity", backend="process", workers=2
        )
        assert [canonical(r) for r in serial] == [
            canonical(r) for r in process
        ]
        assert canonical(serial[0]) == canonical(serial[-1])


# ----------------------------------------------------------------------
# process executor: forked workers read the batch in place
# ----------------------------------------------------------------------


def _minbusy_tasks(seeds):
    return [
        plan_solve(family_instance("minbusy", seed)[0], "minbusy", {}).task()
        for seed in seeds
    ]


class TestForkedHandOff:
    def test_tasks_never_cross_the_pipe(self, session, monkeypatch):
        """Workers inherit the batch at fork: pickling an instance
        fails, yet the process backend still matches serial."""
        from repro.core.instance import Instance

        instances = [family_instance("minbusy", s)[0] for s in range(4)]
        serial = session.solve_many(
            instances, "minbusy", backend="serial", use_cache=False
        )

        def refuse(self):
            raise TypeError("an Instance was pickled")

        monkeypatch.setattr(Instance, "__getstate__", refuse)
        process = session.solve_many(
            instances,
            "minbusy",
            backend="process",
            workers=2,
            use_cache=False,
        )
        assert [canonical(r) for r in process] == [
            canonical(r) for r in serial
        ]

    def test_concurrent_batches_stay_isolated(self):
        batches = [_minbusy_tasks(range(0, 6)), _minbusy_tasks(range(6, 10))]
        expected = [
            [canonical(r) for r in SerialExecutor().run(tasks)]
            for tasks in batches
        ]
        got = [None, None]
        errors = []

        def run(slot):
            try:
                results = ProcessPoolExecutor(2).run(batches[slot])
                got[slot] = [canonical(r) for r in results]
            except BaseException as exc:  # pragma: no cover - reported
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert got == expected
        assert executors_module._FORKED_BATCHES == {}

    def test_batch_table_emptied_on_return_and_raise(self):
        ProcessPoolExecutor(2).run(_minbusy_tasks(range(3)))
        assert executors_module._FORKED_BATCHES == {}

        good = _minbusy_tasks(range(2))
        bad = SolveTask(
            instance=good[0].instance,
            objective="no-such-objective",
            fingerprint=good[0].fingerprint,
            key="no-such-objective:" + good[0].fingerprint,
        )
        with pytest.raises(ValueError, match="unknown objective"):
            ProcessPoolExecutor(2).run(good + [bad])
        assert executors_module._FORKED_BATCHES == {}


# ----------------------------------------------------------------------
# async executor contracts
# ----------------------------------------------------------------------


def _fake_task(key: str) -> SolveTask:
    return SolveTask(
        instance=None, objective="fake", fingerprint=key, key=f"fake:{key}"
    )


class TestAsyncQueueExecutor:
    def test_inflight_coalescing(self, monkeypatch):
        calls = []
        lock = threading.Lock()

        def fake_solve(task):
            with lock:
                calls.append(task.key)
            time.sleep(0.05)
            return ("solved", task.key)

        monkeypatch.setattr(executors_module, "_solve_task", fake_solve)
        ex = AsyncQueueExecutor(max_concurrency=8)

        async def main():
            task = _fake_task("dup")
            return await asyncio.gather(
                *(ex.submit(task) for _ in range(10))
            )

        results = asyncio.run(main())
        assert calls == ["fake:dup"]  # ten submits, one computation
        assert all(r == ("solved", "fake:dup") for r in results)

    def test_bounded_concurrency(self, monkeypatch):
        active = 0
        peak = 0
        lock = threading.Lock()

        def fake_solve(task):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.02)
            with lock:
                active -= 1
            return task.key

        monkeypatch.setattr(executors_module, "_solve_task", fake_solve)
        ex = AsyncQueueExecutor(max_concurrency=2)
        keys = [f"k{i}" for i in range(8)]
        results = ex.run([_fake_task(k) for k in keys])
        assert results == [f"fake:{k}" for k in keys]  # submission order
        assert peak <= 2

    def test_deadline_raises_solve_timeout(self, monkeypatch):
        def slow_solve(task):
            time.sleep(0.5)
            return task.key

        monkeypatch.setattr(executors_module, "_solve_task", slow_solve)
        ex = AsyncQueueExecutor(max_concurrency=1, deadline=0.02)

        async def main():
            await ex.submit(_fake_task("slow"))

        with pytest.raises(SolveTimeout, match="deadline"):
            asyncio.run(main())

    def test_late_result_still_coalesces(self, monkeypatch):
        """A deadline expiry does not poison the slot: the computation
        finishes in the background and later waiters share it."""

        def slow_solve(task):
            time.sleep(0.1)
            return ("done", task.key)

        monkeypatch.setattr(executors_module, "_solve_task", slow_solve)
        ex = AsyncQueueExecutor(max_concurrency=1)

        async def main():
            task = _fake_task("late")
            with pytest.raises(SolveTimeout):
                await ex.submit(task, deadline=0.01)
            return await ex.submit(task)  # no deadline: waits it out

        assert asyncio.run(main()) == ("done", "fake:late")

    def test_run_inside_running_loop(self, monkeypatch):
        monkeypatch.setattr(
            executors_module, "_solve_task", lambda task: task.key
        )
        ex = AsyncQueueExecutor(max_concurrency=2)

        async def main():
            # Sync entry point driven from async code must not deadlock.
            return ex.run([_fake_task("a"), _fake_task("b")])

        assert asyncio.run(main()) == ["fake:a", "fake:b"]

    def test_rejects_nonpositive_concurrency(self):
        with pytest.raises(ValueError):
            AsyncQueueExecutor(max_concurrency=0)
        with pytest.raises(ValueError):
            ProcessPoolExecutor(workers=0)


# ----------------------------------------------------------------------
# tiered cache stack
# ----------------------------------------------------------------------


class DictTier:
    """A minimal in-memory CacheTier for composition tests."""

    def __init__(self, name):
        self.name = name
        self.data = {}
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return self.data.get(key)

    def get_many(self, keys):
        self.gets += 1
        return {k: self.data[k] for k in keys if k in self.data}

    def put(self, key, value):
        self.data[key] = value

    def put_many(self, items):
        self.data.update(items)

    def stats(self):
        return {"size": len(self.data)}

    def clear(self):
        self.data.clear()


class TestTieredCache:
    def test_lower_hit_promotes_upward(self):
        top, bottom = DictTier("top"), DictTier("bottom")
        stack = TieredCache([top, bottom])
        bottom.put("k", 41)
        assert stack.get("k") == 41
        assert top.data == {"k": 41}  # promoted
        assert stack.get("k") == 41
        assert bottom.gets == 1  # second lookup stopped at the top

    def test_put_writes_through_every_tier(self):
        top, bottom = DictTier("top"), DictTier("bottom")
        stack = TieredCache([top, bottom])
        stack.put("k", 1)
        assert top.data == bottom.data == {"k": 1}

    def test_get_many_batches_and_dedupes(self):
        top, bottom = DictTier("top"), DictTier("bottom")
        stack = TieredCache([top, bottom])
        top.put("a", 1)
        bottom.put("b", 2)
        found = stack.get_many(["a", "b", "a", "c"])
        assert found == {"a": 1, "b": 2}
        assert top.data == {"a": 1, "b": 2}  # "b" promoted
        assert top.gets == bottom.gets == 1  # one batched probe per tier

    def test_stats_keyed_by_tier_name(self):
        stack = TieredCache([DictTier("top"), DictTier("bottom")])
        assert list(stack.stats()) == ["top", "bottom"]

    def test_engine_stack_composition(self, tmp_path):
        """The live session stack: LRU alone, or LRU over the store."""
        from repro.api import Session

        session = Session(store_path=None)
        assert list(session.cache_stats()) == ["lru"]
        session = Session(store_path=tmp_path)
        stats = session.cache_stats()
        assert list(stats) == ["lru", "store"]
        assert stats["store"]["path"] == str(tmp_path)

    def test_store_tier_round_trip_through_engine(self, tmp_path):
        """Fresh-process simulation: an empty LRU is warmed from the
        store through the tiered probe, and the rebound result matches
        the original bit-for-bit."""
        from repro.api import Session

        inst, _ = family_instance("minbusy", 11)
        cold = Session(store_path=tmp_path).solve(inst, "minbusy")
        # "New process": a fresh session, LRU empty, store persists.
        warm = Session(store_path=tmp_path).solve(inst, "minbusy")
        assert warm.from_cache
        assert canonical(warm) == canonical(cold)

    def test_plan_lookup_install_primitives(self, session):
        """The layered core the service runs: plan -> probe -> install."""
        inst, _ = family_instance("minbusy", 12)
        plan = plan_solve(inst, "minbusy")
        cache = session.cache()
        assert cached_result(plan, cache) is None
        result = SerialExecutor().run([plan.task()])[0]
        install_result(plan, result, cache)
        hit = cached_result(plan, cache)
        assert hit is not None and hit.from_cache
        assert canonical(hit) == canonical(result)
