"""Tests for the persistent cross-process result store.

Covers the raw :class:`repro.engine.store.ResultStore` (round trips,
segment rotation, concurrent-writer stress, truncated/corrupt segment
recovery, version-mismatch fallback to miss), the engine wiring
(LRU → store read-through, write-behind, ``solve_many`` fold-back,
env binding) and the cross-process property: a result solved in a
subprocess is served as a hit in the parent.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.api import Session
from repro.cli import main
from repro.engine.store import (
    _HEADER,
    _MAGIC,
    STORE_VERSION,
    ResultStore,
    default_store_dir,
)
from repro.io import save_instance
from repro.workloads import random_general_instance


@pytest.fixture
def session():
    """A session on the default store binding, which follows
    ``REPRO_CACHE_DIR``: tests attach the store by setting the env."""
    with Session() as s:
        yield s


def _record(key: str, value, version: int = STORE_VERSION) -> bytes:
    payload = pickle.dumps(value, protocol=4)
    kb = key.encode()
    return (
        _HEADER.pack(_MAGIC, version, len(kb), len(payload), zlib.crc32(payload))
        + kb
        + payload
    )


class TestResultStore:
    def test_round_trip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("missing") is None
        store.put("k1", {"cost": 1.5})
        store.put("k2", [1, 2, 3])
        assert store.get("k1") == {"cost": 1.5}
        assert store.get("k2") == [1, 2, 3]
        s = store.stats()
        assert s.puts == 2 and s.hits == 2 and s.misses == 1
        assert s.entries == 2 and s.segments == 1

    def test_overwrite_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        # A fresh instance scanning from scratch agrees.
        assert ResultStore(tmp_path).get("k") == 2

    def test_segment_rotation(self, tmp_path):
        store = ResultStore(tmp_path, max_segment_bytes=200)
        for i in range(20):
            store.put(f"k{i}", "x" * 50)
        assert store.stats().segments > 1
        fresh = ResultStore(tmp_path)
        for i in range(20):
            assert fresh.get(f"k{i}") == "x" * 50

    def test_cross_instance_visibility(self, tmp_path):
        a = ResultStore(tmp_path)
        b = ResultStore(tmp_path)
        a.put("shared", 42)
        # b's index is stale; the miss-triggered refresh finds it.
        assert b.get("shared") == 42

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", 1)
        store.clear()
        assert store.get("k") is None
        s = store.stats()
        assert s.puts == 0 and s.entries == 0 and s.segments == 0

    def test_truncated_segment_recovers_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("good", "intact")
        store.put("tail", "chopped")
        seg = next(tmp_path.glob("seg-*.log"))
        data = seg.read_bytes()
        seg.write_bytes(data[:-5])  # truncate mid-record
        fresh = ResultStore(tmp_path)
        assert fresh.get("good") == "intact"
        assert fresh.get("tail") is None

    def test_corrupt_magic_stops_scan_not_reader(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("before", 1)
        seg = next(tmp_path.glob("seg-*.log"))
        with open(seg, "ab") as fh:
            fh.write(b"GARBAGEGARBAGEGARBAGE")
        with open(seg, "ab") as fh:  # a good record after the garbage
            fh.write(_record("after", 2))
        fresh = ResultStore(tmp_path)
        # Records before the corruption survive; after it the segment
        # cannot be trusted (records are not self-syncing).
        assert fresh.get("before") == 1
        assert fresh.get("after") is None

    def test_crc_mismatch_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", "value")
        seg = next(tmp_path.glob("seg-*.log"))
        data = bytearray(seg.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte
        seg.write_bytes(bytes(data))
        fresh = ResultStore(tmp_path)
        assert fresh.get("k") is None

    def test_version_mismatch_is_miss(self, tmp_path):
        seg = tmp_path / "seg-1-abc.log"
        seg.write_bytes(
            _record("old", "payload", version=STORE_VERSION + 1)
            + _record("new", "payload")
        )
        store = ResultStore(tmp_path)
        # The unknown-version record is skipped, not fatal: the record
        # after it is still found.
        assert store.get("old") is None
        assert store.get("new") == "payload"

    def test_unpicklable_payload_is_miss(self, tmp_path):
        payload = b"\x80\x04not really a pickle"
        kb = b"bad"
        rec = (
            _HEADER.pack(
                _MAGIC, STORE_VERSION, len(kb), len(payload),
                zlib.crc32(payload),
            )
            + kb
            + payload
        )
        (tmp_path / "seg-1-bad.log").write_bytes(rec)
        assert ResultStore(tmp_path).get("bad") is None

    def test_put_many_batches_and_rotates(self, tmp_path):
        store = ResultStore(tmp_path, max_segment_bytes=200)
        store.put_many({f"k{i}": "x" * 50 for i in range(10)})
        s = store.stats()
        assert s.puts == 10 and s.segments > 1
        fresh = ResultStore(tmp_path)
        for i in range(10):
            assert fresh.get(f"k{i}") == "x" * 50

    def test_get_many_batches_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", 1)
        out = store.get_many(["a", "b", "c"])
        assert out == {"a": 1}
        s = store.stats()
        assert s.hits == 1 and s.misses == 2

    def test_default_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envstore"))
        assert default_store_dir() == tmp_path / "envstore"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert "repro" in str(default_store_dir())


def _hammer(args):
    root, worker, n = args
    store = ResultStore(root)
    for i in range(n):
        store.put(f"w{worker}-k{i}", {"worker": worker, "i": i})
    return worker


class TestConcurrentWriters:
    def test_pool_hammering_one_store(self, tmp_path):
        workers, per_worker = 4, 25
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = pool.map(
                _hammer,
                [(str(tmp_path), w, per_worker) for w in range(workers)],
            )
        assert sorted(done) == list(range(workers))
        store = ResultStore(tmp_path)
        for w in range(workers):
            for i in range(per_worker):
                assert store.get(f"w{w}-k{i}") == {"worker": w, "i": i}
        s = store.stats()
        assert s.puts == workers * per_worker
        assert s.entries == workers * per_worker


class TestEngineWiring:
    def test_read_through_write_behind(
        self, tmp_path, monkeypatch, session
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        inst = random_general_instance(20, 3, seed=3)
        fresh = session.solve(inst)
        assert not fresh.from_cache
        session.clear_cache()  # drop the LRU; the store must serve
        hit = session.solve(inst)
        assert hit.from_cache
        assert hit.cost == fresh.cost
        assert hit.algorithm == fresh.algorithm
        # The store-served schedule is re-inflated over this instance.
        assert hit.schedule is not None
        assert set(hit.schedule.assignment) == set(inst.jobs)
        s = session.store_stats()
        assert s is not None and s.hits >= 1 and s.puts >= 1

    def test_solve_many_folds_into_store(
        self, tmp_path, monkeypatch, session
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        insts = [random_general_instance(15, 3, seed=s) for s in range(6)]
        cold = session.solve_many(insts)
        assert not any(r.from_cache for r in cold)
        session.clear_cache()
        warm = session.solve_many(insts)
        assert all(r.from_cache for r in warm)
        assert [r.cost for r in warm] == [r.cost for r in cold]

    def test_use_cache_false_still_writes(
        self, tmp_path, monkeypatch, session
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        inst = random_general_instance(12, 2, seed=9)
        session.solve(inst, use_cache=False)
        session.clear_cache()
        assert session.solve(inst).from_cache

    def test_store_disabled_without_binding(self, session):
        inst = random_general_instance(12, 2, seed=10)
        session.solve(inst)
        assert session.store_stats() is None

    def test_env_binding(self, tmp_path, monkeypatch, session):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        inst = random_general_instance(14, 2, seed=11)
        session.solve(inst)
        session.clear_cache()
        assert session.solve(inst).from_cache
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert session.store_stats() is None

    def test_empty_instance_store_hit_keeps_schedule(
        self, tmp_path, monkeypatch, session
    ):
        from repro.core.instance import Instance

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        empty = Instance(jobs=(), g=2)
        fresh = session.solve(empty)
        assert fresh.schedule is not None
        session.clear_cache()  # LRU gone; the stripped record must serve
        hit = session.solve(empty)
        assert hit.from_cache
        assert hit.schedule is not None
        assert hit.schedule.assignment == {}
        assert hit.schedule.g == 2

    def test_registry_objectives_share_store(
        self, tmp_path, monkeypatch, session
    ):
        from repro.workloads import random_demand_instance

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        inst = random_demand_instance(18, 4, seed=5)
        fresh = session.solve(inst, "capacity")
        session.clear_cache()
        hit = session.solve(inst, "capacity")
        assert hit.from_cache and hit.cost == fresh.cost
        assert hit.detail == fresh.detail


_CHILD_SOLVE = """
import sys
from repro.api import Session
from repro.workloads import random_general_instance
inst = random_general_instance(int(sys.argv[1]), 3, seed=int(sys.argv[2]))
print(repr(Session().solve(inst).cost))
"""


class TestCrossProcess:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subprocess_solve_parent_hit(
        self, tmp_path, monkeypatch, seed, session
    ):
        """Property: whatever a child process solves, the parent hits
        — with the identical cost — through the shared store."""
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_SOLVE, "21", str(seed)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        child_cost = eval(out.stdout.strip())
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        inst = random_general_instance(21, 3, seed=seed)
        hit = session.solve(inst)
        assert hit.from_cache
        assert hit.cost == child_cost

    def test_cli_second_invocation_hits(self, tmp_path, monkeypatch, capsys):
        """The acceptance flow: two `repro solve` runs on one instance;
        the second is served from the store and the `repro cache stats`
        hit counter shows it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        inst_path = tmp_path / "inst.json"
        save_instance(random_general_instance(16, 3, seed=4), inst_path)

        assert main(["solve", str(inst_path), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cached"] is False

        # Each CLI run builds its own session, so its LRU starts empty.
        assert main(["solve", str(inst_path), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cached"] is True
        assert second["cost"] == first["cost"]

        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["exists"] and stats["hits"] >= 1 and stats["puts"] >= 1

    def test_cli_cache_clear_and_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "s2"))
        assert main(["cache", "path"]) == 0
        assert str(tmp_path / "s2") in capsys.readouterr().out
        inst_path = tmp_path / "i.json"
        save_instance(random_general_instance(10, 2, seed=8), inst_path)
        assert main(["solve", str(inst_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0 and stats["puts"] == 0

    def test_cli_g_override_for_family_formats(self, tmp_path, capsys):
        rects = {
            "g": 2,
            "rects": [
                {"x0": 0, "y0": 0, "x1": 2, "y1": 1},
                {"x0": 1, "y0": 0, "x1": 3, "y1": 2},
            ],
        }
        path = tmp_path / "r.json"
        path.write_text(json.dumps(rects))
        assert main(
            ["solve", str(path), "--objective", "rect2d", "--g", "1",
             "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["g"] == 1
        assert doc["machines"] == 2  # g=1: overlapping rects split

    def test_cli_no_store_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "s3"))
        inst_path = tmp_path / "i.json"
        save_instance(random_general_instance(10, 2, seed=8), inst_path)
        assert main(["solve", str(inst_path), "--no-store", "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["puts"] == 0
