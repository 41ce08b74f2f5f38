"""Tests for the bench history writer and drift detector
(benchmarks/history.py, benchmarks/drift.py)."""

from __future__ import annotations

import json
import threading

import pytest

from benchmarks.drift import diff_metrics, extract_metrics, main
from benchmarks.history import append_history, record_bench


def _history(geomean, firstfit, cache=12.0, store=None):
    entries = [
        {
            "experiment": "e16_kernels",
            "geomean_speedup": geomean,
            "rows": [
                {"kernel": "pairwise_overlaps", "speedup": geomean * 1.5},
                {"kernel": "union_length", "speedup": geomean * 0.5},
            ],
        },
        {"experiment": "e16_batch", "cache_speedup": cache},
        {
            "experiment": "e17_firstfit",
            "rows": [{"variant": "firstfit_1d", "speedup": firstfit}],
        },
    ]
    if store is not None:
        entries.append({"experiment": "e18_store", "store_speedup": store})
    return entries


class TestExtract:
    def test_flattens_latest_entries(self):
        metrics = extract_metrics(_history(10.0, 40.0, store=8.0))
        assert metrics["e16.geomean"] == 10.0
        assert metrics["e16.pairwise_overlaps"] == 15.0
        assert metrics["e16.cache_speedup"] == 12.0
        assert metrics["e17.firstfit_1d"] == 40.0
        assert metrics["e18.store_speedup"] == 8.0

    def test_last_record_per_experiment_wins(self):
        entries = _history(10.0, 40.0) + _history(20.0, 50.0)
        metrics = extract_metrics(entries)
        assert metrics["e16.geomean"] == 20.0
        assert metrics["e17.firstfit_1d"] == 50.0

    def test_garbage_tolerated(self):
        assert extract_metrics([{"nonsense": 1}, {}]) == {}



class TestDiff:
    def test_no_regression_within_threshold(self):
        prev = extract_metrics(_history(10.0, 40.0))
        cur = extract_metrics(_history(8.0, 30.0))  # 20%/25% drops
        assert diff_metrics(prev, cur, 0.30) == []

    def test_flags_beyond_threshold(self):
        prev = extract_metrics(_history(10.0, 40.0))
        cur = extract_metrics(_history(10.0, 20.0))  # firstfit -50%
        regs = diff_metrics(prev, cur, 0.30)
        assert [r[0] for r in regs] == ["e17.firstfit_1d"]
        assert regs[0][3] == pytest.approx(0.5)

    def test_improvements_never_flag(self):
        prev = extract_metrics(_history(10.0, 40.0))
        cur = extract_metrics(_history(50.0, 400.0, cache=99.0))
        assert diff_metrics(prev, cur, 0.30) == []

    def test_disjoint_metrics_skipped(self):
        regs = diff_metrics({"only_prev": 10.0}, {"only_cur": 1.0}, 0.3)
        assert regs == []


class TestMain:
    def _write(self, path, entries):
        path.write_text(json.dumps(entries))
        return str(path)

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", _history(10.0, 40.0))
        cur = self._write(tmp_path / "cur.json", _history(10.0, 10.0))
        assert main(["--previous", prev, "--current", cur]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_warn_only_exits_zero(self, tmp_path):
        prev = self._write(tmp_path / "prev.json", _history(10.0, 40.0))
        cur = self._write(tmp_path / "cur.json", _history(10.0, 10.0))
        assert (
            main(["--previous", prev, "--current", cur, "--warn-only"]) == 0
        )

    def test_ok_exits_zero(self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", _history(10.0, 40.0))
        cur = self._write(tmp_path / "cur.json", _history(11.0, 41.0))
        assert main(["--previous", prev, "--current", cur]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_previous_is_skip(self, tmp_path, capsys):
        cur = self._write(tmp_path / "cur.json", _history(10.0, 40.0))
        missing = str(tmp_path / "nope.json")
        assert main(["--previous", missing, "--current", cur]) == 0
        assert "skipping" in capsys.readouterr().out

    def test_corrupt_previous_is_skip(self, tmp_path):
        prev = tmp_path / "prev.json"
        prev.write_text("{not json")
        cur = self._write(tmp_path / "cur.json", _history(10.0, 40.0))
        assert main(["--previous", str(prev), "--current", cur]) == 0

    def test_json_output(self, tmp_path, capsys):
        prev = self._write(tmp_path / "prev.json", _history(10.0, 40.0))
        cur = self._write(tmp_path / "cur.json", _history(10.0, 10.0))
        assert (
            main(
                [
                    "--previous",
                    prev,
                    "--current",
                    cur,
                    "--warn-only",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressions"][0]["metric"] == "e17.firstfit_1d"


class TestHistory:
    def test_append_history_is_atomic_under_threads(self, tmp_path):
        path = tmp_path / "H.json"
        errors = []

        def writer(i):
            try:
                for k in range(25):
                    append_history(path, f"exp{i}", {"k": k})
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        entries = json.loads(path.read_text())
        assert len(entries) == 100  # no entry lost to a race

    def test_record_bench_delegates_to_locked_append(
        self, tmp_path, monkeypatch
    ):
        dest = tmp_path / "BENCH_HISTORY.json"
        monkeypatch.setenv("BENCH_HISTORY_PATH", str(dest))
        record_bench("e99_test", {"value": 1.0})
        record_bench("e99_test", {"value": 2.0})
        entries = json.loads(dest.read_text())
        assert [e["value"] for e in entries] == [1.0, 2.0]
        assert all("recorded_at" in e for e in entries)
