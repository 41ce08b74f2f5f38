"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest layerbench/selftest.py -q

The file name keeps these out of the repository's default test
collection: the smoke tests spawn ``repro serve`` and run every workload
for a second, traced and untraced (about a minute in all).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_runner():
    bench = _bench()
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.match(name), name
    assert end_to_end == [name for name, _unit in run.END_TO_END]
    assert per_layer == [name for name, _unit in run.PER_LAYER]
    assert [m["unit"] for m in bench["end_to_end"]] == [
        unit for _name, unit in run.END_TO_END
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_validates_and_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    section = "end_to_end" if trace == 0 else "per_layer"
    expected = {m["name"]: m["unit"] for m in _bench()[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    for metric in doc["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == 0:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    digest = workloads.make(workload, 5).input_digest()
    assert workloads.make(workload, 5).input_digest() == digest
    assert workloads.make(workload, 6).input_digest() != digest


def test_install_restores_every_wrapped_function():
    before = spans.snapshot()
    restore = spans.install(spans.Recorder(require_parent=True))
    try:
        during = spans.snapshot()
    finally:
        restore()
    after = spans.snapshot()
    assert len(before) == len(during) == len(after) > 50
    for (owner, attr, original), (_o, _a, wrapped) in zip(before, during):
        assert wrapped is not original, (owner, attr)
    for (owner, attr, original), (o2, a2, now) in zip(before, after):
        assert (o2, a2) == (owner, attr)
        assert now is original, (owner, attr)


def test_wrapped_calls_record_spans_only_inside_a_request():
    from repro.api import Session
    from repro.workloads import random_general_instance

    recorder = spans.Recorder(require_parent=True)
    restore = spans.install(recorder)
    try:
        with Session(store_path=None) as session:
            session.solve(random_general_instance(30, 3, seed=1))
            assert recorder.spans == []
            recorder.request(
                lambda: session.solve(random_general_instance(40, 3, seed=2))
            )
    finally:
        restore()
    names = {span[2] for span in recorder.spans}
    assert {spans.ROOT, "engine.plan", "engine.fingerprint", "minbusy.solve",
            "engine.executors", "engine.tiers.probe"} <= names


def test_attribution_nests_server_spans_under_the_round_trip():
    client = [
        (1, None, spans.ROOT, 0.0, 10.0, None),
        (2, 1, "engine.plan", 1.0, 4.0, None),
        (3, 1, spans.ROUNDTRIP, 5.0, 9.0, None),
    ]
    server = [
        (1, None, "engine.tiers.probe", 6.0, 8.0, None),
        (2, 1, "minbusy.solve", 6.5, 7.0, None),
        (3, None, "engine.tiers.probe", 20.0, 21.0, None),  # outside
    ]
    att = spans.Attribution(client, server)
    assert att.requests == 1 and att.wall_s == 10.0
    assert att.self_s[spans.ROOT] == 3.0
    assert att.self_s["engine.plan"] == 3.0
    assert att.self_s[spans.ROUNDTRIP] == 2.0
    assert att.self_s["engine.tiers.probe"] == 1.5
    assert att.self_s["minbusy.solve"] == 0.5
    assert sum(att.self_s.values()) == att.wall_s


@pytest.mark.parametrize(
    "n, percentile", [(10, 50), (40, 75), (60, 75), (100, 90), (500, 95), (1000, 99)]
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    assert run.tail([float(i) for i in range(n)], n)[1] == percentile
