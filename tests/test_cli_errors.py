"""CLI error paths and machine-readable output contracts.

Every failure mode a CI script or operator hits must exit non-zero
with an actionable one-liner — never a traceback: unknown
``--objective``, malformed family JSON, an unusable ``REPRO_CACHE_DIR``
(or ``--store``) directory, and ``repro serve`` on an occupied port.
Alongside them, the machine-readable contracts: ``repro cache stats
--json`` must emit a parseable document with stable keys so CI never
scrapes human tables.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.cli import main
from tests.helpers import family_request


@pytest.fixture()
def inst_path(tmp_path):
    doc, _ = family_request("minbusy", 0)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def bad_store_dir(tmp_path):
    """A store path routed through a regular file: mkdir always fails
    (even for root, unlike permission-bit tricks)."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    return str(blocker / "store")


def exit_message(excinfo) -> str:
    code = excinfo.value.code
    return code if isinstance(code, str) else ""


class TestUnknownObjective:
    def test_solve_unknown_objective_lists_registry(self, inst_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", inst_path, "--objective", "makespan"])
        message = exit_message(excinfo)
        assert "unknown objective" in message
        assert "minbusy" in message and "rect2d" in message
        assert excinfo.value.code not in (0, None)

    def test_batch_unknown_objective(self, inst_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["solve", inst_path, inst_path, "--objective", "nope"]
            )
        assert "unknown objective" in exit_message(excinfo)


class TestMalformedFamilyJson:
    def test_rect2d_missing_rects(self, tmp_path):
        path = tmp_path / "bad_rect.json"
        path.write_text(json.dumps({"g": 3}))
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(path), "--objective", "rect2d"])
        message = exit_message(excinfo)
        assert str(path) in message
        assert "rects" in message

    def test_ring_bad_job_record(self, tmp_path):
        path = tmp_path / "bad_ring.json"
        path.write_text(
            json.dumps({"g": 3, "jobs": [{"a0": 0.1}]})  # missing fields
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(path), "--objective", "ring"])
        assert "ring job record" in exit_message(excinfo)

    def test_not_json_at_all(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{definitely not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(path), "--objective", "flexible"])
        assert "not valid JSON" in exit_message(excinfo)

    def test_csv_rejected_for_family_format(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text("start,end\n0,1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(path), "--objective", "rect2d", "--g", "2"])
        assert "JSON format" in exit_message(excinfo)


class TestUnusableStoreDir:
    def test_env_cache_dir_actionable_exit(
        self, inst_path, bad_store_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", bad_store_dir)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", inst_path])
        message = exit_message(excinfo)
        assert "REPRO_CACHE_DIR" in message
        assert "--no-store" in message
        assert excinfo.value.code not in (0, None)

    def test_store_flag_actionable_exit(self, inst_path, bad_store_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", inst_path, "--store", bad_store_dir])
        assert f"--store {bad_store_dir}" in exit_message(excinfo)

    def test_no_store_flag_bypasses_bad_env(
        self, inst_path, bad_store_dir, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", bad_store_dir)
        assert main(["solve", inst_path, "--no-store", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"] == "minbusy"

    def test_serve_with_bad_store_dir(self, bad_store_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", bad_store_dir)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0"])
        assert "REPRO_CACHE_DIR" in exit_message(excinfo)


class TestServeErrors:
    def test_junk_repro_wire_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "frames")
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--no-store", "--port", "0"])
        message = exit_message(excinfo)
        assert "REPRO_WIRE" in message
        assert "frames" in message
        assert excinfo.value.code not in (0, None)

    def test_occupied_port_exits_with_hint(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--port", str(port), "--no-store"])
        finally:
            blocker.close()
        message = exit_message(excinfo)
        assert "cannot serve" in message
        assert "--port" in message
        assert excinfo.value.code not in (0, None)


class TestEngineFlagParity:
    """`repro solve` and `repro serve` share one argparse parent →
    one EngineConfig: the engine knobs are accepted uniformly and the
    unenforceable combinations exit with the same actionable message."""

    ENGINE_FLAGS = ("backend", "workers", "deadline", "cache_size",
                    "store", "no_store")

    def test_both_commands_accept_the_shared_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        solve_args = parser.parse_args(
            ["solve", "x.json", "--backend", "serial", "--workers", "2",
             "--deadline", "1.5", "--cache-size", "64",
             "--store", "/tmp/s"]
        )
        serve_args = parser.parse_args(
            ["serve", "--backend", "process", "--workers", "3",
             "--deadline", "2.5", "--cache-size", "32", "--no-store"]
        )
        for flag in self.ENGINE_FLAGS:
            assert hasattr(solve_args, flag), f"solve lacks --{flag}"
            assert hasattr(serve_args, flag), f"serve lacks --{flag}"
        assert solve_args.deadline == 1.5
        assert serve_args.deadline == 2.5

    def test_solve_honors_deadline_via_async_auto(
        self, inst_path, capsys
    ):
        # auto + --deadline selects the async backend, so the deadline
        # is actually enforced; a generous bound must still succeed.
        assert (
            main(
                ["solve", inst_path, "--deadline", "30",
                 "--no-store", "--json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"] == "minbusy"

    def test_solve_rejects_unenforceable_deadline(self, inst_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["solve", inst_path, "--backend", "serial",
                 "--deadline", "1", "--no-store"]
            )
        message = exit_message(excinfo)
        assert "deadline" in message and "async" in message
        assert excinfo.value.code not in (0, None)

    def test_solve_honors_cache_size(self, inst_path, capsys):
        assert (
            main(
                ["solve", inst_path, "--cache-size", "8",
                 "--no-store", "--json"]
            )
            == 0
        )
        json.loads(capsys.readouterr().out)

    def test_solve_rejects_bad_worker_count(self, inst_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["solve", inst_path, "--workers", "0", "--no-store"]
            )
        assert "workers" in exit_message(excinfo)

    def test_tiny_deadline_exits_with_timeout(self, tmp_path):
        # A deadline the solve cannot possibly meet must surface as an
        # actionable error, not a hang (SolveTimeout -> InstanceError
        # path would traceback; assert a clean non-zero exit).
        doc, _ = family_request("minbusy", 3)
        doc["jobs"] = doc["jobs"] * 40  # big enough to take > 1e-6 s
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["solve", str(path), "--deadline", "0.000001",
                 "--no-store"]
            )
        message = exit_message(excinfo)
        assert "deadline" in message and "--deadline" in message
        assert excinfo.value.code not in (0, None)


class TestMachineReadableOutput:
    def test_cache_stats_json_schema(self, tmp_path, capsys):
        assert (
            main(["cache", "stats", "--dir", str(tmp_path), "--json"]) == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert {
            "path",
            "exists",
            "hits",
            "misses",
            "puts",
            "entries",
            "segments",
            "total_bytes",
        } <= set(doc)

    def test_solve_backend_flag_json(self, inst_path, capsys):
        for backend in ("serial", "process", "async"):
            assert (
                main(
                    [
                        "solve", inst_path,
                        "--backend", backend,
                        "--no-store", "--json",
                    ]
                )
                == 0
            )
            doc = json.loads(capsys.readouterr().out)
            assert doc["problem"] == "minbusy"
            assert doc["cached"] is False


class TestShardFlagErrors:
    """--shard/REPRO_SHARDS failure modes exit with actionable text."""

    def test_malformed_repro_shards_names_the_variable(
        self, inst_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARDS", "not-an-endpoint")
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", inst_path, "--no-store"])
        message = exit_message(excinfo)
        assert "REPRO_SHARDS" in message
        assert "host:port" in message
        assert excinfo.value.code not in (0, None)

    def test_malformed_shard_flag_names_the_flag(self, inst_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["solve", inst_path, "--no-store", "--shard", "host:zap"]
            )
        assert "--shard" in exit_message(excinfo)

    def test_unreachable_shard_exits_with_hint(self, inst_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here now
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "solve", inst_path, "--no-store",
                    "--shard", f"127.0.0.1:{port}",
                ]
            )
        message = exit_message(excinfo)
        assert "cannot assemble the shard fleet" in message
        assert "repro serve" in message

    def test_serial_backend_rejected_with_shards(self, inst_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "solve", inst_path, "--no-store",
                    "--shard", "local", "--backend", "serial",
                ]
            )
        message = exit_message(excinfo)
        assert "--backend serial" in message
        assert "shard" in message

    def test_cache_clear_rejects_shard_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "clear", "--shard", "127.0.0.1:1"])
        assert "cache stats" in exit_message(excinfo)

    def test_cache_stats_rejects_local_shard(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "stats", "--shard", "local"])
        assert "host:port" in exit_message(excinfo)

    def test_cache_stats_all_shards_unreachable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["cache", "stats", "--shard", f"127.0.0.1:{port}"]
            )
        message = exit_message(excinfo)
        assert "none of the --shard endpoints answered" in message
        assert f"127.0.0.1:{port}" in message

    def test_solve_through_local_shards_succeeds(self, inst_path, capsys):
        assert (
            main(
                [
                    "solve", inst_path, "--no-store", "--json",
                    "--shard", "local", "--shard", "local",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"] == "minbusy"


class TestShardedCacheStatsSchema:
    def test_sharded_cache_stats_json_schema(self, capsys):
        from tests.helpers import spawn_serve_subprocess

        proc, port = spawn_serve_subprocess()
        try:
            assert (
                main(
                    [
                        "cache", "stats", "--json",
                        "--shard", f"127.0.0.1:{port}",
                    ]
                )
                == 0
            )
            doc = json.loads(capsys.readouterr().out)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        assert set(doc) == {"n_shards", "reachable", "shards", "aggregate"}
        assert doc["n_shards"] == 1 and doc["reachable"] == 1
        entry = doc["shards"][f"127.0.0.1:{port}"]
        assert entry["reachable"] is True
        assert entry["state"] == "ok"
        assert {"lru", "wire", "wire_transport"} <= set(entry["stats"])
        wire = entry["stats"]["wire"]
        assert set(wire["by_format"]) == {"ndjson", "binary"}
        for counters in wire["by_format"].values():
            assert {"hits", "misses", "hit_rate"} <= set(counters)
        transport = entry["stats"]["wire_transport"]
        assert transport["mode"] in ("auto", "ndjson", "binary")
        assert {
            "ndjson_connections",
            "binary_connections",
            "binary_bytes_in",
            "binary_bytes_out",
        } <= set(transport)
        assert entry["health"]["status"] == "healthy"
        assert isinstance(entry["health"]["pid"], int)
        assert doc["aggregate"]["fleet"] == {
            "reachable": 1,
            "unreachable": 0,
        }
        def leaves(node):
            for value in node.values():
                if isinstance(value, dict):
                    yield from leaves(value)
                else:
                    yield value

        for tier, counters in doc["aggregate"].items():
            assert isinstance(counters, dict)
            # Counters only, at any nesting depth (wire.by_format.*);
            # strings like wire_transport's "mode" must drop out.
            assert all(
                isinstance(v, (int, float)) for v in leaves(counters)
            )
        agg_transport = doc["aggregate"]["wire_transport"]
        assert "mode" not in agg_transport
        assert {
            "ndjson_connections",
            "binary_connections",
            "binary_bytes_in",
            "binary_bytes_out",
        } <= set(agg_transport)

    def test_dead_shard_renders_in_aggregate_not_traceback(self, capsys):
        """A SIGKILLed / garbage-spewing shard degrades the report.

        Historically a shard that died mid-response made the stats
        command explode with a raw protocol traceback (the partial
        line raises ``InstanceError``, which the command did not
        catch); now it renders as unreachable alongside the healthy
        shards, with the fleet circuit summary in the aggregate.
        """
        import socket
        import threading

        from tests.helpers import spawn_serve_subprocess

        # An endpoint that accepts, answers half a JSON line, and dies
        # — exactly what a client sees from a shard killed mid-write.
        sick = socket.socket()
        sick.bind(("127.0.0.1", 0))
        sick.listen(4)
        sick_port = sick.getsockname()[1]

        def serve_garbage():
            while True:
                try:
                    conn, _ = sick.accept()
                except OSError:
                    return
                conn.recv(65536)
                conn.sendall(b'{"ok": tru')
                conn.close()

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        proc, port = spawn_serve_subprocess()
        try:
            assert (
                main(
                    [
                        "cache", "stats", "--json",
                        "--shard", f"127.0.0.1:{port}",
                        "--shard", f"127.0.0.1:{sick_port}",
                    ]
                )
                == 0
            )
            doc = json.loads(capsys.readouterr().out)
            # The human-readable rendering survives the same fleet.
            assert (
                main(
                    [
                        "cache", "stats",
                        "--shard", f"127.0.0.1:{port}",
                        "--shard", f"127.0.0.1:{sick_port}",
                    ]
                )
                == 0
            )
            human = capsys.readouterr().out
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            sick.close()
        assert set(doc) == {"n_shards", "reachable", "shards", "aggregate"}
        assert doc["reachable"] == 1
        dead = doc["shards"][f"127.0.0.1:{sick_port}"]
        assert dead["reachable"] is False
        assert dead["state"] == "unreachable"
        assert "error" in dead
        assert doc["aggregate"]["fleet"] == {
            "reachable": 1,
            "unreachable": 1,
        }
        assert "unreachable" in human

    def test_sum_stats_recomputes_hit_rate_from_counts(self):
        """The shard aggregate of a ratio is the ratio of the summed
        counts: rates 0.5 and 0.75 over 4 hits / 2 misses give 2/3,
        not their sum."""
        from repro.cli import _sum_stats

        def shard(hits, misses, mode):
            return {
                "wire": {
                    "hits": hits,
                    "misses": misses,
                    "by_format": {
                        "ndjson": {
                            "hits": hits,
                            "misses": misses,
                            "hit_rate": hits / (hits + misses),
                        },
                        "binary": {"hits": 0, "misses": 0, "hit_rate": 0.0},
                    },
                },
                "wire_transport": {"mode": mode, "binary_connections": 1},
            }

        aggregate = _sum_stats([shard(1, 1, "auto"), shard(3, 1, "binary")])
        ndjson = aggregate["wire"]["by_format"]["ndjson"]
        assert (ndjson["hits"], ndjson["misses"]) == (4, 2)
        assert ndjson["hit_rate"] == pytest.approx(4 / 6)
        assert aggregate["wire"]["by_format"]["binary"]["hit_rate"] == 0.0
        assert aggregate["wire"]["hits"] == 4
        assert aggregate["wire_transport"] == {"binary_connections": 2}
