"""The observability subsystem: registry, spans, exposition, drain.

Four surfaces under test:

* the metrics registry — labeled families, deterministic snapshots,
  exact order-independent merging across shard snapshots;
* trace spans — noop when disabled, parent linkage when enabled,
  wire adoption/reassembly (a remote solve yields ONE tree spanning
  client and server spans), ring dedup, and the JSONL sink;
* exposition — Prometheus text that passes its own line-grammar
  validator, the pinned JSON schema, and the ``metrics`` wire op;
* graceful drain — SIGTERM on a live ``repro serve`` exits 0.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess

import pytest

from repro.api import RemoteSession, Session, ShardedClient
from repro.obs import expo, metrics as obs_metrics, trace as obs_trace
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    METRICS_SCHEMA,
    MetricsRegistry,
    merge_snapshots,
)
from repro.service.client import ServiceClient
from repro.service.server import SolveServer
from tests.helpers import (
    family_instance,
    family_request,
    spawn_serve_subprocess,
)


@pytest.fixture()
def tracing():
    """Tracing on for the test, ring and state restored afterwards."""
    obs_trace.enable_tracing()
    obs_trace.clear_ring()
    try:
        yield
    finally:
        obs_trace.disable_tracing()
        obs_trace.clear_ring()


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_and_labels(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_test_total", "help", labels=("kind",))
        fam.labels("a").inc()
        fam.labels("a").inc(2)
        fam.labels("b").inc()
        snap = reg.snapshot()
        assert snap["schema"] == METRICS_SCHEMA
        (metric,) = snap["metrics"]
        assert metric["name"] == "repro_test_total"
        assert metric["type"] == "counter"
        assert metric["samples"] == [
            {"labels": {"kind": "a"}, "value": 3},
            {"labels": {"kind": "b"}, "value": 1},
        ]

    def test_histogram_ladder(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds").child()
        h.observe(0.0)  # below the first bound
        h.observe(1e9)  # overflow bucket
        snap = reg.snapshot()
        (sample,) = snap["metrics"][0]["samples"]
        assert len(sample["counts"]) == len(BUCKET_BOUNDS) + 1
        assert sample["counts"][0] == 1
        assert sample["counts"][-1] == 1
        assert sample["count"] == 2

    def test_family_is_idempotent_but_kind_conflicts_raise(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total")
        assert reg.counter("repro_test_total") is a
        with pytest.raises(ValueError):
            reg.histogram("repro_test_total")

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name!")

    def test_snapshot_is_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total").child().inc()
        reg.counter("repro_a_total").child().inc()
        first = json.dumps(reg.snapshot(), sort_keys=True)
        second = json.dumps(reg.snapshot(), sort_keys=True)
        assert first == second
        names = [m["name"] for m in reg.snapshot()["metrics"]]
        assert names == sorted(names)

    def test_merge_sums_counters_and_histograms(self):
        def make(n):
            reg = MetricsRegistry()
            reg.counter("repro_c_total", labels=("k",)).labels("x").inc(n)
            h = reg.histogram("repro_h_seconds").child()
            h.observe(0.01)
            return reg.snapshot()

        merged = merge_snapshots([make(1), make(2)])
        by_name = {m["name"]: m for m in merged["metrics"]}
        assert by_name["repro_c_total"]["samples"][0]["value"] == 3
        assert by_name["repro_h_seconds"]["samples"][0]["count"] == 2
        # associativity: merging is order-independent
        flipped = merge_snapshots([make(2), make(1)])
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            flipped, sort_keys=True
        )

    def test_merge_type_conflict_raises(self):
        a = MetricsRegistry()
        a.counter("repro_x_total").child().inc()
        gauge_doc = {
            "schema": METRICS_SCHEMA,
            "metrics": [
                {
                    "name": "repro_x_total",
                    "type": "gauge",
                    "help": "",
                    "labels": [],
                    "samples": [{"labels": {}, "value": 1}],
                }
            ],
        }
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), gauge_doc])


# ---------------------------------------------------------------------------
# exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def _loaded_snapshot(self):
        """A registry snapshot merged with a projected stats document,
        so counter, gauge and histogram families all render."""
        reg = MetricsRegistry()
        reg.counter("repro_req_total", "requests", labels=("op",)).labels(
            "solve"
        ).inc(7)
        reg.histogram("repro_lat_seconds", "latency").child().observe(0.02)
        return merge_snapshots(
            [reg.snapshot(), expo.stats_samples({"lru": {"size": 3}})]
        )

    def test_prometheus_text_passes_the_validator(self):
        text = expo.render_prometheus(self._loaded_snapshot())
        errors = expo.validate_prometheus(text)
        assert errors == []
        assert "# TYPE repro_req_total counter" in text
        assert 'repro_req_total{op="solve"} 7' in text
        assert "# TYPE repro_stats_gauge gauge" in text
        assert 'repro_stats_gauge{block="lru",path="lru.size"} 3' in text

    def test_histogram_exposition_is_cumulative_with_inf(self):
        text = expo.render_prometheus(self._loaded_snapshot())
        lines = [l for l in text.splitlines() if l.startswith("repro_lat")]
        buckets = [l for l in lines if "_bucket{" in l]
        assert buckets and buckets[-1].startswith(
            'repro_lat_seconds_bucket{le="+Inf"}'
        )
        values = [float(l.rsplit(" ", 1)[1]) for l in buckets]
        assert values == sorted(values)  # cumulative, monotone
        assert any(l.startswith("repro_lat_seconds_sum") for l in lines)
        assert any(l.startswith("repro_lat_seconds_count") for l in lines)

    def test_validator_rejects_garbage(self):
        assert expo.validate_prometheus("not a metric line!!\n")
        # a sample whose family never declared a TYPE
        assert expo.validate_prometheus("repro_mystery_total 1\n")

    def test_json_schema_is_pinned(self):
        doc = expo.render_json(self._loaded_snapshot())
        assert doc["schema"] == METRICS_SCHEMA
        for metric in doc["metrics"]:
            assert set(metric) == {"name", "type", "help", "labels", "samples"}

    def test_stats_samples_classifies_counters_vs_gauges(self):
        doc = expo.stats_samples(
            {"lru": {"hits": 3, "misses": 1, "size": 2, "maxsize": 128}}
        )
        by_name = {m["name"]: m for m in doc["metrics"]}
        counter_paths = {
            s["labels"]["path"]
            for s in by_name["repro_stats_counter"]["samples"]
        }
        gauge_paths = {
            s["labels"]["path"]
            for s in by_name["repro_stats_gauge"]["samples"]
        }
        assert {"lru.hits", "lru.misses"} <= counter_paths
        assert {"lru.size", "lru.maxsize"} <= gauge_paths

    def test_each_tier_event_is_counted_once(self):
        """The exposition reads tier counts from ``cache_stats`` only.

        Two batches of 6 on a two-shard local fleet miss the router's
        LRU 6 times and each shard's 3 times; the projected leaves are
        exactly those, and no registry family re-counts them (a
        process-global twin would add all three LRUs under one label).
        """
        instances = [family_instance("minbusy", s)[0] for s in range(6)]
        with ShardedClient.from_specs(["local", "local"]) as fleet:
            fleet.solve_many(instances)
            fleet.solve_many(instances)
            stats = fleet.cache_stats()
        doc = expo.metrics_document(obs_metrics.REGISTRY, stats)
        names = {m["name"] for m in doc["metrics"]}
        assert not names & {
            "repro_tier_requests_total",
            "repro_repair_probes_total",
            "repro_shard_attempts_total",
        }
        (counters,) = [
            m for m in doc["metrics"] if m["name"] == "repro_stats_counter"
        ]
        projected = {
            s["labels"]["path"]: s["value"] for s in counters["samples"]
        }
        shards = stats["shards"]
        expected = {
            "lru.misses": stats["lru"]["misses"],
            "shards.shard0.lru.misses": shards["shard0"]["lru"]["misses"],
            "shards.shard1.lru.misses": shards["shard1"]["lru"]["misses"],
        }
        assert expected == {
            "lru.misses": 6,
            "shards.shard0.lru.misses": 3,
            "shards.shard1.lru.misses": 3,
        }
        assert {path: projected[path] for path in expected} == expected


# ---------------------------------------------------------------------------
# trace spans
# ---------------------------------------------------------------------------


class TestTrace:
    def test_disabled_tracing_is_a_noop(self):
        obs_trace.disable_tracing()
        obs_trace.clear_ring()
        with obs_trace.span("should.not.record") as sp:
            assert sp is obs_trace.NOOP_SPAN
        assert obs_trace.ring_spans() == []

    def test_nested_spans_share_a_trace_and_link_parents(self, tracing):
        with obs_trace.span("outer") as outer:
            with obs_trace.span("inner") as inner:
                pass
        spans = obs_trace.trace_spans(outer.trace_id)
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"]["parent_id"] == outer.span_id
        assert by_name["inner"]["trace_id"] == outer.trace_id
        tree = obs_trace.render_tree(outer.trace_id)
        assert tree.index("outer") < tree.index("inner")

    def test_adopted_context_reparents_remote_spans(self, tracing):
        # Simulate the wire: serialize the client context, adopt it in
        # a "server" scope, ingest the recorded spans client-side.
        with obs_trace.span("client.op") as client_span:
            trace_doc = obs_trace.wire_context()
        scope = obs_trace.recording_scope()
        with scope as recorded:
            with obs_trace.adopted(trace_doc):
                with obs_trace.span("server.op"):
                    pass
        assert len(recorded) == 1
        assert recorded[0]["trace_id"] == client_span.trace_id
        assert recorded[0]["parent_id"] == client_span.span_id

    def test_ingest_dedupes_by_span_id(self, tracing):
        doc = {
            "trace_id": obs_trace.new_id(),
            "span_id": obs_trace.new_id(),
            "parent_id": None,
            "name": "dup",
            "start": 0.0,
            "duration_ms": 1.0,
            "pid": 1,
        }
        assert obs_trace.ingest([doc, doc]) == 1
        assert obs_trace.ingest([doc]) == 0

    def test_error_spans_record_the_exception(self, tracing):
        with pytest.raises(RuntimeError):
            with obs_trace.span("will.fail") as sp:
                raise RuntimeError("boom")
        (doc,) = obs_trace.trace_spans(sp.trace_id)
        assert doc["error"] == "RuntimeError"

    def test_trace_dir_sink_writes_jsonl(self, tracing, tmp_path, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_DIR_ENV_VAR, str(tmp_path))
        with obs_trace.span("sunk") as sp:
            pass
        files = list(tmp_path.glob("spans-*.jsonl"))
        assert len(files) == 1
        docs = [json.loads(line) for line in files[0].read_text().splitlines()]
        assert any(d["span_id"] == sp.span_id for d in docs)


# ---------------------------------------------------------------------------
# end-to-end: spans over the wire, metrics wire op
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def live_port():
    server = SolveServer(host="127.0.0.1", port=0)
    with server.run_in_thread() as handle:
        yield handle.port


class TestWire:
    def test_remote_solve_reassembles_one_tree(self, tracing, live_port):
        with RemoteSession(port=live_port) as remote:
            instance, kwargs = family_instance("minbusy", 11)
            with obs_trace.span("test.root") as root:
                remote.solve(instance, **kwargs)
        spans = obs_trace.trace_spans(root.trace_id)
        names = {s["name"] for s in spans}
        assert "remote.solve" in names
        assert any(n.startswith("server.") for n in names)
        # every span belongs to the one trace and parents resolve
        ids = {s["span_id"] for s in spans}
        for s in spans:
            assert s["trace_id"] == root.trace_id
            if s["parent_id"] is not None:
                assert s["parent_id"] in ids
        tree = obs_trace.render_tree(root.trace_id)
        assert "test.root" in tree.splitlines()[1]

    def test_untraced_peer_sees_no_trace_key(self, live_port):
        # Tracing disabled: the hello must not advertise the trace
        # capability and responses carry no trace payload.
        obs_trace.disable_tracing()
        with ServiceClient(port=live_port) as client:
            instance, kwargs = family_instance("minbusy", 12)
            from repro.api.remote import RemoteSession as RS

            with RS(port=live_port) as remote:
                remote.solve(instance, **kwargs)
            doc = client.health()
            assert "trace" not in doc

    def test_metrics_wire_op_returns_a_snapshot_document(self, live_port):
        with ServiceClient(port=live_port) as client:
            doc = client.metrics()
        assert doc["schema"] == METRICS_SCHEMA
        names = {m["name"] for m in doc["metrics"]}
        assert "repro_server_requests_total" in names
        # the projection carries the untouched cache_stats counters
        assert "repro_stats_counter" in names or "repro_stats_gauge" in names
        assert expo.validate_prometheus(expo.render_prometheus(doc)) == []

    def test_shard_snapshots_merge_exactly(self, live_port):
        with ServiceClient(port=live_port) as client:
            one = client.metrics()
            two = client.metrics()
        merged = merge_snapshots([one, two])
        by_name = {m["name"]: m for m in merged["metrics"]}
        fam = by_name["repro_server_requests_total"]
        total = sum(s["value"] for s in fam["samples"])
        single = sum(
            s["value"]
            for m in two["metrics"]
            if m["name"] == "repro_server_requests_total"
            for s in m["samples"]
        )
        assert total > single  # summed, not last-write-wins


class TestTracedReplay:
    """Traced repeats replay from the one replay tier, spans included."""

    @pytest.fixture()
    def port(self):
        server = SolveServer(port=0, session=Session(store_path=None))
        with server.run_in_thread() as handle:
            yield handle.port

    def test_traced_warm_solves_keep_wire_counters_consistent(
        self, tracing, port
    ):
        doc, _ = family_request("capacity", 31)
        for wire in ("ndjson", "binary"):
            with ServiceClient(port=port, wire=wire) as client:
                assert client.trace_ok
                for _ in range(4):
                    with obs_trace.span("test.root"):
                        client.solve(doc, "capacity")
        with ServiceClient(port=port, wire="ndjson") as client:
            stats = client.cache_stats()["wire"]
        by_format = stats["by_format"].values()
        assert stats["hits"] == sum(f["hits"] for f in by_format) >= 6
        assert stats["misses"] == sum(f["misses"] for f in by_format)
        assert stats["size"] >= 1

    def test_traced_hit_returns_a_server_solve_span(self, tracing, port):
        doc, _ = family_request("ring", 32)
        with ServiceClient(port=port, wire="ndjson") as client:
            client.solve(doc, "ring")
            hits = client.cache_stats()["wire"]["hits"]
            with obs_trace.span("test.root") as root:
                warm = client.solve(doc, "ring")
            assert client.cache_stats()["wire"]["hits"] == hits + 1
        assert warm["from_cache"]
        names = {s["name"] for s in obs_trace.trace_spans(root.trace_id)}
        assert "server.solve" in names


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_sigterm_drains_and_exits_zero(self):
        proc, port = spawn_serve_subprocess("--drain-timeout", "5")
        try:
            with RemoteSession(port=port) as remote:
                instance, kwargs = family_instance("minbusy", 13)
                result = remote.solve(instance, **kwargs)
                assert result is not None
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)

    def test_drain_reports_draining_health(self):
        # The drain switch flips the health op to "draining" so load
        # balancers stop routing before the listener closes; asserted
        # at the unit level (the subprocess window is racy).
        server = SolveServer(host="127.0.0.1", port=0)
        from repro.service.protocol import health_doc

        assert health_doc(server)["status"] == "healthy"
        server._draining = True
        assert health_doc(server)["status"] == "draining"
