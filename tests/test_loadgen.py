"""The loadgen subsystem: traffic, validation, minimization, driver.

Live-service tests host :class:`repro.service.server.SolveServer`
in-process (``run_in_thread``) with explicit store-less sessions, so
they exercise the real wire path without subprocess spawn costs; the
CI ``loadgen-smoke`` job covers the subprocess/SIGKILL fleet variant.
"""

import json

import numpy as np
import pytest

from repro.api import EngineConfig, Session
from repro.loadgen import (
    LoadgenOptions,
    OracleValidator,
    TrafficModel,
    ddmin,
    load_reproducer,
    minimize_instance,
    mutate_document,
    replay_reproducer,
    run_loadgen,
    write_reproducer,
)
from repro.loadgen.report import percentile
from repro.loadgen.traffic import ALL_FAMILIES, MUTATIONS, items_key
from repro.service.server import SolveServer


def make_session() -> Session:
    return Session(EngineConfig(store_path=None, backend="serial"))


# ----------------------------------------------------------------------
# traffic model
# ----------------------------------------------------------------------


class TestTrafficModel:
    def test_corpus_covers_every_family(self):
        tm = TrafficModel(seed=0)
        assert {e.family for e in tm.corpus} == set(ALL_FAMILIES)

    def test_adversarial_tail_is_least_popular(self):
        tm = TrafficModel(seed=0, adversarial_tail=4)
        tail = tm.corpus[-4:]
        assert all(e.adversarial for e in tail)
        assert not any(e.adversarial for e in tm.corpus[:-4])
        # Zipf rank order: the tail gets the smallest weights.
        assert tm._weights[-1] == min(tm._weights)
        assert tm._weights[0] == max(tm._weights)

    def test_plan_is_deterministic(self):
        a = TrafficModel(seed=9, fuzz=True).plan(60)
        b = TrafficModel(seed=9, fuzz=True).plan(60)
        assert [r.wire_doc() for r in a] == [r.wire_doc() for r in b]

    def test_different_seeds_differ(self):
        a = [r.wire_doc() for r in TrafficModel(seed=1).plan(30)]
        b = [r.wire_doc() for r in TrafficModel(seed=2).plan(30)]
        assert a != b

    def test_zipf_skew_concentrates_head(self):
        tm = TrafficModel(seed=3, zipf=1.2)
        picks = [r.entries[0] for r in tm.plan(400) if r.kind == "solve"]
        head = sum(1 for p in picks if p < 8)
        assert head > len(picks) * 0.5  # 8/48 entries take most traffic

    def test_batches_share_family_and_params(self):
        tm = TrafficModel(seed=4, solve_many_fraction=0.5)
        batches = [r for r in tm.plan(120) if r.kind == "solve_many"]
        assert batches
        for req in batches:
            entries = [tm.corpus[i] for i in req.entries]
            assert len(req.docs) >= 2
            assert {e.family for e in entries} == {req.family}
            for e in entries:
                assert e.params == req.params

    def test_fuzz_produces_mutations_and_framing(self):
        tm = TrafficModel(seed=6, fuzz=True, fuzz_fraction=0.6)
        plan = tm.plan(200)
        mutations = {r.mutation for r in plan if r.mutation}
        assert any(m in MUTATIONS for m in mutations)
        assert any(r.drop_connection for r in plan)
        assert any(r.abandon_after is not None for r in plan)

    def test_no_fuzz_means_no_mutations(self):
        assert not any(r.mutation for r in TrafficModel(seed=6).plan(200))

    def test_corpus_size_floor_is_validated(self):
        with pytest.raises(ValueError, match="corpus_size"):
            TrafficModel(seed=0, corpus_size=5)


class TestMutations:
    @pytest.mark.parametrize("family", sorted(ALL_FAMILIES))
    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_returns_fresh_document(self, family, mutation):
        tm = TrafficModel(seed=1)
        entry = next(e for e in tm.corpus if e.family == family)
        rng = np.random.default_rng(0)
        mutated = mutate_document(family, entry.doc, mutation, rng)
        assert mutated is not entry.doc  # deep copy, original untouched
        key = items_key(family)
        if mutation == "dup-item":
            assert len(mutated[key]) == len(entry.doc[key]) + 1
        elif mutation == "zero-g":
            assert mutated["g"] == 0
        elif mutation == "drop-items":
            assert not isinstance(mutated[key], list)

    @pytest.mark.parametrize(
        "mutation", ["break-item", "zero-g", "drop-items"]
    )
    def test_invalid_mutations_are_oracle_rejected(self, mutation):
        tm = TrafficModel(seed=1)
        entry = next(e for e in tm.corpus if e.family == "rect2d")
        rng = np.random.default_rng(0)
        doc = mutate_document("rect2d", entry.doc, mutation, rng)
        with OracleValidator() as validator:
            exp = validator.expected("rect2d", doc, entry.params)
            assert exp.error is not None

    @pytest.mark.parametrize("mutation", ["shuffle-items", "dup-item"])
    def test_valid_mutations_stay_solvable(self, mutation):
        tm = TrafficModel(seed=1)
        entry = next(e for e in tm.corpus if e.family == "minbusy")
        rng = np.random.default_rng(0)
        doc = mutate_document("minbusy", entry.doc, mutation, rng)
        with OracleValidator() as validator:
            exp = validator.expected("minbusy", doc, entry.params)
            assert exp.error is None


# ----------------------------------------------------------------------
# oracle validation
# ----------------------------------------------------------------------


class TestOracleValidator:
    def test_live_server_responses_validate(self):
        tm = TrafficModel(seed=2)
        server = SolveServer(session=make_session())
        with server.run_in_thread() as handle:
            from repro.service.client import ServiceClient

            with OracleValidator() as validator, ServiceClient(
                port=handle.port
            ) as client:
                for entry in tm.corpus[:6]:
                    request = {
                        "op": "solve",
                        "objective": entry.family,
                        "instance": entry.doc,
                    }
                    if entry.params:
                        request["params"] = entry.params
                    response = client.request(request)
                    outcome = validator.check(
                        entry.family, entry.doc, entry.params, response
                    )
                    assert outcome.status == "validated", outcome.detail

    def test_perturbed_cost_is_divergence(self):
        tm = TrafficModel(seed=2)
        entry = next(e for e in tm.corpus if e.family == "minbusy")
        with OracleValidator() as validator:
            exp = validator.expected(entry.family, entry.doc, entry.params)
            served = json.loads(exp.canonical)
            served["cost"] = (served["cost"] or 0.0) + 0.5
            outcome = validator.check(
                entry.family, entry.doc, entry.params,
                {"ok": True, "result": served},
            )
            assert outcome.status == "divergence"
            assert "cost" in outcome.detail

    def test_error_for_solvable_content_is_unexpected(self):
        tm = TrafficModel(seed=2)
        entry = tm.corpus[0]
        with OracleValidator() as validator:
            outcome = validator.check(
                entry.family, entry.doc, entry.params,
                {
                    "ok": False,
                    "error": {"type": "RuntimeError", "message": "boom"},
                },
            )
            assert outcome.status == "unexpected-error"

    def test_allowed_error_types_pass(self):
        tm = TrafficModel(seed=2)
        entry = tm.corpus[0]
        with OracleValidator() as validator:
            outcome = validator.check(
                entry.family, entry.doc, entry.params,
                {
                    "ok": False,
                    "error": {"type": "SolveTimeout", "message": "deadline"},
                },
                allowed_errors=("SolveTimeout",),
            )
            assert outcome.status == "expected-error"

    def test_both_reject_is_expected_error(self):
        with OracleValidator() as validator:
            outcome = validator.check(
                "minbusy",
                {"g": 0, "jobs": []},
                {},
                {
                    "ok": False,
                    "error": {"type": "InstanceError", "message": "g >= 1"},
                },
            )
            assert outcome.status == "expected-error"

    def test_ok_for_invalid_content_is_divergence(self):
        with OracleValidator() as validator:
            outcome = validator.check(
                "minbusy",
                {"g": 0, "jobs": []},
                {},
                {"ok": True, "result": {"objective": "minbusy", "cost": 0.0}},
            )
            assert outcome.status == "divergence"


# ----------------------------------------------------------------------
# minimization + reproducers
# ----------------------------------------------------------------------


class TestMinimize:
    def test_ddmin_finds_single_culprit(self):
        items = list(range(20))

        def fails(subset):
            return 13 in subset

        assert ddmin(items, fails) == [13]

    def test_ddmin_finds_pair(self):
        items = list(range(16))

        def fails(subset):
            return 3 in subset and 11 in subset

        assert sorted(ddmin(items, fails)) == [3, 11]

    def test_minimize_instance_shrinks_along_items(self):
        doc = {
            "g": 2,
            "jobs": [
                {"start": float(i), "end": float(i + 2), "weight": 1.0}
                for i in range(12)
            ],
        }

        def fails(candidate):
            return any(j["start"] == 7.0 for j in candidate["jobs"])

        minimized = minimize_instance("minbusy", doc, fails)
        assert len(minimized["jobs"]) == 1
        assert minimized["jobs"][0]["start"] == 7.0
        assert minimized["g"] == 2
        assert len(doc["jobs"]) == 12  # input untouched

    def test_minimize_refuses_flaky_failures(self):
        doc = {"g": 2, "jobs": [{"start": 0.0, "end": 1.0}] * 4}
        minimized = minimize_instance("minbusy", doc, lambda d: False)
        assert minimized == doc

    def test_reproducer_round_trip(self, tmp_path):
        from repro.loadgen import reproducer_record

        record = reproducer_record(
            family="rect2d",
            doc={"g": 3, "rects": [1, 2, 3]},
            minimized={"g": 3, "rects": [2]},
            params={},
            failure_status="divergence",
            failure_detail="cost off by 0.5",
            mutation=None,
            use_cache=True,
            seed=7,
        )
        path = write_reproducer(record, tmp_path)
        assert path.name.startswith("repro-rect2d-")
        loaded = load_reproducer(path)
        assert loaded["objective"] == "rect2d"
        assert loaded["instance"] == {"g": 3, "rects": [2]}
        assert loaded["items"] == {"key": "rects", "before": 3, "after": 1}
        assert loaded["repro_loadgen"] == 1

    def test_reproducer_name_is_content_addressed(self, tmp_path):
        from repro.loadgen import reproducer_record

        def rec(detail):
            return reproducer_record(
                family="minbusy",
                doc={"g": 1, "jobs": []},
                minimized={"g": 1, "jobs": []},
                params={},
                failure_status="divergence",
                failure_detail=detail,
                mutation=None,
                use_cache=True,
                seed=0,
            )

        # Same content, different failure text -> same file (dedup).
        assert write_reproducer(rec("a"), tmp_path) == write_reproducer(
            rec("b"), tmp_path
        )

    def test_load_reproducer_rejects_garbage(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not a readable JSON"):
            load_reproducer(bad)
        bad.write_text(json.dumps({"instance": {}}))
        with pytest.raises(ValueError, match="repro_loadgen"):
            load_reproducer(bad)
        bad.write_text(json.dumps({"repro_loadgen": 1, "objective": "x"}))
        with pytest.raises(ValueError, match="instance"):
            load_reproducer(bad)


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


class TestReport:
    def test_percentile_nearest_rank(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0
        assert 49.0 <= percentile(values, 0.5) <= 51.0
        assert percentile([], 0.5) == 0.0

    def test_restarted_target_counts_its_after_snapshot_alone(self):
        """A target whose counters went down restarted mid-run (rolling
        restarts rotate connections): its tier counts are its ``after``
        snapshot, never a negative delta."""
        from repro.loadgen.driver import _fleet_counters

        before = {"h:1": {"lru": {"hits": 100, "misses": 20}}}
        after = {"h:1": {"lru": {"hits": 5, "misses": 7}}}
        assert _fleet_counters(before, after)["tiers"] == {
            "lru": {"hits": 5, "misses": 7, "hit_rate": pytest.approx(5 / 12)}
        }

    def test_fleet_counters_sum_run_deltas_across_targets(self):
        from repro.loadgen.driver import _fleet_counters

        before = {"h:1": {"lru": {"hits": 1, "misses": 2}}}
        after = {
            "h:1": {
                "lru": {"hits": 4, "misses": 2},
                "orphaned_batches": {"live": 1, "cap": 8},
            },
            # no ``before`` snapshot: counted from its ``after`` alone
            "h:2": {
                "lru": {"hits": 1, "misses": 1},
                "orphaned_batches": {"live": 0, "cap": 8},
            },
        }
        counters = _fleet_counters(before, after)
        assert counters["tiers"] == {
            "lru": {"hits": 4, "misses": 1, "hit_rate": pytest.approx(0.8)}
        }
        assert counters["orphaned_batches"] == {"live": 1, "cap": 16}



# ----------------------------------------------------------------------
# the driver against a live in-process server
# ----------------------------------------------------------------------


class TestDriver:
    def test_clean_run_validates_everything(self):
        server = SolveServer(session=make_session())
        with server.run_in_thread() as handle:
            options = LoadgenOptions(
                targets=[("127.0.0.1", handle.port)],
                max_requests=50,
                concurrency=4,
            )
            report = run_loadgen(options, TrafficModel(seed=3))
        validation = report["validation"]
        assert report["answered"] == report["requests"] == 50
        assert validation["checked"] > 0
        assert validation["validated_fraction"] == 1.0
        assert validation["divergences"] == 0
        assert validation["unexpected_errors"] == 0
        assert report["transport"]["failed"] == 0
        assert "lru" in report["tiers"]
        assert "wire" in report["tiers"]

    def test_fuzz_run_stays_clean_and_server_survives(self):
        server = SolveServer(session=make_session())
        with server.run_in_thread() as handle:
            options = LoadgenOptions(
                targets=[("127.0.0.1", handle.port)],
                max_requests=80,
                concurrency=4,
                minimize=False,
            )
            traffic = TrafficModel(seed=11, fuzz=True, fuzz_fraction=0.5)
            report = run_loadgen(options, traffic)
            validation = report["validation"]
            assert validation["divergences"] == 0, report["failures"][:2]
            assert validation["unexpected_errors"] == 0, report["failures"][:2]
            assert report["transport"]["failed"] == 0
            # Framing chaos actually happened and was survived.
            assert (
                report["transport"]["abandoned"]
                + report["transport"]["dropped"]
                > 0
            )
            from repro.service.client import ServiceClient

            with ServiceClient(port=handle.port) as client:
                assert client.ping()

    def test_injected_fault_is_caught_minimized_and_replayable(
        self, tmp_path
    ):
        faulty = SolveServer(
            session=make_session(), inject_fault="rect2d:0.5"
        )
        with faulty.run_in_thread() as handle:
            options = LoadgenOptions(
                targets=[("127.0.0.1", handle.port)],
                max_requests=60,
                concurrency=4,
                reproducer_dir=tmp_path,
            )
            report = run_loadgen(options, TrafficModel(seed=3))
            assert report["validation"]["divergences"] > 0
            assert report["reproducers"], "divergence was not minimized"
            repro_path = report["reproducers"][0]
            record = load_reproducer(repro_path)
            assert record["objective"] == "rect2d"
            # ddmin shrank the instance.
            assert record["items"]["after"] <= record["items"]["before"]
            # Replay against the still-faulty server: reproduces.
            outcome, replay = replay_reproducer(
                repro_path, [("127.0.0.1", handle.port)]
            )
            assert replay["reproduced"] is True
            assert outcome.status == "divergence"
        # Replay against a clean server: fixed.
        clean = SolveServer(session=make_session())
        with clean.run_in_thread() as handle2:
            outcome, replay = replay_reproducer(
                repro_path, [("127.0.0.1", handle2.port)]
            )
            assert replay["reproduced"] is False
            assert outcome.status == "validated"

    def test_options_require_a_bound(self):
        with pytest.raises(ValueError, match="duration"):
            LoadgenOptions(
                targets=[("h", 1)], duration=None, max_requests=None
            )
        with pytest.raises(ValueError, match="target"):
            LoadgenOptions(targets=[])

    def test_unreachable_fleet_raises_connection_error(self):
        options = LoadgenOptions(
            targets=[("127.0.0.1", 1)], max_requests=1, timeout=2.0
        )
        with pytest.raises(ConnectionError):
            run_loadgen(options, TrafficModel(seed=0))


# ----------------------------------------------------------------------
# orphaned-batch cap (service regression)
# ----------------------------------------------------------------------


class TestOrphanedBatchCap:
    def test_orphans_are_capped_and_counted(self):
        from repro.io import instance_to_dict
        from repro.service.client import ServiceClient, ServiceError
        from repro.workloads.generators import random_general_instance

        server = SolveServer(
            session=make_session(),
            backend="serial",
            max_orphaned_batches=2,
        )
        # Instances must be slow enough (~300ms each) that the orphaned
        # batches outlive the whole request loop; otherwise an orphan can
        # complete between requests and the cap never trips.
        docs = [
            instance_to_dict(random_general_instance(6000, 3, seed=s))
            for s in range(4)
        ]
        with server.run_in_thread() as handle:
            error_types = []
            for i in range(5):
                with ServiceClient(port=handle.port, timeout=30.0) as c:
                    try:
                        c.request(
                            {
                                "op": "solve_many",
                                "objective": "minbusy",
                                "instances": [
                                    docs[i % 4], docs[(i + 1) % 4]
                                ],
                                "deadline": 0.0001,
                                "cache": False,
                            }
                        )
                    except ServiceError as exc:
                        error_types.append(exc.type)
            with ServiceClient(port=handle.port, timeout=10.0) as c:
                stats = c.cache_stats()
        orphaned = stats["orphaned_batches"]
        assert orphaned["cap"] == 2
        assert orphaned["live"] <= 2
        assert orphaned["total"] >= 2
        assert orphaned["rejected"] >= 1
        assert "RuntimeError" in error_types  # the cap rejection
        assert "TimeoutError" in error_types  # the orphaning itself

    def test_default_stats_expose_orphan_counters(self):
        server = SolveServer(session=make_session())
        with server.run_in_thread() as handle:
            from repro.service.client import ServiceClient

            with ServiceClient(port=handle.port) as c:
                stats = c.cache_stats()
        assert stats["orphaned_batches"] == {
            "live": 0,
            "total": 0,
            "completed": 0,
            "rejected": 0,
            "cap": 8,
        }
        assert "fault_injection" not in stats

    def test_fault_injection_is_visible_in_stats(self):
        from repro.service.client import ServiceClient

        tm = TrafficModel(seed=2)
        entry = next(e for e in tm.corpus if e.family == "minbusy")
        server = SolveServer(
            session=make_session(), inject_fault="minbusy:1.0"
        )
        with server.run_in_thread() as handle:
            with ServiceClient(port=handle.port) as c:
                c.request(
                    {
                        "op": "solve",
                        "objective": "minbusy",
                        "instance": entry.doc,
                    }
                )
                stats = c.cache_stats()
        assert stats["fault_injection"]["objective"] == "minbusy"
        assert stats["fault_injection"]["injected"] >= 1
