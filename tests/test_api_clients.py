"""The SolverClient conformance suite: local ≡ remote ≡ sharded.

The acceptance bar of the session redesign: :class:`repro.api.Session`
(in-process), :class:`repro.api.RemoteSession` (over a *live* ``repro
serve`` subprocess on a real socket), and
:class:`repro.api.ShardedClient` (≥ 2 shards, mixing a local session
with remote ones) must all pass ONE shared conformance suite with
byte-identical canonical result documents across all eight objective
families — ``solve``, ``solve_many`` and ``solve_stream`` alike.

Alongside it: the session-isolation suite (two sessions with different
stores never cross-contaminate hits — concurrently too), and the
thread-safety regression for env-following store rebinding.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import (
    FOLLOW_ENV,
    EngineConfig,
    RemoteSession,
    Session,
    ShardedClient,
    SolverClient,
)
from repro.service.protocol import result_to_doc
from tests.helpers import (
    ALL_FAMILIES,
    family_instance,
    spawn_serve_subprocess,
)

SEEDS = range(10)


def canonical(result) -> str:
    """The client-independent rendering of one result (timing and
    cache provenance dropped; everything else must match byte-for-byte
    whatever transport produced it)."""
    doc = result_to_doc(result)
    doc.pop("solve_seconds")
    doc.pop("from_cache")
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def live_server():
    """A real ``repro serve`` subprocess driven over a real socket."""
    proc, port = spawn_serve_subprocess()
    yield port
    proc.terminate()
    proc.wait(timeout=10)


@pytest.fixture()
def make_client(request, live_server, tmp_path):
    """One factory per client kind; every client it makes is closed."""
    kind = request.param
    made = []

    def factory() -> SolverClient:
        if kind == "session":
            client = Session(store_path=None)
        elif kind == "remote":
            client = RemoteSession(port=live_server)
        elif kind == "remote-binary":
            # Same live server, binary frames on the wire: the whole
            # conformance suite re-runs over the negotiated upgrade.
            client = RemoteSession(port=live_server, wire="binary")
        elif kind == "sharded":
            # two local shards + one remote = 3 shards
            client = ShardedClient(
                [
                    Session(store_path=None),
                    Session(store_path=None),
                    RemoteSession(port=live_server),
                ]
            )
        else:  # sharded-mixed-wire: one binary remote, one NDJSON
            client = ShardedClient(
                [
                    RemoteSession(port=live_server, wire="binary"),
                    RemoteSession(port=live_server, wire="ndjson"),
                ]
            )
        made.append(client)
        return client

    yield factory
    for client in made:
        client.close()


CLIENT_KINDS = [
    "session",
    "remote",
    "remote-binary",
    "sharded",
    "sharded-mixed-wire",
]


def reference_docs(family: str):
    pairs = [family_instance(family, seed) for seed in SEEDS]
    instances = [inst for inst, _ in pairs]
    params = pairs[0][1]
    ref = Session(store_path=None)
    docs = [
        canonical(r)
        for r in ref.solve_many(
            instances, family, use_cache=False, **params
        )
    ]
    ref.close()
    return instances, params, docs


@pytest.mark.parametrize("make_client", CLIENT_KINDS, indirect=True)
class TestSolverClientConformance:
    def test_implements_protocol(self, make_client):
        assert isinstance(make_client(), SolverClient)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_solve_many_byte_identical(self, make_client, family):
        instances, params, expected = reference_docs(family)
        client = make_client()
        got = [
            canonical(r)
            for r in client.solve_many(instances, family, **params)
        ]
        assert got == expected

    def test_solve_and_stream_match_batch(self, make_client):
        # One family per call shape is enough here — the full family
        # sweep above already pins the content; this pins the three
        # entry points against each other on every client kind.
        for family in ("minbusy", "rect2d", "energy"):
            instances, params, expected = reference_docs(family)
            client = make_client()
            assert (
                canonical(client.solve(instances[0], family, **params))
                == expected[0]
            )
            streamed = client.solve_stream(instances, family, **params)
            assert [canonical(r) for r in streamed] == expected

    def test_objectives_and_cache_stats_shapes(self, make_client):
        client = make_client()
        assert client.objectives() == sorted(ALL_FAMILIES)
        stats = client.cache_stats()
        assert isinstance(stats, dict) and stats
        # Every terminal value is a scalar counter, whatever the
        # nesting (tiers for sessions, shards of tiers for the sharded
        # client, wire counters beside nested per-format dicts for
        # remote ones) — no lists or exotic objects anywhere.
        def scalar_leaves(node):
            for v in node.values():
                if isinstance(v, dict):
                    yield from scalar_leaves(v)
                else:
                    yield v
        assert all(
            isinstance(v, (int, float, str, bool, type(None)))
            for v in scalar_leaves(stats)
        )

    def test_context_manager_closes(self, make_client):
        with make_client() as client:
            client.solve(family_instance("minbusy", 0)[0])


class TestRemoteSpecifics:
    def test_streaming_is_lazy_and_ordered(self, live_server):
        instances = [family_instance("minbusy", s)[0] for s in range(5)]
        with RemoteSession(port=live_server) as remote:
            stream = remote.solve_stream(instances)
            first = next(stream)
            rest = list(stream)
        fingerprints = [first.fingerprint] + [r.fingerprint for r in rest]
        ref = Session(store_path=None)
        expected = [
            r.fingerprint for r in ref.solve_many(instances, "minbusy")
        ]
        assert fingerprints == expected

    def test_connection_survives_partial_stream_consumers(
        self, live_server
    ):
        """Pulling exactly n items from a stream must leave the
        connection synchronized for the next request (regression: the
        terminal ``done`` line used to stay unread)."""
        instances = [family_instance("ring", s)[0] for s in range(3)]
        with RemoteSession(port=live_server) as remote:
            stream = remote.solve_stream(instances, "ring")
            got = [next(stream) for _ in range(3)]  # exactly n pulls
            after = remote.solve(instances[0], "ring")
        assert canonical(after) == canonical(got[0])

    def test_mixed_param_batch_falls_back_per_item(self, live_server):
        """A batch whose normalized instances carry *different* folded
        params (two power models) must still match the local session
        (regression: one wire params doc used to be applied to all)."""
        from repro.energy import PowerModel
        from repro.energy.instance import EnergyInstance

        base_a, _ = family_instance("minbusy", 1)
        base_b, _ = family_instance("minbusy", 2)
        mixed = [
            EnergyInstance(base_a, PowerModel(wake_cost=1.0)),
            EnergyInstance(base_b, PowerModel(wake_cost=9.0)),
        ]
        ref = Session(store_path=None)
        expected = [
            canonical(r)
            for r in ref.solve_many(mixed, "energy", use_cache=False)
        ]
        with RemoteSession(port=live_server) as remote:
            got = [
                canonical(r) for r in remote.solve_many(mixed, "energy")
            ]
        assert got == expected
        ref.close()

    def test_verify_flag_runs_locally(self, live_server):
        inst, _ = family_instance("minbusy", 6)
        with RemoteSession(port=live_server) as remote:
            result = remote.solve(inst, verify=True)
        assert result.cost >= 0

    def test_schedule_rebound_to_local_jobs(self, live_server):
        inst, _ = family_instance("minbusy", 2)
        with RemoteSession(port=live_server) as remote:
            result = remote.solve(inst)
        assert result.schedule is not None
        plan_jobs = set(result.schedule.assignment)
        # The schedule speaks this process's normalized job objects,
        # not server-side reconstructions.
        assert plan_jobs <= set(inst.jobs)

    def test_empty_instance_keeps_schedule_over_the_wire(
        self, live_server
    ):
        """An empty minbusy instance carries an empty Schedule locally;
        the wire's has_schedule presence bit must preserve that
        (regression: RemoteSession used to return schedule=None and
        verify=True then exploded where Session succeeded)."""
        from repro.core.instance import Instance

        empty = Instance(jobs=(), g=2)
        local = Session(store_path=None).solve(empty, verify=True)
        with RemoteSession(port=live_server) as remote:
            served = remote.solve(empty, verify=True)
        assert served.schedule is not None
        assert served.schedule.assignment == {}
        assert served.schedule.g == 2
        assert canonical(served) == canonical(local)

    def test_abandoned_stream_keeps_connection_usable(
        self, live_server
    ):
        """Breaking out of a stream early must not desynchronize the
        connection: closing the generator drains the remaining
        response lines (regression: the next request used to read a
        stale batch line as its response)."""
        instances = [family_instance("minbusy", s)[0] for s in range(4)]
        other, _ = family_instance("rect2d", 1)
        with RemoteSession(port=live_server) as remote:
            stream = remote.solve_stream(instances)
            first = next(stream)
            stream.close()  # abandon after one of four results
            again = remote.solve(other, "rect2d")
        assert first.objective == "minbusy"
        assert again.objective == "rect2d"


class TestShardedSpecifics:
    def test_content_identical_instances_share_a_shard(self):
        shards = [Session(store_path=None) for _ in range(3)]
        client = ShardedClient(shards)
        base, _ = family_instance("minbusy", 4)
        twin, _ = family_instance("minbusy", 4)
        plan_a = client._plan(base, "minbusy", {})
        plan_b = client._plan(twin, "minbusy", {})
        assert client.shard_of(plan_a) == client.shard_of(plan_b)
        client.close()

    def test_duplicates_deduped_inside_owning_shard(self):
        shards = [Session(store_path=None) for _ in range(2)]
        client = ShardedClient(shards)
        base, _ = family_instance("minbusy", 5)
        twin, _ = family_instance("minbusy", 5)
        other, _ = family_instance("minbusy", 6)
        results = client.solve_many([base, other, twin])
        assert canonical(results[0]) == canonical(results[2])
        # The duplicate was deduped inside its owning shard: the two
        # unique fingerprints are cached exactly once across the fleet.
        sizes = [shard.cache_info().size for shard in shards]
        assert sum(sizes) == 2
        client.close()

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardedClient([])


class TestSessionIsolation:
    def test_disjoint_stores_never_cross_contaminate(self, tmp_path):
        inst, _ = family_instance("minbusy", 7)
        a = Session(store_path=tmp_path / "a")
        b = Session(store_path=tmp_path / "b")
        cold_a = a.solve(inst)
        assert not cold_a.from_cache
        # Same content in the other session: its tiers are empty.
        cold_b = b.solve(inst)
        assert not cold_b.from_cache
        assert canonical(cold_a) == canonical(cold_b)
        # Each session hits only its own store after an LRU wipe.
        a.clear_cache()
        warm_a = a.solve(inst)
        assert warm_a.from_cache
        assert a.store_stats().hits >= 1
        assert b.store_stats().hits == 0
        assert a.store_stats().puts == 1 and b.store_stats().puts == 1
        a.close()
        b.close()

    def test_concurrent_sessions_stay_disjoint(self, tmp_path):
        """Two sessions solving the same content concurrently never
        observe each other's tiers."""
        pairs = [family_instance("minbusy", s) for s in range(8)]
        instances = [inst for inst, _ in pairs]
        sessions = [
            Session(store_path=tmp_path / "x"),
            Session(store_path=tmp_path / "y"),
        ]
        seen = [[] for _ in sessions]
        errors = []

        def worker(idx):
            try:
                for _ in range(3):
                    for r in sessions[idx].solve_many(instances):
                        seen[idx].append(canonical(r))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert seen[0] == seen[1]  # identical bytes...
        for session in sessions:
            # ...but strictly private accounting: every put in a
            # session's store came from its own 8 cold solves.
            assert session.store_stats().puts == len(instances)
            session.close()

    def test_closed_session_refuses_solves(self):
        session = Session(store_path=None)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.solve(family_instance("minbusy", 0)[0])

    def test_closed_session_never_reopens_store(self, tmp_path):
        """close() releases the store handle for good: stats accessors
        degrade to the store-less view instead of re-opening it."""
        session = Session(store_path=tmp_path)
        session.solve(family_instance("minbusy", 1)[0])
        session.close()
        assert session.store() is None
        assert session.store_stats() is None
        assert list(session.cache_stats()) == ["lru"]


class TestDefaultSessionThreadSafety:
    """Regression: store rebinding of an env-following session (the
    one a bare ``SolveServer`` builds from ``EngineConfig.from_env()``)
    used to race on unguarded state."""

    def test_env_rebinding_race_is_coherent(self, tmp_path, monkeypatch):
        """Readers flipping through ``cache()`` while the env binding
        churns must only ever observe one of the two valid stacks —
        never a torn binding or an exception."""
        session = Session(EngineConfig.from_env())
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        stop = threading.Event()
        errors = []
        observed = set()

        def reader():
            valid = {None, dir_a, dir_b}
            while not stop.is_set():
                try:
                    stats = session.cache().stats()
                    path = (
                        stats["store"]["path"]
                        if "store" in stats
                        else None
                    )
                    observed.add(path)
                    assert path in valid, path
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for flip in range(60):
            monkeypatch.setenv(
                "REPRO_CACHE_DIR", dir_a if flip % 2 else dir_b
            )
        monkeypatch.delenv("REPRO_CACHE_DIR")
        stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        session.close()
        assert not errors
        assert observed  # the readers really ran


class TestEngineConfig:
    def test_deadline_requires_enforcing_backend(self):
        with pytest.raises(ValueError, match="async"):
            EngineConfig(backend="serial", deadline=1.0)
        with pytest.raises(ValueError, match="async"):
            EngineConfig(backend="process", deadline=1.0)
        assert EngineConfig(backend="auto", deadline=1.0).deadline == 1.0
        assert EngineConfig(backend="async", deadline=1.0).deadline == 1.0

    def test_session_auto_deadline_selects_async(self):
        session = Session(store_path=None, deadline=5.0)
        executor = session._executor(None, single=True)
        assert executor.name == "async"
        assert executor.deadline == 5.0
        session.close()

    def test_session_rejects_unenforceable_deadline_at_call(self):
        session = Session(store_path=None)
        inst, _ = family_instance("minbusy", 0)
        with pytest.raises(ValueError, match="async"):
            session.solve(inst, backend="serial", deadline=0.5)
        session.close()

    def test_from_env_rejects_malformed_values_actionably(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DEADLINE", "5s")
        with pytest.raises(ValueError, match="REPRO_DEADLINE"):
            EngineConfig.from_env()
        monkeypatch.delenv("REPRO_DEADLINE")
        monkeypatch.setenv("REPRO_WORKERS", "four")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            EngineConfig.from_env()

    def test_from_env_reads_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_CACHE_SIZE", "99")
        config = EngineConfig.from_env()
        assert config.backend == "serial"
        assert config.workers == 3
        assert config.cache_size == 99
        assert config.store_path is FOLLOW_ENV

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="threads")
        with pytest.raises(ValueError, match="cache_size"):
            EngineConfig(cache_size=0)
        with pytest.raises(ValueError, match="workers"):
            EngineConfig(workers=0)
