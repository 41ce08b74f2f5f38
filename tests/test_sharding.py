"""Sharding as engine layers: partitioners, failover, fleet health.

Four suites over the sharded stack introduced with the
``ShardedExecutor``:

* **Partitioners** — the CRC32-modulo oracle, the weighted
  consistent-hash ring (byte-stable layout pinned by digest; a
  one-node reshard over 1000 keys moves *only* the departed shard's
  keys, < 2/N of the space), and the preference-order contract both
  share.
* **Circuits** — healthy → suspect → ejected transitions with
  exponential re-probe backoff, driven by a fake clock.
* **ShardedExecutor** — the :class:`~repro.engine.executors.Executor`
  protocol under ``Session``: a dead shard's slice re-routes to
  survivors with byte-identical merged results, an all-dead fleet
  raises :class:`~repro.engine.ShardFleetError`, hedged requests beat
  a slow shard, and (the dedup acceptance test) each unique
  fingerprint crosses the fleet exactly once.
* **Live fleets** — three real ``repro serve`` subprocesses: SIGKILL
  one mid-``solve_many`` and the merged canonical documents stay
  byte-identical to a single local session; per-shard ``cache_stats``
  and the ``health`` op aggregate over the wire; abandoned
  ``solve_stream`` generators leak no pump threads past ``close()``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import zlib

import pytest

from repro.api import (
    EngineConfig,
    RemoteSession,
    Session,
    ShardedClient,
    parse_shard_entry,
    parse_shards,
)
from repro.engine import ShardedExecutor, ShardFleetError
from repro.engine.engine import plan_solve
from repro.engine.executors import Executor, SerialExecutor
from repro.engine.health import (
    EJECTED,
    HEALTHY,
    SUSPECT,
    FleetHealth,
    ShardCircuit,
)
from repro.engine.partition import Partitioner, RingPartitioner
from repro.service.client import ServiceClient
from repro.service.protocol import health_doc, result_to_doc
from tests.helpers import (
    ModuloPartitioner,
    family_instance,
    spawn_serve_subprocess,
)

#: The ring layout for three equal shards, pinned byte-for-byte: any
#: change to vnode hashing/naming/sorting is a whole-fleet keyspace
#: remap and must arrive as a deliberate digest bump, not an accident.
RING3_DIGEST = (
    "5bf115ef0f010452b74f412e54cfc57ff2caa98972d27f7b30f477f7ce5a11f1"
)
RING_1_2_DIGEST = (
    "5920c1d16dbadf513f1e55fdc81182b8292320cfbc855707bbb68a4ab5537420"
)


def canonical(result) -> str:
    """Client-independent rendering (timing/cache provenance dropped)."""
    doc = result_to_doc(result)
    doc.pop("solve_seconds")
    doc.pop("from_cache")
    return json.dumps(doc, sort_keys=True)


def minbusy_batch(n: int, offset: int = 0):
    return [
        family_instance("minbusy", seed)[0]
        for seed in range(offset, offset + n)
    ]


def local_shard() -> Session:
    return Session(EngineConfig(store_path=None))


def reference_docs(instances):
    with local_shard() as ref:
        return [canonical(r) for r in ref.solve_many(instances)]


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------


class TestModuloPartitioner:
    def test_matches_the_crc32_oracle(self):
        part = ModuloPartitioner(5)
        for i in range(200):
            key = f"minbusy:deadbeef{i:04d}"
            assert part.shard_of(key) == zlib.crc32(key.encode()) % 5

    def test_preference_is_owner_first_permutation(self):
        part = ModuloPartitioner(4)
        for i in range(50):
            order = part.preference(f"k{i}")
            assert order[0] == part.shard_of(f"k{i}")
            assert sorted(order) == [0, 1, 2, 3]

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match=">= 1"):
            ModuloPartitioner(0)


class TestRingPartitioner:
    def test_layout_is_byte_stable(self):
        assert RingPartitioner([1.0] * 3).layout_digest() == RING3_DIGEST
        assert (
            RingPartitioner([1.0, 2.0]).layout_digest() == RING_1_2_DIGEST
        )

    def test_layout_is_deterministic_per_weights(self):
        a = RingPartitioner([1.0, 2.0, 0.5])
        b = RingPartitioner([1.0, 2.0, 0.5])
        assert a.layout_digest() == b.layout_digest()
        assert a.layout_digest() != RingPartitioner([1.0] * 3).layout_digest()

    def test_pinned_key_assignments(self):
        ring = RingPartitioner([1.0] * 3)
        keys = [f"minbusy:{i:04d}" for i in range(8)]
        assert [ring.shard_of(k) for k in keys] == [1, 1, 0, 1, 2, 2, 2, 0]
        assert ring.preference(keys[0]) == (1, 0, 2)

    def test_preference_is_owner_first_permutation(self):
        ring = RingPartitioner([1.0, 2.0, 0.5, 1.5])
        for i in range(100):
            order = ring.preference(f"key{i}")
            assert order[0] == ring.shard_of(f"key{i}")
            assert sorted(order) == [0, 1, 2, 3]

    def test_weights_scale_ownership_share(self):
        ring = RingPartitioner([1.0, 3.0])
        owned = sum(
            ring.shard_of(f"key{i}") == 1 for i in range(4000)
        )
        # Expected share 0.75; ~100 vnodes/unit keeps it within a few
        # percent (measured 0.777 for this keyset).
        assert 0.65 < owned / 4000 < 0.85

    def test_one_node_reshard_moves_less_than_2_over_n(self):
        """Removing 1 of 6 equal shards moves only that shard's keys.

        The consistent-hashing contract over 1000 keys: every key NOT
        owned by the departed shard keeps its owner (survivor vnodes
        never move), so the moved fraction is the departed shard's
        share (~1/N) — asserted < 2/N, versus ~5/6 remapped under the
        modulo rule.
        """
        before = RingPartitioner([1.0] * 6)
        after = RingPartitioner([1.0] * 5)
        keys = [f"k{i}" for i in range(1000)]
        moved = [k for k in keys if before.shard_of(k) != after.shard_of(k)]
        assert all(before.shard_of(k) == 5 for k in moved)
        assert 0 < len(moved) < 2 / 6 * len(keys)

    def test_modulo_reshard_remaps_most_keys(self):
        """The contrast making the ring worth it: modulo moves ~all."""
        keys = [f"k{i}" for i in range(1000)]
        before, after = ModuloPartitioner(6), ModuloPartitioner(5)
        moved = sum(before.shard_of(k) != after.shard_of(k) for k in keys)
        assert moved > len(keys) / 2

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            RingPartitioner([])
        with pytest.raises(ValueError, match="> 0"):
            RingPartitioner([1.0, 0.0])
        with pytest.raises(ValueError, match="replicas_per_unit"):
            RingPartitioner([1.0], replicas_per_unit=0)

    def test_both_satisfy_the_partitioner_protocol(self):
        assert isinstance(ModuloPartitioner(2), Partitioner)
        assert isinstance(RingPartitioner([1.0, 1.0]), Partitioner)


# ----------------------------------------------------------------------
# circuits
# ----------------------------------------------------------------------


class TestShardCircuit:
    def test_lifecycle_with_exponential_reprobe_backoff(self):
        now = [0.0]
        circuit = ShardCircuit(
            eject_after=2,
            probe_backoff=1.0,
            max_backoff=4.0,
            clock=lambda: now[0],
        )
        assert circuit.state == HEALTHY and circuit.available()
        circuit.record_failure(ConnectionError("reset"))
        assert circuit.state == SUSPECT and circuit.available()
        circuit.record_failure(ConnectionError("reset"))
        assert circuit.state == EJECTED and not circuit.available()
        now[0] = 0.5
        assert not circuit.available()
        now[0] = 1.0
        assert circuit.available()  # half-open: exactly one probe
        circuit.record_failure()  # failed probe: backoff 1 -> 2
        assert not circuit.available()
        now[0] = 2.5
        assert not circuit.available()
        now[0] = 3.0
        assert circuit.available()
        circuit.record_failure()  # backoff 2 -> 4 (retry at 7)
        now[0] = 6.5
        assert not circuit.available()
        now[0] = 7.0
        assert circuit.available()
        circuit.record_failure()  # capped at max_backoff=4 (retry 11)
        now[0] = 10.5
        assert not circuit.available()
        now[0] = 11.0
        assert circuit.available()
        circuit.record_success()
        assert circuit.state == HEALTHY
        assert circuit.available()

    def test_success_resets_backoff_to_base(self):
        now = [0.0]
        circuit = ShardCircuit(
            eject_after=1, probe_backoff=1.0, clock=lambda: now[0]
        )
        circuit.record_failure()
        now[0] = 1.0
        circuit.record_failure()  # failed probe: backoff -> 2
        now[0] = 3.0
        circuit.record_success()
        circuit.record_failure()  # re-ejected with the BASE backoff
        now[0] = 3.9
        assert not circuit.available()
        now[0] = 4.0
        assert circuit.available()

    def test_stats_shape_is_flat(self):
        now = [0.0]
        circuit = ShardCircuit(probe_backoff=2.0, clock=lambda: now[0])
        circuit.record_failure(OSError("boom"))
        stats = circuit.stats()
        assert set(stats) == {
            "state",
            "successes",
            "failures",
            "consecutive_failures",
            "retry_in_seconds",
            "last_error",
        }
        assert stats["state"] == SUSPECT
        assert stats["failures"] == 1
        assert "OSError: boom" == stats["last_error"]
        assert not any(isinstance(v, dict) for v in stats.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="eject_after"):
            ShardCircuit(eject_after=0)
        with pytest.raises(ValueError, match="probe_backoff"):
            ShardCircuit(probe_backoff=0)


class TestFleetHealth:
    def test_ejected_shards_leave_the_routable_set(self):
        fleet = FleetHealth(
            3, eject_after=2, probe_backoff=5.0, clock=lambda: 0.0
        )
        assert fleet.available_shards() == [0, 1, 2]
        fleet.record_failure(1, ConnectionError("x"))
        assert fleet.available_shards() == [0, 1, 2]  # suspect: routable
        fleet.record_failure(1, ConnectionError("x"))
        assert fleet.available_shards() == [0, 2]
        assert fleet.summary() == {HEALTHY: 2, SUSPECT: 0, EJECTED: 1}
        fleet.record_success(1)
        assert fleet.available_shards() == [0, 1, 2]
        assert len(fleet) == 3

    def test_stats_keyed_by_shard(self):
        fleet = FleetHealth(2)
        fleet.record_success(0)
        stats = fleet.stats()
        assert set(stats) == {"shard0", "shard1"}
        assert stats["shard0"]["successes"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            FleetHealth(0)


class TestBackgroundProber:
    """The opt-in half-open prober, driven by a fake clock — no
    thread, no sleeping: ``probe_once`` is the loop body."""

    def _fleet(self, now, answers):
        probed = []

        def prober(shard: int) -> bool:
            probed.append(shard)
            answer = answers[shard]
            if isinstance(answer, BaseException):
                raise answer
            return answer

        fleet = FleetHealth(
            3,
            eject_after=2,
            probe_backoff=5.0,
            clock=lambda: now[0],
            prober=prober,
        )
        return fleet, probed

    def _eject(self, fleet, shard):
        fleet.record_failure(shard, ConnectionError("down"))
        fleet.record_failure(shard, ConnectionError("down"))

    def test_probe_heals_ejected_shard_after_backoff(self):
        now = [0.0]
        answers = {0: True, 1: True, 2: True}
        fleet, probed = self._fleet(now, answers)
        self._eject(fleet, 1)
        assert fleet.available_shards() == [0, 2]
        # Inside the backoff window nothing is due.
        assert fleet.probe_once() == []
        assert probed == []
        # Backoff expired: the prober pings shard 1, success heals it
        # fully (not just half-open) before any real request routes.
        now[0] = 5.0
        assert fleet.probe_once() == [1]
        assert probed == [1]
        assert fleet.summary()[HEALTHY] == 3
        assert fleet.probes == 1 and fleet.probe_heals == 1

    def test_failed_probe_reejects_with_doubled_backoff(self):
        now = [0.0]
        answers = {0: True, 1: ConnectionError("still down"), 2: True}
        fleet, probed = self._fleet(now, answers)
        self._eject(fleet, 1)
        now[0] = 5.0
        assert fleet.probe_once() == [1]
        # Re-ejected; the next window is doubled (10s), so the shard
        # is not due at +5s but is at +10s.
        assert fleet.available_shards() == [0, 2]
        now[0] = 9.9
        assert fleet.probe_once() == []
        now[0] = 15.0
        assert fleet.probe_once() == [1]
        assert probed == [1, 1]
        assert fleet.probe_heals == 0
        assert "still down" in fleet.circuit(1).last_error

    def test_healthy_fleet_probes_nothing(self):
        now = [0.0]
        fleet, probed = self._fleet(now, {0: True, 1: True, 2: True})
        now[0] = 100.0
        assert fleet.probe_once() == []
        assert probed == []

    def test_probe_interval_requires_prober(self):
        with pytest.raises(ValueError, match="prober"):
            FleetHealth(2, probe_interval=0.1)
        with pytest.raises(ValueError, match="> 0"):
            FleetHealth(2, probe_interval=0.0, prober=lambda s: True)

    def test_background_thread_heals_without_traffic(self):
        import time as _time

        healed = threading.Event()

        def prober(shard: int) -> bool:
            healed.set()
            return True

        fleet = FleetHealth(
            2,
            eject_after=1,
            probe_backoff=0.01,
            prober=prober,
            probe_interval=0.02,
        )
        try:
            fleet.record_failure(0, ConnectionError("down"))
            assert healed.wait(5.0)
            deadline = _time.monotonic() + 5.0
            while _time.monotonic() < deadline:
                if fleet.summary()[HEALTHY] == 2:
                    break
                _time.sleep(0.01)
            assert fleet.summary()[HEALTHY] == 2
        finally:
            fleet.close()

    def test_close_is_idempotent_and_stops_the_thread(self):
        fleet = FleetHealth(
            1,
            prober=lambda s: True,
            probe_interval=0.01,
        )
        fleet.close()
        fleet.close()
        assert fleet._probe_thread is None

    def test_sharded_executor_wires_a_ping_prober(self):
        class PingableShard:
            def __init__(self):
                self.pings = 0

            def ping(self):
                self.pings += 1
                return True

            def close(self):
                pass

        shard = PingableShard()
        ex = ShardedExecutor(
            [shard, PingableShard()], probe_interval=30.0
        )
        try:
            # Eject shard 0, expire its backoff, then drive the probe
            # synchronously — the executor's callback pings the client.
            ex.health.record_failure(0, ConnectionError("x"))
            ex.health.record_failure(0, ConnectionError("x"))
            circuit = ex.health.circuit(0)
            circuit._retry_at = None  # backoff expired, half-open
            assert ex.health.probe_once() == [0]
            assert shard.pings == 1
            assert ex.health.summary()[HEALTHY] == 2
        finally:
            ex.health.close()


# ----------------------------------------------------------------------
# the sharded executor (proxy shards, no sockets)
# ----------------------------------------------------------------------


class DeadShard:
    """A shard whose every call raises — a dead endpoint."""

    def __init__(self) -> None:
        self.calls = 0

    def solve_many(self, instances, objective=None, **kwargs):
        self.calls += 1
        raise ConnectionError("shard is dead")

    def cache_stats(self):
        raise ConnectionError("shard is dead")

    def close(self) -> None:
        pass


class StreamDyingShard:
    """Delegates, but its ``solve_stream`` dies after ``survive`` items."""

    def __init__(self, inner: Session, survive: int = 0) -> None:
        self.inner = inner
        self.survive = survive

    def solve_stream(self, instances, objective=None, **kwargs):
        stream = self.inner.solve_stream(instances, objective, **kwargs)
        for k, result in enumerate(stream):
            if k >= self.survive:
                raise ConnectionError("shard died mid-stream")
            yield result

    def solve_many(self, instances, objective=None, **kwargs):
        return self.inner.solve_many(instances, objective, **kwargs)

    def cache_stats(self):
        return self.inner.cache_stats()

    def close(self) -> None:
        self.inner.close()


class SlowShard:
    """A healthy shard that answers after a fixed delay."""

    def __init__(self, inner: Session, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def solve_many(self, instances, objective=None, **kwargs):
        time.sleep(self.delay)
        return self.inner.solve_many(instances, objective, **kwargs)

    def cache_stats(self):
        return self.inner.cache_stats()

    def close(self) -> None:
        self.inner.close()


class FirstShardPartitioner:
    """Everything owned by shard 0; failover in index order."""

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards

    def shard_of(self, key: str) -> int:
        return 0

    def preference(self, key: str):
        return tuple(range(self.n_shards))


class CountingExecutor:
    """A serial backend that counts every task it actually computes."""

    name = "counting"

    def __init__(self) -> None:
        self.tasks = 0

    def run(self, tasks):
        self.tasks += len(tasks)
        return SerialExecutor().run(tasks)


class TestShardedExecutor:
    def test_satisfies_the_executor_protocol(self):
        with local_shard() as shard:
            executor = ShardedExecutor([shard])
            assert isinstance(executor, Executor)
            assert executor.name == "sharded"

    def test_dead_shard_slice_reroutes_to_survivors(self):
        instances = minbusy_batch(24)
        expected = reference_docs(instances)
        dead = DeadShard()
        survivors = [local_shard(), local_shard()]
        executor = ShardedExecutor([dead] + survivors)
        # The batch must actually exercise the dead shard: with 24
        # distinct contents over 3 equal ring shards, shard 0 owns a
        # slice (deterministic content, deterministic ring).
        owners = {
            executor.partitioner.shard_of(
                plan_solve(inst, "minbusy", {}).key
            )
            for inst in instances
        }
        assert owners == {0, 1, 2}
        router = Session(EngineConfig(store_path=None), executor=executor)
        results = router.solve_many(instances)
        assert [canonical(r) for r in results] == expected
        assert dead.calls >= 1
        assert executor.failures and executor.failures[-1]["shard"] == 0
        assert executor.health.circuit(0).state in (SUSPECT, EJECTED)
        assert executor.health.circuit(1).state == HEALTHY
        for shard in survivors:
            shard.close()
        router.close()

    def test_all_shards_dead_raises_fleet_error(self):
        executor = ShardedExecutor([DeadShard(), DeadShard()])
        router = Session(EngineConfig(store_path=None), executor=executor)
        with pytest.raises(ShardFleetError, match="all 2 shards"):
            router.solve_many(minbusy_batch(4))
        router.close()

    def test_hedged_request_beats_a_slow_shard(self):
        instances = minbusy_batch(3)
        expected = reference_docs(instances)
        slow = SlowShard(local_shard(), delay=1.5)
        fast = local_shard()
        executor = ShardedExecutor(
            [slow, fast],
            partitioner=FirstShardPartitioner(2),
            hedge_delay=0.15,
        )
        router = Session(EngineConfig(store_path=None), executor=executor)
        start = time.monotonic()
        results = router.solve_many(instances)
        elapsed = time.monotonic() - start
        assert [canonical(r) for r in results] == expected
        assert elapsed < 1.2  # the hedge answered; the primary never did
        # Slow is not dead: no failure recorded, the hedge target won.
        assert executor.health.circuit(0).failures == 0
        assert executor.health.circuit(1).successes >= 1
        router.close()
        fast.close()

    def test_each_unique_fingerprint_crosses_the_fleet_once(self):
        """The dedup acceptance test: router dedup + shard routing.

        Per-shard ``CountingExecutor``s count what each shard actually
        computes; duplicated inputs must collapse at the router, so
        the fleet-wide computed-task total equals the number of unique
        fingerprints — and a repeat batch (router LRU) adds nothing.
        """
        counters = [CountingExecutor() for _ in range(3)]
        shards = [
            Session(EngineConfig(store_path=None), executor=counter)
            for counter in counters
        ]
        client = ShardedClient(shards)
        uniques = minbusy_batch(4)
        batch = uniques + uniques  # every instance duplicated
        results = client.solve_many(batch)
        assert [canonical(r) for r in results[:4]] == [
            canonical(r) for r in results[4:]
        ]
        assert sum(counter.tasks for counter in counters) == 4
        client.solve_many(batch)  # router LRU: nothing crosses again
        assert sum(counter.tasks for counter in counters) == 4
        client.close()

    def test_with_deadline_is_a_shared_state_view(self):
        with local_shard() as shard:
            executor = ShardedExecutor([shard])
            assert executor.with_deadline(None) is executor
            view = executor.with_deadline(2.5)
            assert view is not executor
            assert view.deadline == 2.5 and executor.deadline is None
            assert view.health is executor.health
            assert view.shards is executor.shards
            assert view.failures is executor.failures
            assert view.with_deadline(2.5) is view

    def test_route_prefers_owner_then_survivors(self):
        with local_shard() as shard_a, local_shard() as shard_b:
            executor = ShardedExecutor([shard_a, shard_b])
            key = "minbusy:somekey"
            owner = executor.partitioner.shard_of(key)
            other = 1 - owner
            assert executor.route(key) == owner
            assert executor.route(key, {other}) == other
            assert executor.route(key, set()) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardedExecutor([])
        with local_shard() as shard:
            with pytest.raises(ValueError, match="covers 2 shards"):
                ShardedExecutor([shard], partitioner=ModuloPartitioner(2))
            with pytest.raises(ValueError, match="hedge_delay"):
                ShardedExecutor([shard], hedge_delay=0.0)

    def test_shard_stats_survive_a_dead_member(self):
        with local_shard() as live:
            executor = ShardedExecutor([DeadShard(), live])
            stats = executor.shard_stats()
            assert set(stats) == {"shard0", "shard1"}
            assert "stats_error" in stats["shard0"]["health"]
            assert "lru" in stats["shard1"]


# ----------------------------------------------------------------------
# the sharded client (local fleets)
# ----------------------------------------------------------------------


class TestShardedClientLocal:
    def test_from_specs_builds_weighted_local_fleet(self):
        client = ShardedClient.from_specs(["local", "local*2"])
        try:
            assert len(client) == 2
            assert client.executor.partitioner.weights == (1.0, 2.0)
            results = client.solve_many(minbusy_batch(4))
            assert len(results) == 4
        finally:
            client.close()

    def test_from_specs_unreachable_endpoint_names_the_shard(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nobody listens here now
        with pytest.raises(OSError, match=f"127.0.0.1:{port}"):
            ShardedClient.from_specs([f"127.0.0.1:{port}"], timeout=2.0)

    def test_rejects_mismatched_weights(self):
        with local_shard() as shard:
            with pytest.raises(ValueError, match="weights"):
                ShardedClient([shard], weights=[1.0, 2.0])

    def test_close_is_idempotent_and_final(self):
        client = ShardedClient([local_shard(), local_shard()])
        client.solve(minbusy_batch(1)[0])
        client.close()
        client.close()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            client.solve_many(minbusy_batch(2))

    def test_abandoned_stream_leaks_no_pump_threads(self):
        client = ShardedClient([local_shard(), local_shard()])
        stream = client.solve_stream(minbusy_batch(8))
        next(stream)
        stream.close()  # abandon mid-stream
        client.close()  # joins the draining pumps
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = [
                t
                for t in threading.enumerate()
                if t.name.startswith("repro-shard") and t.is_alive()
            ]
            if not leaked:
                break
            time.sleep(0.01)
        assert leaked == []

    def test_stream_repairs_slice_when_shard_dies_mid_stream(self):
        """A pump death must not kill the stream: the unfinished
        remainder of the dead shard's slice is repaired locally and
        the merged output stays byte-identical, with the failure
        recorded in the shard's circuit."""
        instances = minbusy_batch(12)
        expected = reference_docs(instances)
        dying = StreamDyingShard(local_shard(), survive=1)
        client = ShardedClient([dying, local_shard()])
        try:
            owners = {
                client.shard_of(client._plan(inst, "minbusy", {}))
                for inst in instances
            }
            assert owners == {0, 1}  # both shards get a slice
            got = [canonical(r) for r in client.solve_stream(instances)]
            assert got == expected
            health = client.cache_stats()["shards"]["shard0"]["health"]
            assert health["state"] != HEALTHY
        finally:
            client.close()

    def test_stream_survives_shard_dead_from_the_start(self):
        """Even the very first item of a slice failing (connection
        refused on stream open) repairs instead of raising."""
        instances = minbusy_batch(10)
        expected = reference_docs(instances)
        client = ShardedClient(
            [StreamDyingShard(local_shard(), survive=0), local_shard()]
        )
        try:
            got = [canonical(r) for r in client.solve_stream(instances)]
            assert got == expected
        finally:
            client.close()

    def test_cache_stats_carries_fleet_breakdown(self):
        client = ShardedClient([local_shard(), local_shard()])
        try:
            client.solve_many(minbusy_batch(4))
            stats = client.cache_stats()
            assert "lru" in stats  # the router's own tier
            shards = stats["shards"]
            assert set(shards) == {"shard0", "shard1"}
            for entry in shards.values():
                assert entry["health"]["state"] == HEALTHY
                assert "lru" in entry
        finally:
            client.close()

    def test_health_doc_reports_fleet_summary(self):
        class FakeExecutor:
            max_concurrency = 4
            _inflight: dict = {}

        class FakeServer:
            backend = "async"
            executor = FakeExecutor()
            session = None

        doc = health_doc(FakeServer())
        assert doc["status"] == "healthy"
        assert doc["backend"] == "async"
        assert "shards" not in doc

        client = ShardedClient([local_shard(), local_shard()])
        try:
            server = FakeServer()
            server.session = client.session
            doc = health_doc(server)
            assert doc["shards"] == {HEALTHY: 2, SUSPECT: 0, EJECTED: 0}
            for shard in (0, 1):
                client.executor.health.record_failure(
                    shard, ConnectionError("x")
                )
                client.executor.health.record_failure(
                    shard, ConnectionError("x")
                )
            doc = health_doc(server)
            assert doc["status"] == "degraded"
            assert doc["shards"][EJECTED] == 2
        finally:
            client.close()


# ----------------------------------------------------------------------
# shard spec parsing / configuration
# ----------------------------------------------------------------------


class TestShardSpecs:
    def test_parse_entry_host_port_weight(self):
        spec = parse_shard_entry("10.0.0.1:8753*2")
        assert (spec.host, spec.port, spec.weight) == ("10.0.0.1", 8753, 2.0)
        assert not spec.is_local
        assert str(spec) == "10.0.0.1:8753*2"

    def test_parse_local(self):
        spec = parse_shard_entry(" local ")
        assert spec.is_local and spec.weight == 1.0
        assert str(spec) == "local"
        assert str(parse_shard_entry("local*0.5")) == "local*0.5"

    def test_round_trips_through_str(self):
        for text in ("local", "local*2", "h:1", "10.0.0.1:8753*2.5"):
            assert parse_shard_entry(str(parse_shard_entry(text))) == (
                parse_shard_entry(text)
            )

    def test_errors_name_the_source_and_grammar(self):
        with pytest.raises(ValueError) as excinfo:
            parse_shard_entry("nonsense", source="--shard")
        assert "--shard" in str(excinfo.value)
        assert "host:port" in str(excinfo.value)
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            parse_shard_entry("host:notaport")
        with pytest.raises(ValueError, match="1..65535"):
            parse_shard_entry("host:70000")
        with pytest.raises(ValueError, match="> 0"):
            parse_shard_entry("host:1*0")
        with pytest.raises(ValueError, match="not a number"):
            parse_shard_entry("host:1*heavy")

    def test_parse_shards_list(self):
        specs = parse_shards("a:1, local*2 ,b:2*0.5")
        assert [str(s) for s in specs] == ["a:1", "local*2", "b:2*0.5"]
        with pytest.raises(ValueError, match="names no shards"):
            parse_shards(" , ")

    def test_from_env_reads_repro_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "10.0.0.1:8753,local*2")
        config = EngineConfig.from_env()
        assert [str(s) for s in config.shards] == [
            "10.0.0.1:8753",
            "local*2",
        ]
        monkeypatch.setenv("REPRO_SHARDS", "garbage")
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            EngineConfig.from_env()

    def test_engine_config_normalizes_string_entries(self):
        config = EngineConfig(shards=("local", "h:2*3"))
        assert config.shards[1].weight == 3.0
        with pytest.raises(ValueError, match="ShardSpec or str"):
            EngineConfig(shards=(42,))


# ----------------------------------------------------------------------
# live fleets (real serve subprocesses)
# ----------------------------------------------------------------------


@pytest.fixture()
def fleet3():
    """Three real ``repro serve`` shards; tests may kill members."""
    members = [spawn_serve_subprocess() for _ in range(3)]
    yield members
    for proc, _ in members:
        if proc.poll() is None:
            proc.terminate()
        proc.wait(timeout=10)


def remote_fleet(members, **kwargs) -> ShardedClient:
    return ShardedClient(
        [RemoteSession(port=port) for _, port in members], **kwargs
    )


class TestLiveFleet:
    def test_health_op_over_the_wire(self):
        proc, port = spawn_serve_subprocess()
        try:
            with ServiceClient("127.0.0.1", port) as wire:
                doc = wire.health()
            assert doc["status"] == "healthy"
            assert doc["pid"] == proc.pid
            assert isinstance(doc["backend"], str)
            assert isinstance(doc["inflight"], int)
            with RemoteSession(port=port) as remote:
                assert remote.health()["status"] == "healthy"
                assert remote.ping()
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_shard_killed_before_batch_stays_byte_identical(self, fleet3):
        instances = minbusy_batch(18)
        expected = reference_docs(instances)
        client = remote_fleet(fleet3)
        try:
            victim = client.shard_of(
                client._plan(instances[0], "minbusy", {})
            )
            proc, _ = fleet3[victim]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            results = client.solve_many(instances)
            assert [canonical(r) for r in results] == expected
            assert client.executor.failures
            assert any(
                f["shard"] == victim for f in client.executor.failures
            )
            assert client.executor.health.circuit(victim).failures >= 1
        finally:
            client.close()

    def test_shard_killed_mid_batch_stays_byte_identical(self, fleet3):
        instances = minbusy_batch(120)
        expected = reference_docs(instances)
        client = remote_fleet(fleet3)
        try:
            victim = client.shard_of(
                client._plan(instances[0], "minbusy", {})
            )
            proc, _ = fleet3[victim]
            killer = threading.Timer(
                0.02, os.kill, args=(proc.pid, signal.SIGKILL)
            )
            killer.start()
            try:
                results = client.solve_many(instances)
            finally:
                killer.cancel()
            assert [canonical(r) for r in results] == expected
        finally:
            client.close()

    def test_per_shard_cache_stats_aggregate_over_the_wire(self, fleet3):
        client = remote_fleet(fleet3)
        try:
            uniques = minbusy_batch(6)
            client.solve_many(uniques)
            stats = client.cache_stats()
            shards = stats["shards"]
            assert set(shards) == {"shard0", "shard1", "shard2"}
            for entry in shards.values():
                assert entry["health"]["state"] == HEALTHY
                assert "wire" in entry and "lru" in entry
            # Every unique fingerprint was computed on exactly one
            # shard: fleet-wide server-session LRU misses == uniques.
            assert (
                sum(e["lru"]["misses"] for e in shards.values()) == 6
            )
        finally:
            client.close()

    def test_sharded_conformance_against_local_reference(self, fleet3):
        instances = minbusy_batch(10)
        expected = reference_docs(instances)
        client = remote_fleet(fleet3, hedge_delay=10.0)
        try:
            assert [
                canonical(r) for r in client.solve_many(instances)
            ] == expected
            assert [
                canonical(r) for r in client.solve_stream(instances)
            ] == expected
            assert canonical(client.solve(instances[0])) == expected[0]
        finally:
            client.close()
