"""Near-miss repair tier: differential byte-identity, aborts, persistence.

The repair tier's contract is *certified exactness*: a repaired result
must be byte-identical to what a cold solve of the same instance would
produce, or the tier must abort to a miss.  These tests pin all of it:

* a 1000-delta differential sweep — 250 seeded one-job deltas
  (substitution / insertion / removal, cycled by seed) per repairable
  family (minbusy, capacity, rect2d, ring), every repaired result
  compared field-for-field against a cold solve in a store-less
  session, and every delta expected to actually repair (hits equal the
  delta count — the kernels are deterministic, so any certification
  failure is a bug, not noise);
* the same comparison just above each family's vectorized-FirstFit
  threshold, where the cold solve runs the occupancy engine too;
* abort-to-miss on unsupported deltas: two-row edits and ``g`` changes
  fall through to a correct cold solve with zero repair hits, and a
  tampered placement trace that would stack overlapping jobs on one
  thread is refused by the engine's ``seed``;
* exact store hits are never intercepted — the repair tier only fires
  on true misses;
* the similarity index persists beside the store: a fresh process
  (session) over the same directory repairs immediately;
* the ``cache_stats`` counter schema, and the ``repair_index_stats`` /
  ``clear_repair_index`` maintenance helpers the CLI uses;
* ``REPRO_REPAIR`` parsing — enablement through ``EngineConfig
  .from_env`` and the actionable :class:`ValueError` on junk values.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import REPAIR_ENV_VAR, EngineConfig, Session, parse_bool_env
from repro.core.occupancy import firstfit_min_size
from repro.engine.repair import (
    RepairTier,
    clear_repair_index,
    repair_index_stats,
)
from repro.io import objective_instance_from_dict
from repro.service.protocol import result_to_doc

REPAIR_FAMILIES = ("minbusy", "capacity", "rect2d", "ring")
SEEDS_PER_FAMILY = 250  # 4 families x 250 deltas = the 1000-delta sweep

COUNTER_SCHEMA = {"attempts", "hits", "aborts", "indexed", "path"}


def canonical(result) -> str:
    doc = result_to_doc(result)
    doc.pop("solve_seconds", None)
    doc.pop("from_cache", None)
    return json.dumps(doc, sort_keys=True)


# ----------------------------------------------------------------------
# seeded FirstFit-routing generators + one-job deltas
# ----------------------------------------------------------------------


def _rng(family: str, seed: int) -> np.random.Generator:
    import zlib

    return np.random.default_rng(
        zlib.crc32(f"repair:{family}:{seed}".encode()) % (2**32)
    )


def _interval_job(rng, *, demand: int = 1) -> dict:
    s = float(rng.uniform(0.0, 40.0))
    return {
        "start": s,
        "end": s + float(rng.uniform(1.0, 10.0)),
        "weight": float(rng.uniform(0.5, 2.0)),
        "demand": demand,
    }


def _rect(rng) -> dict:
    # Widths in [1, 2]: gamma1 <= 2 < beta, so dispatch always picks
    # the FirstFit arm no matter which rect a delta touches.
    x0 = float(rng.uniform(0.0, 30.0))
    y0 = float(rng.uniform(0.0, 10.0))
    return {
        "x0": x0,
        "y0": y0,
        "x1": x0 + float(rng.uniform(1.0, 2.0)),
        "y1": y0 + float(rng.uniform(1.0, 4.0)),
    }


def _ring_job(rng) -> dict:
    # Arc lengths in [0.1, 0.3]: ratio <= 3 <= beta, FirstFit always.
    t0 = float(rng.uniform(0.0, 40.0))
    return {
        "a0": float(rng.uniform(0.0, 0.7)),
        "alen": float(rng.uniform(0.1, 0.3)),
        "t0": t0,
        "t1": t0 + float(rng.uniform(1.0, 10.0)),
    }


def base_doc(family: str, seed: int, n: int = 10) -> dict:
    """A FirstFit-routing instance with ``n`` random records (plus the
    minbusy routing sentinels)."""
    rng = _rng(family, seed)
    if family == "minbusy":
        jobs = [_interval_job(rng) for _ in range(n)]
        # Pin the FirstFit route: a nesting pair defeats is_proper, a
        # far-off job defeats is_clique.  Deltas never touch these.
        jobs.append({"start": 1.0, "end": 25.0, "weight": 1.0, "demand": 1})
        jobs.append({"start": 2.0, "end": 3.0, "weight": 1.0, "demand": 1})
        jobs.append(
            {"start": 200.0, "end": 205.0, "weight": 1.0, "demand": 1}
        )
        return {"g": 3, "jobs": jobs}
    if family == "capacity":
        jobs = [
            _interval_job(rng, demand=int(rng.integers(1, 4)))
            for _ in range(n)
        ]
        # Two pinned multi-demand jobs keep the demand-FirstFit route
        # alive under any single-job delta.
        jobs[0]["demand"] = 2
        jobs[1]["demand"] = 3
        return {"g": 4, "jobs": jobs}
    if family == "rect2d":
        return {"g": 3, "rects": [_rect(rng) for _ in range(n)]}
    if family == "ring":
        return {
            "g": 3,
            "circumference": 1.0,
            "jobs": [_ring_job(rng) for _ in range(n)],
        }
    raise ValueError(family)


def delta_doc(family: str, seed: int, base: dict) -> dict:
    """One-job delta of ``base``: substitution, insertion or removal,
    cycled by seed.  Deltas only touch the first 10 (random) records,
    never the routing-pinned sentinels."""
    rng = _rng(f"{family}-delta", seed)
    key = "rects" if family == "rect2d" else "jobs"
    doc = dict(base)
    records = [dict(r) for r in base[key]]
    kind = seed % 3
    fresh = {
        "minbusy": _interval_job,
        "capacity": lambda r: _interval_job(r, demand=int(r.integers(1, 4))),
        "rect2d": _rect,
        "ring": _ring_job,
    }[family]
    if kind == 0:  # substitution
        records[int(rng.integers(0, 10))] = fresh(rng)
    elif kind == 1:  # insertion
        records.insert(int(rng.integers(0, 10)), fresh(rng))
    else:  # removal
        records.pop(int(rng.integers(0, 10)))
    doc[key] = records
    return doc


def load(family: str, doc: dict):
    return objective_instance_from_dict(doc, family)


# ----------------------------------------------------------------------
# the 1000-delta differential sweep
# ----------------------------------------------------------------------


class TestRepairedEqualsCold:
    @pytest.mark.parametrize("family", REPAIR_FAMILIES)
    def test_one_job_deltas_byte_identical(self, family, tmp_path):
        warm = Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        )
        cold = Session(store_path=None)
        try:
            for seed in range(SEEDS_PER_FAMILY):
                base = base_doc(family, seed)
                delta = delta_doc(family, seed, base)
                warm.solve(load(family, base), family)  # indexes base
                repaired = warm.solve(load(family, delta), family)
                expected = cold.solve(
                    load(family, delta), family, use_cache=False
                )
                assert canonical(repaired) == canonical(expected), (
                    f"{family} seed {seed}: repaired result diverges "
                    "from the cold solve"
                )
            stats = warm.cache_stats()["repair"]
            # Deterministic kernels: every delta must actually repair.
            assert stats["hits"] == SEEDS_PER_FAMILY, stats
        finally:
            warm.close()
            cold.close()


#: Each family's vectorized-FirstFit threshold (``firstfit_min_size``
#: variant).
THRESHOLD_VARIANT = {
    "minbusy": "1d",
    "capacity": "demand",
    "rect2d": "rect",
    "ring": "ring",
}


class TestRepairedEqualsColdAboveThreshold:
    """The sweep above uses 10-13-item instances, whose cold solves
    never leave the scalar loop; here the cold side runs the occupancy
    engine as well."""

    @pytest.mark.parametrize("family", REPAIR_FAMILIES)
    def test_deltas_just_above_threshold(self, family, tmp_path):
        n = firstfit_min_size(THRESHOLD_VARIANT[family]) + 6
        warm = Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        )
        cold = Session(store_path=None)
        try:
            for seed in range(3):
                base = base_doc(family, seed, n)
                delta = delta_doc(family, seed, base)
                warm.solve(load(family, base), family)
                repaired = warm.solve(load(family, delta), family)
                expected = cold.solve(
                    load(family, delta), family, use_cache=False
                )
                assert canonical(repaired) == canonical(expected), (
                    f"{family} seed {seed}: repaired result diverges "
                    "from the cold solve"
                )
            assert warm.cache_stats()["repair"]["hits"] == 3
        finally:
            warm.close()
            cold.close()


# ----------------------------------------------------------------------
# abort-to-miss: unsupported deltas fall through, never approximate
# ----------------------------------------------------------------------


class TestAbortToMiss:
    @pytest.mark.parametrize("family", REPAIR_FAMILIES)
    def test_two_row_delta_misses(self, family, tmp_path):
        warm = Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        )
        cold = Session(store_path=None)
        try:
            base = base_doc(family, 0)
            # Chain two independent single-job deltas: >1 row differs
            # from anything indexed, so the probe finds no candidate
            # and the query falls through to a cold solve.
            far = delta_doc(family, 0, delta_doc(family, 3, base))
            warm.solve(load(family, base), family)
            stats_before = warm.cache_stats()["repair"]
            got = warm.solve(load(family, far), family)
            expected = cold.solve(
                load(family, far), family, use_cache=False
            )
            assert canonical(got) == canonical(expected)
            stats = warm.cache_stats()["repair"]
            assert stats["hits"] == stats_before["hits"]
            assert stats["attempts"] == stats_before["attempts"] + 1
        finally:
            warm.close()
            cold.close()

    def test_uncertifiable_candidate_aborts(self, tmp_path):
        """A candidate that cannot be certified ABORTS to a miss.

        Tamper the indexed record's placement trace (keeping its rows,
        hence its probe signature, intact): the probe still surfaces
        it, but the replay's structural checks reject the junk prefix,
        the abort counter ticks, and the caller gets a cold solve —
        never an approximate result.
        """
        from repro.engine.store import ResultStore

        base = base_doc("minbusy", 4)
        # Substitute a *short, late* job: it sorts last in FirstFit
        # order, so the common prefix with the stored base is long and
        # the tampered placement trace is actually consulted.
        delta = dict(base)
        delta["jobs"] = [dict(j) for j in base["jobs"]]
        delta["jobs"][0] = {
            "start": 300.0, "end": 300.9, "weight": 1.0, "demand": 1,
        }
        donor_root = tmp_path / "donor"
        with Session(
            EngineConfig(store_path=str(donor_root), repair=True)
        ) as writer:
            writer.solve(load("minbusy", base), "minbusy")
        donor = ResultStore(donor_root / "simidx")
        (key,) = donor.keys()
        rec = dict(donor.peek(key))
        rec["placed"] = [-1] * len(rec["placed"])
        # The tampered record is the *only* one in the probed index
        # (duplicate keys across store segments have no defined
        # winner, so overwriting in place would be nondeterministic).
        store_root = tmp_path / "store"
        ResultStore(store_root / "simidx").put(key, rec)
        warm = Session(
            EngineConfig(store_path=str(store_root), repair=True)
        )
        cold = Session(store_path=None)
        try:
            got = warm.solve(load("minbusy", delta), "minbusy")
            expected = cold.solve(
                load("minbusy", delta), "minbusy", use_cache=False
            )
            assert canonical(got) == canonical(expected)
            stats = warm.cache_stats()["repair"]
            assert stats["hits"] == 0
            assert stats["aborts"] == 1
        finally:
            warm.close()
            cold.close()

    def test_infeasible_trace_aborts(self, tmp_path):
        """A trace passing the cheap structural checks but stacking
        overlapping jobs on one thread is refused by the engine's
        ``seed`` — an abort, never an infeasible repaired schedule."""
        from repro.engine.store import ResultStore

        base = {
            "g": 3,
            "jobs": [
                {"start": 0.0, "end": 10.0},
                {"start": 0.0, "end": 10.0},
                {"start": 0.0, "end": 10.0},
                {"start": 1.0, "end": 25.0},
                {"start": 2.0, "end": 3.0},
                {"start": 200.0, "end": 205.0},
            ],
        }
        delta = dict(base, jobs=base["jobs"] + [{"start": 5.0, "end": 5.5}])
        donor_root = tmp_path / "donor"
        with Session(
            EngineConfig(store_path=str(donor_root), repair=True)
        ) as writer:
            writer.solve(load("minbusy", base), "minbusy")
        donor = ResultStore(donor_root / "simidx")
        (key,) = donor.keys()
        rec = dict(donor.peek(key))
        # Every job on machine 0 thread 0: contiguous, opens on thread
        # 0 — and infeasible.
        rec["placed"] = [0] * len(rec["placed"])
        store_root = tmp_path / "store"
        ResultStore(store_root / "simidx").put(key, rec)
        warm = Session(
            EngineConfig(store_path=str(store_root), repair=True)
        )
        cold = Session(store_path=None)
        try:
            got = warm.solve(load("minbusy", delta), "minbusy")
            expected = cold.solve(
                load("minbusy", delta), "minbusy", use_cache=False
            )
            assert canonical(got) == canonical(expected)
            stats = warm.cache_stats()["repair"]
            assert stats["hits"] == 0
            assert stats["aborts"] == 1
        finally:
            warm.close()
            cold.close()

    def test_g_change_misses(self, tmp_path):
        warm = Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        )
        cold = Session(store_path=None)
        try:
            base = base_doc("minbusy", 1)
            other = dict(base, g=4)
            warm.solve(load("minbusy", base), "minbusy")
            got = warm.solve(load("minbusy", other), "minbusy")
            expected = cold.solve(
                load("minbusy", other), "minbusy", use_cache=False
            )
            assert canonical(got) == canonical(expected)
            assert warm.cache_stats()["repair"]["hits"] == 0
        finally:
            warm.close()
            cold.close()

    def test_exact_hits_are_not_intercepted(self, tmp_path):
        with Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        ) as session:
            inst = load("minbusy", base_doc("minbusy", 2))
            first = session.solve(inst, "minbusy")
            attempts = session.cache_stats()["repair"]["attempts"]
            again = session.solve(inst, "minbusy")
            assert again.from_cache
            assert canonical(first) == canonical(again)
            # The exact hit was served by the LRU/store, not probed.
            assert (
                session.cache_stats()["repair"]["attempts"] == attempts
            )


# ----------------------------------------------------------------------
# persistence: the index lives beside the store, across processes
# ----------------------------------------------------------------------


class TestIndexPersistence:
    def test_fresh_session_repairs_from_disk(self, tmp_path):
        base = base_doc("minbusy", 5)
        delta = delta_doc("minbusy", 5, base)
        with Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        ) as writer:
            writer.solve(load("minbusy", base), "minbusy")
        with Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        ) as reader:
            repaired = reader.solve(load("minbusy", delta), "minbusy")
            assert reader.cache_stats()["repair"]["hits"] == 1
        with Session(store_path=None) as cold:
            expected = cold.solve(
                load("minbusy", delta), "minbusy", use_cache=False
            )
        assert canonical(repaired) == canonical(expected)

    def test_simidx_lives_inside_the_store_root(self, tmp_path):
        with Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        ) as session:
            session.solve(load("minbusy", base_doc("minbusy", 6)), "minbusy")
        assert (tmp_path / "simidx").is_dir()

    def test_repair_off_by_default(self, tmp_path):
        with Session(store_path=str(tmp_path)) as session:
            session.solve(load("minbusy", base_doc("minbusy", 7)), "minbusy")
            assert "repair" not in session.cache_stats()
        assert not (tmp_path / "simidx").exists()


# ----------------------------------------------------------------------
# counters, maintenance helpers, env parsing
# ----------------------------------------------------------------------


class TestCountersAndHelpers:
    def test_counter_schema(self, tmp_path):
        with Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        ) as session:
            session.solve(load("minbusy", base_doc("minbusy", 8)), "minbusy")
            stats = session.cache_stats()["repair"]
        assert set(stats) == COUNTER_SCHEMA
        assert stats["indexed"] >= 1

    def test_index_stats_and_clear(self, tmp_path):
        assert repair_index_stats(tmp_path) is None
        assert clear_repair_index(tmp_path) is False
        with Session(
            EngineConfig(store_path=str(tmp_path), repair=True)
        ) as session:
            session.solve(load("minbusy", base_doc("minbusy", 9)), "minbusy")
        stats = repair_index_stats(tmp_path)
        assert stats is not None and stats["indexed"] >= 1
        assert clear_repair_index(tmp_path) is True
        assert repair_index_stats(tmp_path)["indexed"] == 0

    def test_tier_reports_its_name(self, tmp_path):
        from repro.engine.store import ResultStore

        tier = RepairTier(ResultStore(tmp_path))
        assert tier.name == "repair"
        assert tier.needs_context is True

    def test_env_enablement(self, monkeypatch):
        monkeypatch.setenv(REPAIR_ENV_VAR, "1")
        assert EngineConfig.from_env().repair is True
        monkeypatch.setenv(REPAIR_ENV_VAR, "off")
        assert EngineConfig.from_env().repair is False
        monkeypatch.delenv(REPAIR_ENV_VAR)
        assert EngineConfig.from_env().repair is False

    def test_env_junk_is_actionable(self, monkeypatch):
        monkeypatch.setenv(REPAIR_ENV_VAR, "definitely")
        with pytest.raises(ValueError, match="REPRO_REPAIR"):
            EngineConfig.from_env()

    def test_bare_server_reads_repair_from_env(self, tmp_path, monkeypatch):
        """A ``SolveServer`` built without a session takes its engine
        settings from ``EngineConfig.from_env`` — the CLI's reader."""
        from repro.service.server import SolveServer

        monkeypatch.setenv(REPAIR_ENV_VAR, "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        server = SolveServer(port=0)
        try:
            stats = server.session.cache_stats()
            assert set(stats["repair"]) == COUNTER_SCHEMA
        finally:
            server.session.close()

    @pytest.mark.parametrize(
        "raw,expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("false", False), ("No", False), ("OFF", False)],
    )
    def test_parse_bool_env_spellings(self, raw, expected):
        assert parse_bool_env(REPAIR_ENV_VAR, raw) is expected
