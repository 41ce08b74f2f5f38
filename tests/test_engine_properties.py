"""Property tests for the engine's identity layer: fingerprint + cache.

``test_engine.py`` exercises these through the solve front door; this
module pins their *contracts* directly:

* fingerprint invariance — job ids are bookkeeping labels and input
  order is immaterial (instances canonicalize), so relabeling and
  reordering must not change the fingerprint, while any change to
  problem content (spans, weights, demands, g, budget) must;
* cache hit rebinding — a hit served for a content-identical instance
  must be re-expressed over the *querying* instance's own Job objects,
  never the cached ones;
* LRU mechanics — eviction strictly follows recency, where both
  ``get`` and ``put`` refresh an entry.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.instance import BudgetInstance, Instance
from repro.core.jobs import Job
from repro.engine import LRUCache, instance_fingerprint, solve_key


span = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=15),
).map(lambda t: (float(t[0]), float(t[0] + t[1])))

spans_lists = st.lists(span, min_size=1, max_size=16)


def _jobs_from(spans, ids, *, weights=None, demands=None):
    return tuple(
        Job(
            start=s,
            end=e,
            job_id=i,
            weight=weights[k] if weights else 1.0,
            demand=demands[k] if demands else 1,
        )
        for k, ((s, e), i) in enumerate(zip(spans, ids))
    )


class TestFingerprintInvariance:
    @given(spans_lists, st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_relabel_and_reorder_invariant(self, spans, rnd):
        base = Instance(jobs=_jobs_from(spans, range(len(spans))), g=3)
        # Fresh ids (shifted, shuffled) over a shuffled span order.
        shuffled = list(spans)
        rnd.shuffle(shuffled)
        ids = list(range(100, 100 + len(spans)))
        rnd.shuffle(ids)
        relabeled = Instance(jobs=_jobs_from(shuffled, ids), g=3)
        assert instance_fingerprint(base) == instance_fingerprint(relabeled)

    @given(spans_lists)
    @settings(max_examples=120, deadline=None)
    def test_content_changes_change_fingerprint(self, spans):
        base = Instance(jobs=_jobs_from(spans, range(len(spans))), g=3)
        fp = instance_fingerprint(base)
        # g is content.
        assert fp != instance_fingerprint(
            Instance(jobs=base.jobs, g=4)
        )
        # A span shift is content.
        moved = [(s + 1.0, e + 1.0) for s, e in spans]
        assert fp != instance_fingerprint(
            Instance(jobs=_jobs_from(moved, range(len(spans))), g=3)
        )
        # Weights and demands are content (they feed the packed array).
        assert fp != instance_fingerprint(
            Instance(
                jobs=_jobs_from(
                    spans,
                    range(len(spans)),
                    weights=[2.0] * len(spans),
                ),
                g=3,
            )
        )
        assert fp != instance_fingerprint(
            Instance(
                jobs=_jobs_from(
                    spans, range(len(spans)), demands=[2] * len(spans)
                ),
                g=3,
            )
        )

    def test_budget_is_content(self):
        jobs = _jobs_from([(0.0, 2.0), (1.0, 3.0)], [0, 1])
        a = BudgetInstance(jobs=jobs, g=2, budget=5.0)
        b = BudgetInstance(jobs=jobs, g=2, budget=6.0)
        assert instance_fingerprint(a) != instance_fingerprint(b)

    def test_solve_key_qualifies_by_objective(self):
        inst = Instance(jobs=_jobs_from([(0.0, 2.0)], [0]), g=2)
        assert solve_key(inst, "minbusy") != solve_key(inst, "maxthroughput")


class TestCacheHitRebinding:
    def test_hit_is_rebound_to_query_jobs(self, session):
        spans = [(0.0, 4.0), (1.0, 5.0), (2.0, 8.0), (6.0, 9.0)]
        a = Instance(jobs=_jobs_from(spans, [0, 1, 2, 3]), g=2)
        b = Instance(jobs=_jobs_from(spans, [40, 41, 42, 43]), g=2)
        first = session.solve(a)
        hit = session.solve(b)
        assert not first.from_cache
        assert hit.from_cache
        assert hit.fingerprint == first.fingerprint
        assert hit.cost == first.cost
        # The served schedule must reference b's own Job objects...
        served = set(hit.schedule.assignment)
        assert served == set(b.jobs)
        # ...and none of a's (distinct ids guarantee distinct objects).
        assert {j.job_id for j in served} == {40, 41, 42, 43}
        # Positionally, the assignment is the cached one.
        assert hit.assignment_by_position == first.assignment_by_position

    def test_hit_schedule_is_a_fresh_object(self, session):
        # Mutating a served schedule must not corrupt the cache entry.
        inst = Instance(
            jobs=_jobs_from([(0.0, 4.0), (1.0, 5.0)], [0, 1]), g=2
        )
        first = session.solve(inst)
        again = session.solve(inst)
        assert again.from_cache
        assert again.schedule is not first.schedule

    @given(spans_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_property_relabeled_solves_hit_and_agree(self, spans, rnd):
        session = Session(store_path=None)
        a = Instance(jobs=_jobs_from(spans, range(len(spans))), g=2)
        ids = list(range(500, 500 + len(spans)))
        rnd.shuffle(ids)
        b = Instance(jobs=_jobs_from(spans, ids), g=2)
        ra = session.solve(a)
        rb = session.solve(b)
        assert rb.from_cache
        assert rb.cost == ra.cost
        assert rb.assignment_by_position == ra.assignment_by_position
        # Same positional machine for the same canonical position.
        info = session.cache_info()
        assert info.hits >= 1


class TestLRUCacheMechanics:
    def test_eviction_follows_insertion_order_without_access(self):
        c = LRUCache(maxsize=3)
        for k in "abc":
            c.put(k, k.upper())
        c.put("d", "D")
        assert "a" not in c
        assert all(k in c for k in "bcd")

    def test_get_refreshes_recency(self):
        c = LRUCache(maxsize=3)
        for k in "abc":
            c.put(k, k.upper())
        assert c.get("a") == "A"  # a becomes most recent
        c.put("d", "D")  # evicts b, the least recent
        assert "b" not in c
        assert all(k in c for k in "acd")

    def test_put_refreshes_recency_of_existing_key(self):
        c = LRUCache(maxsize=3)
        for k in "abc":
            c.put(k, k.upper())
        c.put("a", "A2")  # overwrite refreshes
        c.put("d", "D")  # evicts b
        assert "b" not in c
        assert c.get("a") == "A2"

    @given(
        st.lists(
            st.tuples(st.sampled_from("get put".split()),
                      st.integers(min_value=0, max_value=9)),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_reference_lru(self, ops, maxsize):
        """Differential check against a straightforward reference model."""
        c = LRUCache(maxsize=maxsize)
        order: list = []  # least -> most recent
        model: dict = {}
        for op, key in ops:
            if op == "put":
                c.put(key, key)
                model[key] = key
                if key in order:
                    order.remove(key)
                order.append(key)
                while len(order) > maxsize:
                    evicted = order.pop(0)
                    del model[evicted]
            else:
                got = c.get(key)
                if key in model:
                    assert got == model[key]
                    order.remove(key)
                    order.append(key)
                else:
                    assert got is None
            assert len(c) == len(model)
            for k in model:
                assert k in c

    def test_counters_and_clear(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.get("missing") is None
        info = c.info()
        assert (info.hits, info.misses, info.size, info.maxsize) == (1, 1, 1, 2)
        c.clear()
        info = c.info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
