"""Tests for the per-instance job table (``Instance.columns``).

``Instance.from_spans`` seeds the typed table from the values it has
just coerced; every other construction reads it off the ``Job``
objects on first use.  The two must agree entry for entry (kind, dtype
and bytes), the constructors that keep the same jobs must hand the one
table on, and a typed table must reach the binary packer without a
type sweep or a conversion.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.jobs as jobs_module
import repro.service.binary as binary_module
import tests.test_wire_binary as wire_tests
from repro.core.instance import BudgetInstance, Instance
from repro.core.jobs import JOB_COLUMNS, Job
from repro.engine import instance_fingerprint
from repro.engine.engine import plan_solve
from repro.io import objective_instance_to_dict
from repro.service.binary import encode_binary

COLUMNS = wire_tests.TestColumnDocumentBytes


def assert_same_table(seeded, derived):
    assert len(seeded) == len(derived) == len(JOB_COLUMNS)
    for name, (kind_a, values_a), (kind_b, values_b) in zip(
        JOB_COLUMNS, seeded, derived
    ):
        assert kind_a == kind_b, name
        if kind_a is None:
            assert type(values_a) is type(values_b) is tuple, name
            assert values_a == values_b, name
            assert list(map(type, values_a)) == list(map(type, values_b))
        else:
            assert values_a.dtype == values_b.dtype, name
            assert values_a.tobytes() == values_b.tobytes(), name


def random_spans(seed, n=300):
    """Shuffled spans with duplicates, int and float endpoints, -0.0
    starts, and per-job weights and demands."""
    rng = random.Random(seed)
    spans = []
    for _ in range(n):
        start = rng.choice([0, -0.0, 0.0, 1, 2.5, rng.uniform(0, 50)])
        if isinstance(start, float) and rng.random() < 0.3:
            start = int(start)
        spans.append((start, start + rng.choice([1, 0.5, rng.uniform(1, 9)])))
    spans += rng.sample(spans, n // 5)  # duplicate spans
    rng.shuffle(spans)
    weights = [rng.choice([1, 2.0, rng.random()]) for _ in spans]
    demands = [rng.randint(1, 4) for _ in spans]
    return spans, weights, demands


class TestSeededEqualsDerived:
    @pytest.mark.parametrize("seed", range(6))
    def test_instance(self, seed):
        spans, weights, demands = random_spans(seed)
        for kwargs in ({}, {"weights": weights}, {"demands": demands},
                       {"weights": weights, "demands": demands}):
            inst = Instance.from_spans(spans, 3, **kwargs)
            derived = Instance(jobs=inst.jobs, g=inst.g)
            assert_same_table(inst.columns, derived.columns)
            assert instance_fingerprint(inst) == instance_fingerprint(
                derived
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_budget_instance(self, seed):
        spans, weights, _ = random_spans(seed)
        inst = BudgetInstance.from_spans(spans, 2, 40.0, weights=weights)
        derived = BudgetInstance(jobs=inst.jobs, g=2, budget=40.0)
        assert_same_table(inst.columns, derived.columns)

    def test_seeded_kinds(self):
        spans, weights, demands = random_spans(7, n=40)
        table = Instance.from_spans(
            spans, 2, weights=weights, demands=demands
        ).columns
        kinds = [kind for kind, _ in table]
        assert kinds == ["f", "f", "f", "i", "i"]
        dtypes = [values.dtype.str for _, values in table]
        assert dtypes == ["<f8", "<f8", "<f8", "<i8", "<i8"]

    def test_negative_zero_keeps_its_sign(self):
        inst = Instance.from_spans([(1.0, 2.0), (-0.0, 1.0), (0.0, 1.0)], 2)
        kind, starts = inst.columns[0]
        assert kind == "f"
        assert np.signbit(starts).tolist() == [True, False, False]
        assert_same_table(
            inst.columns, Instance(jobs=inst.jobs, g=2).columns
        )

    def test_demand_beyond_int64_stays_objects(self):
        inst = Instance.from_spans(
            [(0, 2), (1, 3), (2, 4)], 2, demands=[1, 2**70, 3]
        )
        kind, values = inst.columns[3]
        assert kind is None and values == (1, 2**70, 3)
        assert_same_table(
            inst.columns, Instance(jobs=inst.jobs, g=2).columns
        )

    def test_empty(self):
        inst = Instance.from_spans([], 2)
        assert_same_table(inst.columns, Instance(jobs=(), g=2).columns)


class TestIntKinds:
    @staticmethod
    def int_instance(n=20):
        return Instance(
            jobs=tuple(Job(start=i, end=i + 3, job_id=i) for i in range(n)),
            g=2,
        )

    def test_int_starts_keep_kind_i(self):
        inst = self.int_instance()
        kinds = [kind for kind, _ in inst.columns]
        assert kinds == ["i", "i", "f", "i", "i"]
        assert inst.columns[0][1].dtype.str == "<i8"
        # ...and the frame is the one the record list gives.
        new, old = COLUMNS._docs(inst, "minbusy")
        COLUMNS.assert_same_bytes(
            COLUMNS._request("minbusy", *new),
            COLUMNS._request("minbusy", *old),
        )

    def test_mixed_column_is_untyped(self):
        jobs = tuple(
            Job(start=i if i % 2 else i + 0.5, end=i + 3, job_id=i)
            for i in range(12)
        )
        kind, values = Instance(jobs=jobs, g=2).columns[0]
        assert kind is None and values == tuple(j.start for j in jobs)


class TestCarriedOver:
    def test_with_budget(self):
        inst = Instance.from_spans(random_spans(1)[0], 3)
        assert inst.with_budget(12.0).columns is inst.columns

    def test_budget_instance_round_trip(self):
        inst = BudgetInstance.from_spans(random_spans(2)[0], 3, 12.0)
        assert inst.min_busy_instance.columns is inst.columns
        assert inst.with_budget(20.0).columns is inst.columns

    def test_throughput_normalize(self):
        inst = Instance.from_spans(random_spans(3)[0], 3)
        plan = plan_solve(inst, "maxthroughput", {"budget": 12.0})
        assert plan.instance.columns is inst.columns
        budget = BudgetInstance.from_spans(random_spans(3)[0], 3, 5.0)
        plan = plan_solve(budget, "maxthroughput", {"budget": 9.0})
        assert plan.instance.columns is budget.columns


class TestReaders:
    def test_fingerprint_skips_the_type_sweep(self, monkeypatch):
        inst = TestIntKinds.int_instance(30)
        expected = wire_tests._v1_reference_digest(inst)

        def no_sweep(values):
            raise AssertionError("the fingerprint typed a column")

        monkeypatch.setattr(jobs_module, "column_kind", no_sweep)
        assert instance_fingerprint(inst) == expected

    def test_typed_table_packs_without_sweep_or_conversion(
        self, monkeypatch
    ):
        inst = Instance.from_spans(random_spans(4)[0], 3)
        doc, _ = objective_instance_to_dict(inst, "minbusy")
        request = {"op": "solve", "objective": "minbusy", "instance": doc}
        expected = encode_binary(
            {**request, "instance": {**doc, "jobs": doc["jobs"].records()}}
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("the packer re-typed a typed column")

        monkeypatch.setattr(binary_module, "column_kind", forbidden)
        monkeypatch.setattr(binary_module, "_column_blob", forbidden)
        assert encode_binary(request) == expected

    def test_records_hold_python_scalars(self):
        inst = Instance.from_spans([(0, 1.5), (1, 2)], 2, demands=[2, 1])
        doc, _ = objective_instance_to_dict(inst, "minbusy")
        records = doc["jobs"].records()
        assert records == [
            {"start": 0.0, "end": 1.5, "weight": 1.0, "demand": 2,
             "job_id": 0},
            {"start": 1.0, "end": 2.0, "weight": 1.0, "demand": 1,
             "job_id": 1},
        ]
        assert {type(v) for rec in records for v in rec.values()} == {
            float, int
        }
