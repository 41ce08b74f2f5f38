"""Importable reference oracles and generators shared across tests.

These brute-force solvers used to live in ``conftest.py``, but test
modules cannot import from a conftest with a plain import (and relative
imports fail when the test directory is collected as top-level modules).
Keeping them in a regular module makes ``from tests.helpers import ...``
work everywhere — including under ``pytest --collect-only``.

:func:`family_instance` / :func:`family_request` are the seeded
per-family generators behind the executor-backend differential suite
and the service tests: one canonical way to produce "a random instance
of family F at seed s", both as an engine instance object and as the
wire-format ``(instance document, params)`` pair the service speaks.

:class:`ModuloPartitioner` is the CRC32-modulo sharding rule the
consistent-hash ring is measured against.

:func:`records_instance_to_dict` is the list-of-dicts form of
:func:`repro.io.objective_instance_to_dict`, the reference the
column-wise wire documents must encode byte-identically to.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.intervals import union_length
from repro.core.jobs import Job
from repro.core.machines import max_concurrency

__all__ = [
    "brute_force_min_busy",
    "brute_force_max_throughput",
    "ALL_FAMILIES",
    "family_instance",
    "family_request",
    "spawn_serve_subprocess",
    "ModuloPartitioner",
    "records_instance_to_dict",
]


def brute_force_min_busy(jobs: Sequence[Job], g: int) -> float:
    """Reference optimum by enumerating *all* set partitions (tiny n).

    Independent of the library's exact solver: plain recursive partition
    enumeration with concurrency-checked groups.
    """
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return 0.0
    best = [float("inf")]

    def rec(remaining: List[int], groups: List[List[int]], cost: float) -> None:
        if cost >= best[0]:
            return
        if not remaining:
            best[0] = cost
            return
        first, rest = remaining[0], remaining[1:]
        # Put `first` into an existing group or a new one.
        for gi, grp in enumerate(groups):
            members = [jobs[i] for i in grp] + [jobs[first]]
            if max_concurrency(members) <= g:
                old = union_length(jobs[i].interval for i in grp)
                new = union_length(j.interval for j in members)
                grp.append(first)
                rec(rest, groups, cost - old + new)
                grp.pop()
        groups.append([first])
        rec(rest, groups, cost + jobs[first].length)
        groups.pop()

    rec(list(range(n)), [], 0.0)
    return best[0]


def brute_force_max_throughput(jobs: Sequence[Job], g: int, budget: float) -> int:
    """Reference MaxThroughput optimum: try all subsets (tiny n)."""
    jobs = list(jobs)
    n = len(jobs)
    best = 0
    for mask in range(1 << n):
        k = bin(mask).count("1")
        if k <= best:
            continue
        subset = [jobs[i] for i in range(n) if mask >> i & 1]
        if brute_force_min_busy(subset, g) <= budget + 1e-9:
            best = k
    return best


# ----------------------------------------------------------------------
# per-family seeded generators (wire format + engine instances)
# ----------------------------------------------------------------------

#: Every registered objective family, in registry order.
ALL_FAMILIES = (
    "capacity",
    "energy",
    "flexible",
    "maxthroughput",
    "minbusy",
    "rect2d",
    "ring",
    "tree",
)


def family_request(family: str, seed: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """A seeded ``(instance document, params document)`` pair.

    The documents use the wire/file JSON shapes of :mod:`repro.io` —
    exactly what the service receives — and alternate dispatch arms by
    seed parity where a family has several (2-D gamma ratio, flexible
    tight-vs-slack, unit-vs-multi demand), so differential suites
    built on this cover every algorithm the dispatch tables can pick.
    """
    # zlib.crc32, not hash(): string hashing is salted per process and
    # the generated content must be reproducible across runs/hosts.
    rng = np.random.default_rng(
        zlib.crc32(f"{family}:{seed}".encode()) % (2**32)
    )
    n = 10

    def _jobs(demands=False):
        starts = rng.uniform(0.0, 40.0, n)
        lengths = rng.uniform(1.0, 12.0, n)
        return [
            {
                "start": float(s),
                "end": float(s + ln),
                "weight": float(rng.uniform(0.5, 2.0)),
                "demand": int(rng.integers(1, 4)) if demands else 1,
            }
            for s, ln in zip(starts, lengths)
        ]

    if family == "minbusy":
        return {"g": 3, "jobs": _jobs()}, {}
    if family == "maxthroughput":
        return (
            {"g": 3, "budget": float(20.0 + seed % 17), "jobs": _jobs()},
            {},
        )
    if family == "capacity":
        multi = seed % 2 == 0  # alternate demand FirstFit vs minbusy arm
        return {"g": 4, "jobs": _jobs(demands=multi)}, {}
    if family == "energy":
        return (
            {"g": 3, "jobs": _jobs()},
            {
                "power": {
                    "busy_power": 1.0,
                    "idle_power": 0.4,
                    "wake_cost": 2.5,
                }
            },
        )
    if family == "rect2d":
        hi = 2.0 if seed % 2 == 0 else 8.0  # FirstFit vs Bucket arm
        rects = []
        for _ in range(n):
            x0 = float(rng.uniform(0.0, 30.0))
            w = float(rng.uniform(1.0, hi))
            y0 = float(rng.uniform(0.0, 10.0))
            h = float(rng.uniform(1.0, 4.0))
            rects.append({"x0": x0, "y0": y0, "x1": x0 + w, "y1": y0 + h})
        return {"g": 3, "rects": rects}, {}
    if family == "ring":
        lo, hi = (0.1, 0.3) if seed % 2 == 0 else (0.02, 0.45)
        jobs = []
        for t in rng.uniform(0.0, 40.0, n):
            jobs.append(
                {
                    "a0": float(rng.uniform(0.0, 1.0)),
                    "alen": float(rng.uniform(lo, hi)),
                    "t0": float(t),
                    "t1": float(t + rng.uniform(1.0, 10.0)),
                }
            )
        return {"g": 3, "circumference": 1.0, "jobs": jobs}, {}
    if family == "tree":
        n_nodes = 8
        edges = [
            [int(rng.integers(0, v)), v, float(rng.uniform(0.5, 3.0))]
            for v in range(1, n_nodes)
        ]
        pairs = rng.integers(0, n_nodes, size=(n + 2, 2))
        paths = [[int(u), int(v)] for u, v in pairs if u != v]
        return {"g": 3, "tree": {"n": n_nodes, "edges": edges}, "paths": paths}, {}
    if family == "flexible":
        tight = seed % 2 == 0  # tight windows route through the reduction
        jobs = []
        for s, w in zip(rng.uniform(0, 25, 8), rng.uniform(2.0, 8.0, 8)):
            proc = w if tight else max(0.5, w * rng.uniform(0.3, 0.9))
            jobs.append(
                {
                    "window_start": float(s),
                    "window_end": float(s + w),
                    "proc": float(proc),
                }
            )
        return {"g": 2, "jobs": jobs}, {}
    raise ValueError(f"unknown family {family!r}")


def spawn_serve_subprocess(*extra_args: str, timeout: float = 30.0):
    """A real ``repro serve`` process on an ephemeral port.

    Starts ``python -m repro serve --port 0 --no-store`` (plus any
    ``extra_args``), waits for the post-bind readiness banner, and
    returns ``(process, port)``.  The caller owns the process
    (``terminate()`` + ``wait()`` when done) — the RemoteSession
    conformance suite runs against exactly this, a live server over a
    real socket.
    """
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(src)
    )
    env.pop("REPRO_CACHE_DIR", None)  # hermetic: no ambient store
    # Hermetic twice over: an ambient fleet spec would turn every
    # spawned shard into a recursive sharding router.
    env.pop("REPRO_SHARDS", None)
    # And an ambient wire preference would skew negotiation tests;
    # callers pick the wire explicitly via ``--wire``.
    env.pop("REPRO_WIRE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--no-store", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    # readline() blocks, so the banner read runs on a helper thread —
    # a child that hangs before printing must fail within `timeout`,
    # not stall the whole test session.
    import threading

    box: list = []
    reader = threading.Thread(
        target=lambda: box.append(proc.stdout.readline()), daemon=True
    )
    reader.start()
    reader.join(timeout)
    banner = box[0] if box else ""
    match = re.search(r"listening on [\w.\-]+:(\d+)", banner or "")
    if match is None:
        proc.terminate()
        proc.wait(timeout=5)
        raise RuntimeError(
            f"repro serve produced no readiness banner: {banner!r}"
        )
    return proc, int(match.group(1))


class ModuloPartitioner:
    """CRC32(key) % N, the historical sharding rule kept as an oracle.

    Stable across processes and runs (no salted hashing) and uniform
    enough for load spreading, but a fleet-size change remaps ~all
    keys, which is what the ring's reshard tests measure against.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, key: str) -> int:
        return zlib.crc32(key.encode()) % self.n_shards

    def preference(self, key: str) -> Tuple[int, ...]:
        """Owner first, then the remaining shards in wrap-around order."""
        owner = self.shard_of(key)
        return tuple(
            (owner + step) % self.n_shards for step in range(self.n_shards)
        )


def family_instance(family: str, seed: int) -> Tuple[Any, Dict[str, Any]]:
    """The same seeded request as engine-level ``(instance, kwargs)``.

    Built *from the wire documents* through the same :mod:`repro.io`
    loaders the service uses, so in-process and over-the-wire tests
    solve literally identical content.
    """
    from repro.io import objective_instance_from_dict
    from repro.service.protocol import params_from_doc

    doc, params = family_request(family, seed)
    return (
        objective_instance_from_dict(doc, family),
        params_from_doc(family, params),
    )


def records_instance_to_dict(instance: Any, objective: str) -> tuple:
    """``objective_instance_to_dict`` with the base job-list families'
    job table as a plain list of ``{start, end, weight, demand,
    job_id}`` dicts, read job by job."""
    from repro.core.instance import BudgetInstance
    from repro.io import objective_instance_to_dict

    if objective not in ("minbusy", "maxthroughput", "capacity", "energy"):
        return objective_instance_to_dict(instance, objective)
    params: Dict[str, Any] = {}
    if objective == "energy":
        from repro.energy.instance import EnergyInstance

        if isinstance(instance, EnergyInstance):
            params["power"] = {
                "busy_power": instance.model.busy_power,
                "idle_power": instance.model.idle_power,
                "wake_cost": instance.model.wake_cost,
            }
            instance = instance.instance
    doc: Dict[str, Any] = {
        "g": instance.g,
        "jobs": [
            {
                "start": j.start,
                "end": j.end,
                "weight": j.weight,
                "demand": j.demand,
                "job_id": j.job_id,
            }
            for j in instance.jobs
        ],
    }
    if isinstance(instance, BudgetInstance):
        doc["budget"] = instance.budget
    return doc, params
