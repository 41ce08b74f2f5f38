"""repro — reproduction of *Optimizing Busy Time on Parallel Machines*.

Mertzios, Shalom, Voloshin, Wong, Zaks (IEEE IPDPS 2012; TCS 562, 2015).

The package implements interval scheduling with bounded parallelism
``g``:

* **MinBusy** — schedule all jobs, minimize total machine busy time
  (:func:`repro.solve_min_busy` dispatches to the strongest algorithm
  for the instance class: exact DPs for one-sided / proper-clique,
  blossom matching for clique ``g=2``, set cover for small-``g``
  cliques, BestCut for proper instances, FirstFit in general).
* **MaxThroughput** — schedule the most jobs within a busy-time budget
  ``T`` (exact DP for proper cliques, the 4-approximation Alg1+Alg2
  combination for cliques, exact prefix search for one-sided).
* **2-D rectangles, trees, rings, variable demands** — the Section 3.4
  generalization and the Section 5 extensions.
* **Batch solver engine** (:mod:`repro.engine`, driven through
  :class:`repro.api.Session`) — the serving layer: a unified
  ``Session.solve(instance, objective=...)`` front door routing to
  the strongest applicable algorithm for every objective, a SHA-256
  fingerprint-keyed LRU result cache, and a
  ``Session.solve_many(instances, workers=N)`` batch API (chunked
  multiprocessing, deterministic input-order results).  Underneath it,
  :mod:`repro.core.vectorized` provides batched NumPy event-array
  kernels (pairwise overlaps, union length, point-clique depth,
  busy-time accounting) that the graph/analysis/capacity hot paths
  route through above :data:`repro.core.vectorized.VECTORIZE_MIN_SIZE`
  jobs, with the scalar implementations kept as reference oracles.

Quickstart::

    from repro import Instance, solve_min_busy
    inst = Instance.from_spans([(0, 4), (1, 5), (2, 8), (3, 9)], g=2)
    result = solve_min_busy(inst)
    print(result.algorithm, result.cost)

Session API (the serving layer — local, remote and sharded clients
are interchangeable, see :mod:`repro.api`)::

    from repro import Session, RemoteSession, ShardedClient

    with Session(store_path="/data/cache") as s:     # private cache stack
        res = s.solve(inst)                          # MinBusy (cached)
        res = s.solve(inst, "maxthroughput", budget=42.0)
        batch = s.solve_many(instances, workers=4)   # deterministic order
        print(s.cache_stats())                       # per-tier counters

    fleet = ShardedClient([RemoteSession(h) for h in hosts])
    batch = fleet.solve_many(instances)              # same bytes out

Batch CLI (``pip install -e .`` provides the ``repro`` entry point)::

    repro solve a.json b.json c.json --batch --workers 4 --json
    repro bench --n 10000          # scalar-vs-vectorized kernel table
"""

from .core import (
    BudgetInstance,
    BusyTimeError,
    Instance,
    InstanceError,
    Interval,
    InvalidIntervalError,
    InvalidScheduleError,
    Job,
    Machine,
    Schedule,
    UnsupportedInstanceError,
    combined_lower_bound,
    length_bound,
    make_jobs,
    parallelism_bound,
    span_bound,
)
from .minbusy import (
    SolveResult,
    solve_best_cut,
    solve_clique_g2_matching,
    solve_clique_setcover,
    solve_exact,
    solve_find_best_consecutive,
    solve_first_fit,
    solve_min_busy,
    solve_naive,
    solve_one_sided,
    solve_proper_clique_dp,
)
from .maxthroughput import (
    solve_alg1,
    solve_alg2,
    solve_clique_max_throughput,
    solve_exact_max_throughput,
    solve_one_sided_max_throughput,
    solve_proper_clique_max_throughput,
    solve_weighted_proper_clique,
)
from .rect import Rect, RectSchedule, bucket_first_fit, first_fit_2d, union_area
from .io import load_instance, save_instance
from .analysis.gantt import render_gantt
from .engine import EngineResult
from .api import (
    EngineConfig,
    RemoteSession,
    Session,
    ShardedClient,
    SolverClient,
)

__version__ = "1.0.0"

__all__ = [
    "BudgetInstance",
    "BusyTimeError",
    "Instance",
    "InstanceError",
    "Interval",
    "InvalidIntervalError",
    "InvalidScheduleError",
    "Job",
    "Machine",
    "Schedule",
    "UnsupportedInstanceError",
    "combined_lower_bound",
    "length_bound",
    "make_jobs",
    "parallelism_bound",
    "span_bound",
    "SolveResult",
    "solve_best_cut",
    "solve_clique_g2_matching",
    "solve_clique_setcover",
    "solve_exact",
    "solve_find_best_consecutive",
    "solve_first_fit",
    "solve_min_busy",
    "solve_naive",
    "solve_one_sided",
    "solve_proper_clique_dp",
    "solve_alg1",
    "solve_alg2",
    "solve_clique_max_throughput",
    "solve_exact_max_throughput",
    "solve_one_sided_max_throughput",
    "solve_proper_clique_max_throughput",
    "solve_weighted_proper_clique",
    "Rect",
    "RectSchedule",
    "bucket_first_fit",
    "first_fit_2d",
    "union_area",
    "load_instance",
    "save_instance",
    "render_gantt",
    "EngineResult",
    "EngineConfig",
    "Session",
    "RemoteSession",
    "ShardedClient",
    "SolverClient",
    "__version__",
]
