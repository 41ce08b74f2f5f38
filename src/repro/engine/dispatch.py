"""Structure-aware solver dispatch for both objectives.

MinBusy dispatch lives in :func:`repro.minbusy.solve_min_busy` (the
paper's case analysis); this module adds the matching MaxThroughput
case analysis — previously private to the CLI — so the engine and the
CLI route through one shared table:

====================  ====================================  ==========
instance class        algorithm                             guarantee
====================  ====================================  ==========
one-sided clique      exact prefix search                   exact
proper clique         consecutive DP (Theorem 4.x)          exact
clique                Alg1+Alg2 combination                 4
general               greedy shortest-first                 heuristic
====================  ====================================  ==========

Below the case analysis sits a second, size-based dispatch: the
FirstFit family (the general-case MinBusy fallback and the E2/E3/E15
comparator) switches its placement inner loop from the scalar
``try_add`` probing to the event-indexed occupancy engine
(:mod:`repro.core.occupancy`) at ``FIRSTFIT_VECTORIZE_MIN_SIZE`` jobs;
each FirstFit entry point makes that decision itself with
``backend="auto"``.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.instance import BudgetInstance
from ..core.schedule import Schedule

__all__ = ["pick_throughput_solver"]

ThroughputSolver = Callable[[BudgetInstance], Schedule]


def pick_throughput_solver(
    inst: BudgetInstance,
) -> Tuple[str, ThroughputSolver, Optional[float]]:
    """Mirror the paper's case analysis for MaxThroughput.

    Returns ``(name, solver, guarantee)`` where ``guarantee`` is the
    a-priori approximation factor (``None`` for exact algorithms and
    for the unanalysed general-case heuristic).
    """
    from ..maxthroughput import (
        COMBINED_RATIO,
        solve_clique_max_throughput,
        solve_one_sided_max_throughput,
        solve_proper_clique_max_throughput,
    )
    from ..maxthroughput.greedy import solve_greedy_shortest_first

    if inst.one_sided is not None:
        return "one_sided (exact)", solve_one_sided_max_throughput, None
    if inst.is_proper_clique:
        return (
            "proper_clique_dp (exact)",
            solve_proper_clique_max_throughput,
            None,
        )
    if inst.is_clique:
        return (
            "combined_alg1_alg2 (4-approx)",
            solve_clique_max_throughput,
            float(COMBINED_RATIO),
        )
    return (
        "greedy_shortest_first (heuristic)",
        solve_greedy_shortest_first,
        None,
    )
