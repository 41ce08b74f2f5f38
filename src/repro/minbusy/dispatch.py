"""MinBusy dispatcher: pick the strongest applicable algorithm.

Mirrors the paper's case analysis:

====================  =============================  ==================
instance class        algorithm                      guarantee
====================  =============================  ==================
one-sided clique      Observation 3.1 grouping       exact
proper clique         consecutive DP (Thm. 3.2)      exact
clique, g = 2         blossom matching (Lemma 3.1)   exact
clique, small g       set cover (Lemma 3.2)          g·H_g/(H_g+g-1)
proper                BestCut (Thm. 3.1)             2 - 1/g
general               FirstFit ([13])                4
====================  =============================  ==================

``solve_min_busy`` routes accordingly and returns the schedule together
with the name of the algorithm used via the ``algorithm`` attribute on
the result (a thin :class:`SolveResult` wrapper).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instance import Instance
from ..core.schedule import Schedule
from .bestcut import solve_best_cut
from .clique_matching import solve_clique_g2_matching
from .clique_setcover import (
    MAX_ENUMERATION,
    enumeration_size,
    solve_clique_setcover,
)
from .consecutive_dp import solve_proper_clique_dp
from .firstfit import FIRST_FIT_GUARANTEE, solve_first_fit
from .onesided import solve_one_sided

__all__ = ["SolveResult", "route_min_busy", "solve_min_busy"]

# Beyond this g the Lemma 3.2 ratio exceeds FirstFit's clique guarantee
# of 2 ([13]) and the enumeration cost explodes; fall back to FirstFit.
_SETCOVER_MAX_G = 6


@dataclass(frozen=True)
class SolveResult:
    """A schedule plus provenance: which algorithm produced it and the
    a-priori approximation guarantee it carries (None = exact)."""

    schedule: Schedule
    algorithm: str
    guarantee: float | None

    @property
    def cost(self) -> float:
        return self.schedule.cost


def route_min_busy(instance: Instance) -> str:
    """Name the algorithm :func:`solve_min_busy` would pick.

    Pure routing — no solving: the case analysis above as one
    predicate chain, so callers can ask which arm an instance takes
    without running it.
    """
    if instance.n == 0:
        return "empty"
    if instance.one_sided is not None:
        return "one_sided"
    if instance.is_proper_clique:
        return "proper_clique_dp"
    if instance.is_clique and instance.g == 2:
        return "clique_g2_matching"
    if instance.is_clique and instance.g <= _SETCOVER_MAX_G:
        # Guard the O(n^g) enumeration.
        if enumeration_size(instance.n, instance.g) <= MAX_ENUMERATION:
            return "clique_setcover"
    if instance.is_proper:
        return "bestcut"
    return "first_fit"


def solve_min_busy(instance: Instance) -> SolveResult:
    """Solve MinBusy with the best algorithm for the instance class."""
    route = route_min_busy(instance)

    if route == "empty":
        return SolveResult(Schedule(g=instance.g), "empty", None)

    if route == "one_sided":
        return SolveResult(solve_one_sided(instance), "one_sided", None)

    if route == "proper_clique_dp":
        return SolveResult(
            solve_proper_clique_dp(instance), "proper_clique_dp", None
        )

    if route == "clique_g2_matching":
        return SolveResult(
            solve_clique_g2_matching(instance), "clique_g2_matching", None
        )

    if route == "clique_setcover":
        # Report the *sound* guarantee min(H_g+1, g), not the
        # paper's claimed g·H_g/(H_g+g-1) — see finding F1 in
        # EXPERIMENTS.md: the claimed ratio is violated by a 3-job
        # counterexample.
        from .clique_setcover import lemma32_sound_ratio

        return SolveResult(
            solve_clique_setcover(instance),
            "clique_setcover",
            lemma32_sound_ratio(instance.g),
        )

    if route == "bestcut":
        from .bestcut import bestcut_ratio

        return SolveResult(
            solve_best_cut(instance), "bestcut", bestcut_ratio(instance.g)
        )

    return SolveResult(
        solve_first_fit(instance), "first_fit", FIRST_FIT_GUARANTEE
    )
