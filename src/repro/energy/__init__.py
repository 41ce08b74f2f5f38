"""Energy accounting extension (paper Section 5, energy-aware future work).

The paper's cost model charges busy time only.  Its Section 5 points at
two refinements from the energy-aware scheduling literature: machines
that can *sleep* between jobs at a wake-up cost [2, 7], and speed
scaling.  This package implements the first as a post-processing layer:
given any schedule from the core library, :mod:`repro.energy.power`
computes its energy under a busy/idle/sleep power model and applies the
optimal per-gap idle-vs-sleep policy (the classic ski-rental threshold).

Registered with the engine as the ``energy`` objective
(:mod:`repro.energy.objective`): pass an
:class:`~repro.energy.instance.EnergyInstance` — or a plain
``Instance`` plus ``power=PowerModel(...)`` — to
:meth:`repro.api.Session.solve`.
"""

from .instance import EnergyInstance
from .power import (
    PowerModel,
    gap_policy_threshold,
    schedule_energy,
    machine_energy,
)

__all__ = [
    "EnergyInstance",
    "PowerModel",
    "gap_policy_threshold",
    "schedule_energy",
    "machine_energy",
]
