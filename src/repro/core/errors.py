"""Exception hierarchy for the busy-time scheduling library.

All library-specific failures derive from :class:`BusyTimeError` so that
callers can catch one base class.  The subclasses distinguish the three
failure families that show up in practice:

* malformed inputs (:class:`InvalidIntervalError`, :class:`InstanceError`),
* schedules that violate the capacity constraint
  (:class:`InvalidScheduleError`),
* algorithms invoked on instance classes they do not support
  (:class:`UnsupportedInstanceError`), e.g. running the proper-clique DP
  on a non-clique instance.
"""

from __future__ import annotations


class BusyTimeError(Exception):
    """Base class for all errors raised by this library."""


class InvalidIntervalError(BusyTimeError, ValueError):
    """An interval/rectangle has non-positive extent or invalid endpoints."""


class InstanceError(BusyTimeError, ValueError):
    """An instance is malformed (e.g. g < 1, empty where not allowed, T < 0)."""


class InvalidScheduleError(BusyTimeError, ValueError):
    """A schedule violates validity (more than g concurrent jobs on a machine,
    or schedules a job that is not part of the instance)."""


class UnsupportedInstanceError(BusyTimeError, ValueError):
    """An algorithm was invoked on an instance class it does not handle.

    The paper's specialized algorithms (clique matching, BestCut, the
    consecutive DPs) have structural preconditions; violating them would
    silently produce wrong results, so we fail loudly instead.
    """


class BudgetInfeasibleError(BusyTimeError, ValueError):
    """A MaxThroughput budget is too small to schedule anything meaningful
    where an algorithm requires otherwise."""

