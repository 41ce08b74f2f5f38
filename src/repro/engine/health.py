"""Fleet health: per-shard circuit state with re-probe backoff.

A :class:`ShardCircuit` tracks one shard's availability through three
states:

* **healthy** — routable; any success keeps it here.
* **suspect** — one recent failure; still routable (the next request
  is itself the probe), but the failover layer has already re-routed
  the failed slice elsewhere.
* **ejected** — ``eject_after`` consecutive failures; *not* routable
  until the re-probe backoff expires, at which point the circuit is
  half-open: exactly routable again, and the next request decides —
  success heals the shard fully, another failure re-ejects it with the
  backoff doubled (capped).  A dead machine therefore costs one failed
  probe per backoff window, not one per request.

:class:`FleetHealth` aggregates the circuits, answers "which shards
may I route to right now", and renders flat-dict stats suitable for
embedding in ``cache_stats`` documents (every leaf is a plain counter
mapping, the shape the conformance suite pins).

All state transitions run under one lock — the sharded executor
records successes/failures from concurrent fan-out threads.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "HEALTHY",
    "SUSPECT",
    "EJECTED",
    "ShardCircuit",
    "FleetHealth",
]

HEALTHY = "healthy"
SUSPECT = "suspect"
EJECTED = "ejected"


class ShardCircuit:
    """Circuit-breaker state for one shard endpoint."""

    def __init__(
        self,
        *,
        eject_after: int = 2,
        probe_backoff: float = 1.0,
        max_backoff: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1, got {eject_after}")
        if probe_backoff <= 0:
            raise ValueError(
                f"probe_backoff must be > 0, got {probe_backoff}"
            )
        self.state = HEALTHY
        self.successes = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None
        self._eject_after = eject_after
        self._probe_backoff = probe_backoff
        self._max_backoff = max_backoff
        self._backoff = probe_backoff
        self._retry_at: Optional[float] = None
        self._clock = clock

    def record_success(self) -> None:
        self.state = HEALTHY
        self.successes += 1
        self.consecutive_failures = 0
        self._backoff = self._probe_backoff
        self._retry_at = None

    def record_failure(self, error: Optional[BaseException] = None) -> None:
        was_ejected = self.state == EJECTED
        self.failures += 1
        self.consecutive_failures += 1
        if error is not None:
            self.last_error = f"{type(error).__name__}: {error}"
        if self.consecutive_failures >= self._eject_after:
            if was_ejected:
                # A failed half-open probe: back off harder next time.
                self._backoff = min(self._backoff * 2, self._max_backoff)
            self.state = EJECTED
            self._retry_at = self._clock() + self._backoff
        else:
            self.state = SUSPECT

    def available(self) -> bool:
        """Routable now?  Ejected circuits half-open after the backoff."""
        if self.state != EJECTED:
            return True
        return self._retry_at is None or self._clock() >= self._retry_at

    def stats(self) -> Dict[str, object]:
        """Flat counters (the conformance leaf shape)."""
        retry_in = 0.0
        if self.state == EJECTED and self._retry_at is not None:
            retry_in = max(0.0, self._retry_at - self._clock())
        return {
            "state": self.state,
            "successes": self.successes,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "retry_in_seconds": retry_in,
            "last_error": self.last_error or "",
        }


class FleetHealth:
    """The circuits of one shard fleet, guarded by one lock."""

    def __init__(
        self,
        n_shards: int,
        *,
        eject_after: int = 2,
        probe_backoff: float = 1.0,
        max_backoff: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._lock = threading.Lock()
        self._circuits = [
            ShardCircuit(
                eject_after=eject_after,
                probe_backoff=probe_backoff,
                max_backoff=max_backoff,
                clock=clock,
            )
            for _ in range(n_shards)
        ]

    def __len__(self) -> int:
        return len(self._circuits)

    def circuit(self, shard: int) -> ShardCircuit:
        return self._circuits[shard]

    def record_success(self, shard: int) -> None:
        with self._lock:
            self._circuits[shard].record_success()

    def record_failure(
        self, shard: int, error: Optional[BaseException] = None
    ) -> None:
        with self._lock:
            self._circuits[shard].record_failure(error)

    def available(self, shard: int) -> bool:
        with self._lock:
            return self._circuits[shard].available()

    def available_shards(self) -> List[int]:
        """Shard indices routable right now (incl. half-open probes)."""
        with self._lock:
            return [
                i for i, c in enumerate(self._circuits) if c.available()
            ]

    def summary(self) -> Dict[str, int]:
        """State histogram — the one-line fleet view for ``health``."""
        with self._lock:
            counts = {HEALTHY: 0, SUSPECT: 0, EJECTED: 0}
            for circuit in self._circuits:
                counts[circuit.state] += 1
            return counts

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-shard circuit counters keyed ``shard0..shardN-1``."""
        with self._lock:
            return {
                f"shard{i}": circuit.stats()
                for i, circuit in enumerate(self._circuits)
            }
