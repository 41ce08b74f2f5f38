"""Loadgen reporting: nearest-rank latency percentiles."""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["percentile", "latency_summary"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(
        0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    )
    return float(sorted_values[rank])


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/max over per-request latencies (seconds in, ms out)."""
    values = sorted(latencies)
    return {
        "count": len(values),
        "p50_ms": percentile(values, 0.50) * 1e3,
        "p90_ms": percentile(values, 0.90) * 1e3,
        "p99_ms": percentile(values, 0.99) * 1e3,
        "max_ms": (values[-1] * 1e3) if values else 0.0,
    }
