"""Loadgen reporting: latency percentiles and the locked history file.

``BENCH_HISTORY.json`` now has two writer populations — the bench
suite and ``repro loadgen`` — and CI runs them concurrently in one
job matrix, so the historical read-modify-write append lost entries
under races.  :func:`append_history` is the one shared append path:
an ``fcntl`` exclusive lock on a sidecar ``.lock`` file (the
:mod:`repro.engine.store` lock itself) brackets the read, the append
and an atomic ``os.replace`` publish, so concurrent writers serialize
and a reader never sees a half-written file.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..engine.store import _FileLock

__all__ = [
    "HISTORY_ENV_VAR",
    "LOADGEN_EXPERIMENT",
    "host_info",
    "append_history",
    "percentile",
    "latency_summary",
    "history_payload",
    "maybe_record",
]

HISTORY_ENV_VAR = "BENCH_HISTORY_PATH"

#: The drift experiment key loadgen runs record under (``e20.*`` metrics).
LOADGEN_EXPERIMENT = "e20_loadgen"


def host_info() -> Dict[str, Any]:
    """The machine identity stamped on every history entry.

    Timings from different machines are not comparable — a laptop
    entry next to a CI-runner entry reads as a regression.  Drift
    tracking uses this block to skip cross-machine pairs instead of
    flagging them.
    """
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 0,
    }


def append_history(
    path: Path, experiment: str, payload: Dict[str, Any]
) -> Path:
    """Append one ``{"experiment", "recorded_at", **payload}`` entry.

    Concurrency-safe: the whole read-modify-write runs under an
    exclusive lock on ``<path>.lock``, and the updated list is
    published with an atomic rename — two racing writers produce two
    entries, never one, and never a corrupt file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _FileLock(path.with_suffix(path.suffix + ".lock")):
        entries: List[dict] = []
        if path.exists():
            try:
                entries = json.loads(path.read_text())
            except (ValueError, OSError):
                entries = []
            if not isinstance(entries, list):
                entries = []
        entries.append(
            {
                "experiment": experiment,
                "recorded_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
                "host": host_info(),
                **payload,
            }
        )
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(entries, indent=2) + "\n")
        os.replace(tmp, path)
    return path


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


def history_payload(report: Dict[str, Any]) -> Dict[str, Any]:
    """The ``e20_loadgen`` entry for :func:`append_history`.

    Latency is recorded *inverted* (``p99_inv = 1/p99_seconds``):
    drift tracking flags metrics that **drop**, so every recorded
    number must point in the "bigger is better" direction.
    """
    latency = report.get("latency_ms", {})
    p99_s = float(latency.get("p99_ms", 0.0)) / 1e3
    validation = report.get("validation", {})
    payload: Dict[str, Any] = {
        "requests": report.get("requests", 0),
        "rps": report.get("rps", 0.0),
        "bytes_per_sec": report.get("bytes_per_sec", 0.0),
        "p50_ms": latency.get("p50_ms", 0.0),
        "p99_ms": latency.get("p99_ms", 0.0),
        "p99_inv": (1.0 / p99_s) if p99_s > 0 else 0.0,
        "validated_fraction": validation.get("validated_fraction", 0.0),
        "hit_rates": {
            tier: stats.get("hit_rate", 0.0)
            for tier, stats in report.get("tiers", {}).items()
        },
        "orphaned_live": report.get("orphaned_batches", {}).get("live", 0),
    }
    return payload


def maybe_record(
    report: Dict[str, Any], history_path: Optional[Path] = None
) -> Optional[Path]:
    """Record the run when a destination is configured.

    ``history_path`` wins; otherwise ``BENCH_HISTORY_PATH`` (the same
    opt-in the bench suite uses); neither → no file is written.
    """
    dest = history_path or os.environ.get(HISTORY_ENV_VAR)
    if not dest:
        return None
    return append_history(
        Path(dest), LOADGEN_EXPERIMENT, history_payload(report)
    )
