"""Append-only benchmark history (the ``BENCH_HISTORY.json`` artifact).

The E16/E17 floors catch *step* regressions (a vectorized path falling
back to scalar speed); slow drift hides inside the slack between the
measured number and the floor.  To make drift visible, benches append
their measured numbers here and CI uploads the file as an artifact —
``benchmarks/drift.py`` compares artifacts across runs.

Recording is opt-in: entries are written only when the
``BENCH_HISTORY_PATH`` environment variable names a destination (CI
sets it; plain local runs leave no files behind).  The file is a JSON
list of ``{"experiment", "recorded_at", "host", ...payload}`` objects;
each run appends, so pointing the variable at a persistent path
accumulates a local history too.

This module is the file's one writer.  Bench processes may still race
(``pytest-xdist``, two suites pointed at one path), so
:func:`append_history` holds an ``fcntl`` exclusive lock (the
:mod:`repro.engine.store` lock) across the read-modify-write and
publishes with an atomic rename: two racing writers produce two
entries, never one, and a reader never sees a half-written file.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.engine.store import _FileLock

__all__ = ["HISTORY_ENV_VAR", "append_history", "host_info", "record_bench"]

HISTORY_ENV_VAR = "BENCH_HISTORY_PATH"


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
    """Append one ``{"experiment", "recorded_at", "host", **payload}``
    entry under an exclusive lock on ``<path>.lock``, published with an
    atomic rename."""
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


def record_bench(experiment: str, payload: dict) -> Optional[Path]:
    """Append one measurement entry; returns the path, or ``None`` when
    ``BENCH_HISTORY_PATH`` is unset (recording disabled)."""
    dest = os.environ.get(HISTORY_ENV_VAR)
    if not dest:
        return None
    return append_history(Path(dest), experiment, payload)
