"""Benchmark drift detection across ``BENCH_HISTORY.json`` artifacts.

The E16/E17/E18 floors catch *step* regressions; slow drift hides in
the slack between the measured number and the (CI-softened) floor.
This tool closes the ROADMAP's open loop: CI downloads the previous
run's ``BENCH_HISTORY.json`` artifact and diffs it against the current
run's — any tracked speedup that dropped by more than the threshold
(default 30%) is flagged.

Usage::

    python benchmarks/drift.py --previous prev/BENCH_HISTORY.json \
        --current bench-history/BENCH_HISTORY.json [--threshold 0.30] \
        [--warn-only] [--json]

Exit codes: ``0`` — no regression (or ``--warn-only``); ``1`` — at
least one metric regressed beyond the threshold; missing/empty inputs
exit ``0`` with a note (first run, expired artifact), so the CI job
never fails for lack of history.

Tracked metrics (the last record per experiment wins, mirroring what a
re-run would measure):

* ``e16_kernels``: geomean speedup + each kernel row's speedup,
* ``e16_batch``: the cache speedup,
* ``e17_firstfit``: each FirstFit variant's speedup,
* ``e18_store``: the warm-store speedup,
* ``e19_service``: the concurrent-vs-sequential service speedup,
* ``e21_wire``: binary wire serving — NDJSON-equivalent bytes/sec,
  inverted binary p99 and the binary-vs-NDJSON wall speedup,
* ``e23_obs``: observability overhead — ``overhead_inv``
  (``1/(1+overhead)``), so instrumentation getting *more* expensive
  reads as a drop.

Only ratios and rates are compared — absolute wall times shift with
runner hardware, but scalar-vs-vectorized (and cold-vs-warm) ratios
and hit rates are self-normalizing, which is what makes cross-run
comparison meaningful on shared runners at all.
(``e21.bytes_per_sec`` and ``e21.p99_inv`` are the exception: they
are absolute, so the CI threshold gives them headroom.)

History entries additionally carry a ``host`` block (platform, python
version, cpu count), stamped by ``benchmarks/history.py``.  When an
experiment's two latest entries come from *different* machines, even
the self-normalizing ratios shift (a different core count changes what
"concurrent speedup" means), so the diff skips that experiment's
metrics with a note instead of flagging phantom regressions; entries
predating the block compare as before.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "extract_metrics",
    "diff_metrics",
    "incomparable_experiments",
    "main",
]


def _last_per_experiment(entries: List[dict]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for entry in entries:
        name = entry.get("experiment")
        if isinstance(name, str):
            out[name] = entry
    return out


def extract_metrics(entries: List[dict]) -> Dict[str, float]:
    """Flatten one history file into ``metric name -> speedup``."""
    latest = _last_per_experiment(entries)
    metrics: Dict[str, float] = {}
    e16 = latest.get("e16_kernels")
    if e16:
        if isinstance(e16.get("geomean_speedup"), (int, float)):
            metrics["e16.geomean"] = float(e16["geomean_speedup"])
        for row in e16.get("rows", []):
            if isinstance(row.get("speedup"), (int, float)):
                metrics[f"e16.{row.get('kernel')}"] = float(row["speedup"])
    batch = latest.get("e16_batch")
    if batch and isinstance(batch.get("cache_speedup"), (int, float)):
        metrics["e16.cache_speedup"] = float(batch["cache_speedup"])
    e17 = latest.get("e17_firstfit")
    if e17:
        for row in e17.get("rows", []):
            if isinstance(row.get("speedup"), (int, float)):
                metrics[f"e17.{row.get('variant')}"] = float(row["speedup"])
    e18 = latest.get("e18_store")
    if e18 and isinstance(e18.get("store_speedup"), (int, float)):
        metrics["e18.store_speedup"] = float(e18["store_speedup"])
    e19 = latest.get("e19_service")
    if e19 and isinstance(e19.get("service_speedup"), (int, float)):
        metrics["e19.service_speedup"] = float(e19["service_speedup"])
    e21 = latest.get("e21_wire")
    if e21:
        for key in ("bytes_per_sec", "p99_inv", "wire_speedup"):
            if isinstance(e21.get(key), (int, float)):
                metrics[f"e21.{key}"] = float(e21[key])
    e23 = latest.get("e23_obs")
    if e23 and isinstance(e23.get("overhead_inv"), (int, float)):
        metrics["e23.overhead_inv"] = float(e23["overhead_inv"])
    return metrics


def incomparable_experiments(
    prev_entries: List[dict], cur_entries: List[dict]
) -> List[Tuple[str, List[str]]]:
    """Experiments whose latest entries ran on different machines.

    Compares the ``host`` blocks of the last record per experiment on
    each side; a mismatch returns that experiment with the metric
    names it contributes, so the caller drops them from the diff.
    Entries without a ``host`` block (pre-dating it) are never
    skipped.
    """
    prev_latest = _last_per_experiment(prev_entries)
    cur_latest = _last_per_experiment(cur_entries)
    skipped: List[Tuple[str, List[str]]] = []
    for name in sorted(set(prev_latest) & set(cur_latest)):
        prev_host = prev_latest[name].get("host")
        cur_host = cur_latest[name].get("host")
        if (
            isinstance(prev_host, dict)
            and isinstance(cur_host, dict)
            and prev_host != cur_host
        ):
            dropped = sorted(
                set(extract_metrics([prev_latest[name]]))
                | set(extract_metrics([cur_latest[name]]))
            )
            skipped.append((name, dropped))
    return skipped


def diff_metrics(
    previous: Dict[str, float],
    current: Dict[str, float],
    threshold: float,
) -> List[Tuple[str, float, float, float]]:
    """Regressions ``(name, prev, cur, drop_fraction)`` beyond threshold.

    Metrics present in only one file are skipped (new benches appear,
    old ones retire); only genuine drops count, improvements never
    flag.
    """
    regressions = []
    for name in sorted(set(previous) & set(current)):
        prev, cur = previous[name], current[name]
        if prev <= 0:
            continue
        drop = (prev - cur) / prev
        if drop > threshold:
            regressions.append((name, prev, cur, drop))
    return regressions


def _load(path: Path) -> Optional[List[dict]]:
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, list) else None


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="diff BENCH_HISTORY.json artifacts across runs"
    )
    ap.add_argument("--previous", required=True, type=Path)
    ap.add_argument("--current", required=True, type=Path)
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="fractional drop that counts as a regression (default 0.30)",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (noisy shared runners)",
    )
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)

    prev_entries = _load(args.previous)
    cur_entries = _load(args.current)
    if prev_entries is None:
        print(f"drift: no previous history at {args.previous}; skipping")
        return 0
    if cur_entries is None:
        print(f"drift: no current history at {args.current}; skipping")
        return 0

    previous = extract_metrics(prev_entries)
    current = extract_metrics(cur_entries)
    skipped = incomparable_experiments(prev_entries, cur_entries)
    for _, dropped in skipped:
        for metric in dropped:
            previous.pop(metric, None)
            current.pop(metric, None)
    regressions = diff_metrics(previous, current, args.threshold)
    compared = sorted(set(previous) & set(current))

    if args.json:
        print(
            json.dumps(
                {
                    "compared": compared,
                    "skipped_cross_host": [
                        {"experiment": name, "metrics": dropped}
                        for name, dropped in skipped
                    ],
                    "threshold": args.threshold,
                    "regressions": [
                        {
                            "metric": name,
                            "previous": prev,
                            "current": cur,
                            "drop": drop,
                        }
                        for name, prev, cur, drop in regressions
                    ],
                },
                indent=2,
            )
        )
    else:
        print(
            f"drift: compared {len(compared)} metrics "
            f"(threshold {args.threshold:.0%})"
        )
        for name, dropped in skipped:
            print(
                f"drift: skipped {name} — recorded on a different "
                f"host ({len(dropped)} metrics not comparable)"
            )
        for name in compared:
            marker = ""
            for rname, prev, cur, drop in regressions:
                if rname == name:
                    marker = f"  << regressed {drop:.0%}"
            print(
                f"  {name:28s} {previous[name]:8.2f}x -> "
                f"{current[name]:8.2f}x{marker}"
            )
        if not regressions:
            print("drift: OK — no metric dropped beyond the threshold")
    if regressions and not args.warn_only:
        print(
            f"drift: {len(regressions)} metric(s) regressed more than "
            f"{args.threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
