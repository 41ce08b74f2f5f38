"""Exposition: snapshots rendered as Prometheus text or pinned JSON.

Two formats over one :meth:`MetricsRegistry.snapshot` document:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` headers, escaped label values, cumulative
  histogram buckets with ``le`` labels and the ``+Inf`` terminal,
  ``_sum``/``_count`` series).  :func:`validate_prometheus` is the
  matching line-grammar check CI's ``obs-smoke`` runs against a live
  fleet's output.
* :func:`render_json` — the snapshot itself under its pinned
  ``schema`` tag (:data:`~repro.obs.metrics.METRICS_SCHEMA`), which is
  also what the ``metrics`` wire op returns.

:func:`stats_samples` projects a ``cache_stats`` document — the
counter blocks (tiers, wire, wire_transport, orphaned batches, shard
circuits) — into registry-shaped families, so `repro metrics`
exposes the whole serving surface while each count stays in its one
block (the projection is a read-time view; the registry keeps no
twin).  :func:`sum_stats` is the one cross-target sum of such
documents.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import BUCKET_BOUNDS, METRICS_SCHEMA, MetricsRegistry

__all__ = [
    "render_prometheus",
    "render_json",
    "validate_prometheus",
    "stats_samples",
    "sum_stats",
    "metrics_document",
]


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt_labels(labels: Dict[str, Any], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = [
        (k, str(v)) for k, v in sorted(labels.items())
    ] + list(extra)
    if not items:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in items
    )
    return "{" + body + "}"


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    return repr(v)


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else repr(bound)


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """One snapshot document as Prometheus text exposition."""
    lines: List[str] = []
    for metric in snapshot.get("metrics", ()):
        name = metric["name"]
        kind = metric.get("type", "gauge")
        if kind not in ("counter", "gauge", "histogram"):
            kind = "untyped"
        help_text = (metric.get("help") or "").replace("\n", " ")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in metric.get("samples", ()):
            labels = sample.get("labels", {})
            if "counts" in sample:
                acc = 0
                for i, count in enumerate(sample["counts"]):
                    acc += count
                    bound = (
                        BUCKET_BOUNDS[i]
                        if i < len(BUCKET_BOUNDS)
                        else math.inf
                    )
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels(labels, (('le', _fmt_bound(bound)),))}"
                        f" {acc}"
                    )
                lines.append(
                    f"{name}_sum{_fmt_labels(labels)} "
                    f"{_fmt_value(sample.get('sum', 0.0))}"
                )
                lines.append(
                    f"{name}_count{_fmt_labels(labels)} "
                    f"{acc}"
                )
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} "
                    f"{_fmt_value(sample.get('value', 0))}"
                )
    return "\n".join(lines) + "\n"


def render_json(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON exposition: the snapshot under its pinned schema tag."""
    out = dict(snapshot)
    out.setdefault("schema", METRICS_SCHEMA)
    return out


_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABEL_BODY = r'\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}'
_VALUE = r"(?:[+-]?Inf|NaN|[+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)"
_SAMPLE_RE = re.compile(
    rf"^{_METRIC_NAME}(?:{_LABEL_BODY})?\s+{_VALUE}(?:\s+[0-9]+)?$"
)
_COMMENT_RE = re.compile(
    rf"^# (?:HELP {_METRIC_NAME} .*|TYPE {_METRIC_NAME} "
    r"(?:counter|gauge|histogram|summary|untyped))$"
)


def validate_prometheus(text: str) -> List[str]:
    """Line-grammar errors in a text exposition (empty = valid).

    Each non-blank line must be a well-formed ``# HELP``/``# TYPE``
    comment or a sample line ``name{labels} value [timestamp]``; TYPE
    must precede samples of its family.
    """
    errors: List[str] = []
    typed: Dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not _COMMENT_RE.match(line):
                errors.append(f"line {i}: malformed comment: {line!r}")
            elif line.startswith("# TYPE "):
                parts = line.split()
                typed[parts[2]] = parts[3]
            continue
        if not _SAMPLE_RE.match(line):
            errors.append(f"line {i}: malformed sample: {line!r}")
            continue
        name = re.match(_METRIC_NAME, line).group(0)
        base = re.sub(r"_(?:bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            errors.append(
                f"line {i}: sample {name!r} precedes its # TYPE"
            )
    return errors


# ----------------------------------------------------------------------
# cache_stats projection: the ad-hoc counter blocks as metric families
# ----------------------------------------------------------------------

#: (family suffix -> kind) for well-known numeric leaves; everything
#: else falls back to a gauge (counters must be monotone to be useful).
_COUNTERISH = {
    "hits",
    "misses",
    "puts",
    "attempts",
    "aborts",
    "total",
    "completed",
    "rejected",
    "successes",
    "failures",
}


def _is_counterish(path: Tuple[str, ...]) -> bool:
    leaf = path[-1]
    if leaf in _COUNTERISH:
        return True
    return leaf.endswith(("_connections", "_total", "_bytes_in", "_bytes_out", "_blobs_out", "_bytes_saved_out"))


def stats_samples(stats: Dict[str, Any]) -> Dict[str, Any]:
    """A ``cache_stats`` document as a snapshot-shaped view.

    Every numeric leaf becomes one sample of ``repro_stats_counter``
    or ``repro_stats_gauge`` with a dotted ``path`` label (plus a
    ``block`` label naming the top-level section), so the whole
    existing counter surface — tiers, wire, wire_transport,
    orphaned_batches, shard circuits — is scrapeable without changing
    how any of it is maintained or rendered in ``cache_stats``.
    """
    counters: List[Dict[str, Any]] = []
    gauges: List[Dict[str, Any]] = []

    def _walk(node: Any, path: Tuple[str, ...]) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                _walk(node[key], path + (str(key),))
            return
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return
        sample = {
            "labels": {
                "block": path[0],
                "path": ".".join(path),
            },
            "value": node,
        }
        (counters if _is_counterish(path) else gauges).append(sample)

    for key in sorted(stats):
        _walk(stats[key], (str(key),))
    metrics = []
    if counters:
        metrics.append(
            {
                "name": "repro_stats_counter",
                "type": "counter",
                "help": "Monotone counters projected from cache_stats",
                "labels": ["block", "path"],
                "samples": counters,
            }
        )
    if gauges:
        metrics.append(
            {
                "name": "repro_stats_gauge",
                "type": "gauge",
                "help": "Point-in-time values projected from cache_stats",
                "labels": ["block", "path"],
                "samples": gauges,
            }
        )
    return {"schema": METRICS_SCHEMA, "metrics": metrics}


def sum_stats(docs: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Numeric leaves summed across same-shaped stats documents.

    Nested dicts merge recursively; strings (paths, states) and
    booleans drop out — the aggregate is counters only.  A sum of
    rates is not a rate, so ``hit_rate`` is recomputed from the summed
    ``hits``/``misses`` beside it.
    """
    out: Dict[str, Any] = {}
    for doc in docs:
        for key, value in doc.items():
            if isinstance(value, dict):
                seed = out.get(key)
                out[key] = sum_stats(
                    [seed, value] if isinstance(seed, dict) else [value]
                )
            elif isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                out[key] = out.get(key, 0) + value
    if "hit_rate" in out and "hits" in out and "misses" in out:
        total = out["hits"] + out["misses"]
        out["hit_rate"] = out["hits"] / total if total else 0.0
    return out


def metrics_document(
    registry: MetricsRegistry,
    stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The full exposition document: registry + projected stats view.

    This is what the ``metrics`` wire op returns and what the CLI
    renders; merging the two snapshot-shaped halves keeps one pinned
    schema for the whole surface.
    """
    from .metrics import merge_snapshots

    parts = [registry.snapshot()]
    if stats:
        parts.append(stats_samples(stats))
    return merge_snapshots(parts)
