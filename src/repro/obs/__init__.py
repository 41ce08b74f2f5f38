"""Unified observability: metrics registry, trace spans, exposition.

Three small modules, one contract — **stay off the hot path**:

* :mod:`repro.obs.metrics` — process-global (but instantiable)
  :class:`MetricsRegistry` of counters/histograms with labeled
  children, GIL-cheap increments, and deterministic snapshot/merge
  semantics (fixed histogram ladder, sorted output) so per-shard
  snapshots aggregate byte-stably.
* :mod:`repro.obs.trace` — ``trace_id``/``span_id`` spans carried by
  a context variable through sessions, tiers, executors, and the wire
  (negotiated in ``hello``); a bounded in-memory ring plus an optional
  JSONL sink under ``REPRO_TRACE_DIR``.  Off by default; the disabled
  path is a single attribute read.
* :mod:`repro.obs.expo` — Prometheus text exposition + pinned JSON
  schema over snapshots, a line-grammar validator, and the
  ``cache_stats`` projection that exposes every counter block while
  the count stays in that block (the registry keeps no twin), plus
  :func:`sum_stats`, the one cross-target sum of those blocks.

E23 (``benchmarks/bench_e23_obs.py``) pins the instrumented-vs-
uninstrumented overhead of all of this at ≤ 2% on the sustained-load
serving scenario.
"""

from .metrics import (  # noqa: F401
    BUCKET_BOUNDS,
    METRICS_SCHEMA,
    REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    counter,
    histogram,
    merge_snapshots,
)
from .trace import (  # noqa: F401
    RING_SIZE,
    TRACE_DIR_ENV_VAR,
    TRACE_ENV_VAR,
    adopted,
    clear_ring,
    current_context,
    disable_tracing,
    enable_tracing,
    ingest,
    recording_scope,
    render_tree,
    ring_spans,
    span,
    span_tree,
    trace_spans,
    tracing_enabled,
    wire_context,
)
from .expo import (  # noqa: F401
    metrics_document,
    render_json,
    render_prometheus,
    stats_samples,
    sum_stats,
    validate_prometheus,
)

__all__ = [
    "BUCKET_BOUNDS",
    "METRICS_SCHEMA",
    "REGISTRY",
    "RING_SIZE",
    "TRACE_DIR_ENV_VAR",
    "TRACE_ENV_VAR",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "adopted",
    "clear_ring",
    "counter",
    "current_context",
    "disable_tracing",
    "enable_tracing",
    "histogram",
    "ingest",
    "merge_snapshots",
    "metrics_document",
    "recording_scope",
    "render_json",
    "render_prometheus",
    "render_tree",
    "ring_spans",
    "span",
    "span_tree",
    "stats_samples",
    "sum_stats",
    "trace_spans",
    "tracing_enabled",
    "validate_prometheus",
    "wire_context",
]
