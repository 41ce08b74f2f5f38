"""The metrics registry: low-overhead counters and histograms.

One :class:`MetricsRegistry` holds named metric *families*; a family
with label names holds one child per label-value combination.  The hot
path — :meth:`Counter.inc`, :meth:`Histogram.observe` — is a plain
attribute add under the GIL (the same discipline as every existing
ad-hoc counter in the package: increments may interleave but never
corrupt, and the snapshot reader sees a consistent recent value).
Family/child *creation* is locked; callers bind children once and
increment forever, so the lock never sits on a request path.

The registry is **process-global but session-scopable**: the module
default :data:`REGISTRY` is what the package's built-in
instrumentation binds against (one process = one exposition surface,
which is what ``repro metrics`` scrapes over the wire), while any
component that wants isolated numbers constructs a private
``MetricsRegistry`` and passes it down.

Each event is counted in one place.  A count that has a
``cache_stats`` block (tier probes, shard circuits, wire replays)
lives only in that block and reaches ``repro metrics`` through the
read-time projection :func:`repro.obs.expo.stats_samples`;
the registry holds latency histograms and the counts that have no
block (solves, executor tasks, server requests).

Snapshots are deterministic — families sorted by name, samples sorted
by label values — and :func:`merge_snapshots` sums them exactly:
counters and histogram buckets are integers/floats added bucket-by-
bucket on one **fixed** exponential ladder (:data:`BUCKET_BOUNDS`), so
merging per-shard snapshots is associative and byte-stable no matter
the merge order.  That is the property the fleet aggregate in
``repro metrics --shard ...`` leans on.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "METRICS_SCHEMA",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "histogram",
    "merge_snapshots",
]

#: Version tag carried by every snapshot/exposition document; bump on
#: any change to the snapshot shape (the JSON schema is pinned by
#: tests and by the CI ``obs-smoke`` grammar check).
METRICS_SCHEMA = "repro.metrics.v1"

#: The one histogram bucket ladder: powers of two from ~1 µs to ~64 s.
#: Fixed (not configurable per histogram) so that histograms with the
#: same name merge *exactly* across processes and shards — bucket i
#: always means the same bound everywhere.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    2.0 ** e for e in range(-20, 7)
)


class Counter:
    """A monotonically increasing count (one child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Bucketed observations on the fixed exponential ladder.

    ``counts[i]`` is the number of observations ``<= BUCKET_BOUNDS[i]``
    exclusive of lower buckets (non-cumulative storage; rendering
    cumulates), ``counts[-1]`` the overflow (+Inf) bucket.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(BUCKET_BOUNDS, value)] += 1
        self.sum += value
        self.count += 1


_KINDS = {
    "counter": Counter,
    "histogram": Histogram,
}


class _Family:
    """One named metric family: type, help text, labeled children."""

    __slots__ = ("name", "kind", "help", "label_names", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        label_names: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def labels(self, *values: Any, **kv: Any) -> Any:
        """The child for one label-value combination (created once)."""
        if kv:
            if values:
                raise ValueError(
                    "pass label values positionally or by name, not both"
                )
            try:
                values = tuple(str(kv[n]) for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name} needs labels "
                    f"{self.label_names}, got {sorted(kv)}"
                ) from exc
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name} takes {len(self.label_names)} "
                f"label value(s), got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    values, _KINDS[self.kind]()
                )
        return child

    def child(self) -> Any:
        """The single unlabeled child (families with no label names)."""
        return self.labels()


def _validate_name(name: str) -> None:
    if not name or not all(
        c.isalnum() or c in "_:" for c in name
    ) or name[0].isdigit():
        raise ValueError(f"bad metric name {name!r}")


class MetricsRegistry:
    """A namespace of metric families with deterministic snapshots."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # family constructors (idempotent: same name returns same family)
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Sequence[str],
    ) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name} already registered as "
                    f"{family.kind}{family.label_names}"
                )
            return family
        _validate_name(name)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, tuple(labels))
                self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, "counter", help_text, labels)

    def histogram(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, "histogram", help_text, labels)

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The registry as one deterministic JSON-shaped document.

        Families sorted by name, samples by label values; histogram
        samples carry the shared ladder implicitly (``counts`` aligns
        with ``BUCKET_BOUNDS`` + overflow).  The document is what the
        ``metrics`` wire op returns and what ``merge_snapshots`` sums.
        """
        metrics: List[Dict[str, Any]] = []
        for name in sorted(self._families):
            family = self._families[name]
            with family._lock:
                items = sorted(family._children.items())
            samples: List[Dict[str, Any]] = []
            for values, child in items:
                labels = dict(zip(family.label_names, values))
                if family.kind == "counter":
                    samples.append({"labels": labels, "value": child.value})
                else:
                    samples.append(
                        {
                            "labels": labels,
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
            metrics.append(
                {
                    "name": name,
                    "type": family.kind,
                    "help": family.help,
                    "labels": list(family.label_names),
                    "samples": samples,
                }
            )
        return {"schema": METRICS_SCHEMA, "metrics": metrics}


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Exact, order-independent sum of snapshot documents.

    Counters and histogram buckets add; gauge documents add too (the
    stats projection's gauges are sizes and live counts, whose
    across-shard sum is the fleet number).  Families/samples present in only some snapshots
    pass through; conflicting types for one name raise.  The result is
    itself a valid snapshot (sorted, schema-tagged), so merging is
    associative.
    """
    families: Dict[str, Dict[str, Any]] = {}
    by_key: Dict[str, Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]]] = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for metric in snap.get("metrics", ()):
            name = metric.get("name")
            if not isinstance(name, str):
                continue
            seen = families.get(name)
            if seen is None:
                families[name] = {
                    "name": name,
                    "type": metric.get("type"),
                    "help": metric.get("help", ""),
                    "labels": list(metric.get("labels", [])),
                }
                by_key[name] = {}
            elif seen["type"] != metric.get("type"):
                raise ValueError(
                    f"metric {name}: cannot merge {seen['type']} "
                    f"with {metric.get('type')}"
                )
            bucket = by_key[name]
            for sample in metric.get("samples", ()):
                key = tuple(sorted(sample.get("labels", {}).items()))
                into = bucket.get(key)
                if into is None:
                    merged = dict(sample)
                    if "counts" in merged:
                        merged["counts"] = list(merged["counts"])
                    bucket[key] = merged
                elif "counts" in sample:
                    into["counts"] = [
                        a + b
                        for a, b in zip(into["counts"], sample["counts"])
                    ]
                    into["sum"] += sample.get("sum", 0.0)
                    into["count"] += sample.get("count", 0)
                else:
                    into["value"] += sample.get("value", 0)
    metrics = []
    for name in sorted(families):
        meta = families[name]
        samples = [by_key[name][k] for k in sorted(by_key[name])]
        metrics.append({**meta, "samples": samples})
    return {"schema": METRICS_SCHEMA, "metrics": metrics}


#: The process-default registry every built-in instrumentation point
#: binds against (and the surface `repro metrics` exposes).
REGISTRY = MetricsRegistry()


def counter(
    name: str, help_text: str = "", labels: Sequence[str] = ()
) -> _Family:
    """A counter family on the process-default registry."""
    return REGISTRY.counter(name, help_text, labels)


def histogram(
    name: str, help_text: str = "", labels: Sequence[str] = ()
) -> _Family:
    """A histogram family on the process-default registry."""
    return REGISTRY.histogram(name, help_text, labels)
