"""Content-addressed instance identity.

The engine's result cache and the batch deduplication need a stable,
collision-resistant key for "the same scheduling problem".  Python's
``hash`` is salted per process and :class:`~repro.core.instance.Instance`
is identified by object contents anyway, so the fingerprint is a SHA-256
over a canonical byte serialization: the parallelism parameter, the
budget (when present), and the packed per-job arrays (start, end,
weight, demand) in the instance's canonical sorted order — read from the
instance's job table (:func:`job_table`), which is built once per
instance (at construction for ``Instance.from_spans``) and is also what
the wire document packs.

Job *ids* are deliberately excluded: they are bookkeeping labels (often
auto-allocated from a process-global counter), not problem content, so
content-identical instances built in different processes or sessions
fingerprint the same and share cache entries.  The engine remaps a
cached schedule onto the querying instance's own ``Job`` objects by
canonical position (see ``EngineResult.assignment_by_position``),
which is sound because equal fingerprints imply equal per-position
``(start, end, weight, demand)`` in the canonical order.

Two schemes coexist:

* **v1** (``busytime-fingerprint-v1``) covers the original
  :class:`Instance`/:class:`BudgetInstance` pair and is frozen — its
  digests key entries in users' persistent stores, so they must stay
  byte-stable across releases (pinned by a regression test).
* **v2** (``busytime-fingerprint-v2``) is the versioned,
  family-qualified scheme the registry's newer instance types use
  (2-D rectangles, ring arcs, tree paths, flexible windows, demand
  profiles, power models).  :func:`fingerprint_v2` hashes a family
  tag, the capacity, a sorted scalar table (budget, circumference,
  tree arity, power parameters, ...) and the packed per-item float
  columns in the instance's canonical sorted order.  Item ids stay
  excluded, exactly as in v1 and for the same reason.

The cache key is always objective-qualified on top of the digest
(:func:`key_from_fingerprint`), so two objectives over the same bytes
never collide.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from ..core.instance import BudgetInstance, Instance

__all__ = [
    "instance_fingerprint",
    "job_table",
    "fingerprint_v2",
    "key_from_fingerprint",
    "solve_key",
]

AnyInstance = Union[Instance, BudgetInstance]

_VERSION = b"busytime-fingerprint-v1"
_VERSION_V2 = b"busytime-fingerprint-v2"


def instance_fingerprint(instance: AnyInstance) -> str:
    """Hex SHA-256 digest canonically identifying the instance."""
    rows = job_table(instance)
    budget = getattr(instance, "budget", None)
    h = hashlib.sha256()
    h.update(_VERSION)
    h.update(f"|n={len(rows)}|g={instance.g}|T={budget!r}|".encode())
    if len(rows):
        h.update(rows.tobytes())
    return h.hexdigest()


def job_table(instance: AnyInstance) -> np.ndarray:
    """The ``(n, 4)`` float64 content table ``(start, end, weight,
    demand)`` in canonical order, stacked from the instance's job table
    (:attr:`~repro.core.instance.Instance.columns`; demand is cast to
    float64).

    These are the bytes the v1 fingerprint hashes, and the rows the
    capacity/energy v2 fingerprints hash.
    """
    table = instance.columns
    return np.column_stack([table.floats(i) for i in range(4)])


def fingerprint_v2(
    family: str,
    g: int,
    columns: Optional[Sequence[Sequence[float]]] = None,
    *,
    scalars: Optional[Mapping[str, object]] = None,
) -> str:
    """Hex SHA-256 digest for a v2 (family-qualified) instance.

    ``columns`` is a per-item table — one row per item in the
    instance's *canonical sorted order*, one column per content field
    (e.g. ``(x0, y0, x1, y1)`` for rectangles) — packed as float64 so
    digests are independent of the Python number types used to build
    the instance.  ``scalars`` carries family-level parameters beyond
    ``g`` (budget, circumference, tree arity/edges, power model);
    entries are hashed in sorted key order with ``repr`` values, so any
    hashable metadata participates deterministically.
    """
    h = hashlib.sha256()
    h.update(_VERSION_V2)
    h.update(f"|family={family}|g={g}|".encode())
    if scalars:
        for key in sorted(scalars):
            h.update(f"{key}={scalars[key]!r}|".encode())
    if columns is None:
        rows: Any = []
    elif isinstance(columns, np.ndarray):
        rows = columns
    else:
        rows = list(columns)
    h.update(f"n={len(rows)}|".encode())
    if len(rows):
        packed = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
        h.update(packed.tobytes())
    return h.hexdigest()


def key_from_fingerprint(fingerprint: str, objective: str) -> str:
    """Cache key from an already-computed fingerprint."""
    return f"{objective}:{fingerprint}"


def solve_key(instance: AnyInstance, objective: str) -> str:
    """Cache key for one solve: objective-qualified fingerprint."""
    return key_from_fingerprint(instance_fingerprint(instance), objective)
