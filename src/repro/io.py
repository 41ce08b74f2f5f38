"""Instance serialization: JSON and CSV round-trips.

Downstream users arrive with job lists in files, not Python literals.
The JSON format is self-describing and round-trips every field the
library understands (spans, weights, demands, ``g``, optional budget);
the CSV format is the minimal ``start,end[,weight[,demand]]`` table
commonly exported from schedulers, with ``g``/budget supplied by the
caller.

Format (JSON)::

    {
      "g": 3,
      "budget": 42.0,            # optional; presence selects BudgetInstance
      "jobs": [
        {"start": 0.0, "end": 4.0, "weight": 1.0, "demand": 1},
        ...
      ]
    }

The registry's extension families have their own JSON shapes, loaded
through :func:`load_objective_instance` (the CLI's ``repro solve
--objective`` path)::

    rect2d    {"g": 3, "rects": [{"x0": 0, "y0": 0, "x1": 2, "y1": 1}]}
    ring      {"g": 3, "circumference": 1.0,
               "jobs": [{"a0": 0.1, "alen": 0.3, "t0": 0, "t1": 5}]}
    tree      {"g": 3, "tree": {"n": 4, "edges": [[0,1], [1,2], [1,3,2.5]]},
               "paths": [[0, 2], [2, 3]]}
    flexible  {"g": 2, "jobs": [{"window_start": 0, "window_end": 9,
                                 "proc": 4}]}

``minbusy``, ``maxthroughput``, ``capacity`` and ``energy`` all read
the base job-list format above (capacity uses the per-job demands;
energy takes its power model from CLI flags / call parameters).

:func:`objective_instance_to_dict` (the wire document a remote solve
sends) holds that job list column-wise, as a :class:`RecordColumns`
over the instance's job table (:class:`~repro.core.jobs.JobTable`,
built once per instance): the binary codec writes the typed columns'
bytes as they are, and JSON encoders render them as the record list
above through :func:`json_default`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from .core.errors import InstanceError
from .core.instance import BudgetInstance, Instance
from .core.jobs import JOB_COLUMNS, Job

__all__ = [
    "RecordColumns",
    "json_default",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "load_instance_csv",
    "save_instance_csv",
    "rect_instance_from_dict",
    "ring_instance_from_dict",
    "tree_instance_from_dict",
    "flex_instance_from_dict",
    "objective_instance_from_dict",
    "objective_instance_to_dict",
    "load_objective_instance",
    "FAMILY_FORMAT_OBJECTIVES",
]

AnyInstance = Union[Instance, BudgetInstance]


class RecordColumns:
    """A list of flat records sharing one key order, held column-wise.

    ``keys[i]`` names ``columns[i]``, a ``(kind, values)`` job-table
    entry (:class:`~repro.core.jobs.JobTable`): a typed array when
    ``kind`` is set, else the Python values themselves.  Record ``r``
    is ``dict(zip(keys, (values[r] for _, values in columns)))`` with
    typed arrays read through ``tolist()``, so every record holds
    Python scalars; iterating yields those dicts.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: Sequence[str], columns: Sequence[Any]) -> None:
        self.keys = tuple(keys)
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0][1]) if len(self.columns) else 0

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        keys = self.keys
        values = [v.tolist() if kind else v for kind, v in self.columns]
        return (dict(zip(keys, row)) for row in zip(*values))

    def records(self) -> List[Dict[str, Any]]:
        """The record list this table stands for."""
        return list(self)


def json_default(value: Any) -> Any:
    """``default=`` hook for ``json.dumps`` over wire documents: a
    :class:`RecordColumns` encodes exactly as its record list."""
    if isinstance(value, RecordColumns):
        return value.records()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def instance_to_dict(instance: AnyInstance) -> dict:
    """Serialize an (Budget)Instance to a plain JSON-able dict."""
    out = {
        "g": instance.g,
        "jobs": [
            {
                "start": j.start,
                "end": j.end,
                "weight": j.weight,
                "demand": j.demand,
            }
            for j in instance.jobs
        ],
    }
    if isinstance(instance, BudgetInstance):
        out["budget"] = instance.budget
    return out


def instance_from_dict(data: dict) -> AnyInstance:
    """Deserialize; returns BudgetInstance iff a budget key is present."""
    try:
        g = int(data["g"])
        raw_jobs = data["jobs"]
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"malformed instance document: {exc}") from exc
    jobs = []
    for i, rec in enumerate(raw_jobs):
        try:
            jobs.append(
                Job(
                    start=float(rec["start"]),
                    end=float(rec["end"]),
                    job_id=int(rec.get("job_id", i)),
                    weight=float(rec.get("weight", 1.0)),
                    demand=int(rec.get("demand", 1)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed job record #{i}: {exc}") from exc
    if "budget" in data:
        return BudgetInstance(
            jobs=tuple(jobs), g=g, budget=float(data["budget"])
        )
    return Instance(jobs=tuple(jobs), g=g)


def save_instance(instance: AnyInstance, path: Union[str, Path]) -> None:
    """Write an instance to a JSON file."""
    Path(path).write_text(
        json.dumps(instance_to_dict(instance), indent=2) + "\n"
    )


def load_instance(path: Union[str, Path]) -> AnyInstance:
    """Read an instance from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_dict(data)


def load_instance_csv(
    path: Union[str, Path],
    g: int,
    *,
    budget: Optional[float] = None,
    has_header: bool = True,
) -> AnyInstance:
    """Read jobs from a ``start,end[,weight[,demand]]`` CSV file."""
    jobs: List[Job] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if has_header and rows:
        rows = rows[1:]
    for i, row in enumerate(rows):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            start, end = float(row[0]), float(row[1])
            weight = float(row[2]) if len(row) > 2 and row[2].strip() else 1.0
            demand = int(row[3]) if len(row) > 3 and row[3].strip() else 1
        except (IndexError, ValueError) as exc:
            raise InstanceError(f"{path}: bad CSV row {i}: {row!r}") from exc
        jobs.append(
            Job(start=start, end=end, job_id=i, weight=weight, demand=demand)
        )
    if budget is not None:
        return BudgetInstance(jobs=tuple(jobs), g=g, budget=budget)
    return Instance(jobs=tuple(jobs), g=g)


def _require(data: dict, key: str, kind: str):
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise InstanceError(
            f"malformed {kind} document: missing {key!r}"
        ) from exc


def rect_instance_from_dict(data: dict):
    """Deserialize a 2-D instance (``rect2d`` objective)."""
    from .rect.instance import RectInstance
    from .rect.rectangles import Rect

    g = int(_require(data, "g", "rect2d"))
    rects = []
    for i, rec in enumerate(_require(data, "rects", "rect2d")):
        try:
            rects.append(
                Rect(
                    x0=float(rec["x0"]),
                    y0=float(rec["y0"]),
                    x1=float(rec["x1"]),
                    y1=float(rec["y1"]),
                    rect_id=int(rec.get("rect_id", i)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(
                f"malformed rect record #{i}: {exc}"
            ) from exc
    return RectInstance(rects=tuple(rects), g=g)


def ring_instance_from_dict(data: dict):
    """Deserialize a ring instance (``ring`` objective)."""
    from .topology.instance import RingInstance
    from .topology.ring import RingJob

    g = int(_require(data, "g", "ring"))
    C = float(data.get("circumference", 1.0))
    jobs = []
    for i, rec in enumerate(_require(data, "jobs", "ring")):
        try:
            jobs.append(
                RingJob(
                    a0=float(rec["a0"]),
                    alen=float(rec["alen"]),
                    t0=float(rec["t0"]),
                    t1=float(rec["t1"]),
                    circumference=C,
                    job_id=int(rec.get("job_id", i)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(
                f"malformed ring job record #{i}: {exc}"
            ) from exc
    return RingInstance(jobs=tuple(jobs), g=g)


def tree_instance_from_dict(data: dict):
    """Deserialize a tree instance (``tree`` objective)."""
    from .topology.instance import TreeInstance
    from .topology.tree import PathJob, Tree

    g = int(_require(data, "g", "tree"))
    tree_doc = _require(data, "tree", "tree")
    try:
        tree = Tree.from_edges(
            int(tree_doc["n"]),
            [tuple(e) for e in tree_doc["edges"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed tree document: {exc}") from exc
    paths = []
    for i, rec in enumerate(_require(data, "paths", "tree")):
        try:
            # ``[u, v]`` (ids assigned positionally) or ``[u, v, id]``
            # (id-faithful round trips, e.g. RemoteSession's wire docs).
            if len(rec) == 2:
                u, v = rec
                job_id = i
            else:
                u, v, job_id = rec
            paths.append(PathJob(u=int(u), v=int(v), job_id=int(job_id)))
        except (TypeError, ValueError) as exc:
            raise InstanceError(
                f"malformed path record #{i}: {exc}"
            ) from exc
    return TreeInstance(tree=tree, paths=tuple(paths), g=g)


def flex_instance_from_dict(data: dict):
    """Deserialize a flexible-jobs instance (``flexible`` objective)."""
    from .flexible.instance import FlexInstance
    from .flexible.jobs import FlexJob

    g = int(_require(data, "g", "flexible"))
    jobs = []
    for i, rec in enumerate(_require(data, "jobs", "flexible")):
        try:
            jobs.append(
                FlexJob(
                    window_start=float(rec["window_start"]),
                    window_end=float(rec["window_end"]),
                    proc=float(rec["proc"]),
                    job_id=int(rec.get("job_id", i)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(
                f"malformed flexible job record #{i}: {exc}"
            ) from exc
    return FlexInstance(jobs=tuple(jobs), g=g)


_OBJECTIVE_LOADERS = {
    "rect2d": rect_instance_from_dict,
    "ring": ring_instance_from_dict,
    "tree": tree_instance_from_dict,
    "flexible": flex_instance_from_dict,
}

#: Objectives whose instance files use the family JSON shapes above;
#: every other objective reads the base job-list format.  The CLI
#: derives its routing from this tuple — one source of truth.
FAMILY_FORMAT_OBJECTIVES = tuple(_OBJECTIVE_LOADERS)


def objective_instance_from_dict(data: dict, objective: str):
    """Deserialize an already-parsed document for any objective.

    The dict-level twin of :func:`load_objective_instance` — the solve
    service receives instance documents over the wire rather than as
    files, so the format dispatch must work without a path.
    ``minbusy``/``maxthroughput``/``capacity``/``energy`` use the base
    job-list shape (:func:`instance_from_dict`); the extension
    families use their own JSON shapes documented in the module
    docstring.
    """
    if not isinstance(data, dict):
        raise InstanceError(
            f"instance document must be a JSON object, "
            f"got {type(data).__name__}"
        )
    loader = _OBJECTIVE_LOADERS.get(objective)
    if loader is None:
        return instance_from_dict(data)
    return loader(data)


def _rect_instance_to_dict(instance) -> dict:
    return {
        "g": instance.g,
        "rects": [
            {
                "x0": r.x0,
                "y0": r.y0,
                "x1": r.x1,
                "y1": r.y1,
                "rect_id": r.rect_id,
            }
            for r in instance.rects
        ],
    }


def _ring_instance_to_dict(instance) -> dict:
    out = {
        "g": instance.g,
        "jobs": [
            {
                "a0": j.a0,
                "alen": j.alen,
                "t0": j.t0,
                "t1": j.t1,
                "job_id": j.job_id,
            }
            for j in instance.jobs
        ],
    }
    if instance.jobs:
        out["circumference"] = instance.jobs[0].circumference
    return out


def _tree_instance_to_dict(instance) -> dict:
    return {
        "g": instance.g,
        "tree": {
            "n": instance.tree.n,
            "edges": [
                [u, v, w]
                for (u, v), w in sorted(instance.tree.edges.items())
            ],
        },
        "paths": [[p.u, p.v, p.job_id] for p in instance.paths],
    }


def _flex_instance_to_dict(instance) -> dict:
    return {
        "g": instance.g,
        "jobs": [
            {
                "window_start": j.window_start,
                "window_end": j.window_end,
                "proc": j.proc,
                "job_id": j.job_id,
            }
            for j in instance.jobs
        ],
    }


_OBJECTIVE_SERIALIZERS = {
    "rect2d": _rect_instance_to_dict,
    "ring": _ring_instance_to_dict,
    "tree": _tree_instance_to_dict,
    "flexible": _flex_instance_to_dict,
}


def objective_instance_to_dict(instance, objective: str) -> tuple:
    """Serialize a *normalized* instance to ``(document, params)``.

    The inverse of :func:`objective_instance_from_dict` for instances
    that already went through the objective's registry normalizer —
    this is what :class:`repro.api.RemoteSession` puts on the wire, so
    a round trip through JSON must rebuild byte-identical content
    (fingerprints are compared across the trip).  Parameters the
    normalizer folded *into* the instance come back out in the params
    document where the wire format wants them there: the energy
    family's power model travels as ``params.power``; a MaxThroughput
    budget stays inside the instance document.

    The base job-list families keep their job table column-wise
    (:class:`RecordColumns` over the instance's job table, record keys
    ``start, end, weight, demand, job_id``); every wire encoder emits
    the same bytes it would for the record list.
    """
    serializer = _OBJECTIVE_SERIALIZERS.get(objective)
    if serializer is not None:
        return serializer(instance), {}
    params: dict = {}
    if objective == "energy":
        from .energy.instance import EnergyInstance

        if isinstance(instance, EnergyInstance):
            params["power"] = {
                "busy_power": instance.model.busy_power,
                "idle_power": instance.model.idle_power,
                "wake_cost": instance.model.wake_cost,
            }
            instance = instance.instance
    doc: Dict[str, Any] = {
        "g": instance.g,
        "jobs": RecordColumns(JOB_COLUMNS, instance.columns),
    }
    if isinstance(instance, BudgetInstance):
        doc["budget"] = instance.budget
    return doc, params


def load_objective_instance(path: Union[str, Path], objective: str):
    """Read the instance file for any registered objective.

    ``minbusy``/``maxthroughput``/``capacity``/``energy`` use the base
    job-list format (:func:`load_instance`); the extension families use
    their own JSON shapes documented in the module docstring.
    """
    if objective not in _OBJECTIVE_LOADERS:
        return load_instance(path)
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: not valid JSON ({exc})") from exc
    return objective_instance_from_dict(data, objective)


def save_instance_csv(instance: AnyInstance, path: Union[str, Path]) -> None:
    """Write the job table as ``start,end,weight,demand`` CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "end", "weight", "demand"])
        for j in instance.jobs:
            writer.writerow([j.start, j.end, j.weight, j.demand])
