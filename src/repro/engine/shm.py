"""Shared-memory instance shipping for the process-pool executor.

Pickling a :class:`~repro.engine.executors.SolveTask` serializes every
``Job`` dataclass of its normalized instance object-by-object — for
payload-heavy batches that pickling (and the matching unpickle in each
worker) dominates the fan-out cost.  This module ships the *documents*
instead: each task's instance is serialized once, in the parent, with
the service wire's binary column codec (:mod:`repro.service.binary` —
flat little-endian NumPy columns for the job lists) into a single
``multiprocessing.shared_memory`` block.  Workers attach the block by
name, read their frame through zero-copy ``np.frombuffer`` views, and
rebuild the instance with the same :mod:`repro.io` loaders the solve
service uses — a round trip the remote session already proves
fingerprint-faithful.

The crossover is measured, not assumed: below ~:data:`SHM_MIN_JOBS`
total jobs per batch the pickled path wins (one shm segment costs a
create/attach/unlink cycle), so
:class:`~repro.engine.executors.ProcessPoolExecutor` only routes
batches above it here (``REPRO_SHM_MIN_JOBS`` overrides).  Tasks whose
instances the document codec cannot express (custom registry families
with exotic instance types) make :func:`pack_tasks` raise and the
executor falls back to pickling — the shm path is an optimization,
never a requirement.

Lifecycle: the parent creates and unlinks the segment (workers attach
with ``create=False``, which does not register with the resource
tracker on this Python, so the parent's unlink is the only one); the
per-batch pool means worker-side attachments die with the workers.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.instance import BudgetInstance, Instance
from ..core.jobs import Job
from ..io import objective_instance_from_dict, objective_instance_to_dict
from ..service.binary import (
    HEADER_BYTES,
    decode_payload,
    encode_binary,
    parse_header,
)

__all__ = ["SHM_MIN_JOBS", "shm_min_jobs", "pack_tasks", "solve_shm_task"]

#: Measured crossover (total jobs per batch) above which the binary
#: shm path beats per-task pickling end-to-end through a 4-worker
#: pool (1.2-1.4x on 8-task batches of 1k-16k jobs each; below it the
#: segment create/attach/unlink cycle eats the codec's win).
SHM_MIN_JOBS = 8192


def shm_min_jobs() -> int:
    """The active crossover (``REPRO_SHM_MIN_JOBS`` overrides)."""
    raw = os.environ.get("REPRO_SHM_MIN_JOBS")
    if raw is None or not raw.strip():
        return SHM_MIN_JOBS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"environment variable REPRO_SHM_MIN_JOBS={raw!r} is not a "
            "valid integer job-count threshold; fix or unset it"
        ) from None


def task_payload_size(task: Any) -> int:
    """A cheap job-count proxy for one task's wire payload."""
    inst = task.instance
    size = 0
    for attr in ("jobs", "rects", "paths"):
        items = getattr(inst, attr, None)
        if items is not None:
            size += len(items)
    return size


# Job fields in ``Job.__dict__`` order.  Extraction reads the
# instance's cached job columns, and reconstruction restores the same
# trusted state pickle would (the parent's instance is already
# normalized and validated, so re-running __init__ validation and the
# normalizer's sort per worker would only burn the time this path
# exists to save).
_JOB_FIELDS = ("start", "end", "job_id", "weight", "demand")


def _pack_columnar(task: Any) -> Optional[Dict[str, Any]]:
    """The fast frame for base job-list instances, or ``None``.

    Exact types only — a subclass could carry state the columns don't;
    such tasks take the generic document path below.
    """
    inst = task.instance
    doc: Dict[str, Any] = {
        "fmt": "cols",
        "objective": task.objective,
        "fingerprint": task.fingerprint,
    }
    if type(inst).__name__ == "EnergyInstance":
        from ..energy.instance import EnergyInstance

        if type(inst) is not EnergyInstance:
            return None
        doc["power"] = {
            "busy_power": inst.model.busy_power,
            "idle_power": inst.model.idle_power,
            "wake_cost": inst.model.wake_cost,
        }
        inst = inst.instance
    if type(inst) is BudgetInstance:
        doc["budget"] = inst.budget
    elif type(inst) is not Instance:
        return None
    starts, ends, weights, demands, job_ids = inst.columns
    doc["g"] = inst.g
    # Lists, not the cached tuples: the binary codec packs lists only.
    doc["starts"] = list(starts)
    doc["ends"] = list(ends)
    doc["job_ids"] = list(job_ids)
    doc["weights"] = list(weights)
    doc["demands"] = list(demands)
    return doc


def _rebuild_columnar(doc: Dict[str, Any]) -> Any:
    new = Job.__new__
    jobs = []
    append = jobs.append
    for row in zip(
        doc["starts"], doc["ends"], doc["job_ids"],
        doc["weights"], doc["demands"],
    ):
        job = new(Job)
        job.__dict__.update(zip(_JOB_FIELDS, row))
        append(job)
    if "budget" in doc:
        inst = BudgetInstance.__new__(BudgetInstance)
        object.__setattr__(inst, "budget", doc["budget"])
    else:
        inst = Instance.__new__(Instance)
    object.__setattr__(inst, "jobs", tuple(jobs))
    object.__setattr__(inst, "g", doc["g"])
    power = doc.get("power")
    if power is not None:
        from ..energy import PowerModel
        from ..energy.instance import EnergyInstance

        inst = EnergyInstance(inst, PowerModel(**power))
    return inst


def pack_tasks(
    tasks: Sequence[Any],
) -> Tuple[shared_memory.SharedMemory, List[Tuple[str, int, int]]]:
    """Serialize tasks into one shm segment; returns ``(segment, refs)``.

    Each ref is ``(segment_name, offset, length)`` — picklable and
    tiny, which is the whole point: ``pool.map`` ships refs, not
    instances.  Base job-list instances take the columnar frame; the
    extension families go through their wire documents.  Raises
    (``InstanceError``/``TypeError``/...) when a task's instance has no
    document form; callers treat that as "use the pickled path".
    """
    frames: List[bytes] = []
    for task in tasks:
        payload = _pack_columnar(task)
        if payload is None:
            doc, params = objective_instance_to_dict(
                task.instance, task.objective
            )
            payload = {
                "objective": task.objective,
                "fingerprint": task.fingerprint,
                "instance": doc,
                "params": params,
            }
        frames.append(encode_binary(payload))
    segment = shared_memory.SharedMemory(
        create=True, size=max(sum(map(len, frames)), 1)
    )
    refs: List[Tuple[str, int, int]] = []
    pos = 0
    for frame in frames:
        segment.buf[pos : pos + len(frame)] = frame
        refs.append((segment.name, pos, len(frame)))
        pos += len(frame)
    return segment, refs


# Worker-side attachment cache: one attach per (process, segment); the
# per-batch pool means entries never outlive their segment's unlink
# window in the parent.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    seg = _ATTACHED.get(name)
    if seg is None:
        seg = shared_memory.SharedMemory(name=name, create=False)
        _ATTACHED[name] = seg
    return seg


def _rebuild_instance(doc: Dict[str, Any]) -> Any:
    inst = objective_instance_from_dict(doc["instance"], doc["objective"])
    power = (doc.get("params") or {}).get("power")
    if power is not None:
        # The energy normalizer folds the power model into the
        # instance; un-fold it the same way the serializer took it out.
        from ..energy import PowerModel
        from ..energy.instance import EnergyInstance

        inst = EnergyInstance(
            inst, PowerModel(**{str(k): v for k, v in power.items()})
        )
    return inst


def solve_shm_task(ref: Tuple[str, int, int]) -> Any:
    """Worker entry: solve the task framed at ``ref`` in shared memory."""
    from .engine import _solve_uncached, _spec_for

    name, offset, length = ref
    seg = _attach(name)
    # Zero-copy: decode_payload walks a memoryview of the segment and
    # its np.frombuffer column views alias it directly; the rebuilt
    # document holds plain Python lists, so nothing references the
    # buffer past this call.
    frame = seg.buf[offset : offset + length]
    _version, _opcode, payload_len = parse_header(
        bytes(frame[:HEADER_BYTES])
    )
    doc = decode_payload(frame[HEADER_BYTES : HEADER_BYTES + payload_len])
    if doc.get("fmt") == "cols":
        inst = _rebuild_columnar(doc)
    else:
        inst = _rebuild_instance(doc)
    spec = _spec_for(doc["objective"])
    return _solve_uncached(inst, spec, doc["fingerprint"])
