"""The loadgen traffic model: what requests hit the service, and when.

A :class:`TrafficModel` owns a seeded **corpus** of wire-format
instance documents — every registry family via the
:mod:`repro.workloads.generators` samplers, with the paper's
adversarial constructions (:func:`~repro.workloads.adversarial.fig3_instance`,
:func:`~repro.workloads.adversarial.staircase_proper_instance`) in the
tail — and turns it into a deterministic stream of
:class:`PlannedRequest` objects.

Instance *popularity* is Zipf-skewed over corpus rank: a handful of
documents account for most requests (so the LRU / store / wire cache
tiers see realistic repeat traffic), while the adversarial entries sit
in the cold tail and keep hitting the full solve path.  ``solve_many``
batches are drawn from groups of corpus entries that can legally share
one request (same family, same params document).

With ``fuzz=True`` the model additionally mutates instances and
request framing checkdp-style — grow/duplicate/shuffle items (content
changes that must *not* change canonical results), invalid shapes the
server must reject, oversized request ids, near-zero deadlines, stream
abandonment and dropped connections — hunting for divergence between
the live service and the local oracle.  With ``binary_fuzz=True`` the
pool further extends to binary *framing* mutations (truncated frames,
corrupted magic, wire-version skew, wrong declared lengths) that the
driver applies to the encoded frame bytes on negotiated-binary
connections; the server must answer each with a typed error (or, for
an unsyncable stream, close cleanly) so the run still validates 100%.  All randomness flows through
one seeded ``numpy`` generator: the same seed always plans the same
traffic, which is what makes a loadgen failure replayable at all.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..io import instance_to_dict, objective_instance_to_dict
from ..workloads.adversarial import (
    fig3_instance,
    staircase_proper_instance,
)
from ..workloads.generators import (
    random_demand_instance,
    random_flexible_instance,
    random_general_instance,
    random_rects,
    random_ring_instance,
    random_tree_instance,
)

__all__ = [
    "ALL_FAMILIES",
    "ITEMS_KEY",
    "CorpusEntry",
    "PlannedRequest",
    "TrafficModel",
    "family_document",
    "adversarial_documents",
    "items_key",
    "mutate_document",
    "MUTATIONS",
    "BINARY_FRAMING_MUTATIONS",
]

#: Every registry family the traffic model samples from.
ALL_FAMILIES = (
    "capacity",
    "energy",
    "flexible",
    "maxthroughput",
    "minbusy",
    "rect2d",
    "ring",
    "tree",
)

#: The list-of-items key of each family's wire document (mutations and
#: the minimizer shrink along this axis).
ITEMS_KEY = {"rect2d": "rects", "tree": "paths"}


def items_key(family: str) -> str:
    return ITEMS_KEY.get(family, "jobs")


def _rng(family: str, seed: int) -> np.random.Generator:
    # crc32, not hash(): string hashing is salted per process and the
    # generated content must be identical across runs and hosts.
    return np.random.default_rng(
        zlib.crc32(f"loadgen:{family}:{seed}".encode()) % (2**32)
    )


def family_document(
    family: str, seed: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One seeded ``(instance document, params document)`` pair.

    Documents use the wire/file JSON shapes of :mod:`repro.io` —
    exactly what ``repro serve`` receives.  Sizes are drawn per seed
    and kept small enough that the local oracle re-solves everything
    comfortably, but varied enough to hit both arms of every dispatch
    table (demand vs unit capacity, tight vs slack flexible windows,
    FirstFit vs Bucket 2-D ratios).
    """
    rng = _rng(family, seed)
    g = int(rng.integers(2, 6))
    if family == "minbusy":
        n = int(rng.integers(8, 25))
        inst = random_general_instance(n, g, seed=seed * 31 + 1)
        return instance_to_dict(inst), {}
    if family == "capacity":
        n = int(rng.integers(8, 21))
        gcap = max(g, 2)
        if seed % 2 == 0:
            # Demands are capped at g: a job demanding more than any
            # machine's capacity is *invalid* content (both sides
            # reject it), and the corpus carries only solvable work —
            # invalid shapes are the fuzz mutations' job.
            inst = random_demand_instance(
                n, gcap, seed=seed * 31 + 2, max_demand=min(3, gcap)
            )
        else:
            inst = random_general_instance(n, gcap, seed=seed * 31 + 2)
        return instance_to_dict(inst), {}
    if family == "maxthroughput":
        n = int(rng.integers(6, 13))
        inst = random_general_instance(n, g, seed=seed * 31 + 3)
        doc = instance_to_dict(inst)
        doc["budget"] = float(
            round(inst.total_length * float(rng.uniform(0.3, 0.8)), 6)
        )
        return doc, {}
    if family == "energy":
        n = int(rng.integers(8, 21))
        inst = random_general_instance(n, g, seed=seed * 31 + 4)
        # Two power variants only, so solve_many batches (which share
        # one params document) actually form.
        power = (
            {"busy_power": 1.0, "idle_power": 0.3, "wake_cost": 2.0}
            if seed % 2 == 0
            else {"busy_power": 1.0, "idle_power": 0.1, "wake_cost": 4.0}
        )
        return instance_to_dict(inst), {"power": power}
    if family == "rect2d":
        from ..rect.instance import RectInstance

        n = int(rng.integers(8, 25))
        gamma = 2.0 if seed % 2 == 0 else 8.0  # FirstFit vs Bucket arm
        rects = random_rects(
            n, seed=seed * 31 + 5, gamma1=gamma, gamma2=gamma
        )
        inst = RectInstance(rects=tuple(rects), g=g)
        return objective_instance_to_dict(inst, "rect2d")[0], {}
    if family == "ring":
        n = int(rng.integers(8, 17))
        inst = random_ring_instance(n, g, seed=seed * 31 + 6)
        return objective_instance_to_dict(inst, "ring")[0], {}
    if family == "tree":
        n_paths = int(rng.integers(8, 15))
        n_nodes = int(rng.integers(6, 11))
        inst = random_tree_instance(
            n_paths, g, seed=seed * 31 + 7, n_nodes=n_nodes
        )
        return objective_instance_to_dict(inst, "tree")[0], {}
    if family == "flexible":
        n = int(rng.integers(6, 11))
        inst = random_flexible_instance(
            n, min(g, 3), seed=seed * 31 + 8
        )
        return objective_instance_to_dict(inst, "flexible")[0], {}
    raise ValueError(f"unknown family {family!r}")


def adversarial_documents(
    count: int,
) -> List[Tuple[str, Dict[str, Any], Dict[str, Any], str]]:
    """``count`` adversarial ``(family, doc, params, tag)`` tuples.

    Cycles through the paper's worst-case constructions: the Figure 3
    FirstFit lower bound (Lemma 3.5) as 2-D instances, and the
    heavily-overlapping staircase proper instances that stress cut
    placement — content the random samplers essentially never produce.
    """
    from ..rect.instance import RectInstance

    shapes = []

    def _fig3(g: int, gamma1: float) -> Tuple[str, Dict, Dict, str]:
        inst = RectInstance(
            rects=tuple(fig3_instance(g, gamma1=gamma1)), g=g
        )
        doc = objective_instance_to_dict(inst, "rect2d")[0]
        return ("rect2d", doc, {}, f"adv:fig3:g{g}")

    def _stairs(n: int, g: int, shift: float, length: float):
        inst = staircase_proper_instance(n, g, shift=shift, length=length)
        return (
            "minbusy",
            instance_to_dict(inst),
            {},
            f"adv:staircase:n{n}g{g}",
        )

    shapes.append(_fig3(4, 1.0))
    shapes.append(_stairs(40, 3, 1.0, 50.0))
    shapes.append(_fig3(5, 2.0))
    shapes.append(_stairs(60, 2, 0.5, 30.0))
    return [shapes[i % len(shapes)] for i in range(count)]


@dataclass(frozen=True)
class CorpusEntry:
    """One instance document the traffic keeps coming back to."""

    index: int
    family: str
    doc: Dict[str, Any]
    params: Dict[str, Any]
    tag: str
    adversarial: bool = False

    def content_key(self) -> str:
        return json.dumps(
            [self.family, self.doc, self.params],
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass
class PlannedRequest:
    """One planned wire request, plus how to frame and judge it.

    ``entries`` are corpus indexes (one for ``solve``, several for
    ``solve_many``).  ``doc``/``params`` are the documents actually
    sent — identical to the corpus entry's unless a fuzz ``mutation``
    rewrote them.  ``allowed_errors`` names error types that do not
    count against validation (a near-zero ``deadline`` may legally
    time out); ``abandon_after`` reads that many stream lines then
    drops the connection; ``drop_connection`` sends and hangs up
    without reading at all.  ``frame_mutation`` names a binary framing
    corruption the driver applies to the encoded frame — only on a
    connection that actually negotiated binary; on NDJSON connections
    the request is sent unmutated (its ``allowed_errors`` stay a
    superset of what can occur, so validation is unaffected).
    """

    kind: str  # "solve" | "solve_many"
    entries: List[int]
    family: str
    docs: List[Dict[str, Any]]
    params: Dict[str, Any]
    request_id: Optional[str] = None
    deadline: Optional[float] = None
    use_cache: bool = True
    mutation: Optional[str] = None
    mutated: bool = False
    allowed_errors: Tuple[str, ...] = ()
    abandon_after: Optional[int] = None
    drop_connection: bool = False
    frame_mutation: Optional[str] = None
    seq: int = 0

    def wire_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"op": self.kind, "objective": self.family}
        if self.kind == "solve":
            doc["instance"] = self.docs[0]
        else:
            doc["instances"] = self.docs
        if self.params:
            doc["params"] = self.params
        if not self.use_cache:
            doc["cache"] = False
        if self.request_id is not None:
            doc["id"] = self.request_id
        if self.deadline is not None:
            doc["deadline"] = self.deadline
        return doc


# ----------------------------------------------------------------------
# fuzz mutations
# ----------------------------------------------------------------------

def _scale_item(family: str, item: Dict[str, Any], factor: float) -> None:
    """Grow one item's extent in place (stays a valid item)."""
    if family == "rect2d":
        item["x1"] = item["x0"] + (item["x1"] - item["x0"]) * factor
    elif family == "ring":
        item["t1"] = item["t0"] + (item["t1"] - item["t0"]) * factor
    elif family == "flexible":
        item["window_end"] = item["window_start"] + (
            item["window_end"] - item["window_start"]
        ) * factor
    elif family == "tree":
        pass  # paths have no extent; handled by the caller
    else:
        item["end"] = item["start"] + (item["end"] - item["start"]) * factor


def _break_item(family: str, item: Any) -> Any:
    """Make one item invalid (the loader/constructor must reject it)."""
    if family == "rect2d":
        return {**item, "x1": item["x0"] - 1.0}
    if family == "ring":
        return {**item, "alen": -0.5}
    if family == "flexible":
        return {**item, "proc": -1.0}
    if family == "tree":
        return "not-a-path"
    return {**item, "end": item["start"] - 1.0}


def mutate_document(
    family: str,
    doc: Dict[str, Any],
    mutation: str,
    rng: np.random.Generator,
) -> Dict[str, Any]:
    """Apply one named mutation to a (deep-copied) instance document."""
    doc = json.loads(json.dumps(doc))
    key = items_key(family)
    items = doc.get(key)
    if not isinstance(items, list) or not items:
        return doc
    i = int(rng.integers(0, len(items)))
    if mutation == "grow-item":
        if family == "tree":
            items.append(list(items[i]))  # no extents; duplicate instead
        else:
            _scale_item(family, items[i], 1.0 + float(rng.uniform(0.1, 0.8)))
    elif mutation == "dup-item":
        items.append(json.loads(json.dumps(items[i])))
    elif mutation == "shuffle-items":
        order = rng.permutation(len(items))
        doc[key] = [items[int(j)] for j in order]
    elif mutation == "break-item":
        items[i] = _break_item(family, items[i])
    elif mutation == "zero-g":
        doc["g"] = 0
    elif mutation == "drop-items":
        doc[key] = 42  # not a list: the loader must reject the shape
    return doc


#: Content mutations (framing mutations — ids, deadlines, abandonment,
#: drops — are planned directly in :meth:`TrafficModel.plan`).  The
#: "valid" ones must keep the oracle and the service byte-identical;
#: the invalid ones must be rejected by both.
MUTATIONS = (
    "grow-item",
    "dup-item",
    "shuffle-items",
    "break-item",
    "zero-g",
    "drop-items",
)

_FRAMING_MUTATIONS = (
    "jumbo-id",
    "tiny-deadline",
    "abandon-stream",
    "drop-connection",
)

#: Binary framing mutations (``binary_fuzz=True``): corruptions of the
#: encoded frame bytes themselves.  ``truncate-frame`` sends a partial
#: frame and hangs up (the server sees an incomplete read and closes —
#: nothing to validate); the other three must each draw a typed
#: ``InstanceError`` response: ``bad-magic`` additionally ends the
#: connection (an unsynced stream cannot be trusted past its length
#: field), ``version-skew`` and ``bad-length`` leave it usable.
BINARY_FRAMING_MUTATIONS = (
    "truncate-frame",
    "bad-magic",
    "version-skew",
    "bad-length",
)

#: Largest ``solve_many`` batch the planner draws (sizes 2..this).
_BATCH_MAX = 5


class TrafficModel:
    """A seeded corpus plus a deterministic request planner."""

    def __init__(
        self,
        *,
        seed: int = 0,
        corpus_size: int = 48,
        adversarial_tail: int = 4,
        zipf: float = 1.2,
        solve_many_fraction: float = 0.15,
        deadline: Optional[float] = None,
        deadline_fraction: float = 0.0,
        fuzz: bool = False,
        fuzz_fraction: float = 0.35,
        binary_fuzz: bool = False,
        families: Tuple[str, ...] = ALL_FAMILIES,
    ) -> None:
        if corpus_size < len(families) + adversarial_tail:
            raise ValueError(
                f"corpus_size must be >= {len(families) + adversarial_tail} "
                f"(one per family plus the adversarial tail), "
                f"got {corpus_size}"
            )
        self.seed = seed
        self.zipf = zipf
        self.solve_many_fraction = solve_many_fraction
        self.deadline = deadline
        self.deadline_fraction = deadline_fraction
        self.fuzz = fuzz
        self.fuzz_fraction = fuzz_fraction
        self.binary_fuzz = binary_fuzz
        self.families = tuple(families)

        entries: List[CorpusEntry] = []
        n_generated = corpus_size - adversarial_tail
        for i in range(n_generated):
            family = self.families[i % len(self.families)]
            doc_seed = seed * 1009 + i
            doc, params = family_document(family, doc_seed)
            entries.append(
                CorpusEntry(
                    index=i,
                    family=family,
                    doc=doc,
                    params=params,
                    tag=f"gen:{family}:s{doc_seed}",
                )
            )
        for family, doc, params, tag in adversarial_documents(
            adversarial_tail
        ):
            entries.append(
                CorpusEntry(
                    index=len(entries),
                    family=family,
                    doc=doc,
                    params=params,
                    tag=tag,
                    adversarial=True,
                )
            )
        #: Rank order == corpus order: entry 0 is the most popular,
        #: the adversarial tail the least (they still recur, just
        #: rarely — cold-path traffic, not one-shot).
        self.corpus: List[CorpusEntry] = entries
        ranks = np.arange(1, len(entries) + 1, dtype=float)
        weights = ranks**-zipf
        self._weights = weights / weights.sum()
        # solve_many groups: corpus indexes that can share one request
        # (one family + one params document per wire request).
        groups: Dict[str, List[int]] = {}
        for e in entries:
            gkey = json.dumps(
                [e.family, e.params], sort_keys=True, separators=(",", ":")
            )
            groups.setdefault(gkey, []).append(e.index)
        self._batch_groups = [g for g in groups.values() if len(g) >= 2]

    # ------------------------------------------------------------------
    def _pick(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.corpus), p=self._weights))

    def requests(self) -> Iterator[PlannedRequest]:
        """The infinite deterministic request stream."""
        rng = np.random.default_rng(
            zlib.crc32(f"loadgen:plan:{self.seed}".encode()) % (2**32)
        )
        seq = 0
        while True:
            yield self._plan_one(rng, seq)
            seq += 1

    def plan(self, count: int) -> List[PlannedRequest]:
        """The first ``count`` requests of the stream (for goldens)."""
        stream = self.requests()
        return [next(stream) for _ in range(count)]

    # ------------------------------------------------------------------
    def _plan_one(
        self, rng: np.random.Generator, seq: int
    ) -> PlannedRequest:
        fuzzing = self.fuzz and float(rng.uniform()) < self.fuzz_fraction
        framing: Optional[str] = None
        content: Optional[str] = None
        if fuzzing:
            if float(rng.uniform()) < 0.4:
                pool = _FRAMING_MUTATIONS + (
                    BINARY_FRAMING_MUTATIONS if self.binary_fuzz else ()
                )
                framing = pool[int(rng.integers(0, len(pool)))]
            else:
                content = MUTATIONS[int(rng.integers(0, len(MUTATIONS)))]

        many = (
            float(rng.uniform()) < self.solve_many_fraction
            and self._batch_groups
            and content is None
        ) or framing == "abandon-stream"
        if many and self._batch_groups:
            group = self._batch_groups[
                int(rng.integers(0, len(self._batch_groups)))
            ]
            # Zipf-weighted members, repeats allowed: in-batch
            # fingerprint dedup is server behaviour worth exercising.
            sub = self._weights[group] / self._weights[group].sum()
            size = int(rng.integers(2, _BATCH_MAX + 1))
            members = [
                int(rng.choice(group, p=sub)) for _ in range(size)
            ]
            entry0 = self.corpus[members[0]]
            req = PlannedRequest(
                kind="solve_many",
                entries=members,
                family=entry0.family,
                docs=[self.corpus[m].doc for m in members],
                params=entry0.params,
                seq=seq,
            )
        else:
            idx = self._pick(rng)
            entry = self.corpus[idx]
            doc = entry.doc
            mutated = False
            if content is not None:
                doc = mutate_document(entry.family, doc, content, rng)
                mutated = True
            req = PlannedRequest(
                kind="solve",
                entries=[idx],
                family=entry.family,
                docs=[doc],
                params=entry.params,
                mutation=content,
                mutated=mutated,
                seq=seq,
            )
        if float(rng.uniform()) < 0.5:
            req.request_id = f"r{seq}"
        if self.deadline_fraction and float(rng.uniform()) < (
            self.deadline_fraction
        ):
            req.deadline = self.deadline or 5.0
            req.allowed_errors = ("SolveTimeout", "TimeoutError")

        if framing == "jumbo-id":
            req.request_id = "x" * 1500 + f"#{seq}"
            req.mutation = framing
        elif framing == "tiny-deadline":
            req.deadline = 0.005
            req.allowed_errors = ("SolveTimeout", "TimeoutError")
            req.mutation = framing
        elif framing == "abandon-stream" and req.kind == "solve_many":
            req.abandon_after = 1
            req.mutation = framing
        elif framing == "drop-connection":
            req.drop_connection = True
            req.mutation = framing
        elif framing in BINARY_FRAMING_MUTATIONS:
            req.frame_mutation = framing
            req.mutation = framing
            if framing != "truncate-frame":
                # The server must reject the corrupted frame with a
                # typed error, never a solve answer or a silent close.
                req.allowed_errors = req.allowed_errors + (
                    "InstanceError",
                )
        return req
