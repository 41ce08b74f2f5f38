"""``repro loadgen``: adversarial replay and service-boundary fuzzing.

The loadgen subsystem drives mixed-family traffic — Zipf-skewed
generator samples with the paper's adversarial constructions in the
tail — against a live ``repro serve`` endpoint (or a sharded fleet),
validates **every** response against a local oracle session plus the
registry verifier, and reports latency/throughput/hit-rate metrics.
In fuzz mode it mutates instances and request framing hunting for
divergence, and shrinks any failure into a minimal reproducer file
that ``repro loadgen --replay`` re-runs deterministically.

Layering::

    traffic.py    what is sent   (corpus, Zipf popularity, mutations)
    driver.py     how it is sent (asyncio fan-out, retry, replay)
    validate.py   was it right   (oracle session + registry verifier)
    minimize.py   why it failed  (ddmin shrink, reproducer files)
    report.py     what happened  (latency percentiles)
"""

from .driver import LoadgenOptions, replay_reproducer, run_loadgen
from .minimize import (
    ddmin,
    load_reproducer,
    minimize_instance,
    reproducer_record,
    write_reproducer,
)
from .report import latency_summary, percentile
from .traffic import (
    ALL_FAMILIES,
    MUTATIONS,
    CorpusEntry,
    PlannedRequest,
    TrafficModel,
    adversarial_documents,
    family_document,
    items_key,
    mutate_document,
)
from .validate import OracleValidator, Outcome, canonical_result

__all__ = [
    "ALL_FAMILIES",
    "CorpusEntry",
    "LoadgenOptions",
    "MUTATIONS",
    "OracleValidator",
    "Outcome",
    "PlannedRequest",
    "TrafficModel",
    "adversarial_documents",
    "canonical_result",
    "ddmin",
    "family_document",
    "items_key",
    "latency_summary",
    "load_reproducer",
    "minimize_instance",
    "mutate_document",
    "percentile",
    "replay_reproducer",
    "reproducer_record",
    "run_loadgen",
    "write_reproducer",
]
