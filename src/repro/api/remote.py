"""The remote solver client: a ``Session`` API over a solve service.

:class:`RemoteSession` adapts the blocking
:class:`~repro.service.client.ServiceClient` to the
:class:`~repro.api.protocol.SolverClient` protocol, so code written
against a local :class:`~repro.api.session.Session` runs unchanged
against a ``repro serve`` process — same engine-level instance
objects in, same :class:`~repro.engine.EngineResult`s out.

Per call it runs the *local* half of the layered pipeline — registry
dispatch through :func:`~repro.engine.engine.plan_solve` (type check,
normalization, fingerprint) — turns the normalized instance into its
wire document (:func:`repro.io.objective_instance_to_dict`), and
rebuilds the response document into an ``EngineResult`` whose schedule
is re-expressed over the caller's own job objects.

The instance's fields are read once per instance, not per call: the
fingerprint and the wire document share the instance's job table
(built at construction for ``Instance.from_spans``, else on first
read), and the binary codec writes its typed columns' bytes without
building per-job records or re-typing a value.  The
result's schedule is positional (built on first read of its
``assignment``), so a caller that only wants the cost never pays for
the per-job rebind.  The server computes the same content fingerprint
from the rebuilt document; a mismatch (a serialization bug, or a
server speaking a different fingerprint version) raises rather than
silently caching under the wrong key.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..engine.engine import (
    MINBUSY,
    EngineResult,
    SolvePlan,
    _schedule_for,
    _verified,
    plan_solve,
)
from ..io import objective_instance_to_dict
from ..obs import trace as obs_trace
from ..service.client import ServiceClient
from .config import EngineConfig

__all__ = ["RemoteSession", "result_from_doc"]

#: Element types a positional assignment may hold as decoded.
_POSITION_TYPES = {int, type(None)}


def result_from_doc(doc: Dict[str, Any], plan: SolvePlan) -> EngineResult:
    """An :class:`EngineResult` rebuilt from one wire result document.

    The schedule is re-inflated from the positional assignment over
    the plan's normalized instance (exactly how a store hit is
    re-expressed locally); ``detail`` keeps the JSON rendering (lists
    where in-process results carry tuples — the canonical document
    form is identical either way).
    """
    if doc["fingerprint"] != plan.fingerprint:
        raise RuntimeError(
            f"remote fingerprint mismatch for {plan.spec.name}: "
            f"sent {plan.fingerprint[:12]}..., "
            f"got {doc['fingerprint'][:12]}... — the wire round-trip "
            "changed the instance content or the server disagrees on "
            "the fingerprint scheme"
        )
    raw = doc.get("assignment_by_position") or ()
    if set(map(type, raw)) <= _POSITION_TYPES:
        by_position = tuple(raw)
    else:  # e.g. float positions from a foreign JSON encoder
        by_position = tuple(None if m is None else int(m) for m in raw)
    schedule = None
    if by_position or doc.get("has_schedule"):
        # Rebuilt even when the assignment is empty: the presence bit
        # says this family carries a Schedule (e.g. an empty instance),
        # and a local Session would return one too.
        n = len(plan.instance.jobs)
        if by_position and len(by_position) != n:
            raise RuntimeError(
                f"remote result for {plan.spec.name} has "
                f"{len(by_position)} positions for {n} jobs"
            )
        schedule = _schedule_for(plan.instance, by_position)
    return EngineResult(
        objective=doc["objective"],
        algorithm=doc["algorithm"],
        guarantee=doc.get("guarantee"),
        cost=doc["cost"],
        throughput=doc["throughput"],
        schedule=schedule,
        fingerprint=doc["fingerprint"],
        assignment_by_position=by_position,
        from_cache=bool(doc.get("from_cache", False)),
        solve_seconds=float(doc.get("solve_seconds", 0.0)),
        detail=doc.get("detail"),
    )


class RemoteSession:
    """A :class:`~repro.api.protocol.SolverClient` over one ``repro
    serve`` connection.

    ``config`` only contributes the default deadline — the cache stack
    lives in the server's session, which is what makes N remote
    sessions against one server share its warm tiers.  The transport
    is a :class:`ServiceClient` built from ``host``, ``port``,
    ``timeout`` and ``wire``::

        with RemoteSession(port=8753) as remote:
            res = remote.solve(instance)            # same call as Session
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8753,
        *,
        timeout: Optional[float] = 30.0,
        config: Optional[EngineConfig] = None,
        wire: Optional[str] = None,
    ) -> None:
        # ``wire`` is the transport preference forwarded to the
        # ServiceClient ("ndjson"/"binary"/"auto"; None reads
        # REPRO_WIRE) — results are canonically identical either way,
        # only the framing changes.
        self.client = ServiceClient(host, port, timeout=timeout, wire=wire)
        self.config = config if config is not None else EngineConfig()

    # ------------------------------------------------------------------
    # wire marshalling
    # ------------------------------------------------------------------
    def _plan_and_doc(
        self,
        instance: Any,
        objective: Optional[str],
        params: Dict[str, Any],
    ) -> Tuple[SolvePlan, Dict[str, Any], Dict[str, Any]]:
        plan = plan_solve(instance, objective or MINBUSY, params)
        doc, wire_params = objective_instance_to_dict(
            plan.instance, plan.spec.name
        )
        return plan, doc, wire_params

    def _deadline(self, deadline: Optional[float]) -> Optional[float]:
        return deadline if deadline is not None else self.config.deadline

    # ------------------------------------------------------------------
    # SolverClient surface
    # ------------------------------------------------------------------
    def solve(
        self,
        instance: Any,
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        verify: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> EngineResult:
        """Solve one instance on the server; result rebound locally.

        ``verify=True`` re-checks the rebuilt result with the family's
        registered verifier *locally* — an independent check on what
        came over the wire, same contract as ``Session.solve``.
        """
        if budget is not None:
            params["budget"] = budget
        plan, doc, wire_params = self._plan_and_doc(
            instance, objective, params
        )
        with obs_trace.span(
            "remote.solve",
            objective=plan.spec.name,
            peer=f"{self.client.host}:{self.client.port}",
        ):
            served = self.client.solve(
                doc,
                plan.spec.name,
                params=wire_params or None,
                cache=use_cache,
                deadline=self._deadline(deadline),
            )
        result = result_from_doc(served, plan)
        return _verified(plan, result) if verify else result

    def solve_many(
        self,
        instances: Sequence[Any],
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> List[EngineResult]:
        """One streamed server batch; results in input order."""
        return list(
            self.solve_stream(
                instances,
                objective,
                budget=budget,
                use_cache=use_cache,
                deadline=deadline,
                **params,
            )
        )

    def solve_stream(
        self,
        instances: Sequence[Any],
        objective: Optional[str] = None,
        *,
        budget: Optional[float] = None,
        use_cache: bool = True,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> Iterator[EngineResult]:
        """Results in input order as the server streams them back —
        the consumer sees item *i* while items ``i+1..`` still
        compute server-side."""
        if budget is not None:
            params["budget"] = budget
        plans: List[SolvePlan] = []
        docs: List[Dict[str, Any]] = []
        per_item_params: List[Dict[str, Any]] = []
        for inst in instances:
            plan, doc, wp = self._plan_and_doc(inst, objective, params)
            plans.append(plan)
            docs.append(doc)
            per_item_params.append(wp)
        if not plans:
            return
        # The wire's solve_many op carries ONE params object for the
        # whole batch.  Normalized instances can disagree on the params
        # that were folded into them (e.g. EnergyInstances carrying
        # different power models), so a mixed batch falls back to
        # per-item solve requests — same results, one line each.
        if any(wp != per_item_params[0] for wp in per_item_params[1:]):
            for plan, doc, wp in zip(plans, docs, per_item_params):
                served = self.client.solve(
                    doc,
                    plan.spec.name,
                    params=wp or None,
                    cache=use_cache,
                    deadline=self._deadline(deadline),
                )
                yield result_from_doc(served, plan)
            return
        stream = self.client.iter_solve_many(
            docs,
            plans[0].spec.name,
            params=per_item_params[0] or None,
            cache=use_cache,
            deadline=self._deadline(deadline),
        )
        # ``iter_solve_many`` keeps the connection clean (it reads
        # ``done`` early and drains an abandoned batch on close); closing
        # it here makes an abandoned stream drain now, not at GC.
        try:
            for plan, served in zip(plans, stream):
                yield result_from_doc(served, plan)
        finally:
            stream.close()

    def cache_stats(self) -> Dict[str, Any]:
        """The server session's per-tier counters (plus its wire tier)."""
        return self.client.cache_stats()

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics exposition document (``metrics`` op)."""
        return self.client.metrics()

    def objectives(self) -> List[str]:
        return self.client.objectives()

    def ping(self) -> bool:
        """Server liveness (transport-level convenience)."""
        return self.client.ping()

    def health(self) -> Dict[str, Any]:
        """The server's readiness snapshot (``health`` op)."""
        return self.client.health()

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteSession({self.client.host}:{self.client.port})"
        )
