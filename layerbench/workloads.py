"""The four workloads: seeded inputs, the system under test, validation.

Each workload drives the repo only through public entry points
(``repro.api.Session``, ``repro.api.RemoteSession``,
``repro.service.ServiceClient`` and a ``python -m repro serve``
subprocess) from one client with one connection, in a closed loop.

Why these four:

* ``cold-dense`` - every request is a never-seen 10k-job general
  instance on a fixed horizon of 100 (the baseline profile), so FirstFit
  placement over ``core.occupancy`` does nearly all the work and no
  cache, codec or wire layer is used.
* ``cold-sparse`` - the same with horizon = n: the same kernels in the
  other density regime, where ``Schedule.cost`` and the dispatcher's
  class checks weigh more.  A kernel change must hold on both.
* ``warm-remote`` - one ``RemoteSession`` against ``repro serve`` (no
  store, default wire negotiation, which resolves to binary) cycling
  three popular 10k-job contents.  Each request is a freshly built
  ``Instance`` (new ``Job`` objects; positional ids, so the request bytes
  repeat), so after warm-up every answer is a server wire-tier replay
  and the time goes to client plan, fingerprint, ``io`` serialization,
  codec and rebind.  The kernels do nothing.
* ``mixed-service`` - one NDJSON ``ServiceClient`` against ``repro
  serve --no-store --cache-size 256``, replaying loadgen's seeded
  8-family corpus under Zipf popularity over a corpus four times the
  LRU, with ~15% ``solve_many`` batches (in-batch duplicates) and about
  half of the single solves carrying an ``id`` (which skips the
  byte-keyed wire tier).  Per-request fixed cost dominates; it is the
  only workload that reaches the seven non-MinBusy kernels and dedup.

Not measured, on purpose: ``engine.shm`` (it only carries process-pool
batches of at least 8192 jobs, which no closed-loop single client
sends), the sharded fleet (two cores leave no room for a steady fleet
beside the client), ``engine.repair`` (off by default), and the
persistent store.  With a store, every request that misses the LRU
once is written through and later served from the store, so the share
of requests reaching the kernels falls all through a run (591 to 94
kernel solves per 2000 requests over 24000, in a replay of the cache
tiers) and latency and tail fall with it.  Without it the LRU miss
rate, and with it the kernel share, holds steady once the LRU is full.
The LRU is cut from its default 1024 entries to 256, and the corpus
with it, so it fills within the warm-up (about 1500 requests).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

N_JOBS = 10_000
G = 3
DENSE_HORIZON = 100.0
WARM_CONTENTS = 3
WARM_ROUNDS = 3
LRU_SIZE = 256
CORPUS_SIZE = 4 * LRU_SIZE
ZIPF = 1.2
BATCH_SHARE = 0.15
MIXED_WARMUP_REQUESTS = 1536
COLD_WARMUP_JOBS = 1_000
SERVER_START_TIMEOUT = 60.0
DIGEST_ITEMS = 8

#: A request: the call to time, and the check that validates its answer
#: afterwards (returns ``None`` when correct, else the reason).
Request = Tuple[Callable[[], Any], Callable[[Any], Optional[str]]]


def derive_seed(seed: int, *parts: object) -> int:
    """A 63-bit seed for one named input stream of one run seed."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def _rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb_pid(pid: int) -> float:
    """Peak resident set of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _clean_env() -> Dict[str, str]:
    """The server's environment: no inherited ``REPRO_*`` settings, so
    store, wire, shard and trace configuration come from its flags."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# the serve subprocess
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve --port 0`` subprocess.

    ``spans_out`` starts it through the benchmark's launcher, which
    installs the layer wrappers first and writes the server's spans to
    that file when ``repro serve`` returns after SIGTERM.
    """

    def __init__(self, flags: List[str], spans_out: Optional[Path] = None) -> None:
        if spans_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_out)]
        self.spans_out = spans_out
        self.proc = subprocess.Popen(
            argv + ["serve", "--host", "127.0.0.1", "--port", "0"] + flags,
            stdout=subprocess.PIPE,
            env=_clean_env(),
            cwd=str(ROOT),
            text=True,
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(line.split(marker)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return _rss_mb_pid(self.proc.pid)

    def stop(self) -> List[list]:
        """SIGTERM (graceful drain), wait, and return recorded spans."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.spans_out is not None and self.spans_out.exists():
            return json.loads(self.spans_out.read_text())
        return []


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def verify_local(instance: Any, result: Any) -> Optional[str]:
    """Check a local result with its family's registered verifier."""
    from repro.core.registry import REGISTRY, Solved

    spec = REGISTRY.get(result.objective)
    try:
        spec.verify(
            instance,
            Solved(
                algorithm=result.algorithm,
                guarantee=result.guarantee,
                cost=result.cost,
                throughput=result.throughput,
                schedule=result.schedule,
                assignment_by_position=result.assignment_by_position,
                detail=result.detail,
            ),
        )
    except Exception as exc:  # the verifier's verdict, not a crash
        return f"{type(exc).__name__}: {exc}"
    if result.throughput != instance.n:
        return f"scheduled {result.throughput} of {instance.n} jobs"
    if not np.isclose(result.cost, result.schedule.cost, rtol=1e-12, atol=0.0):
        return f"reported cost {result.cost} != schedule cost {result.schedule.cost}"
    return None


def canonical(result: Any) -> str:
    """The byte-comparison form of an ``EngineResult`` (loadgen's)."""
    from repro.loadgen.validate import canonical_result
    from repro.service.protocol import result_to_doc

    return canonical_result(json.loads(json.dumps(result_to_doc(result))))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """Inputs from a seed, the system under test, and its validation.

    ``prepare`` generates inputs and oracle answers (never timed);
    ``setup`` builds the system under test and warms it up, and is what
    ``setup_s`` measures; ``requests`` yields the closed-loop stream;
    ``stats`` reads cumulative cache counters; ``teardown`` stops it and
    returns the server's spans when it was traced.
    """

    name = ""
    #: Requests per wall second on the reference host (2-core Xeon),
    #: untimed generation and validation included: a run of ``seconds``
    #: sends ``seconds * rate`` requests.
    rate = 1.0
    #: Collect garbage and freeze what survives, untimed, before every
    #: request.  A request that builds 10k-job objects leaves enough
    #: garbage that whether a full collection of it lands inside the
    #: next timed request or between two is otherwise a matter of
    #: chance; freezing keeps each collection from rescanning every
    #: result the session has cached, so its cost does not grow through
    #: the run.
    collect_between = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def digest_items(self) -> Iterator[bytes]:
        raise NotImplementedError

    def input_digest(self) -> str:
        """SHA-256 over the parameters and the first inputs of the
        stream: a function of the seed alone."""
        h = hashlib.sha256(json.dumps(self.params(), sort_keys=True).encode())
        for item in self.digest_items():
            h.update(item)
        return h.hexdigest()

    def prepare(self) -> None:
        pass

    def setup(self, spans_out: Optional[Path]) -> None:
        raise NotImplementedError

    def requests(self) -> Iterator[Request]:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def server_pid(self) -> Optional[int]:
        """The ``repro serve`` process under test, if there is one."""
        return None

    def teardown(self) -> List[list]:
        return []


class ColdWorkload(Workload):
    """Never-seen 10k-job general instances on a local ``Session``."""

    collect_between = True

    def __init__(self, seed: int, name: str, horizon: float, rate: float) -> None:
        super().__init__(seed)
        self.name = name
        self.horizon = horizon
        self.rate = rate
        self.session = None

    def params(self) -> Dict[str, Any]:
        return {
            "entry": "repro.api.Session(store_path=None)",
            "wire": "none (in-process)",
            "n": N_JOBS,
            "g": G,
            "horizon": self.horizon,
            "generator": "random_general_instance",
            "cache": "every request is a never-seen instance",
            "warmup_jobs": COLD_WARMUP_JOBS,
        }

    def instance(self, i: int, n: int = N_JOBS):
        from repro.workloads import random_general_instance

        return random_general_instance(
            n, G, seed=derive_seed(self.seed, self.name, i), horizon=self.horizon
        )

    def digest_items(self) -> Iterator[bytes]:
        for i in range(DIGEST_ITEMS):
            inst = self.instance(i)
            yield np.array([(j.start, j.end) for j in inst.jobs]).tobytes()

    def setup(self, spans_out: Optional[Path]) -> None:
        from repro.api import Session

        self.session = Session(store_path=None)
        warm = self.instance("warmup", COLD_WARMUP_JOBS)
        self.session.solve(warm)

    def requests(self) -> Iterator[Request]:
        i = 0
        while True:
            inst = self.instance(i)
            i += 1
            yield (
                lambda inst=inst: self.session.solve(inst),
                lambda res, inst=inst: verify_local(inst, res),
            )

    def stats(self) -> Dict[str, Any]:
        return self.session.cache_stats()

    def peak_rss_mb(self) -> float:
        return _rss_mb_self()

    def teardown(self) -> List[list]:
        if self.session is not None:
            self.session.close()
            self.session = None
        return []


class RemoteWorkload(Workload):
    """Shared plumbing of the two ``repro serve`` workloads."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Optional[Server] = None

    def peak_rss_mb(self) -> float:
        return _rss_mb_self() + self.server.peak_rss_mb()

    def server_pid(self) -> Optional[int]:
        return self.server.proc.pid if self.server is not None else None

    def _close_client(self) -> None:
        raise NotImplementedError

    def teardown(self) -> List[list]:
        self._close_client()
        spans = self.server.stop() if self.server is not None else []
        self.server = None
        return spans


class WarmRemoteWorkload(RemoteWorkload):
    """Three popular 10k-job contents over one binary ``RemoteSession``."""

    name = "warm-remote"
    rate = 20.0
    collect_between = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.remote = None
        self.contents: List[List[Tuple[float, float]]] = []
        self.expected: List[str] = []

    def params(self) -> Dict[str, Any]:
        return {
            "entry": "repro.api.RemoteSession",
            "server": "python -m repro serve --no-store",
            "wire": "default negotiation (binary)",
            "n": N_JOBS,
            "g": G,
            "horizon": DENSE_HORIZON,
            "contents": WARM_CONTENTS,
            "warmup_rounds": WARM_ROUNDS,
            "request": "fresh Instance per request, contents cycled",
        }

    def _content(self, j: int) -> List[Tuple[float, float]]:
        from repro.workloads import random_general_instance

        inst = random_general_instance(
            N_JOBS, G, seed=derive_seed(self.seed, self.name, j),
            horizon=DENSE_HORIZON,
        )
        return [(job.start, job.end) for job in inst.jobs]

    def digest_items(self) -> Iterator[bytes]:
        for j in range(WARM_CONTENTS):
            yield np.array(self._content(j)).tobytes()

    def prepare(self) -> None:
        from repro.api import Session
        from repro.core.instance import Instance

        self.contents = [self._content(j) for j in range(WARM_CONTENTS)]
        with Session(store_path=None) as oracle:
            self.expected = [
                canonical(oracle.solve(Instance.from_spans(spans, G)))
                for spans in self.contents
            ]

    def _fresh(self, j: int):
        from repro.core.instance import Instance

        return Instance.from_spans(self.contents[j % WARM_CONTENTS], G)

    def setup(self, spans_out: Optional[Path]) -> None:
        from repro.api import RemoteSession

        self.server = Server(["--no-store"], spans_out)
        self.remote = RemoteSession(port=self.server.port, timeout=120.0)
        self.remote.ping()
        # Round 1 solves, round 2 installs the replay under the interned
        # request frame, round 3 and later replay it.
        for j in range(WARM_CONTENTS * WARM_ROUNDS):
            self.remote.solve(self._fresh(j))

    def requests(self) -> Iterator[Request]:
        j = 0
        while True:
            inst = self._fresh(j)
            want = self.expected[j % WARM_CONTENTS]
            j += 1
            yield (
                lambda inst=inst: self.remote.solve(inst),
                lambda res, want=want: (
                    None if canonical(res) == want
                    else "served result differs from the local oracle"
                ),
            )

    def stats(self) -> Dict[str, Any]:
        return self.remote.cache_stats()

    def _close_client(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.remote = None


class MixedServiceWorkload(RemoteWorkload):
    """Loadgen's 8-family Zipf corpus over one NDJSON ``ServiceClient``."""

    name = "mixed-service"
    rate = 1200.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.client = None
        self.model = None
        self.oracle = None
        self.stream = None

    def params(self) -> Dict[str, Any]:
        return {
            "entry": "repro.service.ServiceClient(wire='ndjson')",
            "server": f"python -m repro serve --no-store --cache-size {LRU_SIZE}",
            "wire": "ndjson",
            "families": 8,
            "n": "loadgen family_document sizes (6 to 24 items)",
            "corpus_size": CORPUS_SIZE,
            "lru_size": LRU_SIZE,
            "zipf": ZIPF,
            "batch_share": BATCH_SHARE,
            "ids": "about half of the single solves carry an id",
            "warmup_requests": MIXED_WARMUP_REQUESTS,
        }

    def _model(self):
        from repro.loadgen.traffic import TrafficModel

        return TrafficModel(
            seed=derive_seed(self.seed, self.name) % (2**31),
            corpus_size=CORPUS_SIZE,
            zipf=ZIPF,
            solve_many_fraction=BATCH_SHARE,
        )

    def digest_items(self) -> Iterator[bytes]:
        model = self._model()
        for entry in model.corpus:
            yield entry.content_key().encode()
        for req in model.plan(64):
            yield json.dumps(req.wire_doc(), sort_keys=True).encode()

    def prepare(self) -> None:
        from repro.loadgen.validate import OracleValidator

        self.model = self._model()
        self.oracle = OracleValidator()

    def setup(self, spans_out: Optional[Path]) -> None:
        from repro.service import ServiceClient

        self.server = Server(
            ["--no-store", "--cache-size", str(LRU_SIZE)], spans_out
        )
        self.client = ServiceClient(port=self.server.port, timeout=120.0, wire="ndjson")
        self.client.ping()
        self.stream = self.model.requests()
        for _ in range(MIXED_WARMUP_REQUESTS):
            self._send(next(self.stream))

    def _send(self, req) -> List[Dict[str, Any]]:
        if req.kind == "solve":
            return [self.client.request(req.wire_doc())["result"]]
        return self.client.solve_many(
            req.docs, req.family, params=req.params or None
        )

    def _check(self, req, results: List[Dict[str, Any]]) -> Optional[str]:
        if len(results) != len(req.docs):
            return f"{len(results)} results for {len(req.docs)} instances"
        for doc, served in zip(req.docs, results):
            outcome = self.oracle.check(
                req.family, doc, req.params, {"ok": True, "result": served}
            )
            if outcome.failed:
                return f"{outcome.status}: {outcome.detail}"
        return None

    def requests(self) -> Iterator[Request]:
        for req in self.stream:
            yield (
                lambda req=req: self._send(req),
                lambda res, req=req: self._check(req, res),
            )

    def stats(self) -> Dict[str, Any]:
        return self.client.cache_stats()

    def _close_client(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


WORKLOADS = ("cold-dense", "cold-sparse", "warm-remote", "mixed-service")


def make(name: str, seed: int) -> Workload:
    if name == "cold-dense":
        return ColdWorkload(seed, name, DENSE_HORIZON, rate=2.0)
    if name == "cold-sparse":
        return ColdWorkload(seed, name, float(N_JOBS), rate=3.3)
    if name == "warm-remote":
        return WarmRemoteWorkload(seed)
    if name == "mixed-service":
        return MixedServiceWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

