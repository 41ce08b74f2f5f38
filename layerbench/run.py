"""Layer-attributed end-to-end benchmark of the busy-time solver stack.

Run from the repository root::

    python3 layerbench/run.py --workload cold-dense --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``cold-dense``,
``cold-sparse``, ``warm-remote``, ``mixed-service``.  One client sends
requests in a closed loop over at most one connection; the system under
test is that client plus at most one ``repro serve`` process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s`` - median over several set-ups in the run of the time from
  start until the system is ready: session construction or server spawn
  until ``ping``, plus the warm-up the workload calls for.  Input
  generation is excluded.
* ``latency_p50_ms`` - median per-request wall time.
* ``latency_tail_ms`` - the highest of p99/p95/p90/p75/p50 that still
  has at least ten samples beyond it; the report names which one.
* ``throughput_rps`` - completed requests per second of timed request
  time (input generation and validation between requests excluded).
* ``peak_rss_mb`` - peak RSS of the client process plus the server.
* ``error_rate`` - failed, refused or wrong answers over attempted ones.
  It is reported here and through ``attempted``/``failed`` in the JSON
  line, not as a metric, because it is zero on a correct run.

Every answer is validated outside the timers: local results with the
family's registered verifier, remote answers byte-compared with a
private local ``Session``'s canonical document.  The command exits 1
when any answer is wrong.

``--trace 1`` runs half the time untraced and half traced.  The traced
half installs timing wrappers around each layer's public functions, in
the client and, through ``launcher.py``, in the server, and reports mean
self time per request per layer, ``unattributed_ms`` (wall time no span
covers), hit ratios, bytes, and the tracing overhead (traced p50 over
untraced p50).  Workloads where more than 10% of wall time is
unattributed are flagged.

What keeps runs of the same code steady on a shared 2-vCPU host: the
mixed-service server runs without a store, so its cache tiers reach a
steady state within the warm-up (see ``workloads.py``); the client and
the server are kept on whichever vCPU is fastest at the moment
(``CpuPicker``); and the cold and warm-remote workloads collect garbage
untimed between requests, so a full collection never lands inside a
timed request by chance.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Span-derived per-layer metrics: mean self time per request, in ms.
SPAN_LAYERS = (
    "engine.plan",
    "engine.normalize",
    "engine.fingerprint",
    "engine.rebind",
    "io.to_dict",
    "io.from_dict",
    "service.binary.encode",
    "service.binary.decode",
    "service.protocol.encode",
    "service.protocol.decode",
    "service.protocol.result_doc",
    "service.client.roundtrip",
    "minbusy.solve",
    "minbusy.dispatch",
    "minbusy.firstfit",
    "core.schedule.cost",
    "maxthroughput.solve",
    "capacity.solve",
    "rect.solve",
    "topology.ring.solve",
    "topology.tree.solve",
    "flexible.solve",
    "energy.solve",
    "engine.tiers.probe",
    "engine.tiers.install",
    "engine.executors",
)

def _self_metric(span: str) -> str:
    return "engine.executors.self_ms" if span == "engine.executors" else span + "_ms"


PER_LAYER = tuple((_self_metric(s), "ms") for s in SPAN_LAYERS) + (
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("service.request_bytes", "bytes"),
    ("service.response_bytes", "bytes"),
    ("service.server.wire_hit_ratio", "ratio"),
    ("engine.tiers.lru_hit_ratio", "ratio"),
    ("engine.executors.dedup_ratio", "ratio"),
    ("engine.kernel_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: The in-program span each layer metric is planned to come from, so a
#: later tracer can take over the source without renaming the metrics.
PLANNED_SPANS = {
    "engine.normalize_ms": "plan.normalize",
    "engine.fingerprint_ms": "plan.fingerprint",
    "engine.rebind_ms": "result.rebind",
    "service.binary.encode_ms": "codec.encode",
    "service.binary.decode_ms": "codec.decode",
    "service.protocol.encode_ms": "codec.encode",
    "service.protocol.decode_ms": "codec.decode",
    "service.client.roundtrip_ms": "wire.write + wire.read",
    "minbusy.solve_ms": "kernel.minbusy",
    "minbusy.dispatch_ms": "kernel.minbusy",
    "minbusy.firstfit_ms": "kernel.minbusy",
    "core.schedule.cost_ms": "kernel.minbusy",
    "maxthroughput.solve_ms": "kernel.maxthroughput",
    "capacity.solve_ms": "kernel.capacity",
    "rect.solve_ms": "kernel.rect2d",
    "topology.ring.solve_ms": "kernel.ring",
    "topology.tree.solve_ms": "kernel.tree",
    "flexible.solve_ms": "kernel.flexible",
    "energy.solve_ms": "kernel.energy",
}

#: Tail percentiles, highest first; the first with >= 10 samples beyond
#: it is reported.
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
UNATTRIBUTED_FLAG = 0.10
WALL_CAP = 1.3
#: Iterations of the loop that times a CPU (about 4 ms), and
#: the least time between two picks of the CPU during a run.
PIN_PROBE_LOOP = 60_000
PIN_EVERY_S = 0.25

#: Set-ups per untraced run; setup_s is their median.
SETUPS = {"cold-dense": 25, "cold-sparse": 25, "warm-remote": 3, "mixed-service": 3}


def host_block() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Shared hosts drift in speed over tens of seconds; the probe, taken
    before and after each run, records the state of the host a result
    was measured on, so results are compared only with their like.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def tail(latencies: List[float], planned: int) -> Tuple[float, int]:
    """``(value, percentile)`` of the highest ladder percentile that has
    at least ``TAIL_MIN_BEYOND`` samples above it at the workload's
    planned sample count (the median when none has).  Choosing by the
    planned count keeps the percentile fixed across runs of a workload
    even when a slow host cuts a run short."""
    import numpy

    n = planned
    p = next(
        (p for p in TAIL_LADDER if n * (100 - p) // 100 >= TAIL_MIN_BEYOND),
        TAIL_LADDER[-1],
    )
    return float(numpy.percentile(latencies, p)), p


def planned_count(wl, seconds: float) -> int:
    return max(1, round(seconds * wl.rate))


class CpuPicker:
    """Keeps the client and the server on whichever CPU is fastest now.

    Each vCPU of a shared host slows by up to ~1.5x for seconds at a
    time, independently of the other: a fixed pure-Python loop run on
    both vCPUs at once, sampled every 0.2 s, shows slow spells on one
    while the other runs at full speed, and warm-remote requests sent
    alternately from each vCPU take ~18 ms on the fast one and ~29 ms
    on the slow one in the same second.  Untimed, before each set-up
    and at most every ``PIN_EVERY_S`` in the loop, the picker times a
    short fixed loop on every CPU the benchmark may use and pins the
    client and every thread of the server to the fastest.  Client and
    server take turns in a closed loop, so one CPU serves both, and a
    request is handed over by a context switch rather than by waking
    an idle vCPU, which on a virtual machine is slower and less steady
    (mixed-service p50 ~0.55 ms on one CPU against ~0.9 ms across two).
    """

    def __init__(self, wl) -> None:
        self.wl = wl
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -float("inf")

    @staticmethod
    def _loop_time(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        total = 0
        for i in range(PIN_PROBE_LOOP):
            total += i * i
        return time.perf_counter() - t0

    def pin(self) -> None:
        self.last = time.perf_counter()
        if len(self.cpus) < 2:
            return
        best = min(self.cpus, key=self._loop_time)
        pids = [os.getpid()]
        if self.wl.server_pid() is not None:
            pids.append(self.wl.server_pid())
        for pid in pids:
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:  # the server has exited
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {best})
                except ProcessLookupError:  # the thread has ended
                    pass

    def tick(self) -> None:
        if time.perf_counter() - self.last >= PIN_EVERY_S:
            self.pin()


def measure(wl, seconds: float, picker: CpuPicker, recorder=None) -> Dict[str, Any]:
    """The closed loop: draw a request (untimed), time it, validate it
    (untimed).

    A run sends ``seconds * wl.rate`` requests, the count that takes
    about ``seconds`` of wall time on the reference host, so the sample
    count (and with it the tail percentile reported) is the same in
    every run of a workload.  A slower host stops at
    ``WALL_CAP * seconds``, which bounds the run's wall time.
    """
    latencies: List[float] = []
    attempted = failed = 0
    reasons: List[str] = []
    stream = wl.requests()
    count = planned_count(wl, seconds)
    # Inputs and oracle answers prepared before the loop are the
    # harness's, not the system's: freezing them keeps every full
    # collection triggered inside a timed request from rescanning them.
    gc.collect()
    gc.freeze()
    end = time.perf_counter() + WALL_CAP * seconds
    while attempted < count and (time.perf_counter() < end or attempted == 0):
        call, check = next(stream)
        if wl.collect_between:
            gc.collect()
            gc.freeze()
        picker.tick()
        attempted += 1
        try:
            if recorder is not None:
                out, dt = recorder.request(call)
            else:
                t0 = time.perf_counter()
                out = call()
                dt = time.perf_counter() - t0
        except Exception:  # a failed or refused request is counted
            failed += 1
            if len(reasons) < 3:
                reasons.append(traceback.format_exc())
            continue
        reason = check(out)
        if reason is not None:
            failed += 1
            if len(reasons) < 3:
                reasons.append(reason)
            continue
        latencies.append(dt)
    gc.unfreeze()
    for reason in reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    return {"latencies": latencies, "attempted": attempted, "failed": failed}


def untraced(wl, seconds: float, setups: int) -> Dict[str, Any]:
    """Set up ``setups`` times, half before the measured loop and half
    after it, so their median samples the host across the whole run
    rather than the one second before the loop."""
    picker = CpuPicker(wl)
    setup_times = []

    def timed_setup() -> None:
        picker.pin()
        t0 = time.perf_counter()
        wl.setup(None)
        setup_times.append(time.perf_counter() - t0)

    before = (setups + 1) // 2
    try:
        for k in range(before):
            if k:
                wl.teardown()
            timed_setup()
        run = measure(wl, seconds, picker)
        run["peak_rss_mb"] = wl.peak_rss_mb()
        for _ in range(setups - before):
            wl.teardown()
            timed_setup()
    finally:
        wl.teardown()
    run["setup_times"] = setup_times
    return run


def traced(wl, seconds: float, tmp: Path) -> Tuple[Dict[str, Any], Any, Dict, Dict]:
    import spans

    recorder = spans.Recorder(require_parent=True)
    restore = spans.install(recorder)
    picker = CpuPicker(wl)
    try:
        picker.pin()
        wl.setup(tmp / f"spans-{uuid.uuid4().hex}.json")
        before = wl.stats()
        run = measure(wl, seconds, picker, recorder)
        after = wl.stats()
    finally:
        server_spans = wl.teardown()
        restore()
    attribution = spans.Attribution(
        recorder.spans, [tuple(s) for s in server_spans]
    )
    return run, attribution, before, after


def _delta(before: Dict, after: Dict, *path: str) -> float:
    def get(doc: Dict) -> float:
        for key in path:
            doc = doc.get(key, {}) if isinstance(doc, dict) else {}
        return float(doc) if isinstance(doc, (int, float)) else 0.0

    return get(after) - get(before)


def _ratio(before: Dict, after: Dict, tier: str) -> float:
    hits = _delta(before, after, tier, "hits")
    total = hits + _delta(before, after, tier, "misses")
    return hits / total if total else 0.0


def layer_metrics(att, before: Dict, after: Dict, overhead: float) -> Dict[str, float]:
    import spans

    n = max(att.requests, 1)
    out: Dict[str, float] = {}
    for span in SPAN_LAYERS:
        out[_self_metric(span)] = att.self_s.get(span, 0.0) / n * 1000.0
    out["unattributed_ms"] = att.self_s.get(spans.ROOT, 0.0) / n * 1000.0
    out["unattributed_share"] = (
        att.self_s.get(spans.ROOT, 0.0) / att.wall_s if att.wall_s else 0.0
    )
    out["service.request_bytes"] = (
        att.qty.get(("c", "service.protocol.encode"), 0)
        + _delta(before, after, "wire_transport", "binary_bytes_in")
    ) / n
    out["service.response_bytes"] = (
        att.qty.get(("c", "service.protocol.decode"), 0)
        + _delta(before, after, "wire_transport", "binary_bytes_out")
    ) / n
    out["service.server.wire_hit_ratio"] = _ratio(before, after, "wire")
    out["engine.tiers.lru_hit_ratio"] = _ratio(before, after, "lru")
    kernel_calls = sum(att.calls.get(s, 0) for s in spans.KERNEL_SPANS)
    tasks = att.qty.get(("c", spans.EXECUTORS), 0) + att.qty.get(
        ("s", spans.EXECUTORS), 0
    )
    out["engine.executors.dedup_ratio"] = 1.0 - kernel_calls / tasks if tasks else 0.0
    out["engine.kernel_calls"] = kernel_calls / n
    out["trace.overhead_ratio"] = overhead
    return out


def _metrics_doc(values: Dict[str, float], spec) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in spec}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"layerbench: no repro package under {ROOT / 'src'}; run this "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS)
        )
    tmp = ROOT / ".layerbench-tmp" / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir(parents=True)
    try:
        return _run(args, workloads, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


def _run(args, workloads, tmp: Path) -> int:
    wl = workloads.make(args.workload, args.seed)
    params = {
        **wl.params(),
        "clients": 1,
        "connections": 0 if args.workload.startswith("cold") else 1,
        "loop": "closed",
        "seconds": args.seconds,
        "cpu": f"client and server on the fastest vCPU, re-picked every {PIN_EVERY_S} s",
        "gc_between_requests": wl.collect_between,
    }
    print(f"layerbench workload={args.workload} seed={args.seed} trace={args.trace}")
    host = {**host_block(), "speed_probe_ms": speed_probe_ms()}
    print("host " + json.dumps(host, sort_keys=True))
    print("params " + json.dumps(params, sort_keys=True))
    print(f"inputs sha256={wl.input_digest()}")
    wl.prepare()

    if args.trace == 0:
        run = untraced(wl, args.seconds, SETUPS[args.workload])
        lat = run["latencies"]
        failed, attempted = run["failed"], run["attempted"]
        if lat:
            tail_value, tail_p = tail(lat, planned_count(wl, args.seconds))
            values = {
                "latency_p50_ms": statistics.median(lat) * 1000.0,
                "latency_tail_ms": tail_value * 1000.0,
                "throughput_rps": len(lat) / sum(lat),
                "peak_rss_mb": run["peak_rss_mb"],
                "setup_s": statistics.median(run["setup_times"]),
            }
            for name, unit in END_TO_END:
                note = ""
                if name == "latency_tail_ms":
                    note = f"  (p{tail_p} of {len(lat)} samples)"
                print(f"{name:<18} {values[name]:14.4f} {unit}{note}")
        else:
            values = {name: 0.0 for name, _ in END_TO_END}
        print(f"{'error_rate':<18} {failed / attempted:14.4f} ratio  "
              f"({failed} of {attempted} attempted)")
        metrics = _metrics_doc(values, END_TO_END)
    else:
        half = args.seconds / 2.0
        base = untraced(wl, half, 1)
        run, att, before, after = traced(wl, half, tmp)
        attempted = base["attempted"] + run["attempted"]
        failed = base["failed"] + run["failed"]
        overhead = (
            statistics.median(run["latencies"]) / statistics.median(base["latencies"])
            if run["latencies"] and base["latencies"]
            else 0.0
        )
        values = layer_metrics(att, before, after, overhead)
        print(f"traced requests {att.requests}, mean wall "
              f"{att.wall_s / max(att.requests, 1) * 1000.0:.4f} ms")
        for name, unit in sorted(PER_LAYER, key=lambda m: -values[m[0]] if m[1] == "ms" else 0):
            planned = PLANNED_SPANS.get(name, "")
            print(f"{name:<34} {values[name]:14.4f} {unit:<6} {planned}".rstrip())
        print(f"{'error_rate':<34} {failed / attempted:14.4f} ratio  "
              f"({failed} of {attempted} attempted)")
        if values["unattributed_share"] > UNATTRIBUTED_FLAG:
            print(
                f"FLAG: {values['unattributed_share']:.1%} of wall time is "
                f"unattributed (target <= {UNATTRIBUTED_FLAG:.0%})"
            )
        metrics = _metrics_doc(values, PER_LAYER)

    print(f"host speed_probe_ms before={host['speed_probe_ms']:.2f} "
          f"after={speed_probe_ms():.2f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
