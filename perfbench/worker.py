"""One benchmark workload in one fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker times
its imports, builds the workload's initial state (loading the compiled
kernel), prints ``READY`` -- the end of set-up as ``run.py`` clocks it --
and with ``--setup-only`` reports its import time and exits.  Otherwise
it plays timed iterations for ``--seconds``, checks the outputs, and
prints one JSON result line.

With ``--trace 1`` iterations alternate untraced and traced: the traced
ones give the per-layer ledger (spans appended to ``--spans``), and the
ratio of their median time to the untraced median is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import Tracer

#: Package modules each workload needs: their import is ``import.repro_s``.
IMPORTS = {
    "campaign": (
        "repro.campaign.executor", "repro.campaign.store", "repro.sim.vector",
    ),
    "simulate_events": (
        "repro.sim.runner", "repro.obs.events", "repro.obs.replay",
        "repro.sim.vector",
    ),
    "service_churn": (
        "repro.service", "repro.obs.events", "repro.obs.replay",
        "repro.sim.vector",
    ),
}

#: Traced slot-domain counts that must repeat exactly across iterations.
STEADY_COUNTS = (
    "engine.step.calls",
    "traffic.messages_for_slot.calls",
    "signalling.slots_per_request",
    "obs.events_written",
    "campaign.store_bytes",
    "vector.compiled_runs",
    "vector.soa_runs",
    "vector.oracle_fallback_runs",
    "vector.slots",
    "runner.build.calls",
    "ring.handover_delay.calls",
    "obs.emit.calls",
    "admission.request.calls",
    "admission.remove.calls",
    "admission.suspend_node.calls",
    "admission.resume_node.calls",
)

#: Per-layer values only some workloads produce; the others report 0.
WORKLOAD_LAYER = (
    "campaign.store_bytes",
    "obs.events_written",
    "obs.bytes_written",
    "service.worker_busy_ratio",
    "service.queue_depth_max",
)
#: Per-layer distributions (reported as p50/p99 in ms) of the same kind.
WORKLOAD_SAMPLES = ("service.serve_ms", "service.queue_wait_ms")

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

#: Typical time of :func:`calibration` on the host the bounds were set
#: on; end-to-end times are reported in seconds of a host that fast.
CALIBRATION_NOMINAL_S = 0.020


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def calibration() -> float:
    """Seconds a fixed task that uses nothing of the package takes on
    this host right now: an interpreter loop, dict churn, a numpy sort.

    Shared hosts change speed for seconds to minutes at a time, and
    every workload slows with them; timing this task just before and
    after each iteration measures by how much.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(10):
        {i: str(i) for i in range(3_000)}
        rng.random(20_000).sort()
    return time.perf_counter() - t0


def measure(workload, seconds: float, trace: bool, spans: Path | None):
    """Play iterations until ``seconds`` are spent; (iteration, traced)
    pairs in order.  Traced runs alternate untraced/traced.  Each
    iteration is bracketed by :func:`calibration` runs, outside its
    timing, which set its ``host_factor``."""
    played = []
    tracers = []
    begin = time.perf_counter()
    index = 0
    while True:
        tracer = Tracer() if trace and index % 2 else None
        if tracer is not None:
            tracer.install()
        before = calibration()
        try:
            it = workload.iteration(index, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        it.host_factor = (before + calibration()) / 2 / CALIBRATION_NOMINAL_S
        if tracer is not None:
            it.layer.update(tracer.layer_metrics())
            tracers.append((index, tracer))
        played.append((it, tracer is not None))
        index += 1
        n_traced = sum(t for _, t in played)
        n_plain = len(played) - n_traced
        done = (
            n_plain >= (MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS)
            and (not trace or n_traced >= MIN_TRACED_ITERATIONS)
        )
        elapsed = time.perf_counter() - begin
        typical = elapsed / len(played)
        if done and elapsed + typical / 2 >= seconds:
            break
    if spans is not None:
        spans.unlink(missing_ok=True)
        for i, tracer in tracers:
            tracer.write(spans, i)
    return played


def drift(records: list[dict], keys) -> list[str]:
    """One problem per key whose value is not identical in every record."""
    problems = []
    for key in keys:
        seen = sorted({json.dumps(r.get(key), sort_keys=True) for r in records})
        if len(seen) > 1:
            problems.append(f"count drift in {key}: {seen}")
    return problems


def end_to_end(its, calibrated: bool = True) -> dict[str, float]:
    """End-to-end metrics over untraced iterations (medians of rates).

    Calibrated figures count time in seconds of a host running
    :func:`calibration` in ``CALIBRATION_NOMINAL_S``: each iteration's
    host seconds are divided by its ``host_factor``.
    """
    def ref_s(it, host_s: float) -> float:
        return host_s / it.host_factor if calibrated else host_s

    latencies = [ref_s(it, x) for it in its for x in it.latencies_s]
    return {
        "runs_per_s": statistics.median(
            it.runs / ref_s(it, it.seconds) for it in its),
        "slots_per_s": statistics.median(
            it.slots / ref_s(it, it.seconds) for it in its),
        "ops_per_s": statistics.median(
            it.ops / ref_s(it, it.seconds) for it in its),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "latency_samples": len(latencies),
    }


def per_layer(traced) -> dict[str, float]:
    """Per-layer metrics: mean per traced iteration; distributions pooled."""
    out = dict.fromkeys(WORKLOAD_LAYER, 0.0)
    for key in traced[0].layer:
        out[key] = statistics.fmean(it.layer[key] for it in traced)
    for key in WORKLOAD_SAMPLES:
        pooled = [x for it in traced for x in it.samples.get(key, ())]
        out[f"{key}.p50"] = percentile(pooled, 0.50) * 1e3 if pooled else 0.0
        out[f"{key}.p99"] = percentile(pooled, 0.99) * 1e3 if pooled else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    import numpy as np
    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_info = workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    played = measure(workload, args.seconds, bool(args.trace), args.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [it for it, traced in played if not traced]
    traced = [it for it, was_traced in played if was_traced]
    problems, check_info = workload.check()
    problems += drift([it.counts for it, _ in played], played[0][0].counts)
    if traced:
        problems += drift([it.layer for it in traced], STEADY_COUNTS)

    metrics = end_to_end(plain)
    metrics["peak_rss_mb"] = peak_rss_mb
    if traced:
        metrics.update(per_layer(traced))
        metrics["obs.replay_s"] = check_info.get("obs.replay_s", 0.0)
        metrics["trace.overhead_ratio"] = statistics.median(
            it.seconds / it.host_factor for it in traced
        ) / statistics.median(it.seconds / it.host_factor for it in plain)
    result = {
        "problems": problems,
        "attempted": sum(it.attempted for it, _ in played),
        "failed": sum(it.failed for it, _ in played),
        "metrics": metrics,
        "import_s": import_s,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "iteration_s": [round(it.seconds, 4) for it, _ in played],
        "host_factor": [round(it.host_factor, 4) for it, _ in played],
        "host_seconds": end_to_end(plain, calibrated=False),
        "vector_backends": sorted(
            {str(b) for it, _ in played for b in it.backends}
            | {str(b) for b in check_info.pop("vector_backends", ())}
        ),
        "numpy": np.__version__,
        "setup": setup_info,
        "check": check_info,
        "counts": played[0][0].counts,
        "repro_path": str(Path(repro.__file__).resolve().parent),
    }
    print(json.dumps(result, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
