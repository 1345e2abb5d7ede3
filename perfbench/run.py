"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 15 --trace 0

Workloads: ``campaign``, ``simulate_events``, ``service_churn`` (see
``perfbench/README.md``).  The package is used straight from ``src/``;
the only build step is the compiled slot kernel, which the first run
compiles into ``.bench_build/perfbench/ckernel`` and later runs reuse.

Each invocation starts fresh interpreters (``worker.py``): one untimed
warm-up that fills the kernel and bytecode caches, ``SETUP_PROBES``
set-up probes, and the measuring worker.  ``setup_s`` is the median
time from spawning a worker to its ``READY`` line.  The last line of
standard output is the JSON result; with ``--trace 0`` it carries every
end-to-end metric of ``BENCHMARK.json``, with ``--trace 1`` every
per-layer one.  The exit code is 1 when an output check failed and 2
when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("campaign", "simulate_events", "service_churn")
SETUP_PROBES = 7
#: Whole-invocation budget: a run must finish within 180 s.
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    """A worker failed, timed out, or printed no result."""


def worker_env() -> dict[str, str]:
    """The workers' environment: package from ``src/``, engine knobs
    cleared, kernel cache owned by the benchmark, one numeric thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CKERNEL_CACHE"] = str(BUILD / "ckernel")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict[str, str], deadline: float):
    """Run one worker; (seconds from spawn to READY, parsed last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    ready_s = None
    lines: list[bytes] = []
    buf = b""
    fd = proc.stdout.fileno()
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise WorkerError("worker overran the time budget")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *complete, buf = buf.split(b"\n")
            for line in complete:
                if ready_s is None and line == b"READY":
                    ready_s = time.perf_counter() - t0
                lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None or not lines:
        raise WorkerError(f"worker {argv} exited with code {code}")
    return ready_s, json.loads(lines[-1])


def environment(result: dict) -> dict:
    """What the numbers depend on besides the code."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result.get("numpy"),
        "cc": shutil.which("cc") or shutil.which("gcc"),
        "vector_backends": result["vector_backends"],
        "warm_backend": result["setup"]["backend_warm"],
        "repro": result["repro_path"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package under {ROOT / 'src'}; nothing to "
              "measure", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    # Unwind on SIGTERM too, so spawn() kills and reaps its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + BUDGET_S
    env = worker_env()
    workdir = BUILD / f"work-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    spans = BUILD / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        spawn([*common, "--setup-only"], env, deadline)  # fills caches
        setups, imports = [], []
        for _ in range(SETUP_PROBES):
            ready_s, probe = spawn([*common, "--setup-only"], env, deadline)
            setups.append(ready_s)
            imports.append(probe["import_s"])
        measure = [*common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans", str(spans)]
        ready_s, result = spawn(measure, env, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(ready_s)
    imports.append(result["import_s"])

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    values["import.repro_s"] = statistics.median(imports)
    problems = list(result["problems"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    env_info = environment(result)
    if args.workload == "campaign" and env_info["vector_backends"] != ["compiled"]:
        print("perfbench: WARNING -- the campaign did NOT run on the compiled "
              f"kernel (backends {env_info['vector_backends']}); its figures "
              "are not comparable with compiled-kernel runs", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print("# env " + json.dumps(env_info, sort_keys=True))
    print("# run " + json.dumps({
        "setup_samples_s": setups,
        "iterations": result["iterations"],
        "traced_iterations": result["traced_iterations"],
        "iteration_s": result["iteration_s"],
        "host_factor": result["host_factor"],
        "host_seconds": result["host_seconds"],
        "latency_samples": values["latency_samples"],
        "check": result["check"],
        "counts": result["counts"],
        "spans": str(spans.relative_to(ROOT)) if args.trace else None,
    }, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
