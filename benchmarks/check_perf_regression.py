"""Compare two BENCH_perf.json files and fail on slots/sec regressions.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json CURRENT.json \
        [--tolerance 0.30]

Exit codes: ``0`` = no scenario regressed more than the tolerance (or the
baseline is missing entirely -- the soft-fail first run), ``1`` = at
least one regression, ``2`` = bad invocation.

Scenarios present on only one side are reported but never fail the
check, so adding or renaming a bench does not break CI on its own PR.
Timing noise on shared CI runners is why the default tolerance is a
generous 30%: only genuine hot-path regressions trip it.

Besides the run-over-run comparison, one *within-run* pair from the
CURRENT file is gated tightly: the campaign executor
(``campaign_executor``) against the raw worker batch executing the same
seeded runs (``campaign_raw_batch``), both recorded interleaved by
``bench_perf_simulator.py``.  Shared-runner speed cancels in that ratio,
so the campaign layer's bookkeeping on-cost must stay under
``--campaign-tolerance`` (default 10%).  The pair is soft-skipped when
either scenario is absent (partial bench runs).

Further within-run gates hold the vector engine to its reason for
existing, one row of :data:`SPEEDUP_GATES` each:

* ``loaded_ring_n8_vector`` must beat ``loaded_ring_n8`` (the
  pure-Python oracle on the identical scenario) by at least
  ``--vector-min-speedup`` (default 10x);
* ``loaded_ring_n8_vector_events`` must beat ``loaded_ring_n8_events``
  (the oracle streaming the same JSONL event log) by at least 5x, so an
  observed vector run stays on the compiled tier.

Again same-file ratios, so runner speed cancels; each row soft-skips
when either of its scenarios is absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def compare(
    baseline: dict, current: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Return (regressions, notes) comparing slots/sec per scenario."""
    regressions: list[str] = []
    notes: list[str] = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            notes.append(f"new scenario (no baseline): {name}")
            continue
        if name not in current:
            notes.append(f"scenario missing from current run: {name}")
            continue
        base = float(baseline[name]["slots_per_s"])
        cur = float(current[name]["slots_per_s"])
        ratio = cur / base if base > 0 else float("inf")
        line = (
            f"{name}: {base:,.0f} -> {cur:,.0f} slots/s "
            f"({(ratio - 1):+.1%})"
        )
        if ratio < 1.0 - tolerance:
            regressions.append(line)
        else:
            notes.append(line)
    return regressions, notes


def campaign_overhead(
    current: dict,
    raw: str = "campaign_raw_batch",
    executor: str = "campaign_executor",
) -> float | None:
    """Fractional slowdown of the campaign executor vs the raw batch,
    from one results file (``None`` when the pair was not recorded).

    Uses the best-round rate when available, like
    ``check_events_overhead.py``: one scheduler hiccup in either side's
    rounds would dominate a mean-based ratio on a shared runner.
    """
    if raw not in current or executor not in current:
        return None
    key = (
        "slots_per_s_best"
        if "slots_per_s_best" in current[raw]
        and "slots_per_s_best" in current[executor]
        else "slots_per_s"
    )
    base = float(current[raw][key])
    with_executor = float(current[executor][key])
    if base <= 0:
        return None
    return 1.0 - with_executor / base


#: Within-run speedup gates: (oracle scenario, vector scenario, minimum
#: speedup).  A ``None`` minimum means "use ``--vector-min-speedup``".
SPEEDUP_GATES: tuple[tuple[str, str, float | None], ...] = (
    ("loaded_ring_n8", "loaded_ring_n8_vector", None),
    ("loaded_ring_n8_events", "loaded_ring_n8_vector_events", 5.0),
)


def vector_speedup(
    current: dict,
    oracle: str = "loaded_ring_n8",
    vector: str = "loaded_ring_n8_vector",
) -> float | None:
    """Vector-engine speedup over the oracle on the identical scenario,
    from one results file (``None`` when the pair was not recorded)."""
    if oracle not in current or vector not in current:
        return None
    base = float(current[oracle]["slots_per_s"])
    vec = float(current[vector]["slots_per_s"])
    if base <= 0:
        return None
    return vec / base


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown per scenario (default 0.30)",
    )
    parser.add_argument(
        "--campaign-tolerance",
        type=float,
        default=0.10,
        help="allowed campaign-executor overhead vs the raw worker batch, "
        "within the current run (default 0.10)",
    )
    parser.add_argument(
        "--vector-min-speedup",
        type=float,
        default=10.0,
        help="required loaded_ring_n8_vector speedup over the oracle's "
        "loaded_ring_n8, within the current run (default 10x)",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}: soft pass (first run records one)"
        )
        return 0
    if not args.current.exists():
        print(f"current results not found at {args.current}")
        return 2

    try:
        baseline = json.loads(args.baseline.read_text())
    except json.JSONDecodeError:
        print(f"unreadable baseline at {args.baseline}: soft pass")
        return 0
    current = json.loads(args.current.read_text())
    regressions, notes = compare(baseline, current, args.tolerance)

    for line in notes:
        print(f"  ok   {line}")
    for line in regressions:
        print(f"  FAIL {line}")

    slowdown = campaign_overhead(current)
    if slowdown is None:
        print("campaign overhead pair not recorded; skipping that gate")
    else:
        line = (
            f"campaign executor overhead vs raw batch: {slowdown:+.1%} "
            f"(gate {args.campaign_tolerance:.0%})"
        )
        if slowdown > args.campaign_tolerance:
            print(f"  FAIL {line}")
            regressions.append(line)
        else:
            print(f"  ok   {line}")

    for oracle, vector, minimum in SPEEDUP_GATES:
        if minimum is None:
            minimum = args.vector_min_speedup
        speedup = vector_speedup(current, oracle, vector)
        if speedup is None:
            print(f"speedup pair {vector}/{oracle} not recorded; skipping")
            continue
        line = (
            f"{vector} speedup vs {oracle}: "
            f"{speedup:.1f}x (gate >= {minimum:.0f}x)"
        )
        if speedup < minimum:
            print(f"  FAIL {line}")
            regressions.append(line)
        else:
            print(f"  ok   {line}")

    if regressions:
        print(
            f"{len(regressions)} scenario(s) regressed more than "
            f"{args.tolerance:.0%} in slots/sec"
        )
        return 1
    print("no perf regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
