"""Performance of the simulator itself (slots per second).

Not a paper experiment: this tracks the engine's own speed so
regressions in the hot path (request composition, the grant sweep, the
slot loop, the idle fast-forward) are caught.  Uses real pytest-benchmark
rounds, unlike the experiment benches which run once and report protocol
metrics.

Scenario construction happens in ``benchmark.pedantic`` *setup*
callables, outside the timed region -- only ``Simulation.run`` is
measured.  Each scenario's mean slots/sec lands in ``BENCH_perf.json``
(via the ``perf_record`` fixture); the committed copy at the repo root is
the baseline ``check_perf_regression.py`` compares against in CI.
"""

import numpy as np

from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation

SLOTS = 2000
ROUNDS = 5


def _loaded_config(n_nodes, utilisation, seed=1):
    rng = np.random.default_rng(seed)
    conns = random_connection_set(
        rng, n_nodes, 2 * n_nodes, 0.5, period_range=(10, 100)
    )
    conns = scale_connections_to_utilisation(conns, utilisation)
    return ScenarioConfig(n_nodes=n_nodes, connections=tuple(conns))


def _measure(
    benchmark,
    perf_record,
    name,
    make_sim,
    warmup_slots=0,
    rounds=ROUNDS,
    slots=SLOTS,
):
    """Benchmark ``sim.run(slots)`` with construction in untimed setup."""

    def setup():
        sim = make_sim()
        if warmup_slots:
            sim.run(warmup_slots)
        return (sim,), {}

    def run(sim):
        sim.run(slots)
        return sim.report

    report = benchmark.pedantic(
        run, setup=setup, rounds=rounds, iterations=1, warmup_rounds=0
    )
    stats = benchmark.stats.stats
    benchmark.extra_info["slots_per_s"] = slots / stats.mean
    perf_record(name, slots, stats.mean, min_seconds=stats.min)
    return report


def test_perf_loaded_ring_n8(benchmark, perf_record):
    config = _loaded_config(8, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n8",
        lambda: build_simulation(config),
    )
    assert report.packets_sent > 0


def _events_sim(
    config, tmp_path, engine="python", counter=iter(range(100_000))
):
    from repro.obs.events import EventDispatcher, JsonlEventLog

    observer = EventDispatcher()
    observer.add_sink(
        JsonlEventLog(tmp_path / f"events-{next(counter)}.jsonl")
    )
    return build_simulation(
        config, RunOptions(observer=observer, engine=engine)
    )


def test_perf_loaded_ring_n8_events(benchmark, perf_record, tmp_path):
    """Worst case for ``--events``: a loaded ring streams ~1.5 events
    per slot (slot + hand-over + arbitration), all lazily serialised at
    flush time.  Documents the on-cost ceiling (~20% of a pure-Python
    slot loop); regressions are caught by the ordinary 30% gate against
    the committed baseline, like every other scenario here.
    """
    config = _loaded_config(8, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n8_events",
        lambda: _events_sim(config, tmp_path),
    )
    assert report.packets_sent > 0


def _sparse_config():
    from repro.core.connection import LogicalRealTimeConnection

    # One message every 1000 slots: almost all wall time is idle
    # fast-forward, so the events side's per-active-slot cost is noise
    # and the only thing that can trip the overhead gate is losing
    # fast-forward itself (a ~40x blowup).
    return ScenarioConfig(
        n_nodes=8,
        connections=(
            LogicalRealTimeConnection(
                source=0,
                destinations=frozenset({2}),
                period_slots=1000,
                size_slots=1,
                connection_id=0,
            ),
        ),
    )


def test_perf_sparse_ring_fast_forward_events_pair(
    benchmark, perf_record, tmp_path
):
    """Sparse ring with and without ``--events``: the <10% CI gate pair.

    ``check_events_overhead.py`` compares the two scenarios this test
    records (``sparse_ring_fast_forward`` and ``..._events``).  The pair
    guards the tentpole invariant that streaming sinks do NOT disable
    idle fast-forward (spans stand in for skipped slots): if a change
    ever forces slot-by-slot stepping under a sink, the events side
    slows by ~40x and the gate trips deterministically, while genuine
    streaming costs only a few percent here.

    Both sides are timed in the SAME test, interleaved round by round
    with ``time.perf_counter``, because a ratio between two benchmarks
    run minutes apart is at the mercy of shared-runner load drift --
    interleaving makes every noise burst hit both sides equally.  The
    pedantic wrapper only drives the rounds; its own timing (the pair
    combined) is not recorded.
    """
    import time

    config = _sparse_config()
    n_slots = 20 * SLOTS
    times: dict[str, list[float]] = {"base": [], "events": []}

    def run_pair():
        sim = build_simulation(config)
        t0 = time.perf_counter()
        sim.run(n_slots)
        times["base"].append(time.perf_counter() - t0)
        assert sim.fast_forward, "streaming sinks must not disable ff"
        sim = _events_sim(config, tmp_path)
        t0 = time.perf_counter()
        sim.run(n_slots)
        times["events"].append(time.perf_counter() - t0)
        assert sim.fast_forward, "streaming sinks must not disable ff"

    benchmark.pedantic(run_pair, rounds=12, iterations=1, warmup_rounds=1)
    for name, series in (
        ("sparse_ring_fast_forward", times["base"]),
        ("sparse_ring_fast_forward_events", times["events"]),
    ):
        perf_record(
            name,
            n_slots,
            sum(series) / len(series),
            min_seconds=min(series),
        )


def test_perf_campaign_executor_overhead_pair(
    benchmark, perf_record, tmp_path
):
    """Campaign executor vs raw worker batch: the <10% within-run gate.

    Both sides execute the *identical* set of seeded runs.  The raw side
    calls :func:`repro.sim.parallel.run_one` directly -- the bare
    bit-identical worker unit; the executor side drives the same runs
    through :func:`repro.campaign.run_campaign` into a fresh store, so
    the difference isolates everything the campaign layer adds on top
    (grid expansion, key fingerprinting, row flattening, atomic JSON
    persistence).  ``check_perf_regression.py --campaign-tolerance``
    fails CI when that on-cost exceeds 10%.

    Interleaved round by round with ``time.perf_counter`` for the same
    reason as the events pair above: a ratio between runs minutes apart
    is at the mercy of shared-runner load drift.
    """
    import shutil
    import time

    from repro.campaign import (
        Campaign,
        ResultStore,
        WorkloadSpec,
        expand_runs,
        run_campaign,
    )
    from repro.campaign.executor import _build_run
    from repro.sim.parallel import run_one

    campaign = Campaign(
        name="perf-pair",
        base=ScenarioConfig(n_nodes=8),
        n_slots=SLOTS,
        axes={"utilisation": (0.4, 0.8)},
        workload=WorkloadSpec(n_connections=8, period_min=10, period_max=100),
        n_replications=2,
        master_seed=3,
    )
    specs = list(expand_runs(campaign))
    total_slots = sum(spec.point.n_slots for spec in specs)
    times: dict[str, list[float]] = {"raw": [], "executor": []}

    def run_pair():
        t0 = time.perf_counter()
        for spec in specs:
            run_one(
                lambda rng, spec=spec: _build_run(spec, rng),
                np.random.SeedSequence(entropy=spec.seed_entropy),
                spec.point.n_slots,
            )
        times["raw"].append(time.perf_counter() - t0)
        store_dir = tmp_path / "store"
        shutil.rmtree(store_dir, ignore_errors=True)  # nothing cached
        t0 = time.perf_counter()
        summary = run_campaign(campaign, ResultStore(store_dir), n_jobs=1)
        times["executor"].append(time.perf_counter() - t0)
        assert summary.executed == len(specs) and summary.skipped == 0

    benchmark.pedantic(run_pair, rounds=5, iterations=1, warmup_rounds=1)
    for name, series in (
        ("campaign_raw_batch", times["raw"]),
        ("campaign_executor", times["executor"]),
    ):
        perf_record(
            name,
            total_slots,
            sum(series) / len(series),
            min_seconds=min(series),
        )


def test_perf_loaded_ring_n8_vector(benchmark, perf_record):
    """The tentpole number: the vector engine on the loaded n8 ring.

    Same scenario as ``loaded_ring_n8``; the recorded rate is what the
    ``--engine vector`` core does on it (the compiled micro-kernel when
    a C compiler is present, the numpy SoA kernel otherwise).  Runs more
    slots per round than the oracle benches so per-round kernel entry
    (ingest + exit fold) amortises the way real runs amortise it.
    ``check_perf_regression.py`` gates the within-run speedup vs the
    oracle (``--vector-min-speedup``) as well as the run-over-run rate.
    """
    config = _loaded_config(8, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n8_vector",
        lambda: build_simulation(config, RunOptions(engine="vector")),
        slots=25 * SLOTS,
    )
    assert report.packets_sent > 0


def test_perf_loaded_ring_n8_vector_events(benchmark, perf_record, tmp_path):
    """The vector engine streaming a JSONL event log on the loaded n8
    ring: the compiled kernel writes event records that are formatted
    straight to disk, so observability no longer drops the run onto a
    slower tier.  ``check_perf_regression.py`` gates the within-run
    speedup over ``loaded_ring_n8_events`` (the oracle with the same
    sink) at 5x.
    """
    config = _loaded_config(8, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n8_vector_events",
        lambda: _events_sim(config, tmp_path, engine="vector"),
        slots=25 * SLOTS,
    )
    assert report.packets_sent > 0


def test_perf_loaded_ring_n32_vector(benchmark, perf_record):
    """Node-count scaling check: n32 must scale sublinearly vs n8."""
    config = _loaded_config(32, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n32_vector",
        lambda: build_simulation(config, RunOptions(engine="vector")),
        slots=10 * SLOTS,
    )
    assert report.packets_sent > 0


def test_perf_vector_cold_start(benchmark, perf_record):
    """One short cold ``run()`` on the vector engine: dominated by the
    fixed kernel-entry cost (eligibility checks, state ingest, exit
    fold) rather than per-slot throughput.  Guards the overhead short
    campaign runs pay for every kernel entry."""
    config = _loaded_config(8, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "vector_cold_start",
        lambda: build_simulation(config, RunOptions(engine="vector")),
    )
    assert report.packets_sent > 0


def test_perf_loaded_ring_n8_hot_cache(benchmark, perf_record):
    """Steady state: compose/route/gap caches warmed by a full run."""
    config = _loaded_config(8, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n8_hot_cache",
        lambda: build_simulation(config),
        warmup_slots=SLOTS,
    )
    assert report.packets_sent > 0


def test_perf_loaded_ring_n32(benchmark, perf_record):
    config = _loaded_config(32, 0.8)
    report = _measure(
        benchmark,
        perf_record,
        "loaded_ring_n32",
        lambda: build_simulation(config),
    )
    assert report.packets_sent > 0


def test_perf_idle_ring_fast_forward(benchmark, perf_record):
    """The no-traffic path with idle-slot fast-forward (default on)."""
    config = ScenarioConfig(n_nodes=8)
    report = _measure(
        benchmark,
        perf_record,
        "idle_ring_fast_forward",
        lambda: build_simulation(config),
    )
    assert report.slots_simulated == SLOTS


def test_perf_idle_ring_plan_loop(benchmark, perf_record):
    """The no-traffic path stepped slot by slot: pure planning cost."""
    config = ScenarioConfig(n_nodes=8)
    report = _measure(
        benchmark,
        perf_record,
        "idle_ring_plan_loop",
        lambda: build_simulation(config, RunOptions(fast_forward=False)),
    )
    assert report.slots_simulated == SLOTS


def test_perf_ccfpr_baseline(benchmark, perf_record):
    rng = np.random.default_rng(1)
    conns = random_connection_set(rng, 8, 16, 0.8, period_range=(10, 100))
    config = ScenarioConfig(
        n_nodes=8, protocol="ccfpr", connections=tuple(conns)
    )
    report = _measure(
        benchmark,
        perf_record,
        "ccfpr_baseline",
        lambda: build_simulation(config),
    )
    assert report.packets_sent > 0
