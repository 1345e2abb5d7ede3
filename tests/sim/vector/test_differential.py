"""Differential harness: the vector engine against the oracle.

Every scenario here runs twice -- once on the pure-Python oracle
(``engine="python"``) and once on the vector engine -- and the two final
states must be **equal**, not approximately equal: the report, the
metric registry (counters and histogram internals), the pending slot
plan, the live queue contents, and the slot cursor.  After the compared
run, both simulations take 60 further oracle ``step()`` calls, so the
state the kernel hands back is proven to *continue* identically, not
just to summarise identically.

The suite covers both vector backends: closed-world scenarios land on
the compiled C micro-kernel -- with event sinks and profilers attached
too -- while scenarios with features the C tier declines (drop-late,
a live best-effort or non-real-time backlog) land on the numpy SoA
kernel, and a dedicated test forces the SoA kernel onto the
closed-world scenarios too.  Observed runs compare the event logs byte
for byte against the oracle's, across fast-forward settings, run
splits, record-buffer refills and sink kinds.  Fault
injection forces the oracle fallback, and the test asserts the recorded
reason.
"""

from __future__ import annotations

import dataclasses
import itertools
from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.messages as _messages
from repro.core.connection import LogicalRealTimeConnection
from repro.core.mapping import LinearMapping
from repro.core.messages import Message
from repro.core.priorities import TrafficClass
from repro.obs.registry import MetricRegistry
from repro.sim.fault_models import FaultConfig
from repro.sim.runner import RunOptions, ScenarioConfig, build_simulation
from repro.sim.vector import ckernel
from repro.traffic.industrial import industrial_workload
from repro.traffic.periodic import ConnectionSource, random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation


@contextmanager
def fresh_message_ids():
    """Reset the global message-id counter, restoring it afterwards.

    Both engines of one comparison must mint identical message ids, so
    each engine's run starts the counter from zero; the original counter
    object is restored so other tests keep their global monotonicity.
    """
    saved = _messages._message_ids
    _messages._message_ids = itertools.count()
    try:
        yield
    finally:
        _messages._message_ids = saved


def _loaded_config(n_nodes, utilisation, seed=1, **kwargs):
    rng = np.random.default_rng(seed)
    conns = random_connection_set(
        rng, n_nodes, 2 * n_nodes, 0.5, period_range=(10, 100)
    )
    conns = scale_connections_to_utilisation(conns, utilisation)
    return ScenarioConfig(
        n_nodes=n_nodes, connections=tuple(conns), **kwargs
    )


def registry_state(registry):
    if registry is None:
        return None
    return (
        dict(registry.counters),
        {
            name: (h.count, h.total, h.min, h.max, dict(h.buckets))
            for name, h in registry.histograms.items()
        },
    )


def plan_state(sim):
    plan = sim._plan
    return (
        plan.transmit_slot,
        plan.master,
        plan.gap_s,
        plan.n_requests,
        tuple(
            (t.node, t.message.msg_id, t.links, tuple(sorted(t.destinations)))
            for t in plan.transmissions
        ),
        tuple(
            (t.node, t.message.msg_id, t.links) for t in plan.denied_by_break
        ),
    )


def queue_state(sim):
    return tuple(
        tuple(
            sorted(
                (m.msg_id, m.deadline_slot, m.sent_slots, m.status.value)
                for m in sim.queues[i].pending_messages()
            )
        )
        for i in range(sim.topology.n_nodes)
    )


def snapshot(sim):
    return (
        sim.report,
        registry_state(sim.metrics.registry),
        plan_state(sim),
        sim.current_slot,
        sim._prev_master,
        queue_state(sim),
    )


def run_engine(engine, make_sim, *, warm=0, chunks=(2000,), extra_steps=60):
    """One engine's leg of a comparison; returns (snapshot, sim)."""
    with fresh_message_ids():
        sim = make_sim(engine)
        sim.metrics.registry = MetricRegistry()
        for _ in range(warm):
            sim.step()
        for n in chunks:
            sim.run(n)
        for _ in range(extra_steps):
            sim.step()
        return snapshot(sim), sim


def assert_engines_match(make_sim, **kwargs):
    """Run both engines and compare snapshots field by field."""
    py_snap, _ = run_engine("python", make_sim, **kwargs)
    vec_snap, vec_sim = run_engine("vector", make_sim, **kwargs)
    labels = ("report", "registry", "plan", "slot", "prev_master", "queues")
    for label, expected, actual in zip(labels, py_snap, vec_snap):
        assert actual == expected, f"{label} diverged from the oracle"
    return vec_sim


# ----------------------------------------------------------------------
# Scenario table (config construction is shared between the engines of
# one comparison: connection ids are minted at config build time and
# must be identical on both sides).
# ----------------------------------------------------------------------


def _simple(config, **options):
    return lambda engine: build_simulation(
        config, RunOptions(engine=engine, **options)
    )


def _scenario_loaded_n8():
    return _simple(_loaded_config(8, 0.75)), {}


def _scenario_loaded_n32():
    return _simple(_loaded_config(32, 0.8)), {}


def _scenario_warm_continuation():
    # 300 oracle steps first, then the kernel takes over mid-stream.
    return _simple(_loaded_config(8, 0.8)), {"warm": 300}


def _scenario_chunked_runs():
    return _simple(_loaded_config(8, 0.8)), {"chunks": (700, 1300)}


def _scenario_single_slot_chunks():
    return _simple(_loaded_config(8, 0.8)), {"chunks": (1, 1, 998)}


def _scenario_admission_churn():
    # Sources that switch on and off mid-run: the release schedule must
    # honour every [active_from, active_until) window exactly.
    rng = np.random.default_rng(7)
    extra = tuple(
        ConnectionSource(c, active_from=150 + 37 * j, active_until=1200 + 90 * j)
        for j, c in enumerate(
            random_connection_set(
                rng, 8, 12, 0.6, period_range=(10, 80),
                multicast_probability=0.4,
            )[:6]
        )
    )
    config = _loaded_config(8, 0.5)
    return _simple(config, extra_sources=extra), {}


def _scenario_linear_mapping():
    config = _loaded_config(8, 0.7)
    return _simple(config, mapping=LinearMapping(horizon_slots=256)), {}


def _scenario_no_spatial_reuse():
    config = dataclasses.replace(
        _loaded_config(8, 0.6), spatial_reuse=False
    )
    return _simple(config), {}


def _scenario_idle_sparse():
    return _simple(_loaded_config(8, 0.05)), {}


def _scenario_drop_late():
    # drop_late is outside the compiled tier's closed world, so this
    # scenario exercises the numpy SoA kernel.
    config = _loaded_config(8, 0.9, drop_late=True)
    return _simple(config), {}


def _scenario_multicast_multislot():
    # Explicit multicast fan-outs and multi-slot messages: transit
    # spans several slots and deliveries touch several destinations.
    conns = tuple(
        LogicalRealTimeConnection(
            source=i % 8,
            destinations=frozenset({(i + 1) % 8, (i + 3) % 8}),
            period_slots=20 + 7 * i,
            size_slots=3 + (i % 4),
            connection_id=100 + i,
        )
        for i in range(10)
    )
    config = ScenarioConfig(n_nodes=8, connections=conns)
    return _simple(config), {}


def _scenario_initial_master():
    config = dataclasses.replace(_loaded_config(8, 0.7), initial_master=5)
    return _simple(config), {}


def _scenario_constrained_deadlines():
    # D < P workload: absolute deadlines are release + relative deadline,
    # not release + period.  Regression for the kernels' inlined release
    # path, which once hard-coded the implicit-deadline (D = P) formula.
    rng = np.random.default_rng(7)
    conns = industrial_workload(
        rng, n_nodes=8, n_connections=12, utilisation=0.8,
        tight_fraction=0.5, tight_deadline_ratio=0.4,
    )
    config = ScenarioConfig(n_nodes=8, connections=tuple(conns))
    return _simple(config), {}


SCENARIOS = {
    "loaded_n8": _scenario_loaded_n8,
    "loaded_n32": _scenario_loaded_n32,
    "warm_continuation": _scenario_warm_continuation,
    "chunked_runs": _scenario_chunked_runs,
    "single_slot_chunks": _scenario_single_slot_chunks,
    "admission_churn": _scenario_admission_churn,
    "linear_mapping": _scenario_linear_mapping,
    "no_spatial_reuse": _scenario_no_spatial_reuse,
    "idle_sparse": _scenario_idle_sparse,
    "drop_late": _scenario_drop_late,
    "multicast_multislot": _scenario_multicast_multislot,
    "initial_master": _scenario_initial_master,
    "constrained_deadlines": _scenario_constrained_deadlines,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_vector_matches_oracle(name):
    make_sim, kwargs = SCENARIOS[name]()
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason is None
    assert vec_sim.vector_backend in ("compiled", "python")


@pytest.mark.parametrize(
    "name",
    ["loaded_n8", "admission_churn", "linear_mapping",
     "constrained_deadlines"],
)
def test_soa_kernel_matches_oracle(name, monkeypatch):
    """Force the numpy SoA kernel onto closed-world scenarios.

    The compiled tier normally claims these; disabling it proves the
    pure-numpy kernel is independently bit-identical, not just a
    fallback that never runs.
    """
    monkeypatch.setattr(ckernel, "_fn", None)
    make_sim, kwargs = SCENARIOS[name]()
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_backend == "python"


def test_fault_injection_falls_back_to_oracle():
    """Fault models force the oracle; the reason is recorded and the
    result is (trivially, but verifiably) identical."""
    config = _loaded_config(
        8,
        0.7,
        fault_config=FaultConfig(
            node_mttf_slots=3000.0, node_mttr_slots=150.0, seed=5
        ),
    )
    make_sim, kwargs = _simple(config), {}
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason == "fault injection active"
    assert vec_sim.vector_backend is None
    assert vec_sim.vector_slots == 0


def test_non_edf_policy_falls_back_to_oracle():
    """Non-EDF policies force the oracle; the recorded reason is the
    documented ``"policy"`` string and the result matches the oracle."""
    config = _loaded_config(8, 0.7, policy="rm")
    make_sim, kwargs = _simple(config), {}
    vec_sim = assert_engines_match(make_sim, **kwargs)
    assert vec_sim.vector_fallback_reason == "policy"
    assert vec_sim.vector_backend is None
    assert vec_sim.vector_slots == 0


def test_compiled_backend_claims_closed_world():
    """The loaded closed-world scenario lands on the compiled tier when
    a C toolchain is available (skip, not fail, where there is none)."""
    make_sim, _ = SCENARIOS["loaded_n8"]()
    with fresh_message_ids():
        sim = make_sim("vector")
        sim.run(500)
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")
    assert sim.vector_backend == "compiled"


def _requires_compiled_tier():
    if ckernel._kernel_fn() is None:
        pytest.skip("no C toolchain; compiled tier unavailable")


@pytest.mark.parametrize(
    "traffic_class, deadline",
    [(TrafficClass.BEST_EFFORT, 400), (TrafficClass.NON_REAL_TIME, None)],
    ids=["best_effort", "non_real_time"],
)
def test_live_backlog_declines_the_compiled_tier(traffic_class, deadline):
    """A live best-effort or non-real-time message is outside the C
    tier's closed world: the first kernel window declines, the run lands
    on the SoA kernel and still matches the oracle."""
    base = _simple(_loaded_config(8, 0.5))

    def make_sim(engine):
        sim = base(engine)
        sim.queues[2].enqueue(
            Message(2, frozenset({6}), traffic_class, 3, 0, deadline)
        )
        return sim

    vec_sim = assert_engines_match(make_sim)
    assert vec_sim.vector_fallback_reason is None
    assert vec_sim.vector_backend == "python"


def _two_sparse_connections():
    # Both release at slot 0 and are delivered within a few slots, so
    # the ring idles (and fast-forwards) from then until slot 97.
    return ScenarioConfig(
        n_nodes=8,
        connections=(
            LogicalRealTimeConnection(
                source=0, destinations=frozenset({3}), period_slots=97,
                size_slots=2, connection_id=400,
            ),
            LogicalRealTimeConnection(
                source=5, destinations=frozenset({1, 2}), period_slots=150,
                size_slots=1, connection_id=401,
            ),
        ),
    )


def _overloaded():
    # U = 2.4: every slot contends, grants several messages at once,
    # denies at the break and delivers late (non-zero ``missed``).
    return ScenarioConfig(
        n_nodes=8,
        connections=tuple(
            LogicalRealTimeConnection(
                source=i, destinations=frozenset({(i + 4) % 8}),
                period_slots=10, size_slots=3, connection_id=300 + i,
            )
            for i in range(8)
        ),
    )


def _deadline_boundary():
    # U = 1: each 10-slot message is delivered exactly at its deadline
    # slot -- met, not missed.
    return ScenarioConfig(
        n_nodes=8,
        connections=(
            LogicalRealTimeConnection(
                source=0, destinations=frozenset({1}), period_slots=10,
                size_slots=10, connection_id=500,
            ),
        ),
    )


#: Shrinks the compiled kernel's windows to a few slots, so window
#: boundaries fall inside idle spans and busy stretches alike.
_TINY_WINDOWS = {"WINDOW_RELEASES": 1, "_MIN_WINDOW_SLOTS": 1}

#: name -> (config factory, RunOptions extras, run chunks, ``ckernel``
#: overrides, expected vector backend)
EVENT_CASES = {
    "loaded": (lambda: _loaded_config(8, 0.7), {}, (1500,), {}, "compiled"),
    "no_fast_forward": (lambda: _loaded_config(8, 0.3),
                        {"fast_forward": False}, (1500,), {}, "compiled"),
    "split_inside_idle_span": (_two_sparse_connections, {},
                               (50, 700, 1, 249), {}, "compiled"),
    "buffer_refills": (lambda: _loaded_config(8, 0.8), {}, (8000,), {},
                       "compiled"),
    "tiny_buffer": (lambda: _loaded_config(8, 0.3), {}, (3000,),
                    {"RECORD_BUFFER_WORDS": 1}, "compiled"),
    "tiny_windows_sparse": (_two_sparse_connections, {}, (700, 1300),
                            _TINY_WINDOWS, "compiled"),
    "tiny_windows_loaded": (lambda: _loaded_config(8, 0.3), {}, (1500,),
                            _TINY_WINDOWS, "compiled"),
    "overloaded": (_overloaded, {}, (1500,), {}, "compiled"),
    "deadline_boundary": (_deadline_boundary, {}, (500,), {}, "compiled"),
    "drop_late_soa": (lambda: _loaded_config(8, 0.9, drop_late=True), {},
                      (1500,), {}, "python"),
}


def _observed_run(engine, config, sink, chunks, **options):
    """Run ``config`` on ``engine`` with ``sink`` attached."""
    from repro.obs.events import EventDispatcher

    observer = EventDispatcher()
    observer.add_sink(sink)
    with fresh_message_ids():
        sim = build_simulation(
            config, RunOptions(engine=engine, observer=observer, **options)
        )
        for n in chunks:
            sim.run(n)
    observer.close()
    return sim


@pytest.mark.parametrize("name", sorted(EVENT_CASES))
def test_event_stream_is_byte_identical(name, tmp_path, monkeypatch):
    """The vector engine's ``--events`` JSONL equals the oracle's, byte
    for byte; closed-world runs stay on the compiled tier."""
    from repro.obs.events import EventDispatcher, JsonlEventLog

    make_config, options, chunks, overrides, backend = EVENT_CASES[name]
    if backend == "compiled" and ckernel._kernel_fn() is None:
        # Without a C toolchain the SoA kernel must match byte for byte.
        backend = "python"
    for attr, value in overrides.items():
        monkeypatch.setattr(ckernel, attr, value)
    drains = []
    dispatch = EventDispatcher.dispatch_records
    monkeypatch.setattr(
        EventDispatcher,
        "dispatch_records",
        lambda self, words: (drains.append(len(words)), dispatch(self, words)),
    )
    config = make_config()
    logs = {}
    for engine in ("python", "vector"):
        path = tmp_path / f"{engine}.jsonl"
        sim = _observed_run(
            engine, config, JsonlEventLog(path), chunks, **options
        )
        logs[engine] = path.read_bytes()
    assert sim.vector_fallback_reason is None
    assert sim.vector_backend == backend
    assert logs["vector"] == logs["python"]

    if name == "buffer_refills" and backend == "compiled":
        assert len(drains) >= 4, drains
    if name == "tiny_buffer" and backend == "compiled":
        assert len(drains) > 1000
    if name == "no_fast_forward":
        assert b'"fast_forward"' not in logs["python"]
    if name == "split_inside_idle_span":
        # The run boundary at slot 50 cuts an idle span in two.
        assert b'"slot_end":50,' in logs["python"]
        assert b'"slot_start":50,' in logs["python"]
    if name == "deadline_boundary":
        assert b'"delivered"' in logs["python"]
        assert b'"missed"' not in logs["python"]
    if name == "overloaded":
        assert b'"missed"' in logs["python"]
        assert b'"arbitration"' in logs["python"]


def test_ring_sink_receives_the_oracle_events():
    """A non-JSONL sink on the compiled tier gets typed events decoded
    from the records; their lines equal the oracle's."""
    from repro.obs.events import BoundedEventRing

    _requires_compiled_tier()
    config = _loaded_config(8, 0.5)
    lines = {}
    for engine in ("python", "vector"):
        ring = BoundedEventRing(max_events=100_000)
        sim = _observed_run(engine, config, ring, (700, 800))
        assert ring.dropped == 0
        lines[engine] = [event.to_json() for event in ring.events]
    assert sim.vector_backend == "compiled"
    assert any('"fast_forward"' in line for line in lines["python"])
    assert lines["vector"] == lines["python"]


def test_raising_sink_propagates_from_the_compiled_tier(monkeypatch):
    """A sink exception inside the drain callback reaches the caller
    (ctypes would otherwise print and swallow it)."""
    from repro.obs.events import EventSink, SlotExecuted
    from repro.sim.vector import engine as vector_engine

    class Boom(Exception):
        pass

    class RaisingSink(EventSink):
        def emit(self, event):
            if type(event) is SlotExecuted and event.slot >= 100:
                raise Boom(event.slot)

    _requires_compiled_tier()

    def no_soa(sim, n_slots):
        raise AssertionError("the SoA kernel must not run here")

    monkeypatch.setattr(vector_engine, "run_kernel", no_soa)
    config = _loaded_config(8, 0.7)
    for engine in ("python", "vector"):
        with pytest.raises(Boom) as info:
            _observed_run(engine, config, RaisingSink(), (1000,))
        assert info.value.args == (100,)


@pytest.mark.parametrize("name", ["loaded_n8", "idle_sparse"])
def test_profiled_run_stays_compiled(name, monkeypatch):
    """``--profile`` keeps a closed-world run on the compiled tier, and
    its ``fast_forwarded_slots`` equals the oracle's and the SoA
    kernel's count."""
    from repro.sim.profiling import PhaseProfiler

    _requires_compiled_tier()
    make_sim, _ = SCENARIOS[name]()

    def profiled(engine):
        profiler = PhaseProfiler()
        with fresh_message_ids():
            sim = make_sim(engine)
            sim.profiler = profiler
            sim.run(3000)
        return sim, profiler

    oracle, oracle_prof = profiled("python")
    vec, vec_prof = profiled("vector")
    assert vec.vector_backend == "compiled"
    assert vec_prof.calls["kernel"] == 1
    monkeypatch.setattr(ckernel, "_fn", None)
    soa, soa_prof = profiled("vector")
    assert soa.vector_backend == "python"
    forwarded = oracle_prof.counters["fast_forwarded_slots"]
    assert vec_prof.counters["fast_forwarded_slots"] == forwarded
    assert soa_prof.counters["fast_forwarded_slots"] == forwarded
    if name == "idle_sparse":
        assert forwarded > 0
    assert vec.report == oracle.report == soa.report


def test_arbitration_order_priority_then_node():
    """A contended slot grants in (priority desc, node asc) order on the
    vector engine, matching the oracle's sweep exactly."""
    conns = tuple(
        LogicalRealTimeConnection(
            source=i,
            destinations=frozenset({(i + 1) % 8}),
            period_slots=50,
            size_slots=1,
            connection_id=200 + i,
        )
        for i in range(8)
    )
    config = ScenarioConfig(n_nodes=8, connections=conns)
    # Snapshot right after slot 1: all eight sources released at slot 0,
    # so the pending plan still carries a multi-grant sweep.
    make_sim, kwargs = _simple(config), {"chunks": (2,), "extra_steps": 0}
    py_snap, _ = run_engine("python", make_sim, **kwargs)
    vec_snap, _ = run_engine("vector", make_sim, **kwargs)
    assert vec_snap[2] == py_snap[2]  # the pending plan, grants in order
    grants = vec_snap[2][4]
    assert grants, "contended scenario produced an empty plan"
