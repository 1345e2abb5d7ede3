"""The three benchmark workloads, driven through the package's public API.

Each workload is built once from the benchmark seed (:meth:`setup`) and
then played as identical *iterations* -- a whole campaign, one observed
simulate run, one admission-service session -- until the measuring time
is spent.  Iterations of one run share their inputs, so every
slot-domain count they report must repeat exactly (the count steadiness
self-check in ``worker.py``).  Every workload pins ``engine="vector"``.

An iteration returns an :class:`Iteration`; :meth:`check` then verifies
the last iteration's outputs outside the timed region.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from layers import BACKENDS, Tracer, clock
from repro.campaign import executor
from repro.campaign.grid import expand_runs
from repro.campaign.spec import Campaign, WorkloadSpec
from repro.campaign.store import ResultStore, run_key
from repro.core.connection import LogicalRealTimeConnection
from repro.obs.events import (
    EventDispatcher,
    EventSink,
    JsonlEventLog,
    ServiceRequestServed,
)
from repro.obs.replay import summarise_log
from repro.report import report_row
from repro.service import AdmissionClient, AdmissionService, ChurnDriver
from repro.service.messages import ServiceBackpressure
from repro.sim import runner
from repro.sim.runner import RunOptions, ScenarioConfig
from repro.traffic.periodic import random_connection_set
from repro.traffic.sweeps import scale_connections_to_utilisation

ENGINE = "vector"


@dataclass
class Iteration:
    """What one timed iteration did."""

    seconds: float
    #: Simulations built and run to completion.
    runs: int
    #: Simulated slots.
    slots: int
    #: Client operations (campaign runs, observed runs, service requests).
    ops: int
    #: Per-operation latencies, seconds.
    latencies_s: list[float]
    attempted: int
    failed: int
    #: Slot-domain counts that must repeat exactly across iterations.
    counts: dict[str, Any] = field(default_factory=dict)
    #: Per-layer values the workload measures itself (traced only).
    layer: dict[str, float] = field(default_factory=dict)
    #: Per-layer distributions pooled across iterations (traced only).
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Vector backend of each simulation run whose backend is visible.
    backends: list[str | None] = field(default_factory=list)
    #: Host slowness around this iteration (see ``worker.calibration``).
    host_factor: float = 1.0


def row_digest(row: dict[str, Any]) -> str:
    """SHA-256 of a report row's canonical JSON (equal rows, equal
    digests -- NaN included, which ``==`` on the dicts would not give)."""
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def warm_vector_engine() -> str | None:
    """Load the vector modules and the compiled kernel (one-slot run)."""
    conn = LogicalRealTimeConnection(
        source=0, destinations=frozenset([1]), period_slots=4, size_slots=1
    )
    sim = runner.build_simulation(
        ScenarioConfig(n_nodes=4, connections=(conn,)),
        RunOptions(engine=ENGINE),
    )
    sim.run(1)
    return sim.vector_backend


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


class CampaignWorkload:
    """Serial EDF campaign into a fresh store (``n_jobs=1``)."""

    name = "campaign"
    N_NODES = (8, 16, 32)
    UTILISATION = (0.3, 0.5, 0.7, 0.85)
    REPLICATIONS = 10
    N_SLOTS = 50_000
    #: Runs re-executed on the oracle engine by :meth:`check`.
    ORACLE_SAMPLES = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.campaign = Campaign(
            name="perfbench",
            base=ScenarioConfig(n_nodes=8),
            n_slots=self.N_SLOTS,
            axes={"n_nodes": self.N_NODES, "utilisation": self.UTILISATION},
            workload=WorkloadSpec(),
            n_replications=self.REPLICATIONS,
            master_seed=seed,
            engine=ENGINE,
        )
        self.store: ResultStore | None = None
        self.summary: Any = None

    def setup(self) -> dict[str, Any]:
        return {"backend_warm": warm_vector_engine()}

    def iteration(self, index: int, tracer: Tracer | None) -> Iteration:
        if self.store is not None:
            shutil.rmtree(self.store.root)
        store = self.store = ResultStore(self.workdir / f"store-{index}")
        completions: list[float] = []
        execute = executor.execute_run
        if tracer is not None:
            execute = tracer.span("campaign.execute_run", execute)

        def run_fn(spec: Any) -> dict[str, Any]:
            if tracer is not None:
                tracer.rid = len(completions)
            doc = execute(spec)
            completions.append(clock())
            return doc

        t0 = clock()
        summary = executor.run_campaign(
            self.campaign, store, n_jobs=1, run_fn=run_fn
        )
        seconds = clock() - t0
        self.summary = summary
        marks = [t0] + completions
        latencies = [b - a for a, b in zip(marks, marks[1:])]
        it = Iteration(
            seconds=seconds,
            runs=summary.executed,
            slots=summary.executed * self.N_SLOTS,
            ops=summary.executed,
            latencies_s=latencies,
            attempted=summary.total,
            failed=summary.total - summary.executed,
            counts={"executed": summary.executed, "total": summary.total},
        )
        if tracer is not None:
            it.layer["campaign.store_bytes"] = self.store_bytes()
            it.counts["campaign.store_bytes"] = it.layer["campaign.store_bytes"]
        return it

    def store_bytes(self) -> int:
        """Bytes of the stored run documents, less the host-timed
        ``elapsed_host_s`` float (its text length varies run to run)."""
        assert self.store is not None
        total = 0
        for path in sorted(self.store.runs_dir.glob("*.json")):
            text = path.read_text()
            meta = json.loads(text)["payload"]["meta"]
            total += len(text.encode()) - len(json.dumps(meta["elapsed_host_s"]))
        return total

    def check(self) -> tuple[list[str], dict[str, Any]]:
        """Completion, then a seed-sampled oracle re-run of stored rows."""
        assert self.store is not None and self.summary is not None
        problems: list[str] = []
        s = self.summary
        if not s.complete or s.failed_attempts or s.quarantined:
            problems.append(
                f"campaign incomplete: executed {s.executed}/{s.total}, "
                f"{s.failed_attempts} failed attempts, "
                f"{s.quarantined} quarantined"
            )
        specs = list(expand_runs(self.campaign))
        sampled = random.Random(self.seed).sample(specs, self.ORACLE_SAMPLES)
        t0 = clock()
        backends: list[str] = []
        for spec in sampled:
            stored = self.store.load(run_key(spec))["row"]
            tracer = Tracer()
            tracer.install()
            try:
                again = executor.execute_run(spec)["row"]
            finally:
                tracer.restore()
            backends += [b for b, key in BACKENDS.items() if tracer.calls[key]]
            oracle = executor.execute_run(
                dataclasses.replace(spec, engine="python")
            )["row"]
            label = f"run {spec.point.index}/{spec.replication}"
            if row_digest(stored) != row_digest(oracle):
                problems.append(f"{label}: stored row differs from oracle")
            if row_digest(again) != row_digest(stored):
                problems.append(f"{label}: vector re-run not reproducible")
        info = {
            "oracle_runs": len(sampled),
            "oracle_check_s": clock() - t0,
            "vector_backends": backends,
        }
        return problems, info


# ----------------------------------------------------------------------
# simulate_events
# ----------------------------------------------------------------------


class SimulateEventsWorkload:
    """One long loaded-ring run with a JSONL event log (``repro simulate
    --engine vector --events``)."""

    name = "simulate_events"
    N_NODES = 8
    N_CONNECTIONS = 12
    UTILISATION = 0.8
    N_SLOTS = 100_000
    #: Seed of the connection set: the ``repro simulate`` default draw,
    #: fixed so that every benchmark seed carries the same load.
    DRAW_SEED = 7

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.log_path = workdir / "events.jsonl"
        self.report: Any = None

    def config(self) -> ScenarioConfig:
        """The reference connection set with release phases drawn from
        the benchmark seed."""
        conns = random_connection_set(
            np.random.default_rng(self.DRAW_SEED),
            n_nodes=self.N_NODES,
            n_connections=self.N_CONNECTIONS,
            total_utilisation=self.UTILISATION,
            period_range=(10, 200),
        )
        conns = scale_connections_to_utilisation(conns, self.UTILISATION)
        rng = np.random.default_rng(self.seed)
        phased = tuple(
            dataclasses.replace(c, phase_slots=int(rng.integers(c.period_slots)))
            for c in conns
        )
        return ScenarioConfig(n_nodes=self.N_NODES, connections=phased)

    def setup(self) -> dict[str, Any]:
        backend = warm_vector_engine()
        self.config()
        return {"backend_warm": backend}

    def iteration(self, index: int, tracer: Tracer | None) -> Iteration:
        t0 = clock()
        config = self.config()
        observer = EventDispatcher()
        sink = observer.add_sink(JsonlEventLog(self.log_path))
        sim = runner.build_simulation(
            config, RunOptions(observer=observer, engine=ENGINE)
        )
        report = sim.run(self.N_SLOTS)
        observer.close()
        seconds = clock() - t0
        self.report = report
        it = Iteration(
            seconds=seconds,
            runs=1,
            slots=self.N_SLOTS,
            ops=1,
            latencies_s=[seconds],
            attempted=1,
            failed=0,
            counts={
                "obs.events_written": sink.events_written,
                "report": row_digest(report_row(report)),
            },
            backends=[sim.vector_backend],
        )
        if tracer is not None:
            it.layer["obs.events_written"] = sink.events_written
            it.layer["obs.bytes_written"] = self.log_path.stat().st_size
        return it

    def check(self) -> tuple[list[str], dict[str, Any]]:
        """Oracle report equality and event-log replay of the last run."""
        problems: list[str] = []
        report = self.report
        t0 = clock()
        oracle = runner.build_simulation(
            self.config(), RunOptions(engine="python")
        ).run(self.N_SLOTS)
        oracle_s = clock() - t0
        if row_digest(report_row(oracle)) != row_digest(report_row(report)):
            problems.append("vector report differs from the oracle engine's")
        t0 = clock()
        summary = summarise_log(self.log_path)
        replay_s = clock() - t0
        replayed = (
            summary.released, summary.delivered, summary.missed,
            summary.dropped, summary.packets_sent, summary.slots_covered,
        )
        live = (
            report.total_released, report.total_delivered,
            report.total_missed, report.total_dropped, report.packets_sent,
            report.slots_simulated,
        )
        if replayed != live:
            problems.append(f"event-log replay {replayed} != report {live}")
        return problems, {"oracle_check_s": oracle_s, "obs.replay_s": replay_s}


# ----------------------------------------------------------------------
# service_churn
# ----------------------------------------------------------------------


class TimedClient(AdmissionClient):
    """``AdmissionClient`` timing each call from the caller's side."""

    def __init__(
        self,
        service: AdmissionService,
        latencies: list[float],
        tracer: Tracer | None,
    ) -> None:
        super().__init__(service)
        self.latencies = latencies
        self.tracer = tracer
        self.refused = 0

    async def _timed(self, op: str, call: Any, *args: Any) -> Any:
        t0 = clock()
        try:
            reply = await call(*args)
        except ServiceBackpressure:
            self.refused += 1
            raise
        t1 = clock()
        self.latencies.append(t1 - t0)
        if self.tracer is not None:
            self.tracer.record(f"client.{op}", t0, t1, reply.seq)
        return reply

    async def open_lrtc(self, connection: Any) -> Any:
        return await self._timed("open_lrtc", super().open_lrtc, connection)

    async def close_lrtc(self, connection_id: int) -> Any:
        return await self._timed(
            "close_lrtc", super().close_lrtc, connection_id
        )

    async def suspend_node(self, node: int) -> Any:
        return await self._timed("suspend_node", super().suspend_node, node)

    async def resume_node(self, node: int) -> Any:
        return await self._timed("resume_node", super().resume_node, node)


class ServeLedger(EventSink):
    """Splits service-side latency into queue wait and serve time.

    Sees each ``ServiceRequestServed`` as the worker emits it: the
    event's ``latency_s`` dates the submission, the first server-side
    span of the request (or the previous request's end, when it has
    none) dates the start of serving.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.wait_s: list[float] = []
        self.serve_s: list[float] = []
        self.depth_max = 0
        self._prev_end = 0.0

    def emit(self, event: Any) -> None:
        if type(event) is not ServiceRequestServed:
            return
        end = clock()
        submitted = end - event.latency_s
        start = self.tracer.serve_start()
        if start is None:
            start = max(submitted, self._prev_end)
        self.tracer.assign_rid(event.seq, start)
        self.wait_s.append(start - submitted)
        self.serve_s.append(end - start)
        self.depth_max = max(self.depth_max, event.queue_depth)
        self._prev_end = end

    def emit_slot(self, *args: Any) -> None:
        """Slot events carry nothing for the service ledger."""


class ServiceChurnWorkload:
    """Closed loop of churn clients against one ``AdmissionService``."""

    name = "service_churn"
    N_NODES = 8
    CLIENTS = 4
    OPS_PER_CLIENT = 625
    QUEUE_DEPTH = 64
    BURST = 4
    CLOSE_FRACTION = 0.4
    FAULT_EVERY = 6

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.log_path = workdir / "service.jsonl"
        self.service: AdmissionService | None = None
        self.stats: Any = None

    def setup(self) -> dict[str, Any]:
        return {"backend_warm": warm_vector_engine()}

    async def _session(
        self, service: AdmissionService, latencies: list[float],
        tracer: Tracer | None,
    ) -> tuple[Any, int]:
        async with service:
            clients = [
                TimedClient(service, latencies, tracer)
                for _ in range(self.CLIENTS)
            ]
            drivers = [
                ChurnDriver(
                    client,
                    seed=self.seed + i,
                    n_nodes=self.N_NODES,
                    burst=self.BURST,
                    close_fraction=self.CLOSE_FRACTION,
                    fault_every=self.FAULT_EVERY,
                )
                for i, client in enumerate(clients)
            ]
            results = await asyncio.gather(
                *(d.run_until_ops(self.OPS_PER_CLIENT) for d in drivers)
            )
        merged = results[0]
        for stats in results[1:]:
            merged.merge(stats)
        return merged, sum(c.refused for c in clients)

    def iteration(self, index: int, tracer: Tracer | None) -> Iteration:
        latencies: list[float] = []
        t0 = clock()
        observer = EventDispatcher()
        sink = observer.add_sink(JsonlEventLog(self.log_path))
        ledger = None
        if tracer is not None:
            ledger = observer.add_sink(ServeLedger(tracer))
        service = AdmissionService(
            ScenarioConfig(n_nodes=self.N_NODES),
            queue_depth=self.QUEUE_DEPTH,
            observer=observer,
            engine=ENGINE,
        )
        stats, refused = asyncio.run(self._session(service, latencies, tracer))
        observer.close()
        seconds = clock() - t0
        self.service, self.stats = service, stats
        assert service.sim is not None
        failed = stats.backpressure + stats.errors
        it = Iteration(
            seconds=seconds,
            runs=1,
            slots=service.sim.current_slot,
            ops=stats.operations,
            latencies_s=latencies,
            attempted=stats.operations,
            failed=failed,
            counts={
                "ops": stats.operations,
                "slots": service.sim.current_slot,
                "obs.events_written": sink.events_written,
                "requests": dict(service.request_totals),
                "refused": refused,
            },
            backends=[service.sim.vector_backend],
        )
        if tracer is not None and ledger is not None:
            it.layer["obs.events_written"] = sink.events_written
            it.layer["obs.bytes_written"] = self.log_path.stat().st_size
            it.layer["service.worker_busy_ratio"] = sum(ledger.serve_s) / seconds
            it.layer["service.queue_depth_max"] = ledger.depth_max
            it.samples["service.serve_ms"] = ledger.serve_s
            it.samples["service.queue_wait_ms"] = ledger.wait_s
        return it

    def check(self) -> tuple[list[str], dict[str, Any]]:
        """Replay bit-identity, U <= U_max and no error replies."""
        service, stats = self.service, self.stats
        assert service is not None and service.controller is not None
        problems: list[str] = []
        if stats.errors:
            problems.append(f"{stats.errors} error replies")
        controller = service.controller
        if not controller.utilisation <= controller.u_max:
            problems.append(
                f"admitted utilisation {controller.utilisation!r} exceeds "
                f"u_max {controller.u_max!r}"
            )
        t0 = clock()
        summary = summarise_log(self.log_path)
        replay_s = clock() - t0
        live = (
            dict(service.request_totals), service.backpressure_total,
            controller.utilisation,
        )
        replayed = (
            dict(summary.service_requests), summary.service_backpressure,
            summary.service_utilisation,
        )
        if replayed != live:
            problems.append(f"replay {replayed!r} != live {live!r}")
        return problems, {"obs.replay_s": replay_s}


WORKLOADS = {
    w.name: w
    for w in (CampaignWorkload, SimulateEventsWorkload, ServiceChurnWorkload)
}
