"""Per-layer ledger for the traced benchmark run.

The benchmark never edits the package: a :class:`Tracer` wraps the
public calls into each layer (module functions and class methods named
in :data:`SPANS`, :data:`TIMED_COUNTS` and :data:`COUNTS`) for the
duration of one traced iteration and restores the originals afterwards.

Three kinds of record, chosen by how hot the call is:

* spans -- ``[id, name, start, end, parent, rid]`` kept in memory and
  written out at the end; ``parent`` is the enclosing span on the
  synchronous call stack and ``rid`` the request id (campaign run index
  or admission-service request ``seq``);
* timed counts -- call count plus accumulated seconds, for calls made
  per slot or per ring-node pair where a span each would swamp the run;
* counts -- call count only, for the hottest per-slot polls.

Layer names follow the package's modules (``sim.runner``, ``traffic``,
``ring``, ``sim.vector``, ``sim.engine``, ``campaign``,
``core.admission``, ``services.api``, ``obs``).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any

clock = time.perf_counter

#: (module, attribute path, span name): calls recorded as spans.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.runner", "build_simulation", "runner.build"),
    ("repro.service.server", "build_simulation", "runner.build"),
    ("repro.campaign.executor", "random_workload", "traffic.random_workload"),
    ("repro.campaign.executor", "run_key", "campaign.run_key"),
    ("repro.campaign.executor", "report_row", "campaign.report_row"),
    ("repro.campaign.store", "ResultStore.save", "campaign.store_save"),
    ("repro.sim.vector.engine", "_try_compiled", "vector.ckernel"),
    ("repro.sim.vector.engine", "run_kernel", "vector.soa_kernel"),
    ("repro.core.admission", "AdmissionController.request", "admission.request"),
    ("repro.core.admission", "AdmissionController.remove", "admission.remove"),
    ("repro.core.admission", "AdmissionController.suspend_node",
     "admission.suspend_node"),
    ("repro.core.admission", "AdmissionController.resume_node",
     "admission.resume_node"),
    ("repro.obs.events", "EventDispatcher.close", "obs.close"),
)

#: (module, attribute path, name): calls counted and timed, no spans.
TIMED_COUNTS: tuple[tuple[str, str, str], ...] = (
    ("repro.ring.topology", "RingTopology.handover_delay_s",
     "ring.handover_delay"),
    ("repro.sim.engine", "Simulation.step", "engine.step"),
    ("repro.obs.events", "EventDispatcher.emit", "obs.emit"),
    ("repro.obs.events", "EventDispatcher.dispatch_slot", "obs.emit"),
)

#: (module, attribute path, name): calls counted only.
COUNTS: tuple[tuple[str, str, str], ...] = (
    ("repro.traffic.periodic", "ConnectionSource.messages_for_slot",
     "traffic.messages_for_slot"),
    ("repro.services.api", "MessageInjector.messages_for_slot",
     "traffic.messages_for_slot"),
)

#: Counter of ``VectorSimulation.run`` calls per ``vector_backend``.
BACKENDS = {
    "compiled": "vector.compiled_runs",
    "python": "vector.soa_runs",
    None: "vector.oracle_fallback_runs",
}

#: Server-side spans of one admission request (the service worker
#: serves them synchronously, one request at a time).
SERVE_SPANS = frozenset({
    "signalling.open_lrtc",
    "signalling.close_lrtc",
    "admission.suspend_node",
    "admission.resume_node",
})


def _resolve(module: str, path: str) -> tuple[Any, str]:
    """(owner, attribute) for ``path`` inside ``module``."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory spans and counters for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        #: Request id stamped on new spans (campaign run index); the
        #: service assigns ``seq`` after the fact (:meth:`assign_rid`).
        self.rid: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._mark = 0

    # -- wrappers ------------------------------------------------------

    def span(self, name: str, fn: Any) -> Any:
        spans, stack = self.spans, self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = len(spans)
            rec = [sid, name, clock(), 0.0,
                   stack[-1] if stack else None, self.rid]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return wrapper

    def timed_count(self, name: str, fn: Any) -> Any:
        calls, seconds = self.calls, self.seconds

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1

        return wrapper

    def count(self, name: str, fn: Any) -> Any:
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _vector_run(self, fn: Any) -> Any:
        """``VectorSimulation.run``: a span plus the backend mix."""
        traced = self.span("vector.run", fn)
        calls = self.calls

        def wrapper(sim: Any, n_slots: int) -> Any:
            report = traced(sim, n_slots)
            calls[BACKENDS[sim.vector_backend]] += 1
            if sim.vector_backend is not None:
                calls["vector.slots"] += n_slots
            return report

        return wrapper

    def _signalling(self, name: str, fn: Any) -> Any:
        """``ConnectionClient.open_lrtc``/``close_lrtc``: a span plus the
        simulated slots the request/reply dialogue took."""
        traced = self.span(name, fn)
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = traced(*args, **kwargs)
            calls["signalling.requests"] += 1
            calls["signalling.slots"] += result.slots_used
            return result

        return wrapper

    # -- install / restore ---------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`restore` undoes it."""
        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        for module, path, name in TIMED_COUNTS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr,
                        self.timed_count(name, getattr(owner, attr)))
        for module, path, name in COUNTS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.count(name, getattr(owner, attr)))
        vsim = importlib.import_module("repro.sim.vector.engine").VectorSimulation
        self._patch(vsim, "run", self._vector_run(vsim.run))
        client = importlib.import_module("repro.services.api").ConnectionClient
        for op in ("open_lrtc", "close_lrtc"):
            self._patch(client, op,
                        self._signalling(f"signalling.{op}",
                                         getattr(client, op)))
        controller = importlib.import_module(
            "repro.core.admission").AdmissionController
        prop = controller.__dict__["utilisation"]
        self._patch(controller, "utilisation", property(
            self.timed_count("admission.utilisation", prop.fget)))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- request ids (admission service) -------------------------------

    def serve_start(self) -> float | None:
        """Start of the first server-side span since the last
        :meth:`assign_rid` (``None`` for a request with none)."""
        for rec in self.spans[self._mark:]:
            if rec[1] in SERVE_SPANS:
                return rec[2]
        return None

    def assign_rid(self, rid: int, since: float) -> None:
        """Stamp ``rid`` on the spans recorded since the last call that
        started at or after ``since`` (the request's serve start)."""
        for rec in self.spans[self._mark:]:
            if rec[5] is None and rec[2] >= since:
                rec[5] = rid
        self._mark = len(self.spans)

    def record(self, name: str, start: float, end: float, rid: int) -> None:
        """Append a finished root span (async client calls, which must
        not join the synchronous parent stack)."""
        self.spans.append([len(self.spans), name, start, end, None, rid])

    # -- summaries -----------------------------------------------------

    def span_totals(self) -> tuple[Counter[str], defaultdict[str, float],
                                   defaultdict[str, float]]:
        """(calls, total seconds, self seconds) per span name.

        Self time is a span's duration minus its direct children's; in
        synchronous code children never overlap, so the subtraction is
        exact.
        """
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: defaultdict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            own[name] += end - start - child[sid]
        return calls, total, own

    def layer_metrics(self) -> dict[str, float]:
        """This iteration's per-layer values under their ledger names."""
        calls, total, own = self.span_totals()
        c, s = self.calls, self.seconds
        requests = c["signalling.requests"]
        out: dict[str, float] = {
            "runner.build_s": total["runner.build"],
            "runner.build.calls": calls["runner.build"],
            "traffic.random_workload_s": total["traffic.random_workload"],
            "traffic.messages_for_slot.calls": c["traffic.messages_for_slot"],
            "ring.handover_delay.calls": c["ring.handover_delay"],
            "ring.handover_delay_s": s["ring.handover_delay"],
            "vector.run_s": total["vector.run"],
            "vector.slots": c["vector.slots"],
            "vector.compiled_runs": c["vector.compiled_runs"],
            "vector.soa_runs": c["vector.soa_runs"],
            "vector.oracle_fallback_runs": c["vector.oracle_fallback_runs"],
            "vector.ckernel_s": total["vector.ckernel"],
            "vector.soa_kernel_s": total["vector.soa_kernel"],
            "engine.step.calls": c["engine.step"],
            "engine.step_s": s["engine.step"],
            "campaign.execute_run_self_s": own["campaign.execute_run"],
            "campaign.run_key_s": total["campaign.run_key"],
            "campaign.store_save_s": total["campaign.store_save"],
            "campaign.report_row_s": total["campaign.report_row"],
            "admission.utilisation.calls": c["admission.utilisation"],
            "admission.utilisation_s": s["admission.utilisation"],
            "signalling.open_lrtc_s": total["signalling.open_lrtc"],
            "signalling.close_lrtc_s": total["signalling.close_lrtc"],
            "signalling.slots_per_request": (
                c["signalling.slots"] / requests if requests else 0.0
            ),
            "obs.emit.calls": c["obs.emit"],
            "obs.emit_s": s["obs.emit"],
            "obs.close_s": total["obs.close"],
        }
        for op in ("request", "remove", "suspend_node", "resume_node"):
            out[f"admission.{op}.calls"] = calls[f"admission.{op}"]
            out[f"admission.{op}_s"] = total[f"admission.{op}"]
        return out

    def write(self, path: Path, iteration: int) -> None:
        """Append this iteration's spans as JSON lines."""
        with path.open("a") as fh:
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "iteration": iteration, "id": sid, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "rid": rid,
                }) + "\n")
