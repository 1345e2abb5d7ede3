"""Compiled slot micro-kernel: lazy build, eligibility, state marshalling.

The hot slot loop of the vector engine has a closed-world fast path: a
tiny C kernel (``_ckernel.c``, shipped as source next to this module)
compiled on demand with the system C compiler and loaded through
:mod:`ctypes`.  No third-party build machinery is involved -- if no
compiler is available, compilation fails, or the configuration falls
outside the closed world, :func:`try_run` returns ``False`` and the
caller uses the pure-Python vector kernel instead.

The closed world is the subset of configurations whose per-slot
semantics the C loop replicates *bit-identically*:

* every traffic source is a plain :class:`ConnectionSource` (periodic,
  fully predictable releases);
* every live queued message is an RT-connection message (no live
  best-effort or non-real-time backlog);
* the laxity mapping is exactly ``LogarithmicMapping`` or
  ``LinearMapping`` (closed-form priorities, same libm ``log2`` the
  interpreter calls);
* no drop-late policy and no active fault window (the engine has
  already excluded faults, loss, packet tracing and slot traces);
* the ring fits the kernel's 64-bit link masks.

Event sinks and profilers stay in the closed world.  An observed run
hands the kernel a bounded ``int64`` buffer: the kernel writes the
oracle's event stream into it as fixed-layout records
(:mod:`repro.obs.records`) and calls a ctypes drain callback, which
passes them to :meth:`EventDispatcher.dispatch_records`, each time it
fills -- the loop then continues in the same call, so the release
schedule and the reserved message-id block stay valid.  An exception
raised by a sink is caught in the callback (ctypes would otherwise
print and swallow it), aborts the kernel, and is re-raised from
:func:`try_run`.  The kernel reports its fast-forwarded idle slots to an
attached profiler.

A long run executes as consecutive windows of about
:data:`WINDOW_RELEASES` releases, one kernel call each, so the message
table (one row per release) stays bounded however long the run.  An
idle span that crosses a window boundary is carried into the next call
and logged once, as the oracle logs it.

Bit-identity is preserved by construction: wall/slot/gap times advance
by the oracle's exact double additions in the oracle's order, message
ids are reserved from the global counter before the call (one per
scheduled release) so later Python-side allocations continue the same
sequence, deliveries are replayed into the metrics in delivery order,
and ``per_connection`` insertion order follows the kernel's recorded
first-touch sequence.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from heapq import heapify
from pathlib import Path
from typing import TYPE_CHECKING, cast

import numpy as np

from repro.core import messages as _messages
from repro.core.mapping import LinearMapping, LogarithmicMapping
from repro.core.messages import Message, MessageStatus
from repro.core.priorities import TrafficClass, class_priority_range
from repro.core.protocol import PlannedTransmission, SlotPlan
from repro.obs.records import EVENT_RECORDS
from repro.obs.registry import Histogram
from repro.sim.metrics import ConnectionStats
from repro.traffic.periodic import ConnectionSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulation

#: Releases per kernel call, roughly: a long run executes as consecutive
#: windows of about this many releases, so the message table (one row
#: per release) and its fold-back stay bounded however long the run.
WINDOW_RELEASES = 1 << 13

#: Shortest window in slots (keeps per-call entry cost amortised on
#: rings with very fast sources).
_MIN_WINDOW_SLOTS = 1024

#: Ring width limit: link masks are 64-bit in the C kernel.
_MAX_NODES = 62

#: Event-record buffer size in ``int64`` words (raised to one slot's
#: worst case on wide rings).  Bounded: a full buffer is drained, not
#: grown, so an observed run's memory does not scale with its length.
RECORD_BUFFER_WORDS = 1 << 14

_I64 = ctypes.POINTER(ctypes.c_int64)
_U64 = ctypes.POINTER(ctypes.c_uint64)
_F64 = ctypes.POINTER(ctypes.c_double)
#: ``int64_t drain(int64_t n_words)``: nonzero aborts the kernel.
_DRAIN = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_int64)
_NO_DRAIN = _DRAIN()  # NULL: the run is unobserved

_UNSET = object()
_fn: object = _UNSET


def _build_library() -> Callable[..., int] | None:
    """Compile ``_ckernel.c`` (once per source and record-layout hash)
    and bind the entry."""
    src = Path(__file__).with_name("_ckernel.c")
    try:
        code = src.read_bytes()
    except OSError:
        return None
    defines = [f"-D{d}" for d in EVENT_RECORDS.c_defines()]
    digest = hashlib.sha256(
        code + "\n".join(defines).encode()
    ).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_CKERNEL_CACHE")
    if cache_dir:
        cache = Path(cache_dir)
    else:
        cache = Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return None
    so = cache / f"ckernel-{digest}.so"
    if not so.exists():
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None:
            return None
        tmp = so.with_name(f"{so.name}.{os.getpid()}.tmp")
        try:
            # NOTE: plain -O2, never -ffast-math -- the kernel's double
            # additions must stay IEEE-754 exact and unreassociated to
            # match the interpreter bit for bit.
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", *defines, "-o", str(tmp),
                 str(src), "-lm"],
                check=True,
                capture_output=True,
                timeout=300,
            )
            os.replace(tmp, so)
        except (OSError, subprocess.SubprocessError):
            tmp.unlink(missing_ok=True)
            return None
    try:
        lib = ctypes.CDLL(str(so))
    except OSError:
        return None
    fn = lib.repro_run_ckernel
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_int64,  # start_slot
        ctypes.c_int64,  # n_slots
        ctypes.c_double,  # slot_length
        ctypes.c_int64,  # limit
        ctypes.c_int64,  # rt_lo
        ctypes.c_int64,  # rt_hi
        ctypes.c_int64,  # log_map
        ctypes.c_int64,  # levels
        ctypes.c_int64,  # horizon
        _F64,  # gap_matrix
        ctypes.c_int64,  # n_pre
        ctypes.c_int64,  # n_rel
        _I64,  # m_node
        _I64,  # m_size
        _I64,  # m_sent
        _I64,  # m_deadline
        _I64,  # m_created
        _I64,  # m_id
        _I64,  # m_cid
        _U64,  # m_links
        _I64,  # m_status
        _I64,  # m_completed
        _I64,  # rel_slot
        _I64,  # rel_conn
        ctypes.c_int64,  # n_conns
        _I64,  # conn_node
        _I64,  # conn_size
        _I64,  # conn_deadline
        _I64,  # conn_cid
        _U64,  # conn_links
        ctypes.c_int64,  # id0
        ctypes.c_int64,  # n_cids
        _I64,  # touched
        ctypes.c_int64,  # p_master
        ctypes.c_double,  # p_gap
        ctypes.c_int64,  # p_nreq
        ctypes.c_int64,  # p_ntx
        _I64,  # p_tx_rows
        ctypes.c_int64,  # p_nden
        _I64,  # p_den_rows
        ctypes.c_int64,  # prev_master
        _I64,  # heap_cap
        ctypes.c_int64,  # ff_enabled
        ctypes.c_int64,  # ff_open
        ctypes.c_int64,  # final
        _I64,  # rec
        ctypes.c_int64,  # rec_cap
        _DRAIN,  # drain
        _F64,  # facc
        _I64,  # iacc
        _I64,  # master_count
        _I64,  # hop_count
        _I64,  # del_rows
        _I64,  # touch_out
        _I64,  # out_tx_rows
        _I64,  # out_den_rows
        _F64,  # out_gap
    ]
    return fn


def _kernel_fn() -> Callable[..., int] | None:
    """The compiled entry point, or ``None`` when unavailable."""
    global _fn
    if _fn is _UNSET:
        if os.environ.get("REPRO_NO_CKERNEL"):
            _fn = None
        else:
            _fn = _build_library()
    return _fn  # type: ignore[return-value]


def _arr(values: list[int]) -> np.ndarray:
    a = np.empty(max(1, len(values)), dtype=np.int64)
    if values:
        a[: len(values)] = values
    return a


def _p(a: np.ndarray) -> object:
    if a.dtype == np.uint64:
        return a.ctypes.data_as(_U64)
    if a.dtype == np.float64:
        return a.ctypes.data_as(_F64)
    return a.ctypes.data_as(_I64)


def _release_schedule(
    sources: tuple[ConnectionSource, ...], s: int, end: int
) -> tuple[np.ndarray, np.ndarray]:
    """(slot, source index) of every release in ``[s, end)``, sorted in
    the oracle's polling order.  A function of its own so the
    per-source temporaries are freed before the kernel runs."""
    parts_t: list[np.ndarray] = []
    parts_i: list[np.ndarray] = []
    for idx, src in enumerate(sources):
        conn = src.connection
        wlo = s if s >= src.active_from else src.active_from
        whi = end
        until = src.active_until
        if until is not None and until < whi:
            whi = until
        phase = conn.phase_slots
        period = conn.period_slots
        if wlo <= phase:
            first = phase
        else:
            first = phase + -(-(wlo - phase) // period) * period
        if first >= whi:
            continue
        ts = np.arange(first, whi, period, dtype=np.int64)
        parts_t.append(ts)
        parts_i.append(np.full(len(ts), idx, dtype=np.int64))
    if not parts_t:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    t = np.concatenate(parts_t)
    i_src = np.concatenate(parts_i)
    order = np.lexsort((i_src, t))
    return (
        np.ascontiguousarray(t[order]),
        np.ascontiguousarray(i_src[order]),
    )


class _RecordDrain:
    """The bounded event-record buffer of one observed run and its ctypes
    drain callback, which hands full buffers to the dispatcher."""

    def __init__(self, dispatch: Callable[[list[int]], None], n: int) -> None:
        self.cap = max(
            RECORD_BUFFER_WORDS,
            EVENT_RECORDS.max_words("arbitration", n)
            + EVENT_RECORDS.words("handover")
            + EVENT_RECORDS.max_words("slot", n),
        )
        rec = self.rec = np.empty(self.cap, dtype=np.int64)
        self.ptr = _p(rec)
        failure: list[BaseException] = []
        self.failure = failure

        def drain(n_words: int) -> int:
            try:
                dispatch(rec[:n_words].tolist())
            except BaseException as exc:  # re-raised after the call
                failure.append(exc)
                return 1
            return 0

        self.callback = _DRAIN(drain)


def try_run(sim: Simulation, n_slots: int) -> bool:
    """Run ``n_slots`` on the compiled kernel if eligible; else ``False``.

    Returns ``True`` only after the simulation has been advanced (state,
    metrics, registry, pending plan and emitted events identical to the
    oracle).  All eligibility checks happen *before* any mutation, so
    ``False`` always leaves the simulation untouched for the Python
    kernel.
    """
    fn = _kernel_fn()
    if fn is None or n_slots <= 0:
        return False
    if sim.drop_late:
        return False
    if sim.metrics.fault_window_active:
        return False
    mapping = sim.protocol.mapping
    if type(mapping) not in (LogarithmicMapping, LinearMapping):
        return False
    n = sim.topology.n_nodes
    if n > _MAX_NODES:
        return False
    if not all(type(src) is ConnectionSource for src in sim.sources):
        return False
    sources = cast("tuple[ConnectionSource, ...]", sim.sources)

    observer = sim.observer
    records = (
        _RecordDrain(observer.dispatch_records, n)
        if observer is not None and observer.wants_slot_events
        else None
    )
    rate = sum(1.0 / src.connection.period_slots for src in sources)
    window = n_slots
    if rate:
        window = max(_MIN_WINDOW_SLOTS, int(WINDOW_RELEASES / rate))
    start = sim.current_slot
    end = start + n_slots
    ff_open = -1
    forwarded = 0
    while sim.current_slot < end:
        k = min(window, end - sim.current_slot)
        final = sim.current_slot + k == end
        out = _run_window(sim, fn, sources, k, records, ff_open, final)
        if out is None:
            if sim.current_slot != start:
                # Only the first window may decline: the kernel hands
                # back closed-world state by construction.
                raise RuntimeError("compiled slot kernel left its closed world")
            return False
        ff_open, ff_k = out
        forwarded += ff_k
    if forwarded and sim.profiler is not None:
        sim.profiler.count("fast_forwarded_slots", forwarded)
    return True


def _run_window(
    sim: Simulation,
    fn: Callable[..., int],
    sources: tuple[ConnectionSource, ...],
    n_slots: int,
    records: _RecordDrain | None,
    ff_open: int,
    final: bool,
) -> tuple[int, int] | None:
    """One kernel call over the next ``n_slots`` slots.

    ``ff_open`` is the first slot of an idle span the previous window
    ended inside (``-1`` for none); the span's record is written once it
    ends, so a window boundary never splits it, and ``final`` closes any
    span still open at the end.  Returns ``(ff_open, fast-forwarded
    slots)`` after advancing the simulation, or ``None`` -- with the
    simulation untouched -- when its state is outside the closed world.
    """
    n = sim.topology.n_nodes
    metrics = sim.metrics
    mapping = sim.protocol.mapping
    log_map = type(mapping) is LogarithmicMapping

    RT = TrafficClass.RT_CONNECTION
    DELIVERED = MessageStatus.DELIVERED
    DROPPED = MessageStatus.DROPPED
    PENDING = MessageStatus.PENDING
    IN_TRANSIT = MessageStatus.IN_TRANSIT
    queues = sim.queues
    protocol = sim.protocol
    route_masks = protocol.route_masks

    # --- ingest the live queue state (no BE/NRT backlog allowed) -------
    pre_objs: list[Message] = []
    row_of: dict[int, int] = {}
    for i in range(n):
        q = queues[i]
        for heap in (q._be, q._nrt):
            for entry in heap:
                st = entry[2].status
                if st is PENDING or st is IN_TRANSIT:
                    return None
        for entry in q._rt:
            msg = entry[2]
            st = msg.status
            if st is DELIVERED or st is DROPPED:
                continue
            if msg.traffic_class is not RT or msg.deadline_slot is None:
                return None
            row_of[id(msg)] = len(pre_objs)
            pre_objs.append(msg)

    plan = sim._plan
    plan_tx_rows: list[int] = []
    for tx in plan.transmissions:
        row = row_of.get(id(tx.message))
        if row is None:
            return None
        plan_tx_rows.append(row)
    plan_den_rows: list[int] = []
    for tx in plan.denied_by_break:
        row = row_of.get(id(tx.message))
        if row is None:
            return None
        plan_den_rows.append(row)

    # --- release schedule over [s, end), oracle polling order ----------
    s = sim.current_slot
    end = s + n_slots
    conns = [src.connection for src in sources]
    rel_slot, rel_conn = _release_schedule(sources, s, end)
    n_rel = len(rel_slot)

    # --- constants -----------------------------------------------------
    rt_lo, rt_hi = class_priority_range(RT)
    levels = rt_hi - rt_lo + 1
    horizon = mapping.horizon_slots if not log_map else 1
    arbiter = protocol.arbiter
    limit = 1 if not arbiter.spatial_reuse else (arbiter.max_grants or 1 << 30)
    slot_length = sim.timing.slot_length_s

    gap_matrix = getattr(sim, "_ck_gap_matrix", None)
    if gap_matrix is None:
        handover = protocol.handover
        topology = sim.topology
        gap_matrix = np.empty(n * n, dtype=np.float64)
        for a in range(n):
            for b in range(n):
                gap_matrix[a * n + b] = handover.gap_s(topology, a, b)
        sim._ck_gap_matrix = gap_matrix  # type: ignore[attr-defined]

    # Dense connection-id space: connections first, then any live
    # message whose connection is no longer sourced (admission churn).
    cid_index: dict[int, int] = {}
    cid_list: list[int] = []

    def _dense(cid: int) -> int:
        di = cid_index.get(cid)
        if di is None:
            di = cid_index[cid] = len(cid_list)
            cid_list.append(cid)
        return di

    conn_cid = [_dense(c.connection_id) for c in conns]
    conn_node = [c.source for c in conns]
    conn_size = [c.size_slots for c in conns]
    conn_deadline = [c.relative_deadline_slots for c in conns]
    conn_links = [route_masks(c.source, c.destinations)[0] for c in conns]

    n_pre = len(pre_objs)
    n_rows = n_pre + n_rel
    m_node = np.empty(max(1, n_rows), dtype=np.int64)
    m_size = np.empty_like(m_node)
    m_sent = np.empty_like(m_node)
    m_deadline = np.empty_like(m_node)
    m_created = np.empty_like(m_node)
    m_id = np.empty_like(m_node)
    m_cid = np.empty_like(m_node)
    m_links = np.empty(max(1, n_rows), dtype=np.uint64)
    m_status = np.empty_like(m_node)
    m_completed = np.empty_like(m_node)
    for row, msg in enumerate(pre_objs):
        m_node[row] = msg.source
        m_size[row] = msg.size_slots
        m_sent[row] = msg.sent_slots
        m_deadline[row] = msg.deadline_slot
        m_created[row] = msg.created_slot
        m_id[row] = msg.msg_id
        cid = msg.connection_id
        m_cid[row] = _dense(cid) if cid is not None else -1
        m_links[row] = route_masks(msg.source, msg.destinations)[0]
        m_status[row] = 0 if msg.status is PENDING else 1
        m_completed[row] = -1

    per_connection = metrics.report.per_connection
    touched = _arr([1 if cid in per_connection else 0 for cid in cid_list])
    n_cids = len(cid_list)

    heap_cap = np.zeros(n, dtype=np.int64)
    for msg in pre_objs:
        heap_cap[msg.source] += 1
    if n_rel:
        conn_node_arr = _arr(conn_node)
        heap_cap += np.bincount(conn_node_arr[rel_conn], minlength=n)

    # --- reserve message ids for every scheduled release ---------------
    # The constructor's default factory resolves the module-level counter
    # at call time, so rebinding it hands the kernel a contiguous id
    # block while later Python-side constructions continue the sequence.
    id0 = next(_messages._message_ids)
    _messages._message_ids = itertools.count(id0 + n_rel if n_rel else id0)

    # --- outputs -------------------------------------------------------
    report = metrics.report
    facc = np.array(
        [report.wall_time_s, report.slot_time_s, report.gap_time_s],
        dtype=np.float64,
    )
    iacc = np.zeros(13, dtype=np.int64)
    master_count = np.zeros(n, dtype=np.int64)
    hop_count = np.zeros(n, dtype=np.int64)
    del_rows = np.empty(max(1, n_rows), dtype=np.int64)
    touch_out = np.empty(max(1, n_cids), dtype=np.int64)
    out_tx_rows = np.empty(n, dtype=np.int64)
    out_den_rows = np.empty(n, dtype=np.int64)
    out_gap = np.zeros(1, dtype=np.float64)

    # Named locals keep every marshalled array alive across the call.
    conn_node_a = _arr(conn_node)
    conn_size_a = _arr(conn_size)
    conn_deadline_a = _arr(conn_deadline)
    conn_cid_a = _arr(conn_cid)
    conn_links_a = np.array(conn_links or [0], dtype=np.uint64)
    plan_tx_a = _arr(plan_tx_rows)
    plan_den_a = _arr(plan_den_rows)
    ret = fn(
        n,
        s,
        n_slots,
        slot_length,
        limit,
        rt_lo,
        rt_hi,
        1 if log_map else 0,
        levels,
        horizon,
        _p(gap_matrix),
        n_pre,
        n_rel,
        _p(m_node),
        _p(m_size),
        _p(m_sent),
        _p(m_deadline),
        _p(m_created),
        _p(m_id),
        _p(m_cid),
        _p(m_links),
        _p(m_status),
        _p(m_completed),
        _p(rel_slot),
        _p(rel_conn),
        len(conns),
        _p(conn_node_a),
        _p(conn_size_a),
        _p(conn_deadline_a),
        _p(conn_cid_a),
        _p(conn_links_a),
        id0,
        n_cids,
        _p(touched),
        plan.master,
        plan.gap_s,
        plan.n_requests,
        len(plan_tx_rows),
        _p(plan_tx_a),
        len(plan_den_rows),
        _p(plan_den_a),
        sim._prev_master,
        _p(heap_cap),
        1 if sim.fast_forward else 0,
        ff_open,
        1 if final else 0,
        records.ptr if records is not None else None,
        records.cap if records is not None else 0,
        records.callback if records is not None else _NO_DRAIN,
        _p(facc),
        _p(iacc),
        _p(master_count),
        _p(hop_count),
        _p(del_rows),
        _p(touch_out),
        _p(out_tx_rows),
        _p(out_den_rows),
        _p(out_gap),
    )
    if records is not None and records.failure:
        raise records.failure[0]
    if ret != 0:
        raise RuntimeError(f"compiled slot kernel failed (code {ret})")

    # --- fold the outputs back into the Python object graph ------------
    n_del = int(iacc[7])
    n_touch = int(iacc[8])
    statuses = m_status.tolist()
    sents = m_sent.tolist()
    completeds = m_completed.tolist()
    createds = m_created.tolist()
    deadlines = m_deadline.tolist()
    cids_of_row = m_cid.tolist()

    # Connection-stats entries, created in the kernel's first-touch order
    # (release or delivery, whichever came first) == dict insertion order.
    for di in touch_out[:n_touch].tolist():
        cid = cid_list[di]
        if cid not in per_connection:
            per_connection[cid] = ConnectionStats(cid)

    per_class = report.per_class
    rt_stats = per_class[RT]
    registry = metrics.registry
    if n_rel:
        rt_stats.released += n_rel
        rel_counts = np.bincount(rel_conn, minlength=len(conns)).tolist()
        for c, k in enumerate(rel_counts):
            if k:
                per_connection[cid_list[conn_cid[c]]].released += k
        if registry is not None:
            registry.counters["sim:released"] += n_rel

    missed_total = 0
    if n_del:
        delivered_rows = del_rows[:n_del].tolist()
        lat_append = rt_stats.latencies_slots.append
        cstat_cache: dict[int, ConnectionStats] = {}
        hist = None
        if registry is not None:
            registry.counters["sim:delivered"] += n_del
            hist = registry.histograms.get("sim:latency_slots")
            if hist is None:
                hist = registry.histograms["sim:latency_slots"] = Histogram()
        rt_stats.delivered += n_del
        for row in delivered_rows:
            latency = completeds[row] - createds[row] + 1
            lat_append(latency)
            missed = completeds[row] > deadlines[row]
            if missed:
                missed_total += 1
                rt_stats.deadline_missed += 1
            else:
                rt_stats.deadline_met += 1
            di = cids_of_row[row]
            if di >= 0:
                cstat = cstat_cache.get(di)
                if cstat is None:
                    cstat = cstat_cache[di] = per_connection[cid_list[di]]
                cstat.delivered += 1
                cstat.latencies_slots.append(latency)
                if missed:
                    cstat.deadline_missed += 1
                else:
                    cstat.deadline_met += 1
            if hist is not None:
                hist.count += 1
                hist.total += latency
                if latency < hist.min:
                    hist.min = latency
                if latency > hist.max:
                    hist.max = latency
                # latency >= 1: the log2 bucket is the bit length
                hist.buckets[latency.bit_length()] += 1
        if registry is not None and missed_total:
            registry.counters["sim:deadline_missed"] += missed_total

    report.wall_time_s = float(facc[0])
    report.slot_time_s = float(facc[1])
    report.gap_time_s = float(facc[2])
    report.slots_simulated += n_slots
    report.busy_slots += int(iacc[0])
    report.packets_sent += int(iacc[1])
    report.wasted_grants += int(iacc[2])
    report.break_denials += int(iacc[3])
    master_slots = report.master_slots
    for i, v in enumerate(master_count.tolist()):
        if v:
            master_slots[i] += v
    handover_hops = report.handover_hops
    for i, v in enumerate(hop_count.tolist()):
        if v:
            handover_hops[i] += v

    # --- write the message/queue state back ----------------------------
    # Pre-existing objects mutate in place; new messages materialise only
    # while still live (delivered releases never escaped the kernel and
    # are unobservable, exactly like the oracle's garbage).
    _STATUS = (PENDING, IN_TRANSIT, DELIVERED)
    for row, msg in enumerate(pre_objs):
        msg.sent_slots = sents[row]
        st = statuses[row]
        msg.status = _STATUS[st]
        if st == 2:
            msg.completed_slot = completeds[row]
    live_by_node: list[list[tuple[int, int, Message]]] = [[] for _ in range(n)]
    for row, msg in enumerate(pre_objs):
        if statuses[row] != 2:
            live_by_node[msg.source].append(
                (deadlines[row], msg.msg_id, msg)
            )
    new_objs: dict[int, Message] = {}
    if n_rel:
        ids = m_id.tolist()
        nodes = m_node.tolist()
        sizes = m_size.tolist()
        for row in range(n_pre, n_rows):
            st = statuses[row]
            if st == 2:
                continue
            c = int(rel_conn[row - n_pre])
            msg = Message(
                nodes[row],
                conns[c].destinations,
                RT,
                sizes[row],
                createds[row],
                deadlines[row],
                conns[c].connection_id,
                ids[row],
                sents[row],
                _STATUS[st],
                period_slots=conns[c].period_slots,
            )
            new_objs[row] = msg
            live_by_node[nodes[row]].append((deadlines[row], ids[row], msg))
    for i in range(n):
        q = queues[i]
        entries = live_by_node[i]
        heapify(entries)
        q._rt[:] = entries
        q._head_valid = False

    def _obj(row: int) -> Message:
        return pre_objs[row] if row < n_pre else new_objs[row]

    links_list = m_links.tolist()
    nodes_list = m_node.tolist()
    transmissions = []
    for row in out_tx_rows[: int(iacc[9])].tolist():
        msg = _obj(row)
        transmissions.append(
            PlannedTransmission(
                node=nodes_list[row],
                message=msg,
                links=links_list[row],
                destinations=msg.destinations,
            )
        )
    denied = []
    for row in out_den_rows[: int(iacc[10])].tolist():
        msg = _obj(row)
        denied.append(
            PlannedTransmission(
                node=nodes_list[row],
                message=msg,
                links=links_list[row],
                destinations=msg.destinations,
            )
        )
    sim.current_slot = end
    sim._prev_master = int(iacc[4])
    sim._plan = SlotPlan(
        transmit_slot=end,
        master=int(iacc[5]),
        gap_s=float(out_gap[0]),
        transmissions=tuple(transmissions),
        denied_by_break=tuple(denied),
        n_requests=int(iacc[6]),
    )
    return int(iacc[12]), int(iacc[11])
