/* Closed-world CCR-EDF slot micro-kernel.
 *
 * Compiled lazily by repro.sim.vector.ckernel and loaded via ctypes.
 * Executes the per-slot pipeline of repro.sim.engine.Simulation for the
 * strict configuration subset the glue admits (periodic RT-connection
 * traffic only, logarithmic/linear laxity mapping, no drop-late, no
 * faults, no slot traces) and is bit-identical to the oracle for it:
 * the float accumulators advance by the same IEEE-754 double additions
 * in the same order (no reassociation -- never build with -ffast-math),
 * the priority buckets use the same libm log2 the interpreter calls,
 * grants sweep (priority desc, node asc) with the oracle's break-slot
 * denial and spatial-reuse overlap rules, and idle spans fast-forward
 * exactly where the oracle's run() would.
 *
 * All protocol state lives in flat arrays handed in by the glue: a
 * message table (pre-existing live messages first, rows for scheduled
 * releases after), per-node EDF heaps keyed (deadline, msg_id), and a
 * precomputed release schedule sorted (slot, source index) -- the
 * oracle's source polling order.  The glue folds the outputs (delivery
 * log, accounting, final plan) back into the Python object graph.
 *
 * Observed runs pass a bounded int64 record buffer: each slot appends
 * the oracle's event stream for it (denial for the next slot, hand-over,
 * slot; or one span record per fast-forwarded idle span) as fixed-layout
 * records, and a full buffer is handed to the drain callback before the
 * loop continues in the same call.  The record layout is not written
 * here: the REC_* macros are defined on the compiler command line from
 * repro.obs.records.EVENT_RECORDS, the table the Python decoder reads.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifndef REC_SLOT_WORDS
#error "record layout missing: build through repro.sim.vector.ckernel"
#endif

/* Drain callback: consume rec[0, n_words); nonzero aborts the run. */
typedef int64_t (*drain_fn)(int64_t n_words);

static inline int64_t double_bits(double value) {
    int64_t bits;
    memcpy(&bits, &value, sizeof bits);
    return bits;
}

/* Message status codes (mirror repro.core.messages.MessageStatus). */
#define ST_PENDING 0
#define ST_IN_TRANSIT 1
#define ST_DELIVERED 2

typedef struct {
    int64_t deadline;
    int64_t msg_id;
    int64_t row;
} Ent;

/* (deadline, msg_id) lexicographic compare -- msg_id is globally unique,
 * so the order is total and matches the Python tuple heaps. */
static inline int ent_lt(const Ent *a, const Ent *b) {
    if (a->deadline != b->deadline) {
        return a->deadline < b->deadline;
    }
    return a->msg_id < b->msg_id;
}

static void heap_push(Ent *heap, int64_t *size, Ent item) {
    int64_t i = (*size)++;
    heap[i] = item;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ent_lt(&heap[i], &heap[parent])) {
            break;
        }
        Ent tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
}

static void heap_pop(Ent *heap, int64_t *size) {
    int64_t n = --(*size);
    if (n == 0) {
        return;
    }
    heap[0] = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        int64_t r = l + 1;
        int64_t smallest = i;
        if (l < n && ent_lt(&heap[l], &heap[smallest])) {
            smallest = l;
        }
        if (r < n && ent_lt(&heap[r], &heap[smallest])) {
            smallest = r;
        }
        if (smallest == i) {
            return;
        }
        Ent tmp = heap[smallest];
        heap[smallest] = heap[i];
        heap[i] = tmp;
        i = smallest;
    }
}

/* iacc output slots. */
#define IA_BUSY 0
#define IA_PACKETS 1
#define IA_WASTED 2
#define IA_DENIALS 3
#define IA_PREV_MASTER 4
#define IA_MASTER 5
#define IA_NREQ 6
#define IA_NDEL 7
#define IA_NTOUCH 8
#define IA_NTX 9
#define IA_NDEN 10
#define IA_FF 11
#define IA_FF_OPEN 12

int64_t repro_run_ckernel(
    int64_t n, int64_t start_slot, int64_t n_slots, double slot_length,
    int64_t limit, int64_t rt_lo, int64_t rt_hi, int64_t log_map,
    int64_t levels, int64_t horizon, const double *gap_matrix,
    /* message table, n_pre live rows prefilled + n_rel release rows */
    int64_t n_pre, int64_t n_rel, int64_t *m_node, int64_t *m_size,
    int64_t *m_sent, int64_t *m_deadline, int64_t *m_created, int64_t *m_id,
    int64_t *m_cid, uint64_t *m_links, int64_t *m_status, int64_t *m_completed,
    /* release schedule, sorted (slot, source index) */
    const int64_t *rel_slot, const int64_t *rel_conn,
    /* per-connection constants */
    int64_t n_conns, const int64_t *conn_node, const int64_t *conn_size,
    const int64_t *conn_deadline, const int64_t *conn_cid,
    const uint64_t *conn_links, int64_t id0,
    /* per-connection-id first-touch state (dense cid index space) */
    int64_t n_cids, int64_t *touched,
    /* pending plan (decided last slot, executes first) */
    int64_t p_master, double p_gap, int64_t p_nreq, int64_t p_ntx,
    const int64_t *p_tx_rows_in, int64_t p_nden, const int64_t *p_den_rows_in,
    int64_t prev_master,
    /* per-node heap capacities */
    const int64_t *heap_cap,
    /* idle-span fast-forward (the engine's run() semantics); ff_open is
     * the first slot of a span the previous window ended inside (-1:
     * none), final whether this window ends the engine's run() */
    int64_t ff_enabled, int64_t ff_open, int64_t final,
    /* event records: NULL rec when unobserved */
    int64_t *rec, int64_t rec_cap, drain_fn drain,
    /* outputs */
    double *facc /* wall, slot_t, gap_t (in/out) */, int64_t *iacc,
    int64_t *master_count, int64_t *hop_count, int64_t *del_rows,
    int64_t *touch_out, int64_t *out_tx_rows, int64_t *out_den_rows,
    double *out_gap) {
    if (n <= 0 || n > 62) {
        return -1;
    }
    /* Worst case one slot appends: denial + hand-over + slot records. */
    int64_t rec_slot_max = REC_ARBITRATION_WORDS + n * REC_ARBITRATION_TAIL +
                           REC_HANDOVER_WORDS + REC_SLOT_WORDS +
                           n * REC_SLOT_TAIL;
    if (rec != NULL && (drain == NULL || rec_cap < rec_slot_max ||
                        rec_cap < REC_FAST_FORWARD_WORDS)) {
        return -5;
    }
    int64_t rc = 0;

    /* Per-node heap arena. */
    int64_t total_cap = 0;
    for (int64_t i = 0; i < n; i++) {
        total_cap += heap_cap[i];
    }
    Ent *arena = (Ent *)malloc((size_t)(total_cap > 0 ? total_cap : 1) *
                               sizeof(Ent));
    /* Scratch: hoff | hsz | head_row | order | eff_rows */
    int64_t *hoff = (int64_t *)malloc((size_t)n * 5 * sizeof(int64_t));
    uint64_t *okey = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    /* Plan rows: cur_tx | cur_den | nxt_tx | nxt_den (swapped per slot,
     * so the allocation base is kept apart). */
    int64_t *plan_rows = (int64_t *)malloc((size_t)n * 4 * sizeof(int64_t));
    if (arena == NULL || hoff == NULL || okey == NULL || plan_rows == NULL) {
        rc = -2;
        goto done;
    }
    int64_t *hsz = hoff + n;
    int64_t *head_row = hsz + n;
    int64_t *order = head_row + n;
    int64_t *eff_rows = order + n;
    int64_t *cur_tx = plan_rows;
    int64_t *cur_den = cur_tx + n;
    int64_t *nxt_tx = cur_den + n;
    int64_t *nxt_den = nxt_tx + n;

    int64_t off = 0;
    for (int64_t i = 0; i < n; i++) {
        hoff[i] = off;
        hsz[i] = 0;
        off += heap_cap[i];
    }

    /* Seed the heaps with the pre-existing live messages. */
    for (int64_t row = 0; row < n_pre; row++) {
        int64_t node = m_node[row];
        Ent e = {m_deadline[row], m_id[row], row};
        if (hsz[node] >= heap_cap[node]) {
            rc = -3;
            goto done;
        }
        heap_push(arena + hoff[node], &hsz[node], e);
    }

    for (int64_t j = 0; j < p_ntx && j < n; j++) {
        cur_tx[j] = p_tx_rows_in[j];
    }
    for (int64_t j = 0; j < p_nden && j < n; j++) {
        cur_den[j] = p_den_rows_in[j];
    }

    double wall = facc[0];
    double slot_t = facc[1];
    double gap_t = facc[2];
    int64_t busy = 0, packets = 0, wasted = 0, denials = 0;
    int64_t n_del = 0, n_touch = 0, ff_slots = 0;
    int64_t rel_ptr = 0;
    int64_t rec_pos = 0;
    int64_t s = start_slot;
    int64_t end = start_slot + n_slots;

    while (s < end) {
        /* Idle fast-forward: the oracle skips a stationary idle plan up
         * to the next release (or the run's end) in one span; each
         * skipped slot repeats the idle slot's accounting exactly. */
        int64_t target = s;
        if (ff_enabled && p_nreq == 0 && p_ntx == 0 && p_nden == 0 &&
            p_gap == 0.0 && p_master == prev_master) {
            target = rel_ptr < n_rel ? rel_slot[rel_ptr] : end;
            if (target > end) {
                target = end;
            }
        }
        int64_t skipped = target - s;
        if (skipped > 0) {
            for (int64_t j = 0; j < skipped; j++) {
                wall += slot_length;
                slot_t += slot_length;
            }
            master_count[p_master] += skipped;
            hop_count[0] += skipped;
            ff_slots += skipped;
            if (ff_open < 0) {
                ff_open = s;
            }
            s = target;
        }
        /* A span ends at a release or at the end of the engine's run();
         * one carried in from the previous window may end right here. */
        if (ff_open >= 0 && (s < end || final)) {
            if (rec != NULL) {
                if (rec_pos + REC_FAST_FORWARD_WORDS > rec_cap) {
                    if (drain(rec_pos) != 0) {
                        rc = -4;
                        goto done;
                    }
                    rec_pos = 0;
                }
                int64_t *r = rec + rec_pos;
                r[0] = REC_FAST_FORWARD;
                r[REC_FAST_FORWARD_SLOT_START] = ff_open;
                r[REC_FAST_FORWARD_SLOT_END] = s;
                r[REC_FAST_FORWARD_N_SLOTS] = s - ff_open;
                r[REC_FAST_FORWARD_MASTER] = p_master;
                rec_pos += REC_FAST_FORWARD_WORDS;
            }
            ff_open = -1;
        }
        if (skipped > 0) {
            continue;
        }
        /* This slot's event counters (released, delivered, missed). */
        int64_t ev_rel = 0, ev_del = 0, ev_miss = 0, n_eff = 0;

        /* (a) traffic release: the precomputed schedule, in the oracle's
         * (slot, source index) polling order. */
        while (rel_ptr < n_rel && rel_slot[rel_ptr] <= s) {
            int64_t c = rel_conn[rel_ptr];
            int64_t row = n_pre + rel_ptr;
            int64_t node = conn_node[c];
            int64_t deadline = s + conn_deadline[c];
            m_node[row] = node;
            m_size[row] = conn_size[c];
            m_sent[row] = 0;
            m_deadline[row] = deadline;
            m_created[row] = s;
            m_id[row] = id0 + rel_ptr;
            m_cid[row] = conn_cid[c];
            m_links[row] = conn_links[c];
            m_status[row] = ST_PENDING;
            m_completed[row] = -1;
            if (hsz[node] >= heap_cap[node]) {
                rc = -3;
                goto done;
            }
            Ent e = {deadline, id0 + rel_ptr, row};
            heap_push(arena + hoff[node], &hsz[node], e);
            int64_t ci = conn_cid[c];
            if (ci >= 0 && !touched[ci]) {
                touched[ci] = 1;
                touch_out[n_touch++] = ci;
            }
            rel_ptr++;
            ev_rel++;
        }

        /* (b) drop-late: excluded from the closed world. */

        /* (c) execute the pending plan, in grant order. */
        for (int64_t j = 0; j < p_ntx; j++) {
            int64_t row = cur_tx[j];
            if (m_status[row] == ST_DELIVERED) {
                wasted++;
                continue;
            }
            int64_t remaining = m_size[row] - m_sent[row];
            m_sent[row] += 1;
            if (remaining == 1) {
                m_status[row] = ST_DELIVERED;
                m_completed[row] = s;
                del_rows[n_del++] = row;
                ev_del++;
                if (s > m_deadline[row]) {
                    ev_miss++;
                }
                int64_t ci = m_cid[row];
                if (ci >= 0 && !touched[ci]) {
                    touched[ci] = 1;
                    touch_out[n_touch++] = ci;
                }
            } else {
                m_status[row] = ST_IN_TRANSIT;
            }
            eff_rows[n_eff++] = row;
        }
        if (n_eff) {
            busy++;
            packets += n_eff;
        }
        denials += p_nden;

        /* (d) per-slot accounting: the oracle's exact double additions. */
        if (p_gap != 0.0) {
            wall += slot_length + p_gap;
            gap_t += p_gap;
        } else {
            wall += slot_length;
        }
        slot_t += slot_length;
        master_count[p_master]++;
        int64_t hop = 0;
        if (p_master != prev_master) {
            hop = (p_master - prev_master) % n;
            if (hop < 0) {
                hop += n;
            }
        }
        hop_count[hop]++;

        /* (e) plan the next slot: EDF heads, mapped priorities, grant
         * sweep in (priority desc, node asc) order. */
        int64_t n_active = 0;
        for (int64_t i = 0; i < n; i++) {
            Ent *heap = arena + hoff[i];
            while (hsz[i] > 0 && m_status[heap[0].row] == ST_DELIVERED) {
                heap_pop(heap, &hsz[i]);
            }
            if (hsz[i] == 0) {
                head_row[i] = -1;
                continue;
            }
            int64_t row = heap[0].row;
            head_row[i] = row;
            int64_t lax =
                m_deadline[row] - s - (m_size[row] - m_sent[row]) + 1;
            int64_t prio;
            if (lax <= 0) {
                prio = rt_hi;
            } else if (log_map) {
                /* Same libm log2 + C truncation the interpreter runs. */
                int64_t bucket = (int64_t)log2((double)(lax + 1));
                prio = rt_hi - bucket;
                if (prio < rt_lo) {
                    prio = rt_lo;
                }
            } else {
                int64_t bucket = (lax * levels) / horizon;
                prio = rt_hi - bucket;
                if (prio < rt_lo) {
                    prio = rt_lo;
                }
            }
            /* Packed key: descending == (priority desc, node asc). */
            okey[i] = ((uint64_t)prio << 16) | (uint64_t)(0xFFFF - i);
            order[n_active++] = i;
        }

        int64_t q_master, q_nreq = n_active, q_ntx = 0, q_nden = 0;
        double q_gap;
        if (n_active) {
            /* Insertion sort, descending key (n <= 62). */
            for (int64_t a = 1; a < n_active; a++) {
                int64_t node = order[a];
                uint64_t key = okey[node];
                int64_t b = a - 1;
                while (b >= 0 && okey[order[b]] < key) {
                    order[b + 1] = order[b];
                    b--;
                }
                order[b + 1] = node;
            }
            int64_t hp = order[0];
            int64_t break_bit = (hp - 1) % n;
            if (break_bit < 0) {
                break_bit += n;
            }
            uint64_t break_mask = (uint64_t)1 << break_bit;
            uint64_t occupied = 0;
            int64_t granted = 0;
            for (int64_t a = 0; a < n_active; a++) {
                if (granted >= limit) {
                    break;
                }
                int64_t node = order[a];
                uint64_t lk = m_links[head_row[node]];
                if (lk == 0) {
                    continue;
                }
                if (lk & break_mask) {
                    nxt_den[q_nden++] = head_row[node];
                    continue;
                }
                if (occupied & lk) {
                    continue;
                }
                nxt_tx[q_ntx++] = head_row[node];
                occupied |= lk;
                granted++;
            }
            q_master = hp;
            q_gap = gap_matrix[p_master * n + hp];
        } else {
            q_master = p_master;
            q_gap = 0.0;
        }

        /* (f) event records, in the oracle's per-slot order: the
         * denial of the plan just made (for s + 1), the hand-over that
         * preceded slot s, then slot s itself. */
        if (rec != NULL) {
            if (rec_pos + rec_slot_max > rec_cap) {
                if (drain(rec_pos) != 0) {
                    rc = -4;
                    goto done;
                }
                rec_pos = 0;
            }
            int64_t *r = rec + rec_pos;
            if (q_nden) {
                r[0] = REC_ARBITRATION;
                r[REC_ARBITRATION_SLOT] = s + 1;
                r[REC_ARBITRATION_N_NODES] = q_nden;
                int64_t *t = r + REC_ARBITRATION_WORDS;
                for (int64_t j = 0; j < q_nden; j++) {
                    t[j * REC_ARBITRATION_TAIL + REC_ARBITRATION_TAIL_NODE] =
                        m_node[nxt_den[j]];
                }
                r = t + q_nden * REC_ARBITRATION_TAIL;
            }
            if (hop) {
                r[0] = REC_HANDOVER;
                r[REC_HANDOVER_SLOT] = s;
                r[REC_HANDOVER_FROM_NODE] = prev_master;
                r[REC_HANDOVER_TO_NODE] = p_master;
                r[REC_HANDOVER_HOPS] = hop;
                r[REC_HANDOVER_GAP_BITS] = double_bits(p_gap);
                r += REC_HANDOVER_WORDS;
            }
            r[0] = REC_SLOT;
            r[REC_SLOT_SLOT] = s;
            r[REC_SLOT_MASTER] = p_master;
            r[REC_SLOT_GAP_BITS] = double_bits(p_gap);
            r[REC_SLOT_N_REQUESTS] = q_nreq;
            r[REC_SLOT_RELEASED] = ev_rel;
            r[REC_SLOT_DELIVERED] = ev_del;
            r[REC_SLOT_MISSED] = ev_miss;
            r[REC_SLOT_DROPPED] = 0; /* drop-late is outside the world */
            r[REC_SLOT_N_TX] = n_eff;
            int64_t *t = r + REC_SLOT_WORDS;
            for (int64_t j = 0; j < n_eff; j++) {
                t[j * REC_SLOT_TAIL + REC_SLOT_TAIL_NODE] = m_node[eff_rows[j]];
                t[j * REC_SLOT_TAIL + REC_SLOT_TAIL_MSG_ID] = m_id[eff_rows[j]];
            }
            rec_pos = (t + n_eff * REC_SLOT_TAIL) - rec;
        }

        /* (g) rotate the pipeline. */
        prev_master = p_master;
        p_master = q_master;
        p_gap = q_gap;
        p_nreq = q_nreq;
        p_ntx = q_ntx;
        p_nden = q_nden;
        int64_t *swap = cur_tx;
        cur_tx = nxt_tx;
        nxt_tx = swap;
        swap = cur_den;
        cur_den = nxt_den;
        nxt_den = swap;
        s++;
    }

    if (rec != NULL && rec_pos > 0 && drain(rec_pos) != 0) {
        rc = -4;
        goto done;
    }

    facc[0] = wall;
    facc[1] = slot_t;
    facc[2] = gap_t;
    iacc[IA_BUSY] = busy;
    iacc[IA_PACKETS] = packets;
    iacc[IA_WASTED] = wasted;
    iacc[IA_DENIALS] = denials;
    iacc[IA_PREV_MASTER] = prev_master;
    iacc[IA_MASTER] = p_master;
    iacc[IA_NREQ] = p_nreq;
    iacc[IA_NDEL] = n_del;
    iacc[IA_NTOUCH] = n_touch;
    iacc[IA_NTX] = p_ntx;
    iacc[IA_NDEN] = p_nden;
    iacc[IA_FF] = ff_slots;
    iacc[IA_FF_OPEN] = ff_open;
    for (int64_t j = 0; j < p_ntx; j++) {
        out_tx_rows[j] = cur_tx[j];
    }
    for (int64_t j = 0; j < p_nden; j++) {
        out_den_rows[j] = cur_den[j];
    }
    *out_gap = p_gap;

done:
    free(arena);
    free(hoff);
    free(okey);
    free(plan_rows);
    return rc;
}
