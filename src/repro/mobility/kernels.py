"""Native step kernel: the vectorized engine's fast path.

The vectorized engine keeps every vehicle in resident NumPy arrays, but the
front-to-back recurrence inside each lane (a follower's update reads its
leader's *post-step* state) is inherently sequential.  This module compiles
the whole gather→advance→scatter inner step into one native call: a single
sequential sweep over the gathered columns, lane heads delimiting the
chains — exactly the reference engine's per-vehicle operation sequence, so
the result is bit-for-bit identical to the scalar engine (the golden-trace
suites pin this).  Further entry points evaluate the lane-change candidate
predicate (the ``LaneChangeModel.wants_to_change`` scan), the per-edge
gather, the both-neighbour lane-change viability test and the overtake
ranking scan over the engine's per-edge pointer tables, and two point
edits keep those tables: ``lane_insert`` / ``lane_remove`` patch one
edge's gathered slot array — which is also its lane structure, lanes back
to back, each front to back in ``(-pos, vid)`` order — its lane bounds and
the lane-head flags in place on every placement, removal and lane change.
One more entry
point serves routing rather than the step: ``bidir_dijkstra``, the
bidirectional shortest-path search a frozen road network runs on a
route-cache miss (:class:`RouteKernel`, over a CSR form of the network's
travel-time adjacency).

The engine has one reference path and one fast path.  ``vectorized=False``
is the reference; ``vectorized=True`` loads this kernel.  The kernel is a
small C translation unit compiled at first use with the system C compiler
into a process-lifetime temporary directory and loaded through
:class:`ctypes.PyDLL`, so the calls keep the GIL: each lasts microseconds,
and releasing the GIL around it would hand the interpreter to another
thread (a second service worker, say) on every call.  It is compiled with
``-ffp-contract=off`` and no ``-ffast-math``/``-march``, so every operation
is a plain IEEE-754 double op in source order (no FMA contraction), and
with explicit ternary min/max that return the *first* operand on ties —
mirroring Python's ``min``/``max`` (relevant for ``max(0.0, -0.0)``).  On a
host with no C compiler :func:`load_step_kernel` returns ``None`` and the
engine runs its reference loops instead (``TrafficEngine.vectorized`` then
reads ``False``).

Bitwise-equivalence contract
----------------------------
The kernel must reproduce :meth:`SimplifiedIDM.advance` (with
:meth:`SimplifiedIDM.target_speed`) operation for operation, as written
out in :func:`advance_chain_py`:

* free speed: ``vfree = clip(free, v - decel*dt, v + accel*dt)``, bitwise
  the scalar two-branch form — when ``v < free`` the upper bound binds
  exactly like ``min(free, v + accel*dt)`` and the lower bound, below
  ``v``, cannot; symmetrically for deceleration;
* head update: ``new_pos = min(pos + max(0, vfree)*dt, length)``;
* follower update: the gap / safe-speed / ceiling sequence against the
  leader's just-written post-step state (the in-place sweep makes the
  gather order supply it naturally);
* the products ``accel*dt`` / ``decel*dt`` and the headway denominator
  ``max(dt + headway*0.25, 1e-9)`` are computed *once* in Python and passed
  in — the same double values the scalar model computes per vehicle.

:func:`advance_chain_py`, :func:`lane_change_candidates_py`,
:func:`gather_all_py`, :func:`lane_options_py`,
:func:`rank_scan_all_py`, :func:`lane_insert_py` and :func:`lane_remove_py`
are the executable specifications: plain Python
(plus ctypes dereferencing for the pointer-table sweeps), usable as
property-test oracles against the C entry points.  The route search's
oracle is :func:`repro.roadnet.routing._bidirectional_dijkstra`, which it
matches node for node — same alternation, relaxation order and strict
tests, and a heap keyed on the same unique ``(dist, insertion counter)``
pairs, so it pops in ``heapq``'s order; that Python search is also the
only fallback (no compiler, or an unfrozen network).

A :class:`StepKernel` is driven one way: the engine *binds* its resident
arrays, pointer tables and preallocated output buffers once per capacity
change (:meth:`StepKernel.bind`) and then issues the ``*_bound`` calls with
just an element count — every pointer and scalar is cached as a ready
``ctypes`` argument, cutting per-step FFI overhead to a single foreign
call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "advance_chain_py",
    "lane_change_candidates_py",
    "gather_all_py",
    "rank_scan_all_py",
    "lane_options_py",
    "lane_insert_py",
    "lane_remove_py",
    "available_backends",
    "load_step_kernel",
    "load_route_kernel",
    "RouteKernel",
    "StepKernel",
]


def advance_chain_py(
    idx: Any,
    pos: Any,
    speed: Any,
    freeflow: Any,
    seglen: Any,
    heads: Any,
    waitflag: Any,
    newly: Any,
    moved: Any,
    dt: float,
    accel_dt: float,
    decel_dt: float,
    denom: float,
    veh_len: float,
    min_gap: float,
    arrival_eps: float,
) -> int:
    """Reference chained advance over gathered columns (pure Python).

    ``idx`` maps gather order to resident-array slots; ``heads`` (slot
    indexed, like every input column) marks the front vehicle of each lane
    chain, so the in-lane leader of a non-head gather index ``i`` is gather
    index ``i-1``.  Updates ``pos``/``speed`` in place (slot-indexed),
    which hands each follower its leader's post-step state for free, and
    fills the *gather-aligned* ``newly`` (arrived and not yet flagged
    waiting) and ``moved`` (position changed) output masks.

    This function is the specification the C kernel is tested against.
    Returns the number of ``newly`` bits set (saving callers a mask
    reduction).  Ternary ``if``/``else``
    min/max (first operand on ties) mirror Python's builtins — keep them, or the
    ``max(0.0, -0.0)`` sign bit diverges from the scalar engine.
    """
    n = idx.shape[0]
    lead_pos = 0.0
    lead_speed = 0.0
    n_newly = 0
    for i in range(n):
        slot = idx[i]
        p = pos[slot]
        v = speed[slot]
        free = freeflow[slot]
        length = seglen[slot]
        # vfree = clip(free, v - decel*dt, v + accel*dt)
        vfree = free
        lo = v - decel_dt
        hi = v + accel_dt
        if vfree < lo:
            vfree = lo
        if vfree > hi:
            vfree = hi
        if heads[slot]:
            nv = vfree if vfree > 0.0 else 0.0  # max(0.0, vfree)
            np_ = p + nv * dt
            if np_ > length:
                np_ = length
        else:
            gap = lead_pos - p - veh_len
            if gap <= min_gap:
                nv = 0.0
            else:
                usable = gap - min_gap + lead_speed * dt
                safe = usable / denom
                nv = safe if safe < vfree else vfree  # min(vfree, safe)
                if not nv > 0.0:  # max(0.0, nv): first operand on ties
                    nv = 0.0
            np_ = p + nv * dt
            ceiling = lead_pos - veh_len - min_gap * 0.5
            if np_ > ceiling:
                np_ = ceiling if ceiling > p else p  # max(p, ceiling)
                nv = (np_ - p) / dt
            if np_ > length:
                np_ = length
            nv = nv if nv > 0.0 else 0.0  # max(0.0, nv)
        pos[slot] = np_
        speed[slot] = nv
        moved[i] = np_ != p
        arrived = (np_ >= length - arrival_eps) and not waitflag[slot]
        newly[i] = arrived
        if arrived:
            n_newly += 1
        lead_pos = np_
        lead_speed = nv
    return n_newly


def lane_change_candidates_py(
    idx: Any,
    pos: Any,
    speed: Any,
    desired: Any,
    multilane: Any,
    heads: Any,
    cand: Any,
    blocked_m: float,
    gain_mps: float,
) -> int:
    """Reference lane-change candidate predicate (pure Python).

    Gather-aligned port of :meth:`LaneChangeModel.wants_to_change`: a
    vehicle is a candidate when it is a follower (not a lane head) on a
    multilane segment whose in-lane leader (gather index ``i-1``) is both
    close (``gap <= blocked_m``) and slow (``desired - leader_speed >
    gain_mps``).  All inputs are slot-indexed resident columns; ``cand`` is
    the gather-aligned output mask.  The comparisons are the exact float
    operations of the scalar predicate, so the masks are identical bit for
    bit.
    """
    n = idx.shape[0]
    if n == 0:
        return 0
    n_cand = 0
    cand[0] = False
    for i in range(1, n):
        slot = idx[i]
        if multilane[slot] and not heads[slot]:
            lead = idx[i - 1]
            c = (pos[lead] - pos[slot]) <= blocked_m and (
                desired[slot] - speed[lead]
            ) > gain_mps
            cand[i] = c
            if c:
                n_cand += 1
        else:
            cand[i] = False
    return n_cand


def _deref_i64(addr: int, n: int) -> np.ndarray:
    """View ``n`` int64 values at ``addr`` (pointer-table oracle helper)."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ptr = ctypes.cast(int(addr), ctypes.POINTER(ctypes.c_int64))
    return np.ctypeslib.as_array(ptr, shape=(n,))


def gather_all_py(
    occ: Any,
    ptrs: Any,
    lens: Any,
    out: Any,
) -> int:
    """Reference pointer-table gather (Python + ctypes dereference).

    ``occ[:m]`` lists the occupied edge indices in gather order; ``ptrs[e]``
    / ``lens[e]`` give the address and length of edge ``e``'s cached slot
    array.  Copies the per-edge arrays back to back into ``out`` and returns
    the total element count.
    """
    total = 0
    for j in range(occ.shape[0]):
        e = int(occ[j])
        ln = int(lens[e])
        out[total:total + ln] = _deref_i64(int(ptrs[e]), ln)
        total += ln
    return total


def lane_options_py(
    e: int,
    lane: int,
    nlanes: int,
    own: float,
    half: float,
    gptrs: Any,
    bptrs: Any,
    pos: Any,
) -> int:
    """Reference both-neighbour lane-change viability (Python + ctypes).

    Bit 0: ``lane + 1`` exists and is gap-clear of ``own``; bit 1: same for
    ``lane - 1``.  ``gptrs[e]`` addresses edge ``e``'s gathered slot array
    and ``bptrs[e]`` its per-lane cumulative bounds.  Same |other - own| <
    half comparison as the scalar model's lane scan.
    """
    bounds = _deref_i64(int(bptrs[e]), int(nlanes) + 1)
    slots = _deref_i64(int(gptrs[e]), int(bounds[nlanes]))
    ret = 0
    for d in (0, 1):
        target = lane - 1 if d else lane + 1
        if target < 0 or target >= nlanes:
            continue
        ok = 1
        for k in range(int(bounds[target]), int(bounds[target + 1])):
            if abs(float(pos[slots[k]]) - own) < half:
                ok = 0
                break
        ret |= ok << d
    return ret


def rank_scan_all_py(
    elig: Any,
    ptrs_s: Any,
    ptrs_v: Any,
    lens: Any,
    pos: Any,
    flags: Any,
) -> int:
    """Reference full-range overtake-ranking scan (Python + ctypes).

    Iterates *every* edge, skipping those not flagged eligible (multilane,
    more than one occupied lane, ranking cache fresh — the engine maintains
    ``elig`` at invalidation time), and reads each eligible edge's cached
    ascending (slot, vid) ranking through its table pointers.  ``flags[e]``
    is set when any adjacent pair inverted — post-step position strictly
    decreasing, or a positional tie whose vid order disagrees — i.e.
    exactly when the engine must enumerate that edge's overtakes; it is
    written for the whole edge range every call.
    """
    n_edges = elig.shape[0]
    n_flagged = 0
    for e in range(n_edges):
        bad = False
        if elig[e]:
            ln = int(lens[e])
            slots = _deref_i64(int(ptrs_s[e]), ln)
            vids = _deref_i64(int(ptrs_v[e]), ln)
            for k in range(1, ln):
                a = pos[slots[k - 1]]
                b = pos[slots[k]]
                if b < a or (b == a and vids[k - 1] > vids[k]):
                    bad = True
                    break
        flags[e] = bad
        if bad:
            n_flagged += 1
    return n_flagged


def lane_insert_py(
    e: int,
    lane: int,
    nlanes: int,
    slot: int,
    gptrs: Any,
    glens: Any,
    bptrs: Any,
    pos: Any,
    vids: Any,
    heads: Any,
) -> int:
    """Reference lane-table insert (Python + ctypes dereference).

    Edge ``e``'s gathered slot array (``gptrs[e]``, room for one more
    entry) holds its lanes back to back, each front to back in ``(-pos,
    vid)`` order, delimited by the cumulative bounds at ``bptrs[e]``.  Puts
    ``slot`` into ``lane`` at :func:`bisect.bisect_left`'s position on that
    key, shifts the later slots up, bumps the later bounds and
    ``glens[e]``, and sets the head flags (the new slot leads iff it went
    first; the old head then follows).  Returns the lane's count after.
    """
    bounds = _deref_i64(int(bptrs[e]), int(nlanes) + 1)
    n = int(bounds[nlanes])
    slots = _deref_i64(int(gptrs[e]), n + 1)
    start, end = int(bounds[lane]), int(bounds[lane + 1])
    at = start + bisect_left(
        slots[start:end].tolist(),
        (-pos[slot], vids[slot]),
        key=lambda s: (-pos[s], vids[s]),
    )
    slots[at + 1:n + 1] = slots[at:n].copy()
    slots[at] = slot
    bounds[lane + 1:] += 1
    glens[e] = n + 1
    heads[slot] = at == start
    if at == start and end > start:
        heads[slots[at + 1]] = False
    return end + 1 - start


def lane_remove_py(
    e: int,
    lane: int,
    nlanes: int,
    slot: int,
    gptrs: Any,
    glens: Any,
    bptrs: Any,
    heads: Any,
) -> int:
    """Reference lane-table removal (Python + ctypes dereference).

    Drops ``slot`` from ``lane``'s span of edge ``e`` (tables as in
    :func:`lane_insert_py`), shifts the later slots down, decrements the
    later bounds and ``glens[e]``, and promotes the follower to head when
    the removed slot led.  Returns the lane's count after, or -1 when the
    slot is not in the lane.
    """
    bounds = _deref_i64(int(bptrs[e]), int(nlanes) + 1)
    n = int(bounds[nlanes])
    slots = _deref_i64(int(gptrs[e]), n)
    start, end = int(bounds[lane]), int(bounds[lane + 1])
    span = slots[start:end].tolist()
    if slot not in span:
        return -1
    at = start + span.index(slot)
    slots[at:n - 1] = slots[at + 1:n].copy()
    bounds[lane + 1:] -= 1
    glens[e] = n - 1
    if at == start and end - 1 > start:
        heads[slots[start]] = True
    return end - 1 - start


# --------------------------------------------------------------------- C
# The same sweeps in C.  MAXF/MINF return the FIRST operand on ties, like
# Python's max/min (fmax/fmin would normalize -0.0 away).  Compiled without
# -ffast-math / -march and with -ffp-contract=off: every expression is the
# plain IEEE double op sequence written here.
_C_SOURCE = r"""
#include <stdint.h>

#define MAXF(a, b) (((b) > (a)) ? (b) : (a))
#define MINF(a, b) (((b) < (a)) ? (b) : (a))

int64_t advance_chain(
    const int64_t *idx, int64_t n,
    double *pos, double *speed,
    const double *freeflow, const double *seglen,
    const unsigned char *heads,
    const unsigned char *waitflag,
    unsigned char *newly, unsigned char *moved,
    double dt, double accel_dt, double decel_dt, double denom,
    double veh_len, double min_gap, double arrival_eps)
{
    double lead_pos = 0.0, lead_speed = 0.0;
    int64_t n_newly = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t slot = idx[i];
        double p = pos[slot];
        double v = speed[slot];
        double vfree = freeflow[slot];
        double length = seglen[slot];
        double lo = v - decel_dt, hi = v + accel_dt;
        double nv, np;
        if (vfree < lo) vfree = lo;
        if (vfree > hi) vfree = hi;
        if (heads[slot]) {
            nv = MAXF(0.0, vfree);
            np = p + nv * dt;
            if (np > length) np = length;
        } else {
            double gap = lead_pos - p - veh_len;
            if (gap <= min_gap) {
                nv = 0.0;
            } else {
                double usable = gap - min_gap + lead_speed * dt;
                double safe = usable / denom;
                nv = MAXF(0.0, MINF(vfree, safe));
            }
            np = p + nv * dt;
            double ceiling = lead_pos - veh_len - min_gap * 0.5;
            if (np > ceiling) {
                np = MAXF(p, ceiling);
                nv = (np - p) / dt;
            }
            if (np > length) np = length;
            nv = MAXF(0.0, nv);
        }
        pos[slot] = np;
        speed[slot] = nv;
        moved[i] = (np != p);
        newly[i] = (np >= length - arrival_eps) && !waitflag[slot];
        n_newly += newly[i];
        lead_pos = np;
        lead_speed = nv;
    }
    return n_newly;
}

int64_t lane_change_candidates(
    const int64_t *idx, int64_t n,
    const double *pos, const double *speed, const double *desired,
    const unsigned char *multilane, const unsigned char *heads,
    unsigned char *cand,
    double blocked_m, double gain_mps)
{
    int64_t n_cand = 0;
    if (n == 0) return 0;
    cand[0] = 0;
    for (int64_t i = 1; i < n; i++) {
        int64_t slot = idx[i];
        if (multilane[slot] && !heads[slot]) {
            int64_t lead = idx[i - 1];
            cand[i] = ((pos[lead] - pos[slot]) <= blocked_m)
                   && ((desired[slot] - speed[lead]) > gain_mps);
            n_cand += cand[i];
        } else {
            cand[i] = 0;
        }
    }
    return n_cand;
}

/* Pointer-table entry points.  The engine maintains, per edge, the address
 * and length of its cached gather / ranking arrays (updated only when a
 * cache entry is rebuilt — a handful of edges per step); these sweeps then
 * walk every edge natively, so the steady-state step does no per-edge
 * Python work at all.  Addresses arrive as int64 values (numpy owns the
 * arrays and keeps them alive; the engine refreshes a table slot whenever
 * its array is reallocated). */

int64_t gather_all(
    const int64_t *occ, int64_t m,
    const int64_t *ptrs, const int64_t *lens,
    int64_t *out)
{
    int64_t total = 0;
    for (int64_t j = 0; j < m; j++) {
        int64_t e = occ[j];
        const int64_t *src = (const int64_t *)(intptr_t)ptrs[e];
        int64_t len = lens[e];
        for (int64_t k = 0; k < len; k++) out[total + k] = src[k];
        total += len;
    }
    return total;
}

/* Both-neighbour lane-change viability for one candidate: bit 0 set when
 * lane+1 exists and has no vehicle within ``half`` of ``own``, bit 1
 * likewise for lane-1.  Reads the candidate edge's gathered slots through
 * the gather pointer table and its per-lane sub-spans through the lane
 * bounds table (``lanes + 1`` cumulative offsets per edge).  The gap
 * comparison is |other - own| < half, the exact float sequence of the
 * scalar model. */
int64_t lane_options(
    int64_t e, int64_t lane, int64_t nlanes, double own, double half,
    const int64_t *gptrs, const int64_t *bptrs, const double *pos)
{
    const int64_t *slots = (const int64_t *)(intptr_t)gptrs[e];
    const int64_t *bounds = (const int64_t *)(intptr_t)bptrs[e];
    int64_t ret = 0;
    for (int64_t d = 0; d < 2; d++) {
        int64_t target = d ? lane - 1 : lane + 1;
        if (target < 0 || target >= nlanes) continue;
        int64_t ok = 1;
        for (int64_t k = bounds[target]; k < bounds[target + 1]; k++) {
            double diff = pos[slots[k]] - own;
            if (diff < 0.0) diff = -diff;
            if (diff < half) { ok = 0; break; }
        }
        ret |= ok << d;
    }
    return ret;
}

/* Lane-table edits.  Each edge's gathered slot array is also its lane
 * structure: lane l's vehicles occupy slots[bounds[l] .. bounds[l + 1]),
 * front to back in (-pos, vid) order, and each lane's first slot carries the
 * head flag.  lane_insert puts ``slot`` at Python's bisect_left position on
 * that key (same probe sequence, so the same index even on a span that is
 * not sorted), shifts the later slots up by one (the caller guarantees room
 * for one more), bumps the later lane bounds and the edge's gather length,
 * and moves the head flag when the new slot leads its lane.  lane_remove
 * drops ``slot`` from its lane span and promotes its follower to head when
 * it led.  Both return the lane's vehicle count afterwards (lane_remove: -1
 * when the slot is not in the lane). */
int64_t lane_insert(
    int64_t e, int64_t lane, int64_t nlanes, int64_t slot,
    const int64_t *gptrs, int64_t *glens, const int64_t *bptrs,
    const double *pos, const int64_t *vids, unsigned char *heads)
{
    int64_t *slots = (int64_t *)(intptr_t)gptrs[e];
    int64_t *bounds = (int64_t *)(intptr_t)bptrs[e];
    int64_t start = bounds[lane];
    int64_t lo = 0, hi = bounds[lane + 1] - start;
    double p = pos[slot];
    int64_t v = vids[slot];
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        int64_t s = slots[start + mid];
        if (pos[s] > p || (pos[s] == p && vids[s] < v)) lo = mid + 1;
        else hi = mid;
    }
    int64_t at = start + lo;
    int64_t len = bounds[nlanes];
    for (int64_t k = len; k > at; k--) slots[k] = slots[k - 1];
    slots[at] = slot;
    for (int64_t l = lane + 1; l <= nlanes; l++) bounds[l]++;
    glens[e] = len + 1;
    int64_t count = bounds[lane + 1] - start;
    if (lo == 0) {
        heads[slot] = 1;
        if (count > 1) heads[slots[at + 1]] = 0;
    } else {
        heads[slot] = 0;
    }
    return count;
}

int64_t lane_remove(
    int64_t e, int64_t lane, int64_t nlanes, int64_t slot,
    const int64_t *gptrs, int64_t *glens, const int64_t *bptrs,
    unsigned char *heads)
{
    int64_t *slots = (int64_t *)(intptr_t)gptrs[e];
    int64_t *bounds = (int64_t *)(intptr_t)bptrs[e];
    int64_t start = bounds[lane], end = bounds[lane + 1];
    int64_t at = start;
    while (at < end && slots[at] != slot) at++;
    if (at == end) return -1;
    int64_t len = bounds[nlanes];
    for (int64_t k = at; k < len - 1; k++) slots[k] = slots[k + 1];
    for (int64_t l = lane + 1; l <= nlanes; l++) bounds[l]--;
    glens[e] = len - 1;
    int64_t count = end - 1 - start;
    if (at == start && count > 0) heads[slots[start]] = 1;
    return count;
}

int64_t rank_scan_all(
    const unsigned char *elig, int64_t n_edges,
    const int64_t *ptrs_s, const int64_t *ptrs_v, const int64_t *lens,
    const double *pos, unsigned char *flags)
{
    int64_t n_flagged = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        unsigned char bad = 0;
        if (elig[e]) {
            const int64_t *slots = (const int64_t *)(intptr_t)ptrs_s[e];
            const int64_t *vids = (const int64_t *)(intptr_t)ptrs_v[e];
            int64_t len = lens[e];
            for (int64_t k = 1; k < len; k++) {
                double a = pos[slots[k - 1]];
                double b = pos[slots[k]];
                if (b < a || (b == a && vids[k - 1] > vids[k])) {
                    bad = 1;
                    break;
                }
            }
        }
        flags[e] = bad;
        n_flagged += bad;
    }
    return n_flagged;
}

/* Bidirectional Dijkstra over a CSR adjacency: the C port of
 * repro.roadnet.routing._bidirectional_dijkstra (itself a port of
 * networkx.bidirectional_dijkstra).  Same alternation between the forward
 * (d = 0, successors) and backward (d = 1, predecessors) searches, same
 * relaxation order (CSR rows keep each node's neighbour order), same strict
 * tests, and a binary heap keyed on (dist, insertion counter): the counter
 * is unique and shared by both directions, so the pop sequence is
 * heapq's.  Section d of ``off`` (n + 1 offsets), ``adj`` / ``wt`` (m
 * entries), ``seen`` / ``flags`` / ``preds`` (n entries) and ``heap``
 * (m + 1 entries: at most one push per relaxed edge, plus the seed) belongs
 * to direction d.  Writes the node-index path into ``path`` (room for 2n)
 * and returns its length, or -1 when no path exists. */

typedef struct { double d; int64_t c; int64_t v; } HeapEntry;

#define SEEN 1
#define FINAL 2

static int heap_less(const HeapEntry *a, const HeapEntry *b)
{
    return a->d < b->d || (a->d == b->d && a->c < b->c);
}

static void heap_push(HeapEntry *h, int64_t *len, HeapEntry e)
{
    int64_t i = (*len)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!heap_less(&e, &h[parent])) break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = e;
}

static HeapEntry heap_pop(HeapEntry *h, int64_t *len)
{
    HeapEntry top = h[0];
    int64_t n = --(*len);
    if (n > 0) {
        HeapEntry last = h[n];
        int64_t i = 0;
        for (;;) {
            int64_t child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && heap_less(&h[child + 1], &h[child])) child++;
            if (!heap_less(&h[child], &last)) break;
            h[i] = h[child];
            i = child;
        }
        h[i] = last;
    }
    return top;
}

int64_t bidir_dijkstra(
    int64_t n, int64_t m, int64_t source, int64_t target,
    const int64_t *off, const int64_t *adj, const double *wt,
    double *seen, unsigned char *flags, int64_t *preds, HeapEntry *heap,
    int64_t *path)
{
    if (source == target) {
        path[0] = source;
        return 1;
    }
    for (int64_t i = 0; i < 2 * n; i++) flags[i] = 0;
    int64_t hlen[2] = {0, 0};
    int64_t counter = 0;
    int64_t ends[2] = {source, target};
    for (int d = 0; d < 2; d++) {
        int64_t v = ends[d];
        flags[d * n + v] = SEEN;
        seen[d * n + v] = 0.0;
        preds[d * n + v] = -1;
        HeapEntry e = {0.0, counter++, v};
        heap_push(heap + d * (m + 1), &hlen[d], e);
    }
    int has_final = 0;
    double finaldist = 0.0;
    int64_t meet = -1;
    int d = 1;
    while (hlen[0] && hlen[1]) {
        d = 1 - d;
        int o = 1 - d;
        HeapEntry top = heap_pop(heap + d * (m + 1), &hlen[d]);
        int64_t v = top.v;
        double dist = top.d;
        if (flags[d * n + v] & FINAL) continue;
        flags[d * n + v] |= FINAL;
        if (flags[o * n + v] & FINAL) {
            /* meet is always set here: v is SEEN in both directions, and
             * the later of those two marks was a relaxation that found v
             * in the other direction's seen set. */
            int64_t k = 0;
            for (int64_t x = meet; x != -1; x = preds[x]) path[k++] = x;
            for (int64_t a = 0, b = k - 1; a < b; a++, b--) {
                int64_t t = path[a]; path[a] = path[b]; path[b] = t;
            }
            for (int64_t x = preds[n + meet]; x != -1; x = preds[n + x]) path[k++] = x;
            return k;
        }
        const int64_t *row = off + d * (n + 1);
        for (int64_t j = row[v]; j < row[v + 1]; j++) {
            int64_t w = adj[d * m + j];
            double vw_length = dist + wt[d * m + j];
            if (flags[d * n + w] & FINAL) continue;
            if (!(flags[d * n + w] & SEEN) || vw_length < seen[d * n + w]) {
                flags[d * n + w] |= SEEN;
                seen[d * n + w] = vw_length;
                HeapEntry e = {vw_length, counter++, w};
                heap_push(heap + d * (m + 1), &hlen[d], e);
                preds[d * n + w] = v;
                if (flags[o * n + w] & SEEN) {
                    double total = vw_length + seen[o * n + w];
                    if (!has_final || finaldist > total) {
                        has_final = 1;
                        finaldist = total;
                        meet = w;
                    }
                }
            }
        }
    }
    return -1;
}
"""


_VP = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double

#: argtypes of every C entry point (all return int64).
_SIGNATURES = {
    "advance_chain": [_VP, _I64, _VP, _VP, _VP, _VP, _VP, _VP, _VP, _VP,
                      _F64, _F64, _F64, _F64, _F64, _F64, _F64],
    "lane_change_candidates": [_VP, _I64, _VP, _VP, _VP, _VP, _VP, _VP, _F64, _F64],
    "gather_all": [_VP, _I64, _VP, _VP, _VP],
    "lane_options": [_I64, _I64, _I64, _F64, _F64, _VP, _VP, _VP],
    "rank_scan_all": [_VP, _I64, _VP, _VP, _VP, _VP, _VP],
    "lane_insert": [_I64, _I64, _I64, _I64, _VP, _VP, _VP, _VP, _VP, _VP],
    "lane_remove": [_I64, _I64, _I64, _I64, _VP, _VP, _VP, _VP],
    "bidir_dijkstra": [_I64, _I64, _I64, _I64, _VP, _VP, _VP, _VP, _VP, _VP, _VP, _VP],
}


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    """A ready ctypes pointer argument to ``arr``'s data."""
    return ctypes.c_void_p(arr.ctypes.data)


class StepKernel:
    """The loaded C kernel, bound to one engine's model parameters.

    The engine holds one instance per run (the model parameters never
    change mid-run) and re-:meth:`bind`\\ s it whenever its resident arrays
    are reallocated.
    """

    # Count-only calls installed by :meth:`bind`:
    #: advance over ``idx_buf[:n]``; returns the newly-arrived count.
    advance_bound: Callable[[int], int]
    #: candidate mask into ``cand_buf[:n]``; returns the candidate count.
    candidates_bound: Callable[[int], int]
    #: pointer-table gather of the first ``m`` occupied edges into
    #: ``idx_buf``; returns the total gathered count.
    gather_bound: Callable[[int], int]
    #: full-range ranking scan into ``flags_buf``; returns the flagged count.
    rank_all_bound: Callable[[], int]
    #: both-neighbour viability bits ``(e, lane, nlanes, own) -> bits``.
    lane_opts_bound: Callable[[int, int, int, float], int]
    #: lane-table insert ``(e, lane, nlanes, slot) -> lane count after``.
    lane_insert_bound: Callable[[int, int, int, int], int]
    #: lane-table removal ``(e, lane, nlanes, slot) -> lane count after``.
    lane_remove_bound: Callable[[int, int, int, int], int]

    def __init__(
        self,
        lib: Any,
        params: Tuple[float, float, float, float, float, float, float],
    ) -> None:
        self._lib = lib
        self._params = params

    def bind(
        self,
        idx_buf: np.ndarray,
        pos: np.ndarray,
        speed: np.ndarray,
        freeflow: np.ndarray,
        seglen: np.ndarray,
        heads: np.ndarray,
        waitflag: np.ndarray,
        newly_buf: np.ndarray,
        moved_buf: np.ndarray,
        desired: np.ndarray,
        multilane: np.ndarray,
        cand_buf: np.ndarray,
        blocked_m: float,
        gain_mps: float,
        *,
        flags_buf: np.ndarray,
        occ_buf: np.ndarray,
        gather_ptr: np.ndarray,
        gather_len: np.ndarray,
        rank_elig: np.ndarray,
        rank_ptr_s: np.ndarray,
        rank_ptr_v: np.ndarray,
        rank_len: np.ndarray,
        bounds_ptr: np.ndarray,
        gap_half_m: float,
        vids: np.ndarray,
    ) -> None:
        """Cache the engine's arrays for count-only per-step calls.

        The gather lands in ``idx_buf`` (through the ``occ_buf`` /
        ``gather_ptr`` / ``gather_len`` tables), advance outputs in
        ``newly_buf[:n]`` / ``moved_buf[:n]``, the candidate mask in
        ``cand_buf[:n]`` and the ranking-scan flags in ``flags_buf``
        (through the ``rank_*`` tables).  The lane-table edits patch the
        per-edge slot arrays, ``gather_len``, the bounds and ``heads`` in
        place, reading ``pos`` and the slot-indexed ``vids`` for their sort
        key.  The caller must re-bind whenever
        any array is *reallocated* (the engine does so on capacity growth);
        in-place writes — including pointer-table slot updates — need no
        re-bind.
        """
        lib = self._lib
        adv_sym = lib.advance_chain
        cand_sym = lib.lane_change_candidates
        gather_sym = lib.gather_all
        rank_all_sym = lib.rank_scan_all
        lane_opts_sym = lib.lane_options
        insert_sym = lib.lane_insert
        remove_sym = lib.lane_remove
        # Pre-converted ctypes arguments: each per-step call is a single
        # FFI invocation with only the count varying.
        idx_c = _ptr(idx_buf)
        pos_c = _ptr(pos)
        adv_rest = (
            pos_c, _ptr(speed), _ptr(freeflow), _ptr(seglen), _ptr(heads),
            _ptr(waitflag), _ptr(newly_buf), _ptr(moved_buf),
            *[ctypes.c_double(x) for x in self._params],
        )
        cand_rest = (
            pos_c, _ptr(speed), _ptr(desired), _ptr(multilane), _ptr(heads),
            _ptr(cand_buf), ctypes.c_double(blocked_m), ctypes.c_double(gain_mps),
        )
        occ_c = _ptr(occ_buf)
        gather_rest = (_ptr(gather_ptr), _ptr(gather_len), idx_c)
        rank_args = (
            _ptr(rank_elig), ctypes.c_int64(rank_elig.shape[0]),
            _ptr(rank_ptr_s), _ptr(rank_ptr_v), _ptr(rank_len),
            pos_c, _ptr(flags_buf),
        )
        lane_rest = (
            ctypes.c_double(gap_half_m), _ptr(gather_ptr), _ptr(bounds_ptr), pos_c,
        )
        tables = (_ptr(gather_ptr), _ptr(gather_len), _ptr(bounds_ptr))
        insert_rest = (*tables, pos_c, _ptr(vids), _ptr(heads))
        remove_rest = (*tables, _ptr(heads))

        def advance_bound(n: int) -> int:
            return adv_sym(idx_c, n, *adv_rest)

        def candidates_bound(n: int) -> int:
            return cand_sym(idx_c, n, *cand_rest)

        def gather_bound(m: int) -> int:
            return gather_sym(occ_c, m, *gather_rest)

        def rank_all_bound() -> int:
            return rank_all_sym(*rank_args)

        def lane_opts_bound(e: int, lane: int, nlanes: int, own: float) -> int:
            return lane_opts_sym(e, lane, nlanes, own, *lane_rest)

        def lane_insert_bound(e: int, lane: int, nlanes: int, slot: int) -> int:
            return insert_sym(e, lane, nlanes, slot, *insert_rest)

        def lane_remove_bound(e: int, lane: int, nlanes: int, slot: int) -> int:
            return remove_sym(e, lane, nlanes, slot, *remove_rest)

        self.advance_bound = advance_bound
        self.candidates_bound = candidates_bound
        self.gather_bound = gather_bound
        self.rank_all_bound = rank_all_bound
        self.lane_opts_bound = lane_opts_bound
        self.lane_insert_bound = lane_insert_bound
        self.lane_remove_bound = lane_remove_bound


class RouteKernel:
    """Native bidirectional Dijkstra over one frozen network's adjacency.

    Holds the CSR form of a ``(successors, predecessors)`` adjacency pair
    (:meth:`repro.roadnet.graph.RoadNetwork.travel_time_adjacency`): node
    indices in the adjacency's key order, each node's row in its exact
    neighbour order, which keeps the heap tie-breaks — and so the returned
    paths — those of :func:`repro.roadnet.routing._bidirectional_dijkstra`,
    the Python oracle.  The search scratch is allocated once and reused:
    calls hold the GIL (``PyDLL``), so no two threads are ever inside the
    search at once, while every call gets its own path buffer, so a result
    is never read from shared memory after the foreign call returns.
    """

    def __init__(self, lib: Any, succ: Dict[Any, Any], pred: Dict[Any, Any]) -> None:
        nodes = tuple(succ)
        index = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        off = np.zeros(2 * (n + 1), dtype=np.int64)
        adj: List[int] = []
        wt: List[float] = []
        for d, table in enumerate((succ, pred)):
            base = len(adj)
            for i, v in enumerate(nodes):
                for w, cost in table[v]:
                    adj.append(index[w])
                    wt.append(cost)
                off[d * (n + 1) + i + 1] = len(adj) - base
        m = len(adj) // 2
        self._nodes = nodes
        self._index = index
        self._n = n
        # Kept alive here: the foreign call only sees their addresses.
        self._arrays = (
            off,
            np.asarray(adj, dtype=np.int64),
            np.asarray(wt, dtype=np.float64),
            np.empty(2 * n, dtype=np.float64),  # seen distances
            np.zeros(2 * n, dtype=np.uint8),  # SEEN / FINAL flags
            np.empty(2 * n, dtype=np.int64),  # predecessors
            np.empty(2 * (m + 1) * 3, dtype=np.float64),  # heap: (d, c, v)
        )
        sym = lib.bidir_dijkstra
        n_c, m_c = ctypes.c_int64(n), ctypes.c_int64(m)
        rest = tuple(_ptr(a) for a in self._arrays)

        def search(source: int, target: int, path: int) -> int:
            return int(sym(n_c, m_c, source, target, *rest, path))

        self._search = search

    def route(self, source: object, target: object) -> Optional[List[object]]:
        """The node path from ``source`` to ``target``, or ``None`` when
        there is none.  Both must be nodes of the adjacency."""
        path = np.empty(2 * self._n, dtype=np.int64)
        k = self._search(self._index[source], self._index[target], path.ctypes.data)
        if k < 0:
            return None
        nodes = self._nodes
        return [nodes[i] for i in path[:k].tolist()]


def load_route_kernel(succ: Dict[Any, Any], pred: Dict[Any, Any]) -> Optional[RouteKernel]:
    """A :class:`RouteKernel` over this adjacency pair, or ``None`` when the
    C kernel cannot be built here (routing then stays in Python)."""
    lib = _load_cc()
    if lib is None:
        return None
    return RouteKernel(lib, succ, pred)


# The loaded library, cached per process: ``False`` = not tried yet,
# ``None`` = tried and unavailable.  ``_LOCK`` serializes the first load,
# so concurrent first callers all wait for the one build instead of
# seeing it as unavailable while it runs.
_LOCK = threading.Lock()
_C_LIB: Any = False
_TMPDIR: Optional["tempfile.TemporaryDirectory[str]"] = None


def _build_cc() -> Any:
    """Compile and load the C kernel; ``None`` when that is impossible."""
    global _TMPDIR
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    try:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-kernel-")
        digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        src = os.path.join(tmpdir.name, f"kernel_{digest}.c")
        path = os.path.join(tmpdir.name, f"kernel_{digest}.so")
        with open(src, "w") as fh:
            fh.write(_C_SOURCE)
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off", src, "-o", path],
            check=True,
            capture_output=True,
            timeout=120,
        )
        lib = ctypes.PyDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    for name, argtypes in _SIGNATURES.items():
        sym = getattr(lib, name)
        sym.argtypes = argtypes
        sym.restype = ctypes.c_int64
    _TMPDIR = tmpdir
    return lib


def _load_cc() -> Any:
    """The loaded C library, building it on the first call (thread-safe)."""
    global _C_LIB
    with _LOCK:
        if _C_LIB is False:
            _C_LIB = _build_cc()
        return _C_LIB


def available_backends() -> List[str]:
    """``["cc"]`` when the native kernel loads here, else ``[]``."""
    return [] if _load_cc() is None else ["cc"]


def load_step_kernel(
    *,
    dt_s: float,
    max_accel_mps2: float,
    max_decel_mps2: float,
    headway_s: float,
    vehicle_length_m: float,
    min_gap_m: float,
    arrival_eps_m: float,
) -> Optional[StepKernel]:
    """Load the native kernel bound to these parameters.

    Returns ``None`` when it cannot be built (no C compiler) — the engine
    then runs its reference loops, which are bit-identical.
    """
    lib = _load_cc()
    if lib is None:
        return None
    # The headway denominator, computed once exactly as
    # SimplifiedIDM.target_speed does.
    denom = max(dt_s + headway_s * 0.25, 1e-9)
    params = (
        float(dt_s),
        float(max_accel_mps2 * dt_s),
        float(max_decel_mps2 * dt_s),
        float(denom),
        float(vehicle_length_m),
        float(min_gap_m),
        float(arrival_eps_m),
    )
    return StepKernel(lib, params)
