"""The native step kernel vs. its pure-Python oracles.

:mod:`repro.mobility.kernels` ships executable specifications
(``advance_chain_py`` and friends) and one native backend, a C library
built with the system compiler.  Every entry point must reproduce its
oracle *bit for bit* on randomized inputs — positions and speeds compared
with ``array_equal`` plus a sign-bit check (``array_equal`` alone does not
distinguish ``-0.0`` from ``0.0``), never ``allclose``.  Each entry point
is driven the way the engine drives it: arrays bound once with
:meth:`StepKernel.bind`, then the count-only ``*_bound`` call.

When the kernel cannot load, the loader must return ``None`` and a
vectorized engine must run the reference loops with an identical event
stream — the fallback tests below monkeypatch the loader cache to simulate
a host with no C compiler, so CI exercises the fallback even where cc
exists.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mobility import kernels
from repro.mobility.kernels import (
    advance_chain_py,
    available_backends,
    gather_all_py,
    lane_change_candidates_py,
    lane_insert_py,
    lane_options_py,
    lane_remove_py,
    load_step_kernel,
    rank_scan_all_py,
)

PARAMS = dict(
    dt_s=0.5,
    max_accel_mps2=2.0,
    max_decel_mps2=4.0,
    headway_s=1.2,
    vehicle_length_m=4.5,
    min_gap_m=2.0,
    arrival_eps_m=0.5,
)


@pytest.fixture
def kernel():
    k = load_step_kernel(**PARAMS)
    if k is None:
        pytest.skip("no C compiler here: the native kernel cannot load")
    return k


def _bind(kernel, n, n_edges, **given):
    """Bind ``kernel`` to the ``given`` arrays and zero-filled defaults.

    ``n`` sizes the slot-indexed and gather-aligned arrays, ``n_edges`` the
    per-edge tables.  Returns every bound argument: the caller holds it
    while it issues ``*_bound`` calls, which see only raw addresses.
    """
    z = np.zeros
    args = dict(
        idx_buf=z(n, dtype=np.intp), pos=z(n), speed=z(n), freeflow=z(n),
        seglen=z(n), heads=z(n, dtype=np.uint8), waitflag=z(n, dtype=np.uint8),
        newly_buf=z(n, dtype=bool), moved_buf=z(n, dtype=bool), desired=z(n),
        multilane=z(n, dtype=np.uint8), cand_buf=z(n, dtype=bool),
        blocked_m=12.0, gain_mps=1.0,
        flags_buf=z(n_edges, dtype=np.uint8), occ_buf=z(n_edges, dtype=np.int64),
        gather_ptr=z(n_edges, dtype=np.int64), gather_len=z(n_edges, dtype=np.int64),
        rank_elig=z(n_edges, dtype=np.uint8), rank_ptr_s=z(n_edges, dtype=np.int64),
        rank_ptr_v=z(n_edges, dtype=np.int64), rank_len=z(n_edges, dtype=np.int64),
        bounds_ptr=z(n_edges, dtype=np.int64), gap_half_m=4.0,
        vids=z(n, dtype=np.int64),
    )
    args.update(given)
    kernel.bind(**args)
    return args


def _chain_inputs(rng, n):
    """Randomized gathered columns for the advance sweep.

    Bit-equality does not require physically plausible chains — both
    implementations must run the identical float sequence on *any* input —
    but the draws roughly resemble engine state (positions within segment
    length, small speeds) so the branches all get exercised, including the
    ceiling clamp and the ``max(0.0, -0.0)`` tie.
    """
    idx = rng.permutation(n).astype(np.intp)
    pos = rng.uniform(0.0, 120.0, n)
    speed = rng.uniform(0.0, 15.0, n)
    freeflow = rng.uniform(5.0, 15.0, n)
    seglen = rng.uniform(60.0, 120.0, n)
    heads = rng.random(n) < 0.3
    waitflag = rng.random(n) < 0.2
    return idx, pos, speed, freeflow, seglen, heads, waitflag


def _advance_args():
    dt = PARAMS["dt_s"]
    denom = max(dt + PARAMS["headway_s"] * 0.25, 1e-9)
    return (
        dt,
        PARAMS["max_accel_mps2"] * dt,
        PARAMS["max_decel_mps2"] * dt,
        denom,
        PARAMS["vehicle_length_m"],
        PARAMS["min_gap_m"],
        PARAMS["arrival_eps_m"],
    )


class TestAdvanceChain:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kernel_matches_oracle_bitwise(self, kernel, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        idx, pos, speed, freeflow, seglen, heads, waitflag = _chain_inputs(rng, n)
        heads = heads.astype(np.uint8)
        waitflag = waitflag.astype(np.uint8)
        newly_a = np.zeros(n, dtype=bool)
        moved_a = np.zeros(n, dtype=bool)
        newly_b = np.zeros(n, dtype=bool)
        moved_b = np.zeros(n, dtype=bool)
        pos_a, speed_a = pos.copy(), speed.copy()
        pos_b, speed_b = pos.copy(), speed.copy()
        ref = advance_chain_py(
            idx, pos_a, speed_a, freeflow, seglen, heads, waitflag,
            newly_a, moved_a, *_advance_args(),
        )
        bound = _bind(
            kernel, n, 1, idx_buf=idx, pos=pos_b, speed=speed_b,
            freeflow=freeflow, seglen=seglen, heads=heads, waitflag=waitflag,
            newly_buf=newly_b, moved_buf=moved_b,
        )
        got = kernel.advance_bound(n)
        assert got == ref
        assert np.array_equal(pos_a, pos_b)
        assert np.array_equal(speed_a, speed_b)
        # -0.0 vs 0.0 would pass array_equal; the sign bits must agree
        # too (the scalar engine's max(0.0, -0.0) contract).
        assert np.array_equal(np.signbit(speed_a), np.signbit(speed_b))
        assert np.array_equal(newly_a, newly_b)
        assert np.array_equal(moved_a, moved_b)

    def test_empty_chain(self, kernel):
        bound = _bind(kernel, 0, 1)
        assert kernel.advance_bound(0) == 0
        assert not bound["newly_buf"].any()


class TestLaneChangeCandidates:
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_kernel_matches_oracle(self, kernel, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        idx = rng.permutation(n).astype(np.intp)
        pos = rng.uniform(0.0, 100.0, n)
        speed = rng.uniform(0.0, 15.0, n)
        desired = rng.uniform(5.0, 15.0, n)
        multilane = (rng.random(n) < 0.7).astype(np.uint8)
        heads = (rng.random(n) < 0.3).astype(np.uint8)
        cand_a = np.zeros(n, dtype=bool)
        cand_b = np.zeros(n, dtype=bool)
        ref = lane_change_candidates_py(
            idx, pos, speed, desired, multilane, heads, cand_a, 12.0, 1.0
        )
        bound = _bind(
            kernel, n, 1, idx_buf=idx, pos=pos, speed=speed, desired=desired,
            multilane=multilane, heads=heads, cand_buf=cand_b,
            blocked_m=12.0, gain_mps=1.0,
        )
        got = kernel.candidates_bound(n)
        assert got == ref
        assert np.array_equal(cand_a, cand_b)


# ------------------------------------------------------------ pointer tables
def _edge_tables(rng, n_edges, n_slots):
    """Per-edge cached slot arrays plus their address/length tables.

    Returns the kept-alive array list alongside the tables — the oracle and
    the C sweep both read raw addresses, so the arrays must outlive the
    call exactly as the engine's per-edge caches do.
    """
    keep = []
    ptrs = np.zeros(n_edges, dtype=np.int64)
    lens = np.zeros(n_edges, dtype=np.int64)
    for e in range(n_edges):
        arr = rng.integers(0, n_slots, int(rng.integers(0, 7))).astype(np.int64)
        keep.append(arr)
        ptrs[e] = arr.ctypes.data
        lens[e] = arr.shape[0]
    return keep, ptrs, lens


class TestGatherAll:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_c_matches_oracle(self, kernel, seed):
        rng = np.random.default_rng(seed)
        n_edges = 10
        keep, ptrs, lens = _edge_tables(rng, n_edges, 30)
        occ = rng.permutation(n_edges)[: int(rng.integers(1, n_edges))].astype(np.int64)
        cap = int(lens.sum()) + 1
        out_a = np.zeros(cap, dtype=np.int64)
        out_b = np.zeros(cap, dtype=np.int64)
        ref = gather_all_py(occ, ptrs, lens, out_a)
        bound = _bind(
            kernel, cap, n_edges, idx_buf=out_b, occ_buf=occ,
            gather_ptr=ptrs, gather_len=lens,
        )
        got = kernel.gather_bound(occ.shape[0])
        assert got == ref
        assert np.array_equal(out_a[:ref], out_b[:ref])
        # the gather is the back-to-back concatenation in occ order
        expect = np.concatenate([keep[int(e)] for e in occ] or
                                [np.empty(0, dtype=np.int64)])
        assert np.array_equal(out_b[:got], expect)


class TestRankScanAll:
    @pytest.mark.parametrize("seed", [2, 13])
    def test_c_matches_oracle(self, kernel, seed):
        rng = np.random.default_rng(seed)
        n_edges, n_slots = 14, 40
        pos = rng.uniform(0.0, 50.0, n_slots).round(1)
        keep = []
        ptrs_s = np.zeros(n_edges, dtype=np.int64)
        ptrs_v = np.zeros(n_edges, dtype=np.int64)
        lens = np.zeros(n_edges, dtype=np.int64)
        elig = (rng.random(n_edges) < 0.6).astype(np.uint8)
        for e in range(n_edges):
            k = int(rng.integers(0, 6))
            s = rng.integers(0, n_slots, k).astype(np.int64)
            v = rng.integers(0, 10_000, k).astype(np.int64)
            keep.append((s, v))
            ptrs_s[e], ptrs_v[e], lens[e] = s.ctypes.data, v.ctypes.data, k
        flags_a = np.zeros(n_edges, dtype=np.uint8)
        flags_b = np.zeros(n_edges, dtype=np.uint8)
        ref = rank_scan_all_py(elig, ptrs_s, ptrs_v, lens, pos, flags_a)
        bound = _bind(
            kernel, n_slots, n_edges, pos=pos, flags_buf=flags_b,
            rank_elig=elig, rank_ptr_s=ptrs_s, rank_ptr_v=ptrs_v, rank_len=lens,
        )
        got = kernel.rank_all_bound()
        assert got == ref
        assert np.array_equal(flags_a, flags_b)
        # ineligible edges must never be flagged
        assert not np.any(flags_b[elig == 0])


class TestLaneOptions:
    @pytest.mark.parametrize("seed", [1, 8, 17])
    def test_c_matches_oracle(self, kernel, seed):
        rng = np.random.default_rng(seed)
        n_edges, n_slots = 6, 60
        pos = rng.uniform(0.0, 100.0, n_slots)
        keep = []
        gptrs = np.zeros(n_edges, dtype=np.int64)
        bptrs = np.zeros(n_edges, dtype=np.int64)
        nlanes_by_edge = rng.integers(1, 4, n_edges)
        for e in range(n_edges):
            nlanes = int(nlanes_by_edge[e])
            per_lane = [rng.integers(0, n_slots, int(rng.integers(0, 5))).astype(np.int64)
                        for _ in range(nlanes)]
            slots = np.concatenate(per_lane) if per_lane else np.empty(0, np.int64)
            bounds = np.zeros(nlanes + 1, dtype=np.int64)
            np.cumsum([len(p) for p in per_lane], out=bounds[1:])
            keep.append((slots, bounds))
            gptrs[e] = slots.ctypes.data
            bptrs[e] = bounds.ctypes.data
        for _ in range(20):
            e = int(rng.integers(0, n_edges))
            nlanes = int(nlanes_by_edge[e])
            lane = int(rng.integers(0, nlanes))
            own = float(rng.uniform(0.0, 100.0))
            half = float(rng.uniform(1.0, 20.0))
            ref = lane_options_py(e, lane, nlanes, own, half, gptrs, bptrs, pos)
            # ``half`` is bound, so each draw re-binds (as the engine would
            # for a new lane-change model).
            bound = _bind(
                kernel, n_slots, n_edges, pos=pos, gather_ptr=gptrs,
                bounds_ptr=bptrs, gap_half_m=half,
            )
            got = kernel.lane_opts_bound(e, lane, nlanes, own)
            assert got == ref
            assert 0 <= got <= 3

    def test_single_lane_has_no_options(self, kernel):
        slots = np.array([0], dtype=np.int64)
        bounds = np.array([0, 1], dtype=np.int64)
        gptrs = np.array([slots.ctypes.data], dtype=np.int64)
        bptrs = np.array([bounds.ctypes.data], dtype=np.int64)
        pos = np.array([5.0])
        bound = _bind(kernel, 1, 1, pos=pos, gather_ptr=gptrs, bounds_ptr=bptrs,
                      gap_half_m=4.0)
        assert kernel.lane_opts_bound(0, 0, 1, 50.0) == 0


# ------------------------------------------------------------ lane tables
class _LaneTable:
    """One edge's lane table (slot array, bounds, gather length), held at
    index 1 of two-entry pointer tables; entry 0 is a sentinel edge whose
    arrays must never be touched."""

    def __init__(self, nlanes, cap):
        self.slots = np.full(cap, -7, dtype=np.int64)
        self.bounds = np.zeros(nlanes + 1, dtype=np.int64)
        self.sentinel = np.full(4, -9, dtype=np.int64)
        self.gptrs = np.array([self.sentinel.ctypes.data, self.slots.ctypes.data],
                              dtype=np.int64)
        self.bptrs = np.array([self.sentinel.ctypes.data, self.bounds.ctypes.data],
                              dtype=np.int64)
        self.glens = np.zeros(2, dtype=np.int64)
        self.heads = np.zeros(cap, dtype=bool)

    def state(self):
        n = int(self.bounds[-1])
        return (self.slots[:n].tolist(), self.bounds.tolist(), self.glens.tolist(),
                self.heads.tolist(), self.sentinel.tolist())


#: Positions drawn for the lane-table edits: heavy ties at the segment
#: start (every crossing enters at 0.0) and at the segment end (queued
#: vehicles stop there), plus a few free values, so the ``(-pos, vid)``
#: tie-break decides most insert positions.
_LANE_POS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 100.0, 100.0, 99.5]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


class TestLaneTables:
    """``lane_insert`` / ``lane_remove`` against their oracles, driven
    through random insert / remove / lane-move sequences the way the
    engine drives them (a move is a removal then an insert)."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), nlanes=st.integers(min_value=1, max_value=4),
           n_slots=st.integers(min_value=1, max_value=24))
    def test_edit_sequences_match_oracle(self, kernel, data, nlanes, n_slots):
        pos = np.array(data.draw(st.lists(_LANE_POS, min_size=n_slots,
                                          max_size=n_slots)))
        vids = np.array(data.draw(st.permutations(range(n_slots))), dtype=np.int64)
        c_side, py_side = _LaneTable(nlanes, n_slots), _LaneTable(nlanes, n_slots)
        bound = _bind(kernel, n_slots, 2, pos=pos, vids=vids, heads=c_side.heads,
                      gather_ptr=c_side.gptrs, gather_len=c_side.glens,
                      bounds_ptr=c_side.bptrs)
        lane_of = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=60))):
            absent = [s for s in range(n_slots) if s not in lane_of]
            ops = (["insert"] if absent else []) + (["remove", "move"] if lane_of else [])
            op = data.draw(st.sampled_from(ops))
            if op == "insert":
                slot = data.draw(st.sampled_from(absent))
                # A placement gives the vehicle a fresh position first.
                pos[slot] = data.draw(_LANE_POS)
                targets = [data.draw(st.integers(0, nlanes - 1))]
            else:
                slot = data.draw(st.sampled_from(sorted(lane_of)))
                lane = lane_of.pop(slot)
                got = kernel.lane_remove_bound(1, lane, nlanes, slot)
                ref = lane_remove_py(1, lane, nlanes, slot, py_side.gptrs,
                                     py_side.glens, py_side.bptrs, py_side.heads)
                assert got == ref >= 0
                targets = [data.draw(st.integers(0, nlanes - 1))] if op == "move" else []
            for lane in targets:
                got = kernel.lane_insert_bound(1, lane, nlanes, slot)
                ref = lane_insert_py(1, lane, nlanes, slot, py_side.gptrs, py_side.glens,
                                     py_side.bptrs, pos, vids, py_side.heads)
                assert got == ref >= 1
                lane_of[slot] = lane
            assert c_side.state() == py_side.state()
            self._assert_sorted_lanes(c_side, pos, vids, lane_of, nlanes)
        # a slot that is not in the lane is reported, and nothing moves
        absent = [s for s in range(n_slots) if s not in lane_of]
        if absent:
            before = c_side.state()
            assert kernel.lane_remove_bound(1, 0, nlanes, absent[0]) == -1
            assert lane_remove_py(1, 0, nlanes, absent[0], c_side.gptrs, c_side.glens,
                                  c_side.bptrs, c_side.heads) == -1
            assert c_side.state() == before

    @staticmethod
    def _assert_sorted_lanes(table, pos, vids, lane_of, nlanes):
        """The table equals a from-scratch build: per lane, the member
        slots sorted by ``(-pos, vid)``, the first one flagged head."""
        lanes = [sorted((s for s, ln in lane_of.items() if ln == lane),
                        key=lambda s: (-pos[s], vids[s])) for lane in range(nlanes)]
        assert table.slots[:len(lane_of)].tolist() == [s for lane in lanes for s in lane]
        assert table.bounds.tolist() == np.cumsum([0] + [len(x) for x in lanes]).tolist()
        assert int(table.glens[1]) == len(lane_of)
        for lane in lanes:
            assert [bool(table.heads[s]) for s in lane] == [i == 0 for i in range(len(lane))]


# ------------------------------------------------------- bound convention
class TestBoundCalls:
    def test_bound_gather_matches_oracle(self, kernel):
        rng = np.random.default_rng(7)
        n_edges, n_slots = 8, 30
        keep, ptrs, lens = _edge_tables(rng, n_edges, n_slots)
        occ_buf = np.arange(n_edges, dtype=np.int64)
        cap = int(lens.sum()) + 1
        idx_buf = np.zeros(cap, dtype=np.intp)
        pos = rng.uniform(0.0, 50.0, n_slots)
        bound = _bind(
            kernel, cap, n_edges, idx_buf=idx_buf, pos=pos, occ_buf=occ_buf,
            gather_ptr=ptrs, gather_len=lens,
        )
        m = 5
        out_ref = np.zeros(cap, dtype=np.int64)
        ref = gather_all_py(occ_buf[:m], ptrs, lens, out_ref)
        got = kernel.gather_bound(m)
        assert got == ref
        assert np.array_equal(idx_buf[:got].astype(np.int64), out_ref[:ref])


# ------------------------------------------------------------ loading
class TestLoader:
    def test_loader_returns_none_without_a_compiler(self, monkeypatch):
        monkeypatch.setattr(kernels, "_C_LIB", False)
        monkeypatch.setattr(kernels.shutil, "which", lambda name: None)
        assert available_backends() == []
        assert load_step_kernel(**PARAMS) is None

    def test_concurrent_first_loads_all_get_the_kernel(self, kernel, monkeypatch):
        """Two threads loading for the first time at once must both get
        the native kernel: the second waits for the first one's build
        instead of seeing the load in progress as "unavailable"."""
        monkeypatch.setattr(kernels, "_C_LIB", False)
        monkeypatch.setattr(kernels, "_TMPDIR", None)
        barrier = threading.Barrier(2)
        got = {}

        def load(i):
            barrier.wait(timeout=60)
            got[i] = load_step_kernel(**PARAMS)

        threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
            assert not t.is_alive()
        assert sorted(got) == [0, 1]
        assert all(k is not None for k in got.values()), got
        assert available_backends() == ["cc"]

    def test_engine_falls_back_transparently(self, kernel, monkeypatch):
        """With the kernel unavailable a vectorized engine must run the
        reference loops and still produce the identical event stream."""
        from repro.mobility.demand import DemandConfig, DemandModel
        from repro.mobility.engine import TrafficEngine
        from repro.mobility.vehicle import Vehicle
        from repro.roadnet.builders import grid_network
        from repro.sim.config import MobilityConfig

        def event_key(event):
            # Vehicles by vid: ``repr(vehicle)`` prints the ``pos_m``
            # mirror, which the fast path syncs lazily.
            return (type(event).__name__,) + tuple(
                value.vid if isinstance(value, Vehicle) else value
                for value in (getattr(event, f.name) for f in dataclasses.fields(event))
            )

        def run(fallback):
            with monkeypatch.context() as m:
                if fallback:
                    m.setattr(kernels, "_C_LIB", None)
                    assert MobilityConfig().compiled is False
                net = grid_network(3, 3, lanes=2)
                eng = TrafficEngine(net, np.random.default_rng(3))
            assert eng.vectorized is not fallback
            assert (eng._kernel is None) == fallback
            dm = DemandModel(net, DemandConfig(volume_fraction=0.7),
                             np.random.default_rng(4))
            eng.spawn_initial(dm.initial_fleet())
            log = []
            for _ in range(200):
                log.extend(event_key(e) for e in eng.step())
            return log, [
                (v.vid, v.edge, v.lane, v.pos_m.hex(), v.speed_mps.hex())
                for v in sorted(eng.vehicles.values(), key=lambda v: v.vid)
            ]

        assert run(True)[0], "scenario produced no events — not a real check"
        assert run(True) == run(False)

    def test_available_backends_reports_this_environment(self):
        # Load-bearing: on any host with a system C compiler the native
        # kernel must actually build and load.
        import shutil

        if shutil.which("cc") or shutil.which("gcc"):
            assert available_backends() == ["cc"]

    def test_compiled_is_derived_not_settable(self):
        from repro.mobility.engine import TrafficEngine
        from repro.roadnet.builders import grid_network
        from repro.sim.config import MobilityConfig

        with pytest.raises(TypeError):
            MobilityConfig(compiled=True)
        with pytest.raises(TypeError):
            TrafficEngine(grid_network(2, 2), np.random.default_rng(0), compiled=True)
        assert "compiled" not in MobilityConfig().to_dict()
        assert MobilityConfig().compiled == bool(available_backends())
        assert MobilityConfig(vectorized=False).compiled is False
