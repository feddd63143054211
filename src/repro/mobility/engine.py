"""Time-stepped microscopic traffic engine (the SUMO substitute).

The engine owns every moving object in the simulation and produces the event
stream the counting protocol consumes (:mod:`repro.mobility.events`).  One
call to :meth:`TrafficEngine.step` advances the world by ``dt`` seconds:

1. vehicles move along their segments (car following, lane changes,
   overtake detection),
2. vehicles that reached the end of a segment queue at the intersection;
   the intersection policy admits some of them, each admitted vehicle either
   crosses onto its next segment (``CrossingEvent``) or leaves the open
   system through a gate (``ExitEvent``),
3. externally supplied vehicles (border arrivals, patrol cars) can be
   injected at any time through :meth:`spawn` / :meth:`spawn_initial` /
   :meth:`spawn_patrol`.

Everything is deterministic given the RNG handed in, which is what makes the
experiment sweeps reproducible.

Hot path
--------
The default engine keeps a **resident** structure-of-arrays: every vehicle
owns a slot in persistent capacity-doubling NumPy arrays (position, speed,
free speed, segment length, desired speed, lane-head and multilane flags)
that spawns, exits and lane changes update incrementally — a step gathers
stable slot-index arrays through per-edge pointer tables and updates the
arrays in place, with no per-step ``np.fromiter``/attribute packing.  The
``Vehicle`` objects' kinematic fields become lazily synced mirrors
(refreshed by any public accessor; see :attr:`TrafficEngine.vehicles`).
Because each lane advances front to back against its leader's post-step
state, the update is not a single elementwise pass: the native step kernel
(:mod:`repro.mobility.kernels`) runs that recurrence as one sequential
sweep over the gathered slots, and also does the gather, the lane-change
candidate predicate, the lane viability test and the overtake ranking scan.
Its results are bit-for-bit identical to the per-vehicle engine.  Only
actual lane-change candidates run the scalar target-lane logic, in
reference RNG order.  Overtakes are detected by checking each multilane
segment's cached (position, vid) ranking for inversions instead of
comparing all pairs, and intersections only consider the vehicles actually
waiting at a stop line.  In batched mode :meth:`TrafficEngine.step_batch`
emits plain crossings as index arrays (:class:`~repro.mobility.events.
StepBatch`) consumed directly by the counting protocol — no per-crossing
event objects.

``vectorized=False`` selects the original seed per-vehicle loops, kept
verbatim as the one reference implementation for the golden-trace
equivalence tests.  A vectorized engine on a host where the kernel cannot
be built (no C compiler) runs those same reference loops.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import MobilityError
from ..roadnet.graph import DirectedSegment, RoadNetwork
from ..roadnet.routing import Router
from .car_following import LaneChangeModel, SimplifiedIDM
from .demand import VehicleSpec
from .events import (
    CrossingEvent,
    EntryEvent,
    ExitEvent,
    OvertakeEvent,
    StepBatch,
    TrafficEvent,
)
from .intersections import IntersectionPolicy, simple_policy
from .kernels import StepKernel, load_step_kernel
from .vehicle import MIN_GAP_M, VEHICLE_LENGTH_M, Vehicle

__all__ = ["EngineStats", "TrafficEngine"]

_ARRIVAL_EPS_M = 0.5

#: Initial capacity of the resident structure-of-arrays state; grown by
#: doubling whenever the active fleet outgrows it.
_INITIAL_CAPACITY = 64


@dataclass
class EngineStats:
    """Aggregate counters describing what the engine has simulated so far."""

    steps: int = 0
    crossings: int = 0
    overtakes: int = 0
    entries: int = 0
    exits: int = 0
    spawned: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "steps": self.steps,
            "crossings": self.crossings,
            "overtakes": self.overtakes,
            "entries": self.entries,
            "exits": self.exits,
            "spawned": self.spawned,
        }


class TrafficEngine:
    """Microscopic traffic simulation over a :class:`RoadNetwork`.

    Parameters
    ----------
    net:
        The (frozen) road network.
    rng:
        Random generator for placement, lane choice and lane-change noise.
    dt_s:
        Simulation step in seconds.
    policy:
        Default intersection admission policy (the paper's "simple" model by
        default); per-intersection overrides can be set with
        :meth:`set_intersection_policy`.
    allow_overtaking:
        Master switch for lane changes.  ``False`` reproduces the paper's
        simple road model where traffic is strictly FIFO on every segment.
    vectorized:
        Use the fast path (default): resident arrays driven by the native
        step kernel (:mod:`repro.mobility.kernels`).  ``False`` selects the
        original per-vehicle reference loops; both produce identical event
        streams and state for the same RNG (golden-trace pinned).  The
        attribute reports the path that actually runs: it reads ``False``
        when the kernel cannot be built on this host (no C compiler), and
        the engine then runs the reference loops.
    """

    def __init__(
        self,
        net: RoadNetwork,
        rng: np.random.Generator,
        *,
        dt_s: float = 0.5,
        policy: Optional[IntersectionPolicy] = None,
        car_following: Optional[SimplifiedIDM] = None,
        lane_change: Optional[LaneChangeModel] = None,
        allow_overtaking: bool = True,
        vectorized: bool = True,
    ) -> None:
        if dt_s <= 0:
            raise MobilityError(f"dt_s must be positive, got {dt_s!r}")
        if not net.frozen:
            net.freeze()
        self.net = net
        self.rng = rng
        self.dt_s = float(dt_s)
        self.default_policy = policy if policy is not None else simple_policy()
        self.car_following = car_following if car_following is not None else SimplifiedIDM()
        self.lane_change = lane_change if lane_change is not None else LaneChangeModel()
        self.allow_overtaking = bool(allow_overtaking)
        #: the native step kernel; None on the reference engine.
        self._kernel: Optional[StepKernel] = None
        if vectorized:
            cf = self.car_following
            self._kernel = load_step_kernel(
                dt_s=self.dt_s,
                max_accel_mps2=cf.max_accel_mps2,
                max_decel_mps2=cf.max_decel_mps2,
                headway_s=cf.headway_s,
                vehicle_length_m=VEHICLE_LENGTH_M,
                min_gap_m=MIN_GAP_M,
                arrival_eps_m=_ARRIVAL_EPS_M,
            )
        # The fast path is the kernel: without it (no C compiler) the
        # engine runs the reference loops.
        self.vectorized = self._kernel is not None

        self.time_s: float = 0.0
        self._vehicles: Dict[int, Vehicle] = {}
        self._departed: Dict[int, Vehicle] = {}
        # Flat per-segment occupancy in insertion order (the event-ordering
        # reference).  All per-edge dicts share the ``net.segments()``
        # iteration order, which fixes the RNG-consumption and event order
        # of the step.  The vectorized engine's per-lane order lives in the
        # native lane tables below (``_gather_bufs`` / ``_bounds_np``).
        self._occupancy: Dict[Tuple[object, object], List[int]] = {}
        self._segments: Dict[Tuple[object, object], DirectedSegment] = {}
        # Segments by edge index (the ``net.segments()`` order).  ``_ranked``
        # caches each multilane segment's vehicles in ascending (pos, vid)
        # order — the overtake ranking — which advance leaves intact except
        # on the rare steps that actually flip a pair.
        self._seg_by_index: List[DirectedSegment] = []
        #: per-edge overtake ranking (ascending (pos, vid) vehicle lists),
        #: indexed like _seg_by_index; None for single-lane edges.
        self._ranked: List[Optional[List[Vehicle]]] = []
        self._edge_order: Dict[Tuple[object, object], int] = {}
        # Sorted indices (into _seg_by_index) of edges carrying vehicles,
        # so the hot step never walks the empty part of the network.
        self._occupied: List[int] = []
        # How many of the ``_occupied`` edges are multilane, kept at the same
        # occupancy transitions: zero means no lane change or overtake can
        # happen this step.
        self._n_occupied_ml = 0
        # Sparse: edges with vehicles waiting at the stop line, and those
        # vehicles themselves (always their lane's head).
        self._waiting: Dict[Tuple[object, object], List[Vehicle]] = {}
        for i, seg in enumerate(net.segments()):
            self._occupancy[seg.key] = []
            self._segments[seg.key] = seg
            self._seg_by_index.append(seg)
            self._ranked.append([] if seg.lanes > 1 else None)
            self._edge_order[seg.key] = i
        #: per-edge multilane flag, indexed like ``_seg_by_index``, for the
        #: occupancy-transition updates.
        self._edge_ml: List[bool] = [seg.lanes > 1 for seg in self._seg_by_index]

        # Resident structure-of-arrays state (vectorized engine only).  One
        # slot per vehicle currently inside, allocated from a free list and
        # grown by capacity doubling; ``_pos``/``_speed`` are the *source of
        # truth* for kinematics while the engine runs — the mirror fields on
        # the Vehicle objects are refreshed lazily (``_sync_kinematics``)
        # before any public read.  ``_freeflow``/``_seglen``/``_ml`` are
        # per-current-segment invariants rewritten on every placement;
        # ``_desired`` and ``_vid_of`` are fixed at spawn.  Each edge's
        # gathered slot-index array (lane-major, front to back, in
        # ``_gather_bufs``) is its lane structure: the kernel's lane-table
        # edits patch it, its lane bounds and the lane-head flags
        # (``_is_head``) in place on every placement, removal and lane
        # change — so a step gathers stable arrays instead of re-packing
        # per-vehicle attributes, and nothing is rebuilt per edge.
        self._capacity = 0
        self._next_slot = 0
        self._free_slots: List[int] = []
        self._slot_vehicle: List[Optional[Vehicle]] = []
        self._pos = np.empty(0, dtype=np.float64)
        self._speed = np.empty(0, dtype=np.float64)
        self._freeflow = np.empty(0, dtype=np.float64)
        self._seglen = np.empty(0, dtype=np.float64)
        self._desired = np.empty(0, dtype=np.float64)
        #: vid per slot: the tie-break of the lane tables' (-pos, vid) key.
        self._vid_of = np.empty(0, dtype=np.int64)
        self._is_head = np.empty(0, dtype=bool)
        self._ml = np.empty(0, dtype=bool)
        #: mirror of ``waiting_since_s is not None`` per slot, so the fast
        #: advance can mask already-waiting vehicles without touching the
        #: Vehicle objects (cleared on every placement, set when a vehicle
        #: reaches a stop line).
        self._wait_flag = np.empty(0, dtype=bool)
        n_edges = len(self._seg_by_index)
        #: per-edge count of non-empty lanes, kept from the lane counts the
        #: lane-table edits return — used to skip overtake detection on
        #: segments whose vehicles all share one lane.
        self._occ_lanes: List[int] = [0] * n_edges
        #: whether each edge's (slot, vid) ranking buffers behind the
        #: kernel's ranking pointer table still mirror ``_ranked``.
        self._rank_fresh: List[bool] = [False] * n_edges
        # Capacity-sized per-step scratch buffers (reallocated, not
        # preserved, on growth): the gather index vector, the advance
        # arrival/movement masks and the lane-change candidate mask.  The
        # kernel binds them once per capacity change, making each per-step
        # native call a cached-pointer invocation with only the count
        # varying.
        self._idx_buf = np.empty(0, dtype=np.intp)
        self._newly_buf = np.empty(0, dtype=bool)
        self._moved_buf = np.empty(0, dtype=bool)
        self._cand_buf = np.empty(0, dtype=bool)
        # Edge-count-sized (static) scratch: per-edge inversion flags out of
        # the kernel's ranking scan.
        self._flags_buf = np.empty(n_edges, dtype=bool)
        # Pointer tables for the kernel's full-edge sweeps: per-edge
        # address + length of the gather slot array and of the cached
        # ranking (slot, vid) arrays, plus the occupied-edge index mirror
        # and the per-edge ranking-scan eligibility byte.  The lane-table
        # edits keep the gather lengths natively; the rest change only
        # where a cache entry changes (a handful of edges per step), so the
        # steady-state gather and overtake scan are each one bound native
        # call with no per-edge Python walk.
        self._gather_ptr = np.zeros(n_edges, dtype=np.int64)
        self._gather_len = np.zeros(n_edges, dtype=np.int64)
        self._occ_buf = np.zeros(n_edges, dtype=np.int64)
        self._occ_stale = True
        self._rank_ptr_s = np.zeros(n_edges, dtype=np.int64)
        self._rank_ptr_v = np.zeros(n_edges, dtype=np.int64)
        self._rank_len = np.zeros(n_edges, dtype=np.int64)
        self._rank_elig = np.zeros(n_edges, dtype=np.uint8)
        #: per-edge reusable buffers behind the pointer tables, all with
        #: *stable addresses* between reallocations: grow-only gather slot
        #: buffers (allocated at an edge's first placement, doubled with
        #: their entries kept), fixed-size lane-bounds arrays (cumulative
        #: per-lane gather offsets, ``lanes + 1`` int64 each) and grow-only
        #: ranking (slot, vid) buffers.  Edits and refreshes write in
        #: place — no allocation and no ``.ctypes`` pointer extraction; a
        #: table slot is rewritten only when its buffer actually grows.
        self._gather_bufs: List[Optional[np.ndarray]] = [None] * n_edges
        self._rank_sbufs: List[Optional[np.ndarray]] = [None] * n_edges
        self._rank_vbufs: List[Optional[np.ndarray]] = [None] * n_edges
        self._bounds_np: List[np.ndarray] = [
            np.zeros(seg.lanes + 1, dtype=np.int64) for seg in self._seg_by_index
        ]
        self._bounds_ptr = np.array(
            [b.ctypes.data for b in self._bounds_np], dtype=np.int64
        )
        #: edges whose ranking-scan eligibility must be re-derived before
        #: the next pointer-table scan (cache invalidated or occupied-lane
        #: count changed).
        self._rank_dirty: Set[int] = set()
        if self.vectorized:
            self._bind_kernel()
        self._kinematics_stale = False
        #: event sink for the current step_batch() call (None => step()
        #: materializes scalar CrossingEvent objects).
        self._sink: Optional[StepBatch] = None

        self._policies: Dict[object, IntersectionPolicy] = {}
        self._next_vid = 0
        self._inside_nonpatrol = 0
        self._inside_patrol = 0
        self._spawned_nonpatrol = 0
        self._spawned_patrol = 0
        self.stats = EngineStats()

    # ----------------------------------------------------------- configure
    def set_intersection_policy(self, node: object, policy: IntersectionPolicy) -> None:
        """Override the admission policy of one intersection (e.g. a roundabout)."""
        if not self.net.has_node(node):
            raise MobilityError(f"unknown intersection {node!r}")
        self._policies[node] = policy

    def policy_for(self, node: object) -> IntersectionPolicy:
        return self._policies.get(node, self.default_policy)

    # -------------------------------------------------------------- spawning
    def spawn_initial(self, specs: Iterable[VehicleSpec]) -> List[Vehicle]:
        """Place the t = 0 fleet at random positions along their first segments.

        No events are emitted: these vehicles are simply "already on the
        road" when counting starts, exactly the population the protocol must
        count.
        """
        placed = []
        for spec in specs:
            placed.append(self._insert(spec, via_gate=False, initial=True))
        return placed

    def spawn(self, spec: VehicleSpec) -> Tuple[Vehicle, List[TrafficEvent]]:
        """Insert one vehicle immediately (border arrival or scripted vehicle).

        Returns the vehicle and the events generated by the insertion (an
        :class:`EntryEvent` plus a :class:`CrossingEvent` when the vehicle
        comes in through a gate).
        """
        events: List[TrafficEvent] = []
        vehicle = self._insert(spec, via_gate=spec.via_gate, initial=False, events=events)
        return vehicle, events

    def spawn_patrol(self, router: Router, origin: object, *, speed_mps: Optional[float] = None) -> Vehicle:
        """Insert a police patrol car at ``origin`` following ``router``.

        Patrol cars are never counted; they ferry checkpoint statuses and
        collection reports (Theorem 3 / Alg. 4).
        """
        from ..surveillance.attributes import ExteriorSignature

        limits = [
            self.net.segment(origin, nbr).speed_limit_mps
            for nbr in self.net.outbound_neighbors(origin)
        ]
        spec = VehicleSpec(
            signature=ExteriorSignature(color="black", make="dodge", body_type="sedan"),
            desired_speed_mps=speed_mps if speed_mps is not None else max(limits),
            origin=origin,
            router=router,
            is_patrol=True,
        )
        return self._insert(spec, via_gate=False, initial=True)

    # -------------------------------------------------------- slot management
    def _alloc_slot(self, vehicle: Vehicle) -> int:
        """Assign the vehicle a slot in the resident arrays (vectorized)."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._next_slot
            self._next_slot += 1
            if slot >= self._capacity:
                self._grow(max(_INITIAL_CAPACITY, 2 * self._capacity))
        self._slot_vehicle[slot] = vehicle
        vehicle.slot = slot
        self._desired[slot] = vehicle.desired_speed_mps
        self._vid_of[slot] = vehicle.vid
        return slot

    def _release_slot(self, vehicle: Vehicle) -> None:
        slot = vehicle.slot
        self._slot_vehicle[slot] = None
        self._free_slots.append(slot)
        vehicle.slot = -1

    def _grow(self, capacity: int) -> None:
        """Double the resident arrays to ``capacity`` (values preserved)."""
        extra = capacity - self._capacity
        pad = np.zeros(extra, dtype=np.float64)
        self._pos = np.concatenate((self._pos, pad))
        self._speed = np.concatenate((self._speed, pad))
        self._freeflow = np.concatenate((self._freeflow, pad))
        self._seglen = np.concatenate((self._seglen, pad))
        self._desired = np.concatenate((self._desired, pad))
        self._vid_of = np.concatenate((self._vid_of, np.zeros(extra, dtype=np.int64)))
        bpad = np.zeros(extra, dtype=bool)
        self._is_head = np.concatenate((self._is_head, bpad))
        self._ml = np.concatenate((self._ml, bpad))
        self._wait_flag = np.concatenate((self._wait_flag, bpad))
        self._slot_vehicle.extend([None] * extra)
        self._capacity = capacity
        self._idx_buf = np.empty(capacity, dtype=np.intp)
        self._newly_buf = np.empty(capacity, dtype=bool)
        self._moved_buf = np.empty(capacity, dtype=bool)
        self._cand_buf = np.empty(capacity, dtype=bool)
        self._bind_kernel()

    def _bind_kernel(self) -> None:
        """(Re-)bind the native kernel to the current resident arrays.

        Called whenever any bound array is reallocated (capacity growth);
        afterwards each step's native call passes only the element count.
        """
        kernel = self._kernel
        assert kernel is not None
        lc = self.lane_change
        kernel.bind(
            self._idx_buf,
            self._pos,
            self._speed,
            self._freeflow,
            self._seglen,
            self._is_head,
            self._wait_flag,
            self._newly_buf,
            self._moved_buf,
            self._desired,
            self._ml,
            self._cand_buf,
            lc.blocked_distance_m,
            lc.speed_gain_threshold_mps,
            flags_buf=self._flags_buf,
            occ_buf=self._occ_buf,
            gather_ptr=self._gather_ptr,
            gather_len=self._gather_len,
            rank_elig=self._rank_elig,
            rank_ptr_s=self._rank_ptr_s,
            rank_ptr_v=self._rank_ptr_v,
            rank_len=self._rank_len,
            bounds_ptr=self._bounds_ptr,
            gap_half_m=lc.required_gap_m / 2.0,
            vids=self._vid_of,
        )

    def _sync_kinematics(self) -> None:
        """Refresh the Vehicle mirrors of the resident kinematic arrays.

        Called lazily by the public accessors; the hot step never pays for
        it.  Values are copied bit for bit (plain ``float``), so anything
        reading ``Vehicle.pos_m`` / ``speed_mps`` afterwards sees exactly
        the state the reference engine would have stored.
        """
        if not self._kinematics_stale:
            return
        pos = self._pos
        speed = self._speed
        for v in self._vehicles.values():
            slot = v.slot
            v.pos_m = float(pos[slot])
            v.speed_mps = float(speed[slot])
        self._kinematics_stale = False

    # ------------------------------------------------ sorted-structure keys
    def _rank_sort_key(self, vehicle: Vehicle) -> Tuple[float, int]:
        """Segment-wide overtake ranking: ascending position."""
        return (self._pos[vehicle.slot], vehicle.vid)

    def _insert(
        self,
        spec: VehicleSpec,
        *,
        via_gate: bool,
        initial: bool,
        events: Optional[List[TrafficEvent]] = None,
    ) -> Vehicle:
        if not self.net.has_node(spec.origin):
            raise MobilityError(f"vehicle origin {spec.origin!r} is not an intersection")
        vid = self._next_vid
        self._next_vid += 1
        vehicle = Vehicle(
            vid=vid,
            signature=spec.signature,
            desired_speed_mps=max(1.0, float(spec.desired_speed_mps)),
            router=spec.router,
            plan=spec.router.plan_from(spec.origin),
            is_patrol=spec.is_patrol,
            entered_at_s=self.time_s,
        )
        self._vehicles[vid] = vehicle
        if self.vectorized:
            self._alloc_slot(vehicle)
        self.stats.spawned += 1
        if spec.is_patrol:
            self._spawned_patrol += 1
            self._inside_patrol += 1
        else:
            self._spawned_nonpatrol += 1
            self._inside_nonpatrol += 1

        if via_gate:
            self.stats.entries += 1
            if events is not None:
                events.append(EntryEvent(time_s=self.time_s, vehicle=vehicle, gate_node=spec.origin))
            # Entering vehicles pass through the gate intersection immediately.
            next_node = spec.router.next_hop(spec.origin, vehicle.plan, previous=None)
            if events is not None:
                events.append(
                    CrossingEvent(
                        time_s=self.time_s,
                        vehicle=vehicle,
                        node=spec.origin,
                        from_node=None,
                        to_node=next_node,
                    )
                )
            self.stats.crossings += 1
            self._place(vehicle, spec.origin, next_node, pos_m=0.0)
        else:
            next_node = spec.router.next_hop(spec.origin, vehicle.plan, previous=None)
            seg = self.net.segment(spec.origin, next_node)
            pos = float(self.rng.uniform(0.0, seg.length_m * 0.9)) if initial else 0.0
            self._place(vehicle, spec.origin, next_node, pos_m=pos)
        return vehicle

    def _place(self, vehicle: Vehicle, tail: object, head: object, *, pos_m: float) -> None:
        seg = self._segments.get((tail, head))
        if seg is None:
            seg = self.net.segment(tail, head)  # raises MobilityError
        key = seg.key
        vehicle.edge = key
        n_lanes = seg.lanes
        # ``integers(1)`` draws nothing from the stream, so skipping it on
        # single-lane edges leaves every trace unchanged.
        vehicle.lane = int(self.rng.integers(n_lanes)) if n_lanes > 1 else 0
        vehicle.pos_m = min(pos_m, seg.length_m)
        free = min(vehicle.desired_speed_mps, seg.speed_limit_mps)
        vehicle.speed_mps = free * 0.5
        vehicle.previous_node = tail
        vehicle.waiting_since_s = None
        flat = self._occupancy[key]
        flat.append(vehicle.vid)
        kernel = self._kernel
        if kernel is not None:
            order = self._edge_order[key]
            k = len(flat)
            if k == 1:
                insort(self._occupied, order)
                self._occ_stale = True
                if n_lanes > 1:
                    self._n_occupied_ml += 1
            slot = vehicle.slot
            self._pos[slot] = vehicle.pos_m
            self._speed[slot] = vehicle.speed_mps
            self._freeflow[slot] = free
            self._seglen[slot] = seg.length_m
            self._ml[slot] = n_lanes > 1
            self._wait_flag[slot] = False
            self._grow_gather(order, k)
            if kernel.lane_insert_bound(order, vehicle.lane, n_lanes, slot) == 1:
                self._occ_lanes[order] += 1
            ranked = self._ranked[order]
            if ranked is not None:
                insort(ranked, vehicle, key=self._rank_sort_key)
                self._rank_fresh[order] = False
                self._rank_elig[order] = 0
                self._rank_dirty.add(order)

    def _remove_from_edge(self, vehicle: Vehicle) -> None:
        edge = vehicle.edge
        flat = self._occupancy[edge]
        flat.remove(vehicle.vid)
        kernel = self._kernel
        if kernel is not None:
            order = self._edge_order[edge]
            if not flat:
                del self._occupied[bisect_left(self._occupied, order)]
                self._occ_stale = True
                if self._edge_ml[order]:
                    self._n_occupied_ml -= 1
            # Materialize the departing vehicle's kinematics so exit events
            # and the departed pool carry its final state even though the
            # resident arrays are the in-run source of truth.
            slot = vehicle.slot
            vehicle.pos_m = float(self._pos[slot])
            vehicle.speed_mps = float(self._speed[slot])
            self._wait_flag[slot] = False
            left = kernel.lane_remove_bound(
                order, vehicle.lane, self._seg_by_index[order].lanes, slot
            )
            assert left >= 0, "vehicle missing from its lane table"
            if left == 0:
                self._occ_lanes[order] -= 1
            ranked = self._ranked[order]
            if ranked is not None:
                ranked.remove(vehicle)
                self._rank_fresh[order] = False
                self._rank_elig[order] = 0
                self._rank_dirty.add(order)
            if vehicle.waiting_since_s is not None:
                queue = self._waiting[edge]
                queue.remove(vehicle)
                if not queue:
                    del self._waiting[edge]

    # --------------------------------------------------------------- queries
    @property
    def vehicles(self) -> Dict[int, Vehicle]:
        """Vehicles currently inside, by vid (kinematics freshly synced).

        The vectorized engine keeps positions and speeds in resident arrays
        during the step loop; this accessor refreshes the Vehicle mirrors
        before handing the mapping out, so external readers always see the
        exact per-vehicle state.  Engine internals use ``_vehicles``
        directly and read the arrays instead.
        """
        self._sync_kinematics()
        return self._vehicles

    def active_vehicles(self, *, include_patrol: bool = True) -> List[Vehicle]:
        """Vehicles currently inside the system (fresh list per call).

        Per-step bookkeeping should prefer :meth:`iter_active` (no list) or
        :meth:`active_count` (O(1)).
        """
        return list(self.iter_active(include_patrol=include_patrol))

    def iter_active(self, *, include_patrol: bool = True) -> Iterator[Vehicle]:
        """Iterate over the vehicles currently inside without building a list."""
        self._sync_kinematics()
        if include_patrol:
            return iter(self._vehicles.values())
        return (v for v in self._vehicles.values() if not v.is_patrol)

    def active_count(self, *, include_patrol: bool = True) -> int:
        """Number of vehicles currently inside (O(1), no list building)."""
        if include_patrol:
            return self._inside_nonpatrol + self._inside_patrol
        return self._inside_nonpatrol

    def inside_count(self) -> int:
        """Ground truth: number of non-patrol vehicles currently inside."""
        return self._inside_nonpatrol

    def departed_vehicles(self) -> List[Vehicle]:
        """Vehicles that have left the open system (fresh list per call)."""
        return list(self._departed.values())

    def iter_departed(self) -> Iterator[Vehicle]:
        """Iterate over departed vehicles without building a list."""
        return iter(self._departed.values())

    def total_spawned(self, *, include_patrol: bool = False) -> int:
        """Number of vehicles ever inserted (excluding patrol by default)."""
        if include_patrol:
            return self._spawned_nonpatrol + self._spawned_patrol
        return self._spawned_nonpatrol

    def occupancy(self, edge: Tuple[object, object]) -> List[Vehicle]:
        """Vehicles currently on ``edge`` (unspecified order)."""
        self._sync_kinematics()
        return [self._vehicles[vid] for vid in self._occupancy[edge]]

    # ------------------------------------------------------------------ step
    def step(self) -> List[TrafficEvent]:
        """Advance the world by one time step and return the events produced."""
        events: List[TrafficEvent] = []
        self._step_core(events)
        return events

    def step_batch(self) -> StepBatch:
        """Advance one time step, emitting events in batch form.

        The fast-path counterpart of :meth:`step` used by the batched
        pipeline: plain intersection crossings are appended to the returned
        :class:`~repro.mobility.events.StepBatch`'s parallel arrays (no
        per-crossing :class:`CrossingEvent` objects); irregular events —
        exits, overtakes — stay scalar objects in the same ordered stream.
        ``batch.iter_events()`` reproduces exactly what :meth:`step` would
        have returned.
        """
        batch = StepBatch(self.time_s)
        self._sink = batch
        try:
            self._step_core(batch.items)
        finally:
            self._sink = None
        return batch

    def _step_core(self, events: List) -> None:
        if self.vectorized:
            self._advance_segments_batch(events)
            self._process_intersections_indexed(events)
        else:
            self._advance_segments(events)
            self._process_intersections(events)
        self.time_s += self.dt_s
        self.stats.steps += 1

    def run(self, duration_s: float) -> List[TrafficEvent]:
        """Run for ``duration_s`` simulated seconds, returning all events."""
        steps = int(round(duration_s / self.dt_s))
        out: List[TrafficEvent] = []
        for _ in range(steps):
            out.extend(self.step())
        return out

    # ------------------------------------------- segment dynamics (batched)
    def _grow_gather(self, ei: int, k: int) -> None:
        """Make room for ``k`` slots in edge ``ei``'s gather buffer.

        A no-op unless the buffer is missing or full; it then doubles with
        its entries kept and the pointer table is rewritten, so lane-table
        edits never allocate.
        """
        buf = self._gather_bufs[ei]
        if buf is not None and buf.shape[0] >= k:
            return
        grown = np.empty(max(4, k, 0 if buf is None else 2 * buf.shape[0]), dtype=np.intp)
        if buf is not None:
            grown[: buf.shape[0]] = buf
        self._gather_bufs[ei] = grown
        self._gather_ptr[ei] = grown.ctypes.data

    def _advance_segments_batch(self, events: List[TrafficEvent]) -> None:
        """Advance every occupied segment (the vectorized step).

        Gather the per-edge slot arrays (each lane's span is kept front to
        back, so a follower's in-lane leader is the previous gather index),
        evaluate the blocked-follower predicate over the whole
        gather, run the scalar-RNG-order target-lane choice for the actual
        candidates only, then advance: one bound native call sweeps the
        gather order updating the resident position/speed arrays *in
        place* — each follower naturally reads its leader's already-written
        post-step state, so the whole front-to-back recurrence runs in one
        pass, returning the arrival and movement masks.  State and events
        are bit-identical to the reference loops (golden-trace pinned).

        Overtake detection afterwards skips multilane segments whose
        vehicles currently share a single lane: car following preserves
        strict in-lane (position, vid) order and never creates ties (a
        follower's position ceiling stays strictly below its leader), and
        lane changes never move vehicles longitudinally — so a one-lane
        ranking cannot invert.
        """
        kernel = self._kernel
        assert kernel is not None
        n = self._gather_fast()
        if n == 0:
            return
        idx = self._idx_buf[:n]
        # Any occupied multilane edge means lane changes / overtakes are in
        # play this step; single-vehicle multilane edges cost nothing extra
        # (their lone vehicle is a lane head, so it can never be a
        # candidate, and the overtake scan skips one-lane occupancies).
        watching = self.allow_overtaking and self._n_occupied_ml > 0
        if (
            watching
            and kernel.candidates_bound(n)
            and self._lane_change_batch(idx, self._cand_buf[:n])
        ):
            # Accepted moves re-ordered some lanes in place: redo the
            # gather (one bound call; the edges that did not change are
            # rewritten with the same slots).
            self._gather_fast()
        # The return value is the newly-arrived count, so the no-arrival
        # common case skips the mask reduction.
        if kernel.advance_bound(n):
            time_s = self.time_s
            waiting = self._waiting
            wait_flag = self._wait_flag
            slot_vehicle = self._slot_vehicle
            for slot in idx[self._newly_buf[:n]].tolist():
                v = slot_vehicle[slot]
                assert v is not None
                v.waiting_since_s = time_s
                wait_flag[slot] = True
                waiting.setdefault(v.edge, []).append(v)

        self._kinematics_stale = True

        if watching:
            self._detect_overtakes_fast(events)

    def _gather_fast(self) -> int:
        """Flatten the occupied edges' slot arrays into ``_idx_buf``.

        The lane-table edits keep every edge's slot array current, so one
        bound native call walks the pointer table.  The occupied-edge
        mirror is refreshed only when membership actually changed.  Returns
        the gathered element count (0 = nothing occupied).
        """
        kernel = self._kernel
        assert kernel is not None
        occupied = self._occupied
        m = len(occupied)
        if self._occ_stale:
            self._occ_buf[:m] = occupied
            self._occ_stale = False
        return kernel.gather_bound(m)

    def _lane_change_batch(self, idx: np.ndarray, cand: np.ndarray) -> bool:
        """Lane-change pass over the gather-aligned candidate mask.

        Candidates are visited in gather order, which is exactly the
        reference engine's segment-by-segment, lane-by-lane, front-to-back
        scan order; segment boundaries come from each candidate's own edge
        (the gather is edge-block-ordered).  Decisions within a segment read
        the pre-change lane tables (the reference pass applies its moves
        only after scanning the whole segment), so accepted moves are
        buffered and applied at the segment boundary.  The kernel's bound
        ``lane_options`` call returns each candidate's both-neighbour
        viability bits.  Returns whether any segment's lane order changed —
        the caller then redoes the gather.
        """
        kernel = self._kernel
        assert kernel is not None
        lane_opts = kernel.lane_opts_bound
        slot_vehicle = self._slot_vehicle
        seg_by_index = self._seg_by_index
        edge_order = self._edge_order
        pos_a = self._pos
        politeness = self.lane_change.politeness
        rng = self.rng
        cur = -1
        seg_lanes = 0
        pending: List[Tuple[Vehicle, int]] = []
        patched = False
        for i in cand.nonzero()[0].tolist():
            v = slot_vehicle[int(idx[i])]
            assert v is not None
            ei = edge_order[v.edge]
            if ei != cur:
                if pending:
                    self._apply_lane_moves(cur, seg_lanes, pending)
                    pending = []
                    patched = True
                cur = ei
                seg_lanes = seg_by_index[ei].lanes
            # Scalar target-lane choice (LaneChangeModel.target_lane):
            # politeness veto first (one uniform per candidate), then the
            # both-neighbour viability bits, then the tie draw only when
            # both neighbours are viable — identical RNG stream.
            if rng.random() < politeness:
                continue
            opts = lane_opts(ei, v.lane, seg_lanes, float(pos_a[v.slot]))
            if opts == 0:
                continue
            if opts == 3:
                target = v.lane + 1 if int(rng.integers(2)) == 0 else v.lane - 1
            elif opts == 1:
                target = v.lane + 1
            else:
                target = v.lane - 1
            pending.append((v, target))
        if pending:
            self._apply_lane_moves(cur, seg_lanes, pending)
            patched = True
        return patched

    def _apply_lane_moves(
        self,
        ei: int,
        n_lanes: int,
        moves: List[Tuple[Vehicle, int]],
    ) -> None:
        """Apply one segment's accepted lane changes to its lane tables.

        Each move is a removal then an insert in the edge's slot array, so
        its length (and room) is unchanged.  The occupied-lane count gates
        ranking-scan eligibility, which is re-derived before the next scan.
        """
        kernel = self._kernel
        assert kernel is not None
        remove = kernel.lane_remove_bound
        insert = kernel.lane_insert_bound
        occ = self._occ_lanes
        for v, target in moves:
            slot = v.slot
            if remove(ei, v.lane, n_lanes, slot) == 0:
                occ[ei] -= 1
            v.lane = target
            if insert(ei, target, n_lanes, slot) == 1:
                occ[ei] += 1
        self._rank_dirty.add(ei)

    def _detect_overtakes_fast(self, events: List[TrafficEvent]) -> None:
        """Post-step overtake scan over resident per-edge ranking arrays.

        Confirms each watched segment's cached ascending (position, vid)
        ranking and emits the flipped pairs where it inverted.  Segments
        whose vehicles currently share a single lane are skipped
        (``_occ_lanes``; a one-lane ranking cannot invert, see
        :meth:`_advance_segments_batch`).  The kernel sweeps every edge in
        one bound call, gated by the ``_rank_elig`` byte that is repaired
        here for the edges invalidated since the last scan (a handful per
        step).
        """
        kernel = self._kernel
        assert kernel is not None
        dirty = self._rank_dirty
        if dirty:
            occ = self._occ_lanes
            elig = self._rank_elig
            for di in dirty:
                if occ[di] > 1:
                    self._refresh_ranking(di)
                    elig[di] = 1
                else:
                    elig[di] = 0
            dirty.clear()
        if not kernel.rank_all_bound():
            return
        ranked = self._ranked
        for ei in np.nonzero(self._flags_buf)[0].tolist():
            chain = ranked[ei]
            assert chain is not None
            ranked[ei] = self._emit_overtakes(ei, chain, events)

    def _refresh_ranking(self, ei: int) -> None:
        """Copy edge ``ei``'s overtake ranking into its (slot, vid) buffers.

        A no-op when they are still fresh.  The buffers are grow-only with
        stable addresses, so a refresh is a bulk copy and the kernel's
        ranking pointer table changes only when a buffer actually grows.
        """
        if self._rank_fresh[ei]:
            return
        chain = self._ranked[ei]
        assert chain is not None
        k = len(chain)
        sb = self._rank_sbufs[ei]
        vb = self._rank_vbufs[ei]
        if sb is None or vb is None or sb.shape[0] < k:
            cap = max(4, k, 0 if sb is None else 2 * sb.shape[0])
            sb = np.empty(cap, dtype=np.intp)
            vb = np.empty(cap, dtype=np.int64)
            self._rank_sbufs[ei] = sb
            self._rank_vbufs[ei] = vb
            self._rank_ptr_s[ei] = sb.ctypes.data
            self._rank_ptr_v[ei] = vb.ctypes.data
        sb[:k] = [v.slot for v in chain]
        vb[:k] = [v.vid for v in chain]
        self._rank_len[ei] = k
        self._rank_fresh[ei] = True

    def _emit_overtakes(
        self,
        ei: int,
        chain_before: List[Vehicle],
        events: List[TrafficEvent],
    ) -> List[Vehicle]:
        """Enumerate the flipped pairs of one segment whose ranking changed.

        ``chain_before`` is the cached pre-step ranking; comparing each
        vehicle's index in it with its index in the freshly sorted post-step
        ranking is equivalent to the reference engine's (position, vid)
        tuple comparisons, because both rankings are strict total orders.
        Pairs are scanned in the flat insertion order the reference engine
        used, so simultaneous events come out in the same sequence.
        """
        seg = self._seg_by_index[ei]
        chain_after = sorted(chain_before, key=self._rank_sort_key)
        self._rank_fresh[ei] = False
        self._rank_elig[ei] = 0
        self._rank_dirty.add(ei)
        rank_before = {v.vid: r for r, v in enumerate(chain_before)}
        rank_after = {v.vid: r for r, v in enumerate(chain_after)}
        order = [self._vehicles[vid] for vid in self._occupancy[seg.key]]
        n = len(order)
        vids = [v.vid for v in order]
        for i in range(n):
            rb_a = rank_before[vids[i]]
            ra_a = rank_after[vids[i]]
            for j in range(i + 1, n):
                was_a_ahead = rb_a > rank_before[vids[j]]
                now_a_ahead = ra_a > rank_after[vids[j]]
                if was_a_ahead == now_a_ahead:
                    continue
                passer, passee = (order[i], order[j]) if now_a_ahead else (order[j], order[i])
                self.stats.overtakes += 1
                events.append(
                    OvertakeEvent(time_s=self.time_s, edge=seg.key, passer=passer, passee=passee)
                )
        return chain_after

    # --------------------------------------- segment dynamics (per vehicle)
    def _advance_segments(self, events: List[TrafficEvent]) -> None:
        """Seed reference implementation, kept verbatim.

        Per-vehicle loops with per-step lane rebuilds and sorting — the
        pre-vectorization engine.  It is the oracle the golden traces were
        recorded from and the fast path is tested against, so it must not
        be optimized.
        """
        for edge_key, vids in self._occupancy.items():
            if not vids:
                continue
            seg = self.net.segment(*edge_key)
            vehicles = [self._vehicles[v] for v in vids]
            before = {v.vid: (v.pos_m, v.vid) for v in vehicles}

            lanes_occ: List[List[Vehicle]] = [[] for _ in range(seg.lanes)]
            for v in vehicles:
                if v.lane >= seg.lanes:
                    v.lane = seg.lanes - 1
                lanes_occ[v.lane].append(v)
            for lane in lanes_occ:
                lane.sort(key=lambda v: (-v.pos_m, v.vid))

            if self.allow_overtaking and seg.lanes > 1:
                self._lane_changes(seg, lanes_occ)
                lanes_occ = [[] for _ in range(seg.lanes)]
                for v in vehicles:
                    lanes_occ[v.lane].append(v)
                for lane in lanes_occ:
                    lane.sort(key=lambda v: (-v.pos_m, v.vid))

            for lane in lanes_occ:
                leader: Optional[Vehicle] = None
                for v in lane:
                    self.car_following.advance(v, leader, seg.speed_limit_mps, seg.length_m, self.dt_s)
                    if v.pos_m >= seg.length_m - _ARRIVAL_EPS_M and v.waiting_since_s is None:
                        v.waiting_since_s = self.time_s
                    leader = v

            if self.allow_overtaking and seg.lanes > 1 and len(vehicles) > 1:
                self._detect_overtakes(seg, vehicles, before, events)

    def _lane_changes(self, seg: DirectedSegment, lanes_occ: List[List[Vehicle]]) -> None:
        for lane_vehicles in lanes_occ:
            for idx, v in enumerate(lane_vehicles):
                leader = lane_vehicles[idx - 1] if idx > 0 else None
                if leader is None or not self.lane_change.wants_to_change(v, leader):
                    continue
                target = self.lane_change.target_lane(v, seg.lanes, lanes_occ, self.rng)
                if target is not None:
                    v.lane = target

    def _detect_overtakes(
        self,
        seg: DirectedSegment,
        vehicles: List[Vehicle],
        before: Dict[int, Tuple[float, int]],
        events: List[TrafficEvent],
    ) -> None:
        after = {v.vid: (v.pos_m, v.vid) for v in vehicles}
        by_vid = {v.vid: v for v in vehicles}
        vids = list(by_vid.keys())
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                a, b = vids[i], vids[j]
                was_a_ahead = before[a] > before[b]
                now_a_ahead = after[a] > after[b]
                if was_a_ahead == now_a_ahead:
                    continue
                passer, passee = (a, b) if now_a_ahead else (b, a)
                self.stats.overtakes += 1
                events.append(
                    OvertakeEvent(
                        time_s=self.time_s,
                        edge=seg.key,
                        passer=by_vid[passer],
                        passee=by_vid[passee],
                    )
                )

    # -------------------------------------------------- intersection crossing
    def _process_intersections_indexed(self, events: List[TrafficEvent]) -> None:
        """Admission control scanning only the vehicles actually waiting.

        ``_waiting`` indexes the vehicles at a stop line per segment (each is
        necessarily the head of its lane: followers are held at least a
        vehicle length behind, and a vehicle at the stop line has no leader
        to trigger a lane change), so admission never touches free-flowing
        traffic.
        """
        candidates: Dict[object, List[Tuple[float, int, object]]] = {}
        time_s = self.time_s
        dt = self.dt_s
        waiting = self._waiting
        waiting_edges = (
            # Candidate collection must follow the network's segment order
            # (it fixes which edge first registers each node, and thereby
            # the crossing-event order of the step).
            sorted(waiting, key=self._edge_order.__getitem__)
            if len(waiting) > 1
            else list(waiting)
        )
        segments = self._segments
        overrides = self._policies
        default_delay = self.default_policy.crossing_delay_s
        for edge_key in waiting_edges:
            node = segments[edge_key].head
            if overrides:
                delay = overrides.get(node, self.default_policy).crossing_delay_s
            else:
                delay = default_delay
            for v in waiting[edge_key]:
                since = v.waiting_since_s
                if time_s - since + dt >= delay:
                    candidates.setdefault(node, []).append((since, v.vid, edge_key))
        self._admit(candidates, events)

    def _process_intersections(self, events: List[TrafficEvent]) -> None:
        """Seed reference implementation: scan every occupied segment."""
        candidates: Dict[object, List[Tuple[float, int, object]]] = {}
        for edge_key, vids in self._occupancy.items():
            if not vids:
                continue
            seg = self.net.segment(*edge_key)
            node = seg.head
            policy = self.policy_for(node)
            front_per_lane: Dict[int, Vehicle] = {}
            for vid in vids:
                v = self._vehicles[vid]
                if v.waiting_since_s is None:
                    continue
                best = front_per_lane.get(v.lane)
                if best is None or v.pos_m > best.pos_m:
                    front_per_lane[v.lane] = v
            for v in front_per_lane.values():
                if self.time_s - v.waiting_since_s + self.dt_s >= policy.crossing_delay_s:
                    candidates.setdefault(node, []).append((v.waiting_since_s, v.vid, edge_key))
        self._admit(candidates, events)

    def _admit(
        self,
        candidates: Dict[object, List[Tuple[float, int, object]]],
        events: List[TrafficEvent],
    ) -> None:
        for node, waiting in candidates.items():
            policy = self.policy_for(node)
            # Plain tuple sort: identical order to sorting by (time, vid)
            # because vids are unique, so the edge key is never compared.
            waiting.sort()
            for _, vid, edge_key in waiting[: policy.admissions_per_step]:
                vehicle = self._vehicles.get(vid)
                if vehicle is None or vehicle.edge != edge_key:
                    continue
                self._cross(vehicle, node, events)

    def _cross(self, vehicle: Vehicle, node: object, events: List[TrafficEvent]) -> None:
        assert vehicle.edge is not None
        tail = vehicle.edge[0]
        self._remove_from_edge(vehicle)
        vehicle.edge = None
        vehicle.waiting_since_s = None

        gate = self.net.gates.get(node)
        wants_exit = vehicle.plan.exits_at == node and vehicle.plan.empty
        if gate is not None and gate.outbound and wants_exit and not vehicle.is_patrol:
            vehicle.exited_at_s = self.time_s
            del self._vehicles[vehicle.vid]
            if self.vectorized:
                self._release_slot(vehicle)
            self._departed[vehicle.vid] = vehicle
            self._inside_nonpatrol -= 1
            self.stats.exits += 1
            sink = self._sink
            if sink is None:
                events.append(
                    ExitEvent(
                        time_s=self.time_s, vehicle=vehicle, gate_node=node, from_node=tail
                    )
                )
            else:
                # Fast path: typed exit arrays, encoded as a negative index.
                events.append(sink.add_exit(vehicle, node, tail))
            return

        assert vehicle.router is not None
        next_node = vehicle.router.next_hop(node, vehicle.plan, previous=tail)
        self.stats.crossings += 1
        sink = self._sink
        if sink is None:
            events.append(
                CrossingEvent(
                    time_s=self.time_s,
                    vehicle=vehicle,
                    node=node,
                    from_node=tail,
                    to_node=next_node,
                )
            )
        else:
            # Fast path: record the crossing in the step batch's parallel
            # arrays; the int index keeps the event-stream ordering.
            events.append(sink.add_crossing(vehicle, node, tail, next_node))
        self._place(vehicle, node, next_node, pos_m=0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrafficEngine(net={self.net.name!r}, t={self.time_s:.1f}s, "
            f"vehicles={len(self._vehicles)}, crossings={self.stats.crossings})"
        )
