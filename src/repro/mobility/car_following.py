"""Car-following and lane-change models.

The engine needs microscopic behaviour that is *qualitatively* right — queues
form at intersections, faster drivers catch up with slower ones and overtake
on multi-lane segments, traffic never teleports — while staying cheap enough
to simulate hundreds of vehicles for an hour of traffic in well under a
second of wall clock per simulated minute.

Two small models provide that:

* :class:`SimplifiedIDM` — a collision-free car-following update inspired by
  the Intelligent Driver Model: accelerate toward the desired speed, but
  never close more than the available gap in one step.
* :class:`LaneChangeModel` — an incentive/safety rule in the spirit of
  MOBIL: change lanes when blocked by a slower leader and the target lane
  has room.

Both are deterministic given the RNG stream passed in, so runs are exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .vehicle import MIN_GAP_M, VEHICLE_LENGTH_M, Vehicle

__all__ = ["SimplifiedIDM", "LaneChangeModel"]


@dataclass
class SimplifiedIDM:
    """Collision-free longitudinal update.

    Parameters
    ----------
    max_accel_mps2:
        Maximum acceleration.
    max_decel_mps2:
        Comfortable deceleration (used to bound how hard a vehicle brakes
        when it runs out of gap).
    headway_s:
        Desired time headway to the leader.
    """

    max_accel_mps2: float = 2.0
    max_decel_mps2: float = 3.5
    headway_s: float = 1.2

    def target_speed(
        self,
        vehicle: Vehicle,
        leader: Optional[Vehicle],
        speed_limit_mps: float,
        dt: float,
    ) -> float:
        """The speed the vehicle aims for during the next ``dt`` seconds."""
        free = min(vehicle.desired_speed_mps, speed_limit_mps)
        # accelerate / decelerate toward the free speed
        if vehicle.speed_mps < free:
            v = min(free, vehicle.speed_mps + self.max_accel_mps2 * dt)
        else:
            v = max(free, vehicle.speed_mps - self.max_decel_mps2 * dt)
        if leader is None:
            return max(0.0, v)
        gap = leader.pos_m - vehicle.pos_m - VEHICLE_LENGTH_M
        if gap <= MIN_GAP_M:
            return 0.0
        # Do not plan to consume more than the gap beyond the desired headway,
        # assuming the leader keeps its current speed during the step.
        usable = gap - MIN_GAP_M + leader.speed_mps * dt
        safe = usable / max(dt + self.headway_s * 0.25, 1e-9)
        return max(0.0, min(v, safe))

    def advance(
        self,
        vehicle: Vehicle,
        leader: Optional[Vehicle],
        speed_limit_mps: float,
        segment_length_m: float,
        dt: float,
    ) -> None:
        """Update ``vehicle`` speed and position in place (never passes the
        leader or the end of the segment)."""
        v = self.target_speed(vehicle, leader, speed_limit_mps, dt)
        new_pos = vehicle.pos_m + v * dt
        if leader is not None:
            ceiling = leader.pos_m - VEHICLE_LENGTH_M - MIN_GAP_M * 0.5
            if new_pos > ceiling:
                new_pos = max(vehicle.pos_m, ceiling)
                v = (new_pos - vehicle.pos_m) / dt if dt > 0 else 0.0
        if new_pos > segment_length_m:
            new_pos = segment_length_m
        vehicle.speed_mps = max(0.0, v)
        vehicle.pos_m = new_pos


@dataclass
class LaneChangeModel:
    """Overtaking lane changes on multi-lane segments.

    A vehicle considers changing lanes when its leader in the current lane is
    slower than its own desired speed by more than ``speed_gain_threshold``
    and closer than ``blocked_distance_m``.  The change is executed when the
    target lane offers at least ``required_gap_m`` of free space around the
    vehicle's position, with probability ``politeness`` of staying put anyway
    (drivers differ).
    """

    speed_gain_threshold_mps: float = 1.0
    blocked_distance_m: float = 40.0
    required_gap_m: float = VEHICLE_LENGTH_M + 2.0 * MIN_GAP_M
    politeness: float = 0.2

    def wants_to_change(self, vehicle: Vehicle, leader: Optional[Vehicle]) -> bool:
        """Whether the vehicle is blocked enough to look for another lane.

        The vectorized engine evaluates this predicate over its gathered
        columns in the native kernel (``lane_change_candidates``, specified
        by :func:`~repro.mobility.kernels.lane_change_candidates_py`); any
        change here must be mirrored there — the engine-mode agreement
        tests fail on divergence.
        """
        if leader is None:
            return False
        gap = leader.pos_m - vehicle.pos_m
        if gap > self.blocked_distance_m:
            return False
        return (vehicle.desired_speed_mps - leader.speed_mps) > self.speed_gain_threshold_mps

    def target_lane(
        self,
        vehicle: Vehicle,
        lanes: int,
        occupancy: Sequence[Sequence[Vehicle]],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Pick a lane to move to, or ``None`` to stay.

        ``occupancy[lane]`` must list the vehicles currently in ``lane`` on
        the same segment (any order).  The vectorized engine ports this
        choice to its resident arrays (``TrafficEngine._lane_change_batch``
        and the kernel's ``lane_options``); any change here — including RNG
        draw order — must be mirrored there.
        """
        if lanes < 2:
            return None
        if rng.random() < self.politeness:
            return None
        candidates = []
        for delta in (1, -1):
            lane = vehicle.lane + delta
            if 0 <= lane < lanes and self._gap_ok(vehicle, occupancy[lane]):
                candidates.append(lane)
        if not candidates:
            return None
        return int(candidates[0] if len(candidates) == 1 else candidates[int(rng.integers(len(candidates)))])

    def _gap_ok(self, vehicle: Vehicle, others: Sequence[Vehicle]) -> bool:
        half = self.required_gap_m / 2.0
        for other in others:
            if abs(other.pos_m - vehicle.pos_m) < half:
                return False
        return True
