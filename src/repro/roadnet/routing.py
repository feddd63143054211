"""Routing: shortest paths, random-waypoint trips and turn decisions.

Vehicles in the paper "change speed and trajectory in an unpredictable
manner"; the counting protocol must work for *any* trajectory.  The router
therefore offers both:

* destination-driven routing (shortest path to a random waypoint, re-drawn on
  arrival) — the default, giving realistic through traffic, and
* a memoryless random-turn model (uniform next segment, avoiding immediate
  U-turns where possible) — the adversarial "unpredictable" extreme used in
  robustness tests.

The router is deliberately stateless with respect to vehicles: the traffic
engine asks for the next edge given the current position and the vehicle's
routing state, so the same router instance can serve every vehicle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from .graph import RoadNetwork

__all__ = [
    "RoutePlan",
    "Router",
    "RandomWaypointRouter",
    "RandomTurnRouter",
    "FixedTripRouter",
    "shortest_path",
    "shortest_path_uncached",
    "warm_gate_routes",
    "path_length_m",
]


def shortest_path(net: RoadNetwork, origin: object, destination: object) -> List[object]:
    """Shortest path (by free-flow travel time) between two intersections.

    Memoized per network: results are stored in the network's route cache
    (:meth:`RoadNetwork.route_cache`), keyed on ``(origin, destination)``
    and implicitly on the network's :attr:`RoadNetwork.revision` counter, so
    a frozen network pays Dijkstra once per pair ever, and a network that is
    still being built self-invalidates on mutation.  Cached and computed
    paths are identical — including heap tie-breaks — because the cache
    stores exactly what :func:`shortest_path_uncached` returned.  Returns a
    fresh list on every call (callers may mutate it).

    Raises :class:`~repro.errors.RoutingError` when no path exists.
    """
    cache = net.route_cache()
    key = (origin, destination)
    hit = cache.get(key)
    if hit is not None:
        return list(hit)
    path = shortest_path_uncached(net, origin, destination)
    limit = net.route_cache_limit
    if limit is not None:
        # Evict oldest-inserted entries, O(1) each.  Purely a memory bound:
        # a cached path and a recomputed path are identical, so eviction
        # never changes routing results.
        while len(cache) >= limit:
            cache.popitem(last=False)
    cache[key] = tuple(path)
    return path


def shortest_path_uncached(
    net: RoadNetwork, origin: object, destination: object
) -> List[object]:
    """Compute the shortest path without touching the route cache.

    The reference the cache equivalence tests compare against.  A frozen
    network searches natively (:meth:`RoadNetwork.route_kernel`); an
    unfrozen one, or a host with no C compiler, runs
    :func:`_bidirectional_dijkstra` — the same path either way.  Raises
    :class:`~repro.errors.RoutingError` when no path exists.
    """
    succ, pred = net.travel_time_adjacency()
    if origin not in succ or destination not in succ:
        raise RoutingError(f"no route from {origin!r} to {destination!r}")
    kernel = net.route_kernel()
    if kernel is not None:
        path = kernel.route(origin, destination)
    else:
        path = _bidirectional_dijkstra(succ, pred, origin, destination)
    if path is None:
        raise RoutingError(f"no route from {origin!r} to {destination!r}")
    return path


def warm_gate_routes(net: RoadNetwork, *, max_routes: Optional[int] = None) -> int:
    """Precompute the all-gates route table (open systems).

    Fills the network's route cache with the shortest path from every
    inbound gate to every other outbound gate — exactly the pairs
    :class:`FixedTripRouter` trip spawning asks for — so steady-state border
    spawning does zero Dijkstra work from the first arrival on.  Optional:
    memoization alone reaches the same steady state after one spawn per
    pair.  Unreachable pairs are skipped.  Returns the number of routes now
    resident in the cache.

    The full table is O(gates²) paths; on city-scale networks that is more
    memory and warm-up time than it is worth, so ``max_routes`` bounds the
    precompute (the remaining pairs populate lazily through the route-cache
    memoization, with identical paths).  ``None`` keeps the historical
    warm-everything behaviour.
    """
    if max_routes is not None and max_routes < 0:
        raise RoutingError(f"max_routes must be >= 0, got {max_routes!r}")
    inbound = [g.node for g in net.gates.values() if g.inbound]
    outbound = [g.node for g in net.gates.values() if g.outbound]
    count = 0
    for origin in inbound:
        for destination in outbound:
            if origin == destination:
                continue
            if max_routes is not None and count >= max_routes:
                return count
            try:
                shortest_path(net, origin, destination)
            except RoutingError:
                continue
            count += 1
    return count


def _bidirectional_dijkstra(
    succ: dict, pred: dict, source: object, target: object
) -> Optional[List[object]]:
    """Bidirectional Dijkstra over prebuilt adjacency lists.

    A faithful port of :func:`networkx.bidirectional_dijkstra` (BSD
    licensed): same alternation, same relaxation order and the same
    insertion-counter heap tie-breaking over the same neighbor iteration
    order, so it returns exactly the path networkx would — the determinism
    the golden-trace fixtures pin — while skipping the per-call weight
    resolution and dict-of-dicts traversal (several times faster on the
    midtown grid, where routers replan constantly).  Returns ``None`` when
    no path exists.
    """
    if source == target:
        return [source]
    dists: Tuple[dict, dict] = ({}, {})
    preds: Tuple[dict, dict] = ({source: None}, {target: None})
    fringe: Tuple[list, list] = ([], [])
    seen: Tuple[dict, dict] = ({source: 0.0}, {target: 0.0})
    c = count()
    heappush(fringe[0], (0.0, next(c), source))
    heappush(fringe[1], (0.0, next(c), target))
    neighbors = (succ, pred)
    finaldist = None
    meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        this_dists = dists[direction]
        if v in this_dists:
            continue
        this_dists[v] = dist
        if v in dists[1 - direction]:
            forward = []
            node = meetnode
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            forward.reverse()
            node = preds[1][meetnode]
            while node is not None:
                forward.append(node)
                node = preds[1][node]
            return forward
        this_seen = seen[direction]
        other_seen = seen[1 - direction]
        this_fringe = fringe[direction]
        this_preds = preds[direction]
        for w, cost in neighbors[direction][v]:
            vw_length = dist + cost
            if w in this_dists:
                continue
            if w not in this_seen or vw_length < this_seen[w]:
                this_seen[w] = vw_length
                heappush(this_fringe, (vw_length, next(c), w))
                this_preds[w] = v
                if w in other_seen:
                    total = vw_length + other_seen[w]
                    if finaldist is None or finaldist > total:
                        finaldist = total
                        meetnode = w
    return None


def path_length_m(net: RoadNetwork, path: Sequence[object]) -> float:
    """Total length in metres of a node path."""
    total = 0.0
    for tail, head in zip(path, path[1:]):
        total += net.segment(tail, head).length_m
    return total


@dataclass
class RoutePlan:
    """Per-vehicle routing state owned by the traffic engine.

    ``waypoints`` is the remaining node sequence (excluding the node the
    vehicle most recently crossed).  ``exits_at`` marks a planned departure
    from an open system through the given gate node.
    """

    waypoints: List[object] = field(default_factory=list)
    exits_at: Optional[object] = None

    def peek(self) -> Optional[object]:
        """The next intersection on the plan, if any."""
        return self.waypoints[0] if self.waypoints else None

    def advance(self) -> Optional[object]:
        """Pop and return the next intersection on the plan."""
        return self.waypoints.pop(0) if self.waypoints else None

    @property
    def empty(self) -> bool:
        return not self.waypoints


class Router:
    """Base class for routing policies.

    Subclasses implement :meth:`plan_from` (initial plan for a vehicle at a
    given intersection) and :meth:`replan` (called when a plan runs out).
    """

    def __init__(self, net: RoadNetwork, rng: np.random.Generator) -> None:
        self.net = net
        self.rng = rng

    # -- interface ---------------------------------------------------------
    def plan_from(self, node: object) -> RoutePlan:
        raise NotImplementedError

    def replan(self, node: object, plan: RoutePlan) -> RoutePlan:
        """Produce a fresh plan for a vehicle currently at ``node``."""
        return self.plan_from(node)

    def next_hop(self, node: object, plan: RoutePlan, previous: Optional[object] = None) -> object:
        """The next intersection to drive to from ``node``.

        Consumes the plan; replans transparently when the plan is exhausted.
        ``previous`` (the intersection the vehicle came from) lets policies
        avoid immediate U-turns when an alternative exists.
        """
        nxt = plan.advance()
        if nxt is not None and self.net.has_segment(node, nxt):
            return nxt
        fresh = self.replan(node, plan)
        plan.waypoints = fresh.waypoints
        plan.exits_at = fresh.exits_at
        nxt = plan.advance()
        if nxt is not None and self.net.has_segment(node, nxt):
            return nxt
        # Last resort: any outbound neighbour, avoiding a U-turn if possible.
        options = self.net.outbound_neighbors(node)
        if not options:
            raise RoutingError(f"intersection {node!r} has no outbound segment")
        non_uturn = [o for o in options if o != previous]
        pool = non_uturn or options
        return pool[int(self.rng.integers(len(pool)))]


class RandomWaypointRouter(Router):
    """Random-waypoint routing over the road graph.

    Each plan is the shortest path to a uniformly random destination
    intersection; on arrival a new destination is drawn.  This is the closest
    laptop-scale equivalent of SUMO's random trip demand and produces the
    long, meandering trajectories the paper's evaluation relies on.
    """

    def __init__(self, net: RoadNetwork, rng: np.random.Generator) -> None:
        super().__init__(net, rng)
        self._nodes = net.node_tuple

    def plan_from(self, node: object) -> RoutePlan:
        for _ in range(16):
            dest = self._nodes[int(self.rng.integers(len(self._nodes)))]
            if dest == node:
                continue
            try:
                path = shortest_path(self.net, node, dest)
            except RoutingError:
                continue
            return RoutePlan(waypoints=list(path[1:]))
        raise RoutingError(f"could not find any destination reachable from {node!r}")


class RandomTurnRouter(Router):
    """Memoryless random-turn routing (adversarial 'unpredictable' traffic).

    At every intersection the vehicle picks a uniformly random outbound
    segment, avoiding an immediate U-turn when another choice exists.  Plans
    are always length one, so :meth:`next_hop` effectively re-rolls at every
    crossing.
    """

    def plan_from(self, node: object) -> RoutePlan:
        options = self.net.outbound_neighbors(node)
        if not options:
            raise RoutingError(f"intersection {node!r} has no outbound segment")
        choice = options[int(self.rng.integers(len(options)))]
        return RoutePlan(waypoints=[choice])

    def next_hop(self, node: object, plan: RoutePlan, previous: Optional[object] = None) -> object:
        options = self.net.outbound_neighbors(node)
        if not options:
            raise RoutingError(f"intersection {node!r} has no outbound segment")
        non_uturn = [o for o in options if o != previous]
        pool = non_uturn or options
        return pool[int(self.rng.integers(len(pool)))]


class FixedTripRouter(Router):
    """Routing along a fixed origin→destination trip (through traffic).

    Used in the open system for vehicles that enter at one gate and leave at
    another, and by the examples for the "Central Park to Madison Square
    Park" workload.  When the trip is exhausted the vehicle either exits (if
    ``exit_on_arrival``) or falls back to random-waypoint behaviour.
    """

    def __init__(
        self,
        net: RoadNetwork,
        rng: np.random.Generator,
        destination: object,
        *,
        exit_on_arrival: bool = False,
    ) -> None:
        super().__init__(net, rng)
        self.destination = destination
        self.exit_on_arrival = exit_on_arrival
        self._fallback = RandomWaypointRouter(net, rng)

    def plan_from(self, node: object) -> RoutePlan:
        if node == self.destination:
            if self.exit_on_arrival:
                return RoutePlan(waypoints=[], exits_at=node)
            return self._fallback.plan_from(node)
        path = shortest_path(self.net, node, self.destination)
        return RoutePlan(
            waypoints=list(path[1:]),
            exits_at=self.destination if self.exit_on_arrival else None,
        )

    def replan(self, node: object, plan: RoutePlan) -> RoutePlan:
        if node == self.destination and not self.exit_on_arrival:
            return self._fallback.plan_from(node)
        return self.plan_from(node)
