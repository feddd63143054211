"""Road-network data model.

The counting protocol views the world exactly as the paper's Table I does:

* an *intersection* ``u`` hosts a checkpoint,
* a *road segment* ``{u, v}`` joins two adjacent intersections and carries
  directed traffic ``u -> v`` and/or ``v -> u``,
* ``n_o(u)`` / ``n_i(u)`` are the outbound / inbound neighbour sets of ``u``.

Internally the network is a directed graph: each driveable direction of a
road segment is one :class:`DirectedSegment` with its own length, number of
lanes and speed limit.  A bidirectional street therefore contributes two
directed segments; a one-way street contributes one (``n_o != n_i``, exactly
the situation Alg. 3 / Alg. 4 must handle).

Open road systems (Section IV-B, Definition 2) additionally declare *gates*:
border intersections through which traffic enters or leaves the region
("interaction" traffic).  Gates are modelled explicitly so that the border
checkpoints know which of their flows are interactions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import networkx as nx

from ..errors import RoadNetworkError
from ..units import SPEED_LIMIT_15_MPH

if TYPE_CHECKING:
    from ..mobility.kernels import RouteKernel

__all__ = [
    "NodeId",
    "EdgeId",
    "DirectedSegment",
    "Gate",
    "RoadNetwork",
]

#: Default bound on resident route-cache entries per network; see
#: :attr:`RoadNetwork.route_cache_limit`.
DEFAULT_ROUTE_CACHE_LIMIT = 65536

#: Intersections are identified by small hashable objects (ints, strings or
#: ``(row, col)`` tuples for grids).
NodeId = object
#: A directed segment is identified by its ``(tail, head)`` node pair.
EdgeId = Tuple[object, object]


@dataclass(frozen=True)
class DirectedSegment:
    """One driveable direction of a road segment.

    Attributes
    ----------
    tail, head:
        The upstream and downstream intersections.  Traffic flows from
        ``tail`` to ``head``; in the paper's notation this segment is the
        inbound traffic ``head <- tail`` and the outbound traffic
        ``tail -> head``.
    length_m:
        Segment length in metres.
    lanes:
        Number of parallel lanes.  ``lanes >= 2`` enables overtaking in the
        extended (non-FIFO) road model.
    speed_limit_mps:
        Speed limit in metres per second.
    oneway:
        ``True`` when the opposite direction does not exist in the network.
        This is informational (derived at validation time) and used by the
        collection phase to decide when patrol support is required.
    """

    tail: object
    head: object
    length_m: float
    lanes: int = 1
    speed_limit_mps: float = SPEED_LIMIT_15_MPH
    oneway: bool = False

    @property
    def key(self) -> EdgeId:
        """The ``(tail, head)`` identifier of this directed segment."""
        return (self.tail, self.head)

    def travel_time_s(self, speed_mps: Optional[float] = None) -> float:
        """Free-flow traversal time at ``speed_mps`` (default: speed limit)."""
        speed = self.speed_limit_mps if speed_mps is None else float(speed_mps)
        if speed <= 0:
            raise RoadNetworkError(f"non-positive speed {speed!r} for segment {self.key}")
        return self.length_m / speed


@dataclass(frozen=True)
class Gate:
    """A border crossing of an open road system.

    A gate attaches to a border intersection and describes interaction
    traffic (Definition 2): vehicles that enter the region (``inbound=True``)
    or leave it (``outbound=True``) through this intersection.
    """

    node: object
    inbound: bool = True
    outbound: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if not (self.inbound or self.outbound):
            raise RoadNetworkError(
                f"gate at {self.node!r} must allow at least one of inbound/outbound"
            )


class RoadNetwork:
    """A directed road network of intersections and driveable segments.

    The class is a thin, validated wrapper over an adjacency structure plus a
    :mod:`networkx` view used for path algorithms.  It is immutable once
    :meth:`freeze` has been called (builders freeze the networks they
    return), which lets the traffic engine and protocol cache derived data.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports.
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._segments: Dict[EdgeId, DirectedSegment] = {}
        self._out: Dict[object, List[object]] = {}
        self._in: Dict[object, List[object]] = {}
        self._positions: Dict[object, Tuple[float, float]] = {}
        self._gates: Dict[object, Gate] = {}
        self._frozen = False
        self._nx_cache: Optional[nx.DiGraph] = None
        self._adjacency_cache: Optional[Tuple[dict, dict]] = None
        # ``False`` = not built yet; ``None`` = no native kernel here.
        self._route_kernel: Any = False
        self._node_tuple: Optional[Tuple[object, ...]] = None
        self._revision = 0
        self._route_cache: "OrderedDict[Tuple[object, object], Tuple[object, ...]]" = OrderedDict()
        self._route_cache_rev = 0
        #: Maximum resident route-cache entries (``None`` = unbounded).
        #: Insertion beyond the limit evicts oldest-first (see
        #: :func:`repro.roadnet.routing.shortest_path`); since cached and
        #: recomputed paths are identical, the cap only bounds memory — at
        #: city scale an unbounded (origin, destination) memo grows without
        #: limit under waypoint demand.
        self.route_cache_limit: Optional[int] = DEFAULT_ROUTE_CACHE_LIMIT

    # ------------------------------------------------------------------ build
    def add_intersection(self, node: object, pos: Optional[Tuple[float, float]] = None) -> None:
        """Add an intersection (idempotent).

        ``pos`` is an optional ``(x, y)`` coordinate in metres used by the
        Manhattan builder and by distance-based seed selection; it has no
        effect on the protocol itself.
        """
        self._check_mutable()
        if node not in self._out:
            self._revision += 1
        self._out.setdefault(node, [])
        self._in.setdefault(node, [])
        if pos is not None:
            self._positions[node] = (float(pos[0]), float(pos[1]))

    def add_segment(
        self,
        tail: object,
        head: object,
        length_m: float,
        *,
        lanes: int = 1,
        speed_limit_mps: float = SPEED_LIMIT_15_MPH,
    ) -> DirectedSegment:
        """Add a directed segment ``tail -> head``.

        Both end points are created implicitly if they do not exist yet.
        """
        self._check_mutable()
        if tail == head:
            raise RoadNetworkError(f"self-loop segments are not allowed ({tail!r})")
        if length_m <= 0:
            raise RoadNetworkError(f"segment {tail!r}->{head!r} has non-positive length")
        if lanes < 1:
            raise RoadNetworkError(f"segment {tail!r}->{head!r} must have at least one lane")
        if speed_limit_mps <= 0:
            raise RoadNetworkError(f"segment {tail!r}->{head!r} has non-positive speed limit")
        key = (tail, head)
        if key in self._segments:
            raise RoadNetworkError(f"duplicate segment {tail!r}->{head!r}")
        self.add_intersection(tail)
        self.add_intersection(head)
        seg = DirectedSegment(
            tail=tail,
            head=head,
            length_m=float(length_m),
            lanes=int(lanes),
            speed_limit_mps=float(speed_limit_mps),
            oneway=(head, tail) not in self._segments,
        )
        self._segments[key] = seg
        self._out[tail].append(head)
        self._in[head].append(tail)
        self._revision += 1
        # If the reverse direction already existed it is no longer one-way.
        rev = (head, tail)
        if rev in self._segments and self._segments[rev].oneway:
            old = self._segments[rev]
            self._segments[rev] = DirectedSegment(
                tail=old.tail,
                head=old.head,
                length_m=old.length_m,
                lanes=old.lanes,
                speed_limit_mps=old.speed_limit_mps,
                oneway=False,
            )
        return seg

    def add_bidirectional(
        self,
        a: object,
        b: object,
        length_m: float,
        *,
        lanes: int = 1,
        speed_limit_mps: float = SPEED_LIMIT_15_MPH,
    ) -> Tuple[DirectedSegment, DirectedSegment]:
        """Add both directions of a two-way road segment ``{a, b}``."""
        s1 = self.add_segment(a, b, length_m, lanes=lanes, speed_limit_mps=speed_limit_mps)
        s2 = self.add_segment(b, a, length_m, lanes=lanes, speed_limit_mps=speed_limit_mps)
        # ``oneway`` flags were fixed up by add_segment; re-read them.
        return self._segments[s1.key], self._segments[s2.key]

    def add_gate(self, gate: Gate) -> None:
        """Declare a border gate (open systems only)."""
        self._check_mutable()
        if gate.node not in self._out:
            raise RoadNetworkError(f"gate references unknown intersection {gate.node!r}")
        if gate.node in self._gates:
            raise RoadNetworkError(f"duplicate gate at {gate.node!r}")
        self._gates[gate.node] = gate

    def freeze(self) -> "RoadNetwork":
        """Validate the network and make it immutable.  Returns ``self``."""
        if not self._frozen:
            self.validate()
            self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RoadNetworkError("road network is frozen and cannot be modified")

    # --------------------------------------------------------------- queries
    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    @property
    def revision(self) -> int:
        """Monotone counter bumped on every structural mutation.

        Derived caches (the route cache in :mod:`repro.roadnet.routing`) key
        their validity on this counter, so they survive for the lifetime of
        a frozen network and self-invalidate if an unfrozen network grows.
        """
        return self._revision

    def route_cache(self) -> "OrderedDict[Tuple[object, object], Tuple[object, ...]]":
        """The ``(origin, destination) -> node-path`` memo for this network.

        Cleared automatically whenever :attr:`revision` has moved since the
        cache was last touched; callers (see
        :func:`repro.roadnet.routing.shortest_path`) treat the stored tuples
        as immutable.  An :class:`~collections.OrderedDict` in insertion
        order, so evicting the oldest entry is O(1).
        """
        if self._route_cache_rev != self._revision:
            self._route_cache = OrderedDict()
            self._route_cache_rev = self._revision
        return self._route_cache

    @property
    def nodes(self) -> List[object]:
        """All intersections (stable insertion order)."""
        return list(self._out.keys())

    @property
    def node_tuple(self) -> Tuple[object, ...]:
        """All intersections as a tuple, in :attr:`nodes` order.

        Shared by every caller once the network is frozen, so per-vehicle
        routers index one tuple instead of copying the node list each.
        """
        if self._node_tuple is not None:
            return self._node_tuple
        nodes = tuple(self._out)
        if self._frozen:
            self._node_tuple = nodes
        return nodes

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def segments(self) -> Iterator[DirectedSegment]:
        """Iterate over every directed segment."""
        return iter(self._segments.values())

    def segment(self, tail: object, head: object) -> DirectedSegment:
        """The directed segment ``tail -> head`` (raises if absent)."""
        try:
            return self._segments[(tail, head)]
        except KeyError:
            raise RoadNetworkError(f"no segment {tail!r}->{head!r}") from None

    def has_segment(self, tail: object, head: object) -> bool:
        return (tail, head) in self._segments

    def has_node(self, node: object) -> bool:
        return node in self._out

    def outbound_neighbors(self, node: object) -> List[object]:
        """``n_o(u)``: intersections reachable directly from ``node``."""
        self._require_node(node)
        return list(self._out[node])

    def inbound_neighbors(self, node: object) -> List[object]:
        """``n_i(u)``: intersections with a segment flowing into ``node``."""
        self._require_node(node)
        return list(self._in[node])

    def degree(self, node: object) -> int:
        """Total number of directed segments incident to ``node``."""
        self._require_node(node)
        return len(self._out[node]) + len(self._in[node])

    def position(self, node: object) -> Tuple[float, float]:
        """The ``(x, y)`` coordinate of ``node`` (defaults to ``(0, 0)``)."""
        self._require_node(node)
        return self._positions.get(node, (0.0, 0.0))

    def positions(self) -> Mapping[object, Tuple[float, float]]:
        """All known node positions."""
        return dict(self._positions)

    @property
    def gates(self) -> Dict[object, Gate]:
        """Mapping of border intersection -> :class:`Gate`."""
        return dict(self._gates)

    @property
    def is_open_system(self) -> bool:
        """``True`` when at least one gate is declared (Definition 1/2)."""
        return bool(self._gates)

    def border_nodes(self) -> List[object]:
        """Intersections that carry interaction traffic."""
        return list(self._gates.keys())

    def is_border(self, node: object) -> bool:
        return node in self._gates

    def one_way_segments(self) -> List[DirectedSegment]:
        """All segments whose reverse direction does not exist."""
        return [s for s in self._segments.values() if (s.head, s.tail) not in self._segments]

    def total_length_m(self) -> float:
        """Sum of the lengths of all directed segments."""
        return sum(s.length_m for s in self._segments.values())

    def _require_node(self, node: object) -> None:
        if node not in self._out:
            raise RoadNetworkError(f"unknown intersection {node!r}")

    # ---------------------------------------------------------------- checks
    def validate(self) -> None:
        """Check the structural assumptions of the paper's Section III.

        * the network is non-empty,
        * every intersection has at least one inbound and one outbound
          segment (otherwise a checkpoint could never be reached / left,
          violating the "each intersection can be visited" premise of
          Theorem 4),
        * the directed graph is strongly connected, so a covering patrol
          cycle exists (Theorem 4) and random-waypoint routing always finds a
          path.
        """
        if not self._segments:
            raise RoadNetworkError("road network has no segments")
        for node in self._out:
            if not self._out[node]:
                raise RoadNetworkError(f"intersection {node!r} has no outbound segment")
            if not self._in[node]:
                raise RoadNetworkError(f"intersection {node!r} has no inbound segment")
        g = self.to_networkx()
        if not nx.is_strongly_connected(g):
            n_comp = nx.number_strongly_connected_components(g)
            raise RoadNetworkError(
                f"road network is not strongly connected ({n_comp} components); "
                "the paper assumes a connected road system"
            )

    # ------------------------------------------------------------- interop
    def to_networkx(self) -> nx.DiGraph:
        """A :class:`networkx.DiGraph` view (cached once frozen).

        Edge attributes: ``length_m``, ``lanes``, ``speed_limit_mps``,
        ``travel_time_s`` (free-flow).  Node attribute: ``pos`` when known.
        """
        if self._frozen and self._nx_cache is not None:
            return self._nx_cache
        g = nx.DiGraph(name=self.name)
        for node in self._out:
            attrs = {}
            if node in self._positions:
                attrs["pos"] = self._positions[node]
            g.add_node(node, **attrs)
        for seg in self._segments.values():
            g.add_edge(
                seg.tail,
                seg.head,
                length_m=seg.length_m,
                lanes=seg.lanes,
                speed_limit_mps=seg.speed_limit_mps,
                travel_time_s=seg.travel_time_s(),
            )
        if self._frozen:
            self._nx_cache = g
        return g

    def travel_time_adjacency(self) -> Tuple[dict, dict]:
        """Cached ``(successors, predecessors)`` adjacency lists.

        Each maps ``node -> [(neighbor, travel_time_s), ...]`` in the exact
        iteration order of :meth:`to_networkx`'s graph, which is what keeps
        the fast shortest-path routine's heap tie-breaking — and therefore
        its returned paths — identical to networkx's.
        """
        if self._frozen and self._adjacency_cache is not None:
            return self._adjacency_cache
        g = self.to_networkx()
        succ = {
            v: [(w, data["travel_time_s"]) for w, data in g.succ[v].items()]
            for v in g
        }
        pred = {
            v: [(w, data["travel_time_s"]) for w, data in g.pred[v].items()]
            for v in g
        }
        if self._frozen:
            self._adjacency_cache = (succ, pred)
        return succ, pred

    def route_kernel(self) -> Optional["RouteKernel"]:
        """The native shortest-path search over this network, if any.

        Built on first use from the CSR form of
        :meth:`travel_time_adjacency` and cached; ``None`` for an unfrozen
        network, or when the C kernel cannot be built here — routing then
        runs the Python search, which returns the same paths.
        """
        if not self._frozen:
            return None
        if self._route_kernel is False:
            from ..mobility.kernels import load_route_kernel

            self._route_kernel = load_route_kernel(*self.travel_time_adjacency())
        kernel: Optional["RouteKernel"] = self._route_kernel
        return kernel

    # ------------------------------------------------------------ transforms
    def closed_copy(self, name: Optional[str] = None) -> "RoadNetwork":
        """A copy of this network with all gates removed (closed system).

        The paper's evaluation first "closes the traffic lanes along the
        border" to obtain the closed system and later re-opens them; this
        helper reproduces that step.
        """
        return self._copy(gates=False, name=name or f"{self.name}-closed")

    def open_copy(self, gates: Sequence[Gate], name: Optional[str] = None) -> "RoadNetwork":
        """A copy of this network with ``gates`` installed (open system)."""
        net = self._copy(gates=False, name=name or f"{self.name}-open")
        for gate in gates:
            net.add_gate(gate)
        return net.freeze()

    def _copy(self, *, gates: bool, name: str) -> "RoadNetwork":
        net = RoadNetwork(name=name)
        net.route_cache_limit = self.route_cache_limit
        for node in self._out:
            net.add_intersection(node, self._positions.get(node))
        for seg in self._segments.values():
            net.add_segment(
                seg.tail,
                seg.head,
                seg.length_m,
                lanes=seg.lanes,
                speed_limit_mps=seg.speed_limit_mps,
            )
        if gates:
            for gate in self._gates.values():
                net.add_gate(gate)
        return net

    # ---------------------------------------------------------------- dunder
    def __getstate__(self) -> Dict[str, Any]:
        # The native route kernel holds process-local foreign pointers; a
        # copy rebuilds it on first use.
        state = dict(self.__dict__)
        state["_route_kernel"] = False
        return state

    def __contains__(self, node: object) -> bool:
        return node in self._out

    def __len__(self) -> int:
        return len(self._out)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "open" if self.is_open_system else "closed"
        return (
            f"RoadNetwork({self.name!r}, nodes={self.num_nodes}, "
            f"segments={self.num_segments}, {kind})"
        )
