"""Route cache: memoized shortest paths and the all-gates route table.

The cache must be *transparent*: every cached (or table-warmed) path has to
be identical — node for node, including Dijkstra heap tie-breaks — to what
the uncached computation returns, and a mutation of an unfrozen network must
invalidate it through the revision counter.
"""

import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.mobility import kernels
from repro.mobility.kernels import available_backends, load_route_kernel
from repro.roadnet import routing
from repro.roadnet.builders import arterial_network, grid_network, ring_network
from repro.roadnet.graph import DEFAULT_ROUTE_CACHE_LIMIT, Gate, RoadNetwork
from repro.roadnet.routing import (
    RandomWaypointRouter,
    _bidirectional_dijkstra,
    shortest_path,
    shortest_path_uncached,
    warm_gate_routes,
)
from repro.roadnet.synth import synthetic_city


def _all_pairs(net, limit=None):
    nodes = net.nodes
    pairs = [(o, d) for o in nodes for d in nodes if o != d]
    return pairs[:limit] if limit is not None else pairs


needs_cc = pytest.mark.skipif(
    not available_backends(), reason="no C compiler here: the native router cannot load"
)


# ------------------------------------------------------------------ equality
networks = st.one_of(
    st.tuples(st.integers(2, 4), st.integers(2, 4)).map(
        lambda rc: grid_network(rc[0], rc[1])
    ),
    st.tuples(st.integers(3, 9), st.booleans()).map(
        lambda ab: ring_network(ab[0], one_way=ab[1])
    ),
    st.tuples(st.integers(2, 3), st.integers(2, 4)).map(
        lambda rc: arterial_network(rc[0], rc[1])
    ),
)


@settings(max_examples=40, deadline=None)
@given(net=networks, data=st.data())
def test_cached_path_identical_to_uncached(net, data):
    """Cache hits reproduce the uncached path exactly, tie-breaks included."""
    pairs = _all_pairs(net)
    pair = data.draw(st.sampled_from(pairs))
    origin, dest = pair
    reference = shortest_path_uncached(net, origin, dest)
    first = shortest_path(net, origin, dest)  # cache miss
    second = shortest_path(net, origin, dest)  # cache hit
    assert first == reference
    assert second == reference
    # Fresh list per call: mutating a result must not corrupt the cache.
    second.append("garbage")
    assert shortest_path(net, origin, dest) == reference


@settings(max_examples=15, deadline=None)
@given(
    rows=st.integers(2, 3),
    cols=st.integers(2, 4),
)
def test_gate_route_table_matches_uncached(rows, cols):
    """Table-warmed gate routes equal the uncached computation pairwise."""
    net = grid_network(rows, cols, gates_on_border=True)
    warmed = warm_gate_routes(net)
    assert warmed > 0
    inbound = [g.node for g in net.gates.values() if g.inbound]
    outbound = [g.node for g in net.gates.values() if g.outbound]
    for origin in inbound:
        for dest in outbound:
            if origin == dest:
                continue
            assert shortest_path(net, origin, dest) == shortest_path_uncached(
                net, origin, dest
            )


# -------------------------------------------------------------- invalidation
class TestCacheInvalidation:
    def _two_route_net(self):
        # A -> B directly (slow detour) vs a shortcut added later.
        net = RoadNetwork(name="mutable")
        net.add_segment("a", "b", 100.0)
        net.add_segment("b", "c", 1000.0)
        net.add_segment("c", "a", 100.0)
        return net

    def test_revision_bumps_on_mutation(self):
        net = self._two_route_net()
        rev = net.revision
        net.add_segment("b", "d", 50.0)
        net.add_segment("d", "c", 50.0)
        assert net.revision > rev

    def test_mutation_invalidates_cached_path(self):
        net = self._two_route_net()
        assert shortest_path(net, "b", "c") == ["b", "c"]
        assert ("b", "c") in net.route_cache()
        # Add a faster two-hop detour: the cached direct path must not
        # survive the graph revision bump.
        net.add_segment("b", "d", 10.0)
        net.add_segment("d", "c", 10.0)
        assert ("b", "c") not in net.route_cache()
        assert shortest_path(net, "b", "c") == ["b", "d", "c"]
        assert shortest_path(net, "b", "c") == shortest_path_uncached(net, "b", "c")

    def test_frozen_network_keeps_cache(self):
        net = grid_network(3, 3)
        shortest_path(net, (0, 0), (2, 2))
        assert net.route_cache()
        rev = net.revision
        shortest_path(net, (0, 0), (1, 2))
        assert net.revision == rev
        assert len(net.route_cache()) == 2

    def test_no_route_is_not_cached(self):
        net = self._two_route_net()
        with pytest.raises(RoutingError):
            shortest_path(net, "a", "nowhere")
        assert ("a", "nowhere") not in net.route_cache()


class TestWarmGateRoutes:
    def test_closed_network_warms_nothing(self):
        net = grid_network(3, 3)
        assert warm_gate_routes(net) == 0

    def test_warm_counts_resident_pairs(self):
        net = grid_network(3, 3, gates_on_border=True)
        gates = len(net.gates)
        assert warm_gate_routes(net) == gates * (gates - 1)
        assert len(net.route_cache()) == gates * (gates - 1)

    def test_inbound_only_gate_is_origin_not_destination(self):
        net = grid_network(3, 3)
        net = net.open_copy(
            [
                Gate(node=(0, 0), inbound=True, outbound=False),
                Gate(node=(2, 2), inbound=True, outbound=True),
                Gate(node=(0, 2), inbound=False, outbound=True),
            ]
        )
        count = warm_gate_routes(net)
        # origins: (0,0) and (2,2); destinations: (2,2) and (0,2), minus
        # the origin==destination pair.
        assert count == 3

    def test_max_routes_caps_warming(self):
        net = grid_network(3, 3, gates_on_border=True)
        assert warm_gate_routes(net, max_routes=5) == 5
        assert len(net.route_cache()) == 5

    def test_max_routes_zero_warms_nothing(self):
        net = grid_network(3, 3, gates_on_border=True)
        assert warm_gate_routes(net, max_routes=0) == 0
        assert not net.route_cache()

    def test_negative_max_routes_rejected(self):
        net = grid_network(3, 3, gates_on_border=True)
        with pytest.raises(RoutingError):
            warm_gate_routes(net, max_routes=-1)


# ------------------------------------------------------------------- eviction
class TestRouteCacheLimit:
    """The memoized-route dict is bounded: oldest entries are evicted once
    the limit is reached.  Eviction is *transparent* — an evicted pair is
    simply recomputed, and Dijkstra is deterministic, so results never
    change; only memory does."""

    def test_default_limit_is_bounded(self):
        net = grid_network(2, 2)
        assert net.route_cache_limit == DEFAULT_ROUTE_CACHE_LIMIT

    def test_eviction_keeps_cache_at_limit(self):
        net = grid_network(3, 4)
        net.route_cache_limit = 8
        for origin, dest in _all_pairs(net, limit=30):
            shortest_path(net, origin, dest)
        assert len(net.route_cache()) == 8

    def test_evicted_pair_recomputes_identically(self):
        net = grid_network(3, 4)
        net.route_cache_limit = 4
        pairs = _all_pairs(net, limit=12)
        first = {p: shortest_path(net, *p) for p in pairs}
        # The early pairs were evicted; asking again recomputes, evicting
        # the newer entries in turn — every answer must be unchanged.
        for pair in pairs:
            assert shortest_path(net, *pair) == first[pair]
            assert shortest_path(net, *pair) == shortest_path_uncached(net, *pair)
        assert len(net.route_cache()) == 4

    def test_unlimited_cache_opt_out(self):
        net = grid_network(3, 4)
        net.route_cache_limit = None
        pairs = _all_pairs(net)
        for pair in pairs:
            shortest_path(net, *pair)
        assert len(net.route_cache()) == len(pairs)

    def test_limit_survives_open_copy(self):
        net = grid_network(3, 3)
        net.route_cache_limit = 17
        opened = net.open_copy([Gate(node=(0, 0))])
        assert opened.route_cache_limit == 17

    def test_eviction_order_is_oldest_inserted_first(self):
        net = grid_network(3, 4)
        net.route_cache_limit = 4
        pairs = _all_pairs(net, limit=6)
        for pair in pairs:
            shortest_path(net, *pair)
        assert list(net.route_cache()) == pairs[2:]
        # A hit does not refresh an entry: eviction stays insertion-ordered.
        shortest_path(net, *pairs[2])
        extra = _all_pairs(net)[6]
        shortest_path(net, *extra)
        assert list(net.route_cache()) == pairs[3:] + [extra]


# -------------------------------------------------------------- native router
# Frozen networks route cache misses through the C bidirectional Dijkstra
# (RoadNetwork.route_kernel); it must return the Python oracle's path node
# for node, heap tie-breaks included.


@st.composite
def tie_heavy_graphs(draw):
    """Small directed graphs with lengths from {1, 2, 3}: many equal-cost
    paths, and (unvalidated) missing edges, so some pairs are unreachable."""
    n = draw(st.integers(2, 9))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            max_size=30,
        )
    )
    net = RoadNetwork(name="ties")
    for v in range(n):
        net.add_intersection(v)
    for a, b, length in edges:
        if a != b and not net.has_segment(a, b):
            net.add_segment(a, b, float(length))
    return net


@needs_cc
@settings(max_examples=60, deadline=None)
@given(net=tie_heavy_graphs())
def test_native_matches_oracle_on_tie_heavy_graphs(net):
    succ, pred = net.travel_time_adjacency()
    kernel = load_route_kernel(succ, pred)
    for origin in net.nodes:
        for dest in net.nodes:  # origin == destination included
            want = _bidirectional_dijkstra(succ, pred, origin, dest)
            assert kernel.route(origin, dest) == want


frozen_tie_networks = st.one_of(
    st.tuples(st.integers(2, 5), st.integers(2, 5)).map(
        lambda rc: grid_network(rc[0], rc[1], block_length_m=100.0)
    ),
    st.integers(3, 9).map(lambda n: ring_network(n, one_way=True, length_m=100.0)),
    st.tuples(st.integers(2, 3), st.integers(2, 5)).map(
        lambda rc: arterial_network(rc[0], rc[1], arterial_block_m=200.0, cross_block_m=100.0)
    ),
    st.integers(0, 3).map(lambda seed: synthetic_city(2, 4, length_jitter=0.0, seed=seed)),
)


@needs_cc
@settings(max_examples=30, deadline=None)
@given(net=frozen_tie_networks)
def test_native_matches_oracle_on_frozen_networks(net):
    succ, pred = net.travel_time_adjacency()
    assert net.route_kernel() is not None
    for origin in net.nodes:
        for dest in net.nodes:
            want = _bidirectional_dijkstra(succ, pred, origin, dest)
            if origin == dest:
                assert shortest_path_uncached(net, origin, dest) == want == [origin]
            else:
                assert shortest_path_uncached(net, origin, dest) == want


@needs_cc
def test_native_matches_oracle_on_synthetic_city_pairs():
    net = synthetic_city(2, 18, seed=0)
    succ, pred = net.travel_time_adjacency()
    rng = random.Random(0)
    nodes = net.nodes
    for _ in range(2000):
        origin, dest = rng.choice(nodes), rng.choice(nodes)
        assert shortest_path_uncached(net, origin, dest) == _bidirectional_dijkstra(
            succ, pred, origin, dest
        )


@needs_cc
def test_frozen_network_misses_never_run_python(monkeypatch):
    net = grid_network(4, 4)

    def python_search(*args):
        raise AssertionError("a frozen network fell back to the Python search")

    monkeypatch.setattr(routing, "_bidirectional_dijkstra", python_search)
    assert shortest_path(net, (0, 0), (3, 3))[-1] == (3, 3)
    with pytest.raises(RoutingError):
        shortest_path(net, (0, 0), "nowhere")


def test_unfrozen_network_routes_in_python():
    net = RoadNetwork(name="unfrozen")
    net.add_segment("a", "b", 100.0)
    net.add_segment("b", "c", 1000.0)
    net.add_segment("c", "a", 100.0)
    assert net.route_kernel() is None
    assert shortest_path(net, "b", "a") == ["b", "c", "a"]


def test_fallback_without_a_compiler(monkeypatch):
    """No C compiler: the network gets no native kernel, and routing
    returns the same paths through the Python search."""
    monkeypatch.setattr(kernels, "_load_cc", lambda: None)
    net = synthetic_city(1, 6, seed=2)
    assert net.route_kernel() is None
    succ, pred = net.travel_time_adjacency()
    for origin, dest in _all_pairs(net, limit=200):
        assert shortest_path(net, origin, dest) == _bidirectional_dijkstra(
            succ, pred, origin, dest
        )


@needs_cc
def test_threads_share_one_frozen_network():
    """Three threads (more than the CI runner's cores) search through the
    one cached kernel and its shared scratch while the interpreter switches
    threads as often as it can; each result must be its own pair's path."""
    net = synthetic_city(1, 10, seed=3)
    succ, pred = net.travel_time_adjacency()
    nodes = net.nodes
    rng = random.Random(7)
    work = [[(rng.choice(nodes), rng.choice(nodes)) for _ in range(2000)] for _ in range(3)]
    want = [[_bidirectional_dijkstra(succ, pred, o, d) for o, d in pairs] for pairs in work]
    got = [[] for _ in work]
    kernel = net.route_kernel()
    assert kernel is not None
    barrier = threading.Barrier(len(work))

    def worker(i):
        barrier.wait()
        for o, d in work[i]:
            got[i].append(shortest_path_uncached(net, o, d))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(work))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert net.route_kernel() is kernel
    assert got == want


@needs_cc
def test_network_with_native_kernel_pickles():
    net = grid_network(3, 3)
    path = shortest_path_uncached(net, (0, 0), (2, 2))
    assert net.route_kernel() is not None
    clone = pickle.loads(pickle.dumps(net))
    assert shortest_path_uncached(clone, (0, 0), (2, 2)) == path
    assert clone.route_kernel() is not net.route_kernel()


def test_routers_share_the_frozen_node_tuple():
    net = grid_network(3, 3)
    assert net.node_tuple is net.node_tuple
    assert net.node_tuple == tuple(net.nodes)
    a = RandomWaypointRouter(net, np.random.default_rng(0))
    b = RandomWaypointRouter(net, np.random.default_rng(0))
    assert a._nodes is b._nodes is net.node_tuple
    assert a.plan_from((0, 0)).waypoints == b.plan_from((0, 0)).waypoints
