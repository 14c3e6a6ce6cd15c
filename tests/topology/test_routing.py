"""Unit tests for route enumeration.

NetworkX's ``all_shortest_paths`` is the oracle :func:`shortest_routes`
is held to route set for route set; it lives here only, ``src/`` never
imports NetworkX to route.
"""

import hashlib
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.topology import (
    DeviceType,
    FatTreeConfig,
    Topology,
    benson_datacenter,
    fat_tree,
    fat_tree_routes,
    lab_cloud,
    route_devices,
    shortest_routes,
    storage_sample,
)
from tests.graph_export import topology_to_networkx


def networkx_routes(topology, src, dst):
    """The oracle: every shortest path NetworkX finds, endpoints cut."""
    paths = nx.all_shortest_paths(topology_to_networkx(topology), src, dst)
    return sorted(tuple(path[1:-1]) for path in paths)


def networkx_error(topology, src, dst) -> str:
    """The message the NetworkX-based router raised, from the oracle."""
    graph = topology_to_networkx(topology)
    for end in (src, dst):
        if end not in graph:
            return f"unknown device {end!r}"
    with pytest.raises(nx.NetworkXNoPath):
        networkx_routes(topology, src, dst)
    return f"no route from {src!r} to {dst!r}"


class TestShortestRoutes:
    def test_lab_cloud_ecmp(self):
        topo = lab_cloud()
        routes = shortest_routes(topo, "Server1", "Internet")
        assert routes == [("Switch1", "Core1"), ("Switch1", "Core2")]

    def test_storage_sample_matches_figure_3(self):
        topo = storage_sample()
        routes = shortest_routes(topo, "S1", "Internet")
        assert routes == [("ToR1", "Core1"), ("ToR1", "Core2")]

    def test_max_routes_cap(self):
        topo = lab_cloud()
        routes = shortest_routes(topo, "Server1", "Internet", max_routes=1)
        assert len(routes) == 1

    def test_unknown_device(self):
        with pytest.raises(RoutingError):
            shortest_routes(lab_cloud(), "ghost", "Internet")

    def test_no_path(self):
        from repro.topology import DeviceType, Topology

        topo = Topology()
        topo.add_device("a", DeviceType.SERVER)
        topo.add_device("b", DeviceType.SERVER)
        with pytest.raises(RoutingError, match="no route"):
            shortest_routes(topo, "a", "b")


class TestFatTreeRoutes:
    @pytest.fixture(scope="class")
    def config(self):
        return FatTreeConfig(ports=4)

    @pytest.fixture(scope="class")
    def topo(self, config):
        return fat_tree(config)

    def test_internet_route_count(self, config):
        routes = fat_tree_routes(config, "srv-p0-t0-0")
        assert len(routes) == (config.ports // 2) ** 2  # 4 for k=4

    def test_closed_form_matches_networkx(self, config, topo):
        closed = set(fat_tree_routes(config, "srv-p0-t0-0"))
        searched = set(shortest_routes(topo, "srv-p0-t0-0", "Internet"))
        assert closed == searched

    def test_cross_pod_routes(self, config, topo):
        closed = set(fat_tree_routes(config, "srv-p0-t0-0", "srv-p1-t1-0"))
        searched = set(shortest_routes(topo, "srv-p0-t0-0", "srv-p1-t1-0"))
        assert closed == searched

    def test_same_pod_routes(self, config, topo):
        closed = set(fat_tree_routes(config, "srv-p0-t0-0", "srv-p0-t1-0"))
        searched = set(shortest_routes(topo, "srv-p0-t0-0", "srv-p0-t1-0"))
        assert closed == searched

    def test_same_tor_route(self, config):
        routes = fat_tree_routes(config, "srv-p0-t0-0", "srv-p0-t0-1")
        assert routes == [("pod0-tor0",)]

    def test_max_routes_cap(self, config):
        assert len(fat_tree_routes(config, "srv-p0-t0-0", max_routes=2)) == 2

    def test_bad_server_name(self, config):
        with pytest.raises(RoutingError):
            fat_tree_routes(config, "not-a-server")


class TestHelpers:
    def test_route_devices_validates(self):
        topo = lab_cloud()
        devices = route_devices(topo, [("Switch1", "Core1")])
        assert devices == frozenset({"Switch1", "Core1"})
        with pytest.raises(Exception):
            route_devices(topo, [("nope",)])


# --------------------------------------------------------------------- #
# Differential: the same route sets as NetworkX
# --------------------------------------------------------------------- #

FIXTURES = {
    "lab_cloud": lab_cloud,
    "storage_sample": storage_sample,
    "benson_datacenter": benson_datacenter,
    "fat_tree_k4": lambda: fat_tree(FatTreeConfig(ports=4)),
    "fat_tree_k8": lambda: fat_tree(FatTreeConfig(ports=8)),
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def fixture_topology(request):
    return FIXTURES[request.param]()


def server_names(topology):
    return [device.name for device in topology.servers()]


class TestMatchesNetworkX:
    def test_every_server_to_the_internet(self, fixture_topology):
        for server in server_names(fixture_topology):
            assert shortest_routes(
                fixture_topology, server, "Internet"
            ) == networkx_routes(fixture_topology, server, "Internet")

    def test_server_to_server(self, fixture_topology):
        servers = server_names(fixture_topology)
        # Every pair on the small fixtures, a spread on the fat trees.
        pairs = itertools.combinations(servers[:: max(1, len(servers) // 12)], 2)
        for src, dst in pairs:
            assert shortest_routes(
                fixture_topology, src, dst
            ) == networkx_routes(fixture_topology, src, dst)

    def test_every_device_to_the_internet(self, fixture_topology):
        for device in fixture_topology.devices():
            assert shortest_routes(
                fixture_topology, device.name, "Internet"
            ) == networkx_routes(fixture_topology, device.name, "Internet")


@st.composite
def connected_topologies(draw):
    """A random spanning tree plus random extra links, any of them
    parallel, with two endpoints drawn from its devices."""
    n = draw(st.integers(2, 12))
    names = draw(st.permutations([f"d{i}" for i in range(n)]))
    topology = Topology("random")
    for name in names:
        topology.add_device(name, DeviceType.SWITCH)
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        topology.add_link(
            names[i], names[parent], count=draw(st.integers(1, 3))
        )
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    for a, b in extra:
        if a != b:
            topology.add_link(names[a], names[b], count=draw(st.integers(1, 2)))
    src = draw(st.sampled_from(names))
    dst = draw(st.sampled_from(names))
    return topology, src, dst


@settings(max_examples=200, deadline=None)
@given(connected_topologies())
def test_random_connected_topologies_match_networkx(case):
    topology, src, dst = case
    assert shortest_routes(topology, src, dst) == networkx_routes(
        topology, src, dst
    )


@settings(max_examples=100, deadline=None)
@given(connected_topologies(), st.integers(1, 40))
def test_max_routes_is_the_sorted_prefix(case, cap):
    topology, src, dst = case
    every = networkx_routes(topology, src, dst)
    assert shortest_routes(topology, src, dst, max_routes=cap) == every[:cap]


class TestEdgeCasesMatchNetworkX:
    def test_src_is_dst(self):
        topo = lab_cloud()
        assert shortest_routes(topo, "Server1", "Server1") == [()]
        assert networkx_routes(topo, "Server1", "Server1") == [()]

    def test_adjacent_devices(self):
        topo = lab_cloud()
        assert shortest_routes(topo, "Server1", "Switch1") == [()]
        assert networkx_routes(topo, "Server1", "Switch1") == [()]

    @pytest.mark.parametrize(
        "src, dst", [("ghost", "Internet"), ("Server1", "ghost")]
    )
    def test_unknown_device_message(self, src, dst):
        topo = lab_cloud()
        with pytest.raises(RoutingError) as raised:
            shortest_routes(topo, src, dst)
        assert str(raised.value) == networkx_error(topo, src, dst)

    def test_no_path_message(self):
        topo = lab_cloud()
        topo.add_device("island", DeviceType.SERVER)
        with pytest.raises(RoutingError) as raised:
            shortest_routes(topo, "Server1", "island")
        assert str(raised.value) == networkx_error(topo, "Server1", "island")

    def test_max_routes_on_a_fat_tree(self):
        topo = fat_tree(FatTreeConfig(ports=8))
        every = networkx_routes(topo, "srv-p0-t0-0", "srv-p5-t2-1")
        assert len(every) == 16
        for cap in range(1, len(every) + 2):
            assert shortest_routes(
                topo, "srv-p0-t0-0", "srv-p5-t2-1", max_routes=cap
            ) == every[:cap]


def seeded_topology(seed: int) -> Topology:
    """:func:`connected_topologies`' shape from a seeded generator: a
    random spanning tree plus random extra links, any of them parallel."""
    rng = random.Random(f"routing-pin/{seed}")
    n = rng.randint(2, 12)
    names = [f"d{i}" for i in range(n)]
    rng.shuffle(names)
    topology = Topology(f"seeded-{seed}")
    for name in names:
        topology.add_device(name, DeviceType.SWITCH)
    for i in range(1, n):
        topology.add_link(names[i], names[rng.randrange(i)], count=rng.randint(1, 3))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            topology.add_link(names[a], names[b], count=rng.randint(1, 2))
    return topology


def test_routes_on_seeded_random_topologies_are_pinned():
    """Every (src, dst) pair of 60 seeded topologies, uncapped and capped
    at 2, one line per pair; plus the lab cloud with an island, for the
    error messages."""
    lines = []
    for seed in range(60):
        topology = seeded_topology(seed)
        names = [d.name for d in topology.devices()]
        for src, dst in itertools.product(names, repeat=2):
            every = shortest_routes(topology, src, dst)
            capped = shortest_routes(topology, src, dst, max_routes=2)
            lines.append(f"{seed}\t{src}\t{dst}\t{every}\t{capped}")
    lab = lab_cloud()
    lab.add_device("island", DeviceType.SERVER)
    for src, dst in [("Server1", "island"), ("ghost", "island"), ("island", "ghost")]:
        with pytest.raises(RoutingError) as raised:
            shortest_routes(lab, src, dst)
        lines.append(str(raised.value))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert (len(lines), digest) == SEEDED_ROUTES


SEEDED_ROUTES = (
    3340,
    "288f7497b7e2bc1b8eda6c6c1aa0cfa2d9e7b729eff8e8b99fb81e5dfa895913",
)
