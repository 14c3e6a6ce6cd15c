"""Unit tests for the topology model."""

import pytest

from repro.errors import TopologyError
from repro.topology import Device, DeviceType, Topology
from tests.graph_export import links_between, topology_to_networkx


@pytest.fixture
def topo() -> Topology:
    t = Topology("test")
    t.add_device("s1", DeviceType.SERVER)
    t.add_device("tor1", DeviceType.TOR)
    t.add_device("core1", DeviceType.CORE)
    t.add_link("s1", "tor1")
    t.add_link("tor1", "core1")
    return t


class TestConstruction:
    def test_duplicate_device_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.add_device("s1", DeviceType.SERVER)

    def test_empty_name_rejected(self):
        with pytest.raises(TopologyError):
            Device("", DeviceType.SERVER)

    def test_self_link_rejected(self, topo):
        with pytest.raises(TopologyError):
            topo.add_link("s1", "s1")

    def test_link_to_unknown_device(self, topo):
        with pytest.raises(TopologyError):
            topo.add_link("s1", "ghost")

    def test_parallel_links(self, topo):
        topo.add_link("s1", "core1", count=2)
        links = links_between(topo, "s1", "core1")
        assert len(links) == 2
        assert topo.link_count("s1", "core1") == 2
        assert links[0].name != links[1].name

    def test_parallel_links_accumulate(self, topo):
        topo.add_link("s1", "core1")
        topo.add_link("s1", "core1")
        assert topo.link_count("s1", "core1") == 2
        assert len(links_between(topo, "s1", "core1")) == 2


class TestInspection:
    def test_neighbors(self, topo):
        assert topo.neighbors("tor1") == ["s1", "core1"]

    def test_devices_by_type(self, topo):
        assert [d.name for d in topo.devices(DeviceType.SERVER)] == ["s1"]
        assert len(topo.devices()) == 3

    def test_counts(self, topo):
        counts = topo.counts()
        assert counts["server"] == 1
        assert counts["total"] == 3

    def test_counts_exclude_external_from_total(self, topo):
        topo.add_device("Internet", DeviceType.EXTERNAL)
        assert topo.counts()["total"] == 3

    def test_unknown_device_raises(self, topo):
        with pytest.raises(TopologyError):
            topo.device("ghost")


class TestInterop:
    def test_to_networkx_simple(self, topo):
        g = topology_to_networkx(topo)
        assert g.number_of_nodes() == 3
        assert g.has_edge("s1", "tor1")

    def test_to_networkx_multigraph_keeps_parallels(self, topo):
        topo.add_link("s1", "core1", count=2)
        g = topology_to_networkx(topo, multigraph=True)
        assert g.number_of_edges("s1", "core1") == 2

    def test_validate_connected(self, topo):
        topo.validate_connected()
        topo.add_device("island", DeviceType.SERVER)
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate_connected()
        topo.validate_connected(among=["s1", "core1"])  # still fine

    def test_validate_connected_names_an_unknown_device(self, topo):
        with pytest.raises(TopologyError, match="unknown device 'ghost'"):
            topo.validate_connected(among=["ghost", "s1"])
        with pytest.raises(TopologyError, match="not connected"):
            topo.validate_connected(among=["s1", "ghost"])


class TestHopsFrom:
    def test_hop_counts(self, topo):
        topo.add_device("island", DeviceType.SERVER)
        assert topo.hops_from("s1") == {"s1": 0, "tor1": 1, "core1": 2}
        assert topo.hops_from("island") == {"island": 0}

    def test_parallel_links_are_one_hop(self, topo):
        topo.add_link("s1", "core1", count=3)
        assert topo.hops_from("core1") == {"core1": 0, "s1": 1, "tor1": 1}

    def test_unknown_device(self, topo):
        with pytest.raises(TopologyError, match="unknown device"):
            topo.hops_from("ghost")
