"""Unit tests for the fat-tree generator (Table 3)."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    TOPOLOGY_A,
    TOPOLOGY_B,
    TOPOLOGY_C,
    DeviceType,
    FatTreeConfig,
    fat_tree,
)

#: Table 3 of the paper, verbatim.
PAPER_TABLE_3 = {
    16: {"core": 64, "aggregation": 128, "tor": 128, "server": 1024, "total": 1344},
    24: {"core": 144, "aggregation": 288, "tor": 288, "server": 3456, "total": 4176},
    48: {
        "core": 576,
        "aggregation": 1152,
        "tor": 1152,
        "server": 27648,
        "total": 30528,
    },
}


def expected_counts(config: FatTreeConfig) -> dict[str, int]:
    """The Table-3 census a k-ary fat tree must produce."""
    half = config.ports // 2
    cores = half * half
    servers = config.ports * half * half
    return {
        "core": cores,
        "aggregation": config.ports * half,
        "tor": config.ports * half,
        "server": servers,
        "total": cores + 2 * config.ports * half + servers,
    }


class TestConfig:
    @pytest.mark.parametrize("ports", [3, 2, 7, 0, -4])
    def test_invalid_port_counts(self, ports):
        with pytest.raises(TopologyError):
            FatTreeConfig(ports=ports)

    @pytest.mark.parametrize("ports", [16, 24, 48])
    def test_expected_counts_match_paper(self, ports):
        assert expected_counts(FatTreeConfig(ports=ports)) == PAPER_TABLE_3[ports]

    def test_table3_constants(self):
        assert TOPOLOGY_A.ports == 16
        assert TOPOLOGY_B.ports == 24
        assert TOPOLOGY_C.ports == 48


class TestGeneratedTopology:
    @pytest.mark.parametrize("ports", [4, 8, 16])
    def test_census_matches_expectation(self, ports):
        config = FatTreeConfig(ports=ports)
        topo = fat_tree(config)
        counts = topo.counts()
        for key, expected in expected_counts(config).items():
            assert counts[key] == expected, key

    def test_topology_a_is_1344_devices(self):
        assert fat_tree(TOPOLOGY_A).counts()["total"] == 1344

    def test_tor_connects_to_all_pod_aggs(self):
        topo = fat_tree(FatTreeConfig(ports=4))
        neighbors = set(topo.neighbors("pod0-tor0"))
        assert {"pod0-agg0", "pod0-agg1"} <= neighbors

    def test_agg_connects_to_its_core_group_only(self):
        topo = fat_tree(FatTreeConfig(ports=4))
        neighbors = {
            n for n in topo.neighbors("pod1-agg0") if n.startswith("core")
        }
        assert neighbors == {"core-0-0", "core-0-1"}

    def test_servers_per_tor(self):
        topo = fat_tree(FatTreeConfig(ports=4))
        servers = [
            n for n in topo.neighbors("pod2-tor1") if n.startswith("srv")
        ]
        assert len(servers) == 2

    def test_internet_behind_every_core(self):
        topo = fat_tree(FatTreeConfig(ports=4))
        assert set(topo.neighbors("Internet")) == {
            d.name for d in topo.devices(DeviceType.CORE)
        }

    def test_internet_optional(self):
        topo = fat_tree(FatTreeConfig(ports=4, attach_internet=False))
        assert "Internet" not in topo

    def test_pod_and_rack_metadata(self):
        topo = fat_tree(FatTreeConfig(ports=4))
        server = topo.device("srv-p3-t1-0")
        assert server.pod == 3
        assert server.rack == 3 * 2 + 1
