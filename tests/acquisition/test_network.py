"""Unit tests for the network dependency collectors (NSDMiner substitute)."""

import pytest

from repro.acquisition import NetworkDependencyCollector, TrafficSampledCollector
from repro.depdb import DepDB
from repro.errors import AcquisitionError
from repro.topology import FatTreeConfig, fat_tree, lab_cloud


@pytest.fixture(scope="module")
def lab():
    return lab_cloud()


class TestTopologyMode:
    def test_collects_all_ecmp_routes(self, lab):
        collector = NetworkDependencyCollector(lab, servers=["Server1"])
        records = collector.collect()
        routes = {r.route for r in records}
        assert routes == {("Switch1", "Core1"), ("Switch1", "Core2")}

    def test_defaults_to_all_servers(self, lab):
        records = NetworkDependencyCollector(lab).collect()
        assert {r.src for r in records} == {
            "Server1",
            "Server2",
            "Server3",
            "Server4",
        }

    def test_static_routes_override(self, lab):
        collector = NetworkDependencyCollector(
            lab,
            servers=["Server1"],
            static_routes={"Server1": [("Switch1", "Core1")]},
        )
        records = collector.collect()
        assert len(records) == 1
        assert records[0].route == ("Switch1", "Core1")

    def test_static_routes_must_cover_servers(self, lab):
        collector = NetworkDependencyCollector(
            lab, servers=["Server1"], static_routes={"Server2": []}
        )
        with pytest.raises(AcquisitionError, match="no static route"):
            collector.collect()

    def test_max_routes(self):
        topo = fat_tree(FatTreeConfig(ports=8))
        collector = NetworkDependencyCollector(
            topo, servers=["srv-p0-t0-0"], max_routes=3
        )
        assert len(collector.collect()) == 3

    def test_collect_into_depdb(self, lab):
        db = DepDB()
        NetworkDependencyCollector(lab).adapt_into(db)
        assert db.counts()["network"] == 8  # 4 servers x 2 routes

    def test_no_servers_rejected(self):
        from repro.topology import DeviceType, Topology

        topo = Topology()
        topo.add_device("x", DeviceType.CORE)
        with pytest.raises(AcquisitionError, match="no servers"):
            NetworkDependencyCollector(topo)


class TestTrafficMode:
    def test_observed_routes_subset_of_real(self):
        topo = fat_tree(FatTreeConfig(ports=8))
        full = {
            r.route
            for r in NetworkDependencyCollector(
                topo, servers=["srv-p0-t0-0"]
            ).collect()
        }
        sampled = TrafficSampledCollector(
            topo, servers=["srv-p0-t0-0"], flows_per_server=4, seed=0
        ).collect()
        assert {r.route for r in sampled} <= full
        assert 1 <= len(sampled) <= 4

    def test_many_flows_discover_everything(self, lab):
        sampled = TrafficSampledCollector(
            lab, servers=["Server1"], flows_per_server=200, seed=1
        ).collect()
        assert len(sampled) == 2

    def test_deterministic_for_seed(self, lab):
        a = TrafficSampledCollector(lab, flows_per_server=3, seed=5).collect()
        b = TrafficSampledCollector(lab, flows_per_server=3, seed=5).collect()
        assert a == b

    def test_discovery_ratio_monotone_in_flows(self, lab):
        low = TrafficSampledCollector(lab, flows_per_server=1, seed=0)
        high = TrafficSampledCollector(lab, flows_per_server=32, seed=0)
        assert low.discovery_ratio() < high.discovery_ratio() <= 1.0

    def test_invalid_flow_count(self, lab):
        with pytest.raises(AcquisitionError):
            TrafficSampledCollector(lab, flows_per_server=0)

    def test_repeated_collects_observe_the_same_routes(self):
        # Each stream starts a fresh generator over the construction-time
        # entropy, so a re-collecting data source ingests the same routes.
        topo = fat_tree(FatTreeConfig(ports=4))
        servers = ["srv-p0-t0-0", "srv-p0-t0-1"]

        def collector():
            return TrafficSampledCollector(
                topo, servers=servers, flows_per_server=2, seed=3
            )

        once = collector()
        first, second = once.collect(), once.collect()
        assert first == second == collector().collect()
        assert len(first) == 3

    @pytest.mark.parametrize("call", ["collect", "discovery_ratio"])
    def test_server_without_routes_is_an_acquisition_error(self, lab, call):
        collector = TrafficSampledCollector(
            lab, servers=["Server1"], static_routes={"Server1": []}
        )
        with pytest.raises(AcquisitionError, match="'Server1'"):
            getattr(collector, call)()
