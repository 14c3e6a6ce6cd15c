"""Unit tests for the dependency-graph builder (§4.1.1 Steps 1-6)."""

import pytest

from repro import GateType, build_dependency_graph, minimal_risk_groups
from repro.core.builder import node_identifier
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.errors import SpecificationError


@pytest.fixture
def sample_depdb() -> DepDB:
    """Figure 2/3: S1 and S2 with network, hardware and software records."""
    db = DepDB()
    for server in ("S1", "S2"):
        db.add(NetworkDependency(server, "Internet", ("ToR1", "Core1")))
        db.add(NetworkDependency(server, "Internet", ("ToR1", "Core2")))
        db.add(
            HardwareDependency(server, "CPU", f"{server}-Intel(R)X5550@2.6GHz")
        )
        db.add(HardwareDependency(server, "Disk", f"{server}-SED900"))
    db.add(SoftwareDependency("QueryEngine1", "S1", ("libc6", "libgcc1")))
    db.add(SoftwareDependency("Riak1", "S1", ("libc6", "libsvn1")))
    db.add(SoftwareDependency("QueryEngine2", "S2", ("libc6", "libgcc1")))
    db.add(SoftwareDependency("Riak2", "S2", ("libc6", "libsvn1")))
    return db


class TestNodeNaming:
    def test_identifier(self):
        assert node_identifier("device:ToR1") == "ToR1"
        assert node_identifier("unprefixed") == "unprefixed"


class TestStructure:
    def test_top_is_and_over_servers(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        assert g.event(g.top).gate is GateType.AND
        assert set(g.children(g.top)) == {"server:S1", "server:S2"}

    def test_server_gate_is_or_over_categories(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        kids = set(g.children("server:S1"))
        assert kids == {"host:S1", "net:S1", "hardware:S1", "software:S1"}
        assert g.event("server:S1").gate is GateType.OR

    def test_redundant_paths_are_anded(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1"])
        net = g.children("net:S1")[0]
        assert g.event(net).gate is GateType.AND
        assert len(g.children(net)) == 2  # two ToR1 routes

    def test_devices_shared_across_servers(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        # ToR1 sits on both routes of both servers: one shared leaf node.
        parents = g.parents("device:ToR1")
        servers = {p.split(":")[1].split("->")[0] for p in parents}
        assert servers == {"S1", "S2"}

    def test_packages_shared_across_programs(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        parents = g.parents("pkg:libc6")
        assert set(parents) == {
            "sw:QueryEngine1",
            "sw:Riak1",
            "sw:QueryEngine2",
            "sw:Riak2",
        }

    def test_hardware_unique_per_server_here(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        assert len(g.parents("hw:S1-SED900")) == 1

    def test_figure_4c_minimal_rgs(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        groups = minimal_risk_groups(g)
        assert frozenset({"device:ToR1"}) in groups
        assert frozenset({"pkg:libc6"}) in groups
        assert frozenset({"device:Core1", "device:Core2"}) in groups

    def test_required_redundancy_gate(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"], required=2)
        # needs both alive: any server failure fails the deployment
        assert g.event(g.top).gate is GateType.OR

    def test_single_server_top_is_server(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1"])
        assert g.top == "server:S1"


class TestOptions:
    def test_programs_filter(self, sample_depdb):
        g = build_dependency_graph(
            sample_depdb, ["S1"], programs={"S1": ["Riak1"]}
        )
        assert "sw:Riak1" in g
        assert "sw:QueryEngine1" not in g

    def test_missing_program_rejected(self, sample_depdb):
        with pytest.raises(SpecificationError, match="no software records"):
            build_dependency_graph(sample_depdb, ["S1"], programs=["nope"])

    def test_destination_filter(self, sample_depdb):
        g = build_dependency_graph(
            sample_depdb, ["S1"], destinations=["elsewhere"]
        )
        assert "net:S1" not in g

    def test_without_host_events(self, sample_depdb):
        g = build_dependency_graph(
            sample_depdb, ["S1", "S2"], include_host_events=False
        )
        assert "host:S1" not in g

    def test_host_only_server_needs_host_events(self):
        db = DepDB()
        db.add(NetworkDependency("other", "Internet", ("x",)))
        with pytest.raises(SpecificationError, match="nothing to audit"):
            build_dependency_graph(db, ["bare"], include_host_events=False)

    def test_weigher_applied_to_leaves(self, sample_depdb):
        g = build_dependency_graph(
            sample_depdb,
            ["S1"],
            weigher=lambda kind, ident: 0.1 if kind == "device" else 0.05,
        )
        assert g.probability_of("device:ToR1") == 0.1
        assert g.probability_of("host:S1") == 0.05

    def test_duplicate_servers_rejected(self, sample_depdb):
        with pytest.raises(SpecificationError, match="duplicate"):
            build_dependency_graph(sample_depdb, ["S1", "S1"])

    def test_empty_servers_rejected(self, sample_depdb):
        with pytest.raises(SpecificationError):
            build_dependency_graph(sample_depdb, [])

    def test_invalid_required(self, sample_depdb):
        with pytest.raises(SpecificationError):
            build_dependency_graph(sample_depdb, ["S1"], required=2)

    def test_graph_validates(self, sample_depdb):
        g = build_dependency_graph(sample_depdb, ["S1", "S2"])
        g.validate()  # should not raise
