"""Unit tests for the lab cloud topology (§6.2.2)."""

import pytest

from repro.topology import LAB_HARDWARE, LAB_SERVERS, LabCloudPlan, lab_cloud


@pytest.fixture(scope="module")
def plan() -> LabCloudPlan:
    return LabCloudPlan()


class TestPlan:
    def test_four_servers(self, plan):
        assert plan.servers == LAB_SERVERS

    def test_tor_assignment(self, plan):
        assert plan.tor_of("Server1") == "Switch1"
        assert plan.tor_of("Server2") == "Switch1"
        assert plan.tor_of("Server3") == "Switch2"
        assert plan.tor_of("Server4") == "Switch2"

    def test_redundant_routes(self, plan):
        routes = plan.routes("Server2")
        assert routes == (("Switch1", "Core1"), ("Switch1", "Core2"))


class TestHardwareSharingMatrix:
    """The engineered hardware batches behind the §6.2.2 result."""

    def models(self, server):
        return {model for _type, model in LAB_HARDWARE[server]}

    def test_s1_s3_share_disk_batch(self):
        assert "SED900" in self.models("Server1") & self.models("Server3")

    def test_s1_s4_share_cpu_model(self):
        assert "Intel-X5550" in self.models("Server1") & self.models("Server4")

    def test_s2_s4_share_nic_model(self):
        assert "Intel-X520" in self.models("Server2") & self.models("Server4")

    def test_s2_s3_share_nothing(self):
        assert not self.models("Server2") & self.models("Server3")


class TestTopology:
    def test_device_census(self, plan):
        topo = lab_cloud(plan)
        counts = topo.counts()
        assert counts["server"] == 4
        assert counts["tor"] == 2
        assert counts["core"] == 2

    def test_connected(self, plan):
        lab_cloud(plan).validate_connected()
