"""Unit tests for the data source role."""

import pytest

from repro.acquisition import (
    DependencyAcquisitionModule,
    HardwareInventoryCollector,
    NetworkDependencyCollector,
)
from repro.agents import DataSource, DependencyDataRequest
from repro.depdb import DepDB, HardwareDependency
from repro.errors import AcquisitionError
from repro.topology import lab_cloud
from repro.topology.lab import LAB_HARDWARE

from tests.service.conftest import DEPDB


class CountingModule(DependencyAcquisitionModule):
    kind = "hardware"

    def __init__(self):
        self.pulls = 0

    def stream(self):
        self.pulls += 1
        yield HardwareDependency("S1", "CPU", "X5550")


@pytest.fixture
def source() -> DataSource:
    topo = lab_cloud()
    return DataSource(
        "lab",
        modules=[
            NetworkDependencyCollector(topo, servers=["Server1", "Server2"]),
            HardwareInventoryCollector(
                LAB_HARDWARE, servers=["Server1", "Server2"]
            ),
        ],
    )


class TestCollect:
    def test_collect_fills_depdb(self, source):
        assert source.depdb.counts()["network"] == 4

    def test_collect_idempotent(self):
        # The modules run once, on first use, however often it is read.
        module = CountingModule()
        source = DataSource("lab", modules=[module])
        assert module.pulls == 0
        first = source.depdb
        assert source.depdb is first
        source.handle(
            DependencyDataRequest(source="lab", dependency_types=("hardware",))
        )
        assert module.pulls == 1

    def test_no_modules_rejected(self):
        with pytest.raises(
            AcquisitionError, match="neither acquisition modules nor records"
        ):
            DataSource("empty")

    def test_empty_name_rejected(self):
        with pytest.raises(AcquisitionError):
            DataSource("")

    def test_records_without_modules_are_served_as_given(self):
        records = DepDB.loads(DEPDB)
        source = DataSource("lab", depdb=records)
        assert source.depdb is records
        response = source.handle(
            DependencyDataRequest(source="lab", dependency_types=("network",))
        )
        assert DepDB.loads(response.payload).dumps() == records.dumps()


class TestHandle:
    def test_serves_requested_types_only(self, source):
        response = source.handle(
            DependencyDataRequest(
                source="lab", dependency_types=("network",)
            )
        )
        assert response.record_count == 4
        assert "<src=" in response.payload
        assert "<hw=" not in response.payload

    def test_server_filter(self, source):
        response = source.handle(
            DependencyDataRequest(
                source="lab",
                dependency_types=("network", "hardware"),
                servers=("Server1",),
            )
        )
        assert "Server2" not in response.payload

    def test_wrong_source_rejected(self, source):
        with pytest.raises(AcquisitionError, match="reached"):
            source.handle(
                DependencyDataRequest(
                    source="other", dependency_types=("network",)
                )
            )

    def test_payload_round_trips(self, source):
        response = source.handle(
            DependencyDataRequest(
                source="lab", dependency_types=("network", "hardware")
            )
        )
        clone = DepDB.loads(response.payload)
        assert len(clone) == response.record_count


class TestProviderView:
    def test_component_set(self, source):
        components = source.component_set()
        assert "Switch1" in components

    def test_hardware_kinds(self, source):
        components = source.component_set(include_kinds=("hardware",))
        assert "SED900" in components
