"""Unit tests for the hardware inventory collector (lshw substitute)."""

import pytest

from repro.acquisition import HardwareInventoryCollector
from repro.depdb import DepDB
from repro.errors import AcquisitionError
from repro.topology.lab import LAB_HARDWARE


class TestHardwareCollector:
    def test_collects_all_components(self):
        records = HardwareInventoryCollector(LAB_HARDWARE).collect()
        assert len(records) == sum(len(v) for v in LAB_HARDWARE.values())

    def test_record_fields(self):
        records = HardwareInventoryCollector(
            {"S1": [("CPU", "X5550"), ("Disk", "SED900")]}
        ).collect()
        assert records[0].hw == "S1"
        assert records[0].type == "CPU"
        assert records[0].dep == "X5550"

    def test_server_filter(self):
        collector = HardwareInventoryCollector(
            LAB_HARDWARE, servers=["Server2"]
        )
        assert {r.hw for r in collector.collect()} == {"Server2"}

    def test_unknown_server_rejected(self):
        with pytest.raises(AcquisitionError, match="missing"):
            HardwareInventoryCollector(LAB_HARDWARE, servers=["ghost"])

    def test_empty_inventory_rejected(self):
        with pytest.raises(AcquisitionError):
            HardwareInventoryCollector({})

    def test_empty_listing_rejected(self):
        with pytest.raises(AcquisitionError, match="empty hardware"):
            HardwareInventoryCollector({"S1": []}).collect()

    def test_collect_into_depdb(self):
        db = DepDB()
        HardwareInventoryCollector(LAB_HARDWARE).adapt_into(db)
        assert db.hardware_of("Server3")
