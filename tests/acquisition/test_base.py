"""Unit tests for the DAM plug-in framework."""

import pytest

from repro.acquisition import (
    DependencyAcquisitionModule,
    acquire_into,
    create_module,
    module_names,
    register_module,
)
from repro.depdb import DepDB, HardwareDependency
from repro.errors import AcquisitionError


class FakeModule(DependencyAcquisitionModule):
    kind = "hardware"

    def __init__(self, records=None):
        self.records = records if records is not None else [
            HardwareDependency("S1", "CPU", "X")
        ]

    def stream(self):
        yield from self.records


class TestRegistry:
    def test_builtin_modules_registered(self):
        names = module_names()
        assert "network.topology" in names
        assert "network.traffic" in names
        assert "hardware.inventory" in names
        assert "software.apt" in names

    def test_create_unknown_module(self):
        with pytest.raises(AcquisitionError, match="unknown acquisition"):
            create_module("nope")

    def test_register_duplicate_rejected(self):
        with pytest.raises(AcquisitionError, match="already registered"):
            register_module("hardware.inventory")(FakeModule)

    def test_register_non_module_rejected(self):
        with pytest.raises(AcquisitionError):
            register_module("some.new.name")(dict)

    def test_create_builtin(self):
        module = create_module(
            "hardware.inventory", inventory={"S1": [("CPU", "X")]}
        )
        assert module.kind == "hardware"


class TestCollectInto:
    def test_collect_into_counts(self):
        db = DepDB()
        assert FakeModule().collect_into(db) == 1
        assert db.counts()["hardware"] == 1

    def test_empty_collection_rejected(self):
        with pytest.raises(AcquisitionError, match="no records"):
            FakeModule(records=[]).collect_into(DepDB())

    def test_acquire_into_many(self):
        db = DepDB()
        counts = acquire_into(
            db,
            [
                FakeModule(),
                FakeModule([HardwareDependency("S2", "Disk", "Y")]),
            ],
        )
        assert sum(counts.values()) == 2
