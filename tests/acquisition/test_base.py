"""Unit tests for the DAM plug-in framework: a DAM is a subclass."""

import pytest

from repro.acquisition import DependencyAcquisitionModule, acquire_into
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


class TestCollectInto:
    def test_collect_into_counts(self):
        db = DepDB()
        assert FakeModule().adapt_into(db) == 1
        assert db.counts()["hardware"] == 1

    def test_empty_collection_rejected(self):
        with pytest.raises(AcquisitionError, match="no records"):
            FakeModule(records=[]).adapt_into(DepDB())

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
