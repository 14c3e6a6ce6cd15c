"""Streaming ingestion: stream() is the one DAM method; adapt_into."""

import pytest

from repro.acquisition import DependencyAcquisitionModule
from repro.depdb import DepDB, HardwareDependency
from repro.errors import AcquisitionError

RECORDS = [
    HardwareDependency("S1", "CPU", "X5550"),
    HardwareDependency("S1", "Disk", "WD-1TB"),
    HardwareDependency("S2", "CPU", "X5550"),
]


class StreamOnly(DependencyAcquisitionModule):
    kind = "hardware"

    def __init__(self, records=RECORDS):
        self._records = records
        self.pulled = 0

    def stream(self):
        for record in self._records:
            self.pulled += 1
            yield record


class CollectOnly(DependencyAcquisitionModule):
    kind = "hardware"

    def collect(self):
        return list(RECORDS)


class Neither(DependencyAcquisitionModule):
    kind = "hardware"


class TestStreamIsTheOneMethod:
    def test_collect_is_the_streamed_list(self):
        assert StreamOnly().collect() == RECORDS

    @pytest.mark.parametrize("module", [CollectOnly, Neither])
    def test_module_without_stream_cannot_be_instantiated(self, module):
        with pytest.raises(TypeError, match="stream"):
            module()


class TestAdaptInto:
    def test_streams_without_materialising(self):
        # The module is consumed lazily: a tiny batch size forces
        # multiple ingest transactions over one generator pass.
        module = StreamOnly()
        db = DepDB()
        assert module.adapt_into(db, batch_size=1) == 3
        assert module.pulled == 3
        assert db.records() == RECORDS

    def test_counts_only_new_records(self):
        db = DepDB([RECORDS[0]])
        assert StreamOnly().adapt_into(db) == 2

    def test_all_duplicates_is_not_an_error(self):
        db = DepDB(RECORDS)
        assert StreamOnly().adapt_into(db) == 0

    def test_empty_stream_rejected(self):
        with pytest.raises(AcquisitionError, match="no records"):
            StreamOnly(records=[]).adapt_into(DepDB())

    def test_streams_into_sqlite_backend(self, tmp_path):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path) as db:
            assert StreamOnly().adapt_into(db, batch_size=2) == 3
        with DepDB.sqlite(path) as reopened:
            assert reopened.records() == RECORDS

    def test_bad_batch_size_rejected(self):
        from repro.errors import DependencyDataError

        with pytest.raises(DependencyDataError, match="batch_size"):
            StreamOnly().adapt_into(DepDB(), batch_size=0)


class TestBuiltinCollectorsStream:
    def test_builtin_collectors_expose_generators(self):
        import inspect

        from repro.acquisition.hardware import HardwareInventoryCollector
        from repro.acquisition.network import (
            NetworkDependencyCollector,
            TrafficSampledCollector,
        )

        for cls in (
            NetworkDependencyCollector,
            TrafficSampledCollector,
            HardwareInventoryCollector,
        ):
            assert inspect.isgeneratorfunction(cls.stream), cls.__name__
