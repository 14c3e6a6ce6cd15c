"""Dependency data layer: Table-1 records, XML codec, and the DepDB store."""

from repro.depdb.backend import Snapshot, record_key, records_digest
from repro.depdb.database import DepDB
from repro.depdb.records import (
    DependencyRecord,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.depdb.xmlformat import (
    dump_record,
    dumps,
    iter_records,
    loads,
    parse_line,
)

__all__ = [
    "DepDB",
    "Snapshot",
    "DependencyRecord",
    "HardwareDependency",
    "NetworkDependency",
    "SoftwareDependency",
    "dump_record",
    "dumps",
    "iter_records",
    "loads",
    "parse_line",
    "record_key",
    "records_digest",
]
