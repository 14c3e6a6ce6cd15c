"""In-memory ≡ SQLite store parity.

Property suite: for any record set in any insertion order,
``DepDB(records)`` and ``DepDB.sqlite(":memory:", records)`` answer
every query identically, honour the same ``records()`` order contract,
hash to the same content address, and feed
:class:`~repro.engine.AuditEngine` into byte-identical reports for any
worker count.
"""

import ast
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.depdb.sqlite import SQLiteDepDB

# Identifier alphabet safe for the Table-1 line codec (no quotes,
# commas or whitespace — commas are the codec's list separator).
_NAME = st.text("abcdefgh123._-", min_size=1, max_size=6)

_network = st.builds(
    NetworkDependency,
    src=_NAME,
    dst=_NAME,
    route=st.lists(_NAME, min_size=1, max_size=3).map(tuple),
)
_hardware = st.builds(
    HardwareDependency, hw=_NAME, type=_NAME, dep=_NAME
)
_software = st.builds(
    SoftwareDependency,
    pgm=_NAME,
    hw=_NAME,
    dep=st.lists(_NAME, min_size=1, max_size=3).map(tuple),
)
_records = st.lists(
    st.one_of(_network, _hardware, _software), max_size=30
)


def _pair(records):
    """The same ingest replayed into both stores."""
    memory = DepDB(records)
    sqlite = DepDB.sqlite(":memory:", records)
    return memory, sqlite


def test_sqlite_store_overrides_every_method_that_reads_the_indices():
    # A DepDB method reading the in-memory indices and inherited as is
    # would raise AttributeError on the SQLite store, which has none.
    indices = set(vars(DepDB())) - {"_lock"}
    (cls,) = ast.parse(inspect.getsource(DepDB)).body
    reading = {
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
            and sub.attr in indices
            for sub in ast.walk(node)
        )
    }
    assert {"__init__", "records", "_record_snapshot"} <= reading
    assert sorted(reading - set(vars(SQLiteDepDB))) == []


@settings(max_examples=60, deadline=None)
@given(records=_records)
def test_query_parity(records):
    memory, sqlite = _pair(records)
    try:
        assert sqlite.records() == memory.records()
        assert sqlite.counts() == memory.counts()
        assert len(sqlite) == len(memory)
        assert sqlite.hosts() == memory.hosts()
        assert sqlite.content_hash() == memory.content_hash()
        hosts = memory.hosts()
        for host in hosts:
            assert sqlite.network_paths(host) == memory.network_paths(host)
            assert sqlite.network_destinations(
                host
            ) == memory.network_destinations(host)
            assert sqlite.hardware_of(host) == memory.hardware_of(host)
            assert sqlite.software_on(host) == memory.software_on(host)
            for dst in memory.network_destinations(host):
                assert sqlite.network_paths(host, dst) == memory.network_paths(
                    host, dst
                )
    finally:
        sqlite.close()


@settings(max_examples=40, deadline=None)
@given(records=_records)
def test_insertion_order_independent_content_hash(records):
    forward = DepDB(records)
    backward = DepDB(list(reversed(records)))
    sqlite = DepDB.sqlite(":memory:", list(reversed(records)))
    try:
        assert forward.content_hash() == backward.content_hash()
        assert sqlite.content_hash() == forward.content_hash()
    finally:
        sqlite.close()


@settings(max_examples=40, deadline=None)
@given(records=_records)
def test_xml_round_trip_through_both_backends(records):
    memory, sqlite = _pair(records)
    try:
        assert sqlite.dumps() == memory.dumps()
        reloaded = DepDB.loads(sqlite.dumps())
        assert reloaded.records() == memory.records()
        # The inherited classmethod builds the subclass, on ":memory:".
        reloaded_sqlite = type(sqlite).loads(memory.dumps())
        try:
            assert reloaded_sqlite.records() == memory.records()
        finally:
            reloaded_sqlite.close()
    finally:
        sqlite.close()


@settings(max_examples=40, deadline=None)
@given(records=_records)
def test_json_round_trip_through_both_backends(records):
    memory, sqlite = _pair(records)
    try:
        assert sqlite.to_json() == memory.to_json()
        reloaded = DepDB.from_json(sqlite.to_json())
        assert reloaded.records() == memory.records()
        reloaded_sqlite = type(sqlite).from_json(memory.to_json())
        try:
            assert reloaded_sqlite.records() == memory.records()
        finally:
            reloaded_sqlite.close()
    finally:
        sqlite.close()


# --------------------------------------------------------------------- #
# Audit parity (deterministic; workers exercise the pickle path)
# --------------------------------------------------------------------- #

_DEPLOYMENT = [
    NetworkDependency("S1", "Internet", ("ToR1", "Core1")),
    NetworkDependency("S1", "Internet", ("ToR1", "Core2")),
    NetworkDependency("S2", "Internet", ("ToR2", "Core1")),
    HardwareDependency("S1", "CPU", "X5550"),
    HardwareDependency("S2", "CPU", "X5550"),
    HardwareDependency("S1", "Disk", "WD-1TB"),
    HardwareDependency("S2", "Disk", "WD-1TB"),
    SoftwareDependency("Riak1", "S1", ("libc6", "libssl")),
    SoftwareDependency("Riak2", "S2", ("libc6", "libssl")),
]


@pytest.mark.parametrize("algorithm", ["minimal", "sampling"])
@pytest.mark.parametrize("workers", [0, 2])
def test_audit_report_parity(tmp_path, algorithm, workers):
    from repro import api

    memory = DepDB(_DEPLOYMENT)
    sqlite = DepDB.sqlite(tmp_path / "dep.sqlite", records=_DEPLOYMENT)
    try:
        reports = []
        for db in (memory, sqlite):
            from repro.engine import AuditEngine

            engine = AuditEngine(n_workers=workers)
            request = api.AuditRequest(
                servers=("S1", "S2"),
                depdb=db.dumps(),
                algorithm=algorithm,
                rounds=20_000,
                seed=7,
            )
            result = api.execute_request(request, engine=engine)
            report = api.report_for_request(
                request, result.audit, result.structural_hash
            )
            reports.append(report.to_json().encode("utf-8"))
        assert reports[0] == reports[1]
    finally:
        sqlite.close()


def test_engine_audit_spec_accepts_sqlite_store(tmp_path):
    """SIAAuditor queries the store directly — not via a dump."""
    from repro.core.spec import AuditSpec
    from repro.engine import AuditEngine

    memory = DepDB(_DEPLOYMENT)
    sqlite = DepDB.sqlite(tmp_path / "dep.sqlite", records=_DEPLOYMENT)
    try:
        spec = AuditSpec(deployment="riak", servers=("S1", "S2"))
        audits = [
            AuditEngine().audit_spec(db, spec) for db in (memory, sqlite)
        ]
        assert audits[0].to_dict() == audits[1].to_dict()
    finally:
        sqlite.close()
