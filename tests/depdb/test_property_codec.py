"""Property-based tests for the dependency-record codec and DepDB."""

from hypothesis import given, settings, strategies as st

from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
    dumps,
    loads,
)

# Identifier alphabet excludes '"' and ',' (the format's delimiters).
_ident = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters="-_.()@/",
    ),
    min_size=1,
    max_size=20,
).map(str.strip).filter(bool)


network_records = st.builds(
    NetworkDependency,
    src=_ident,
    dst=_ident,
    route=st.lists(_ident, min_size=1, max_size=5).map(tuple),
)
hardware_records = st.builds(
    HardwareDependency, hw=_ident, type=_ident, dep=_ident
)
software_records = st.builds(
    SoftwareDependency,
    pgm=_ident,
    hw=_ident,
    dep=st.lists(_ident, min_size=1, max_size=5).map(tuple),
)
any_records = st.one_of(network_records, hardware_records, software_records)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_records, max_size=10))
def test_line_format_round_trips(records):
    assert loads(dumps(records)) == records


@settings(max_examples=80, deadline=None)
@given(st.lists(any_records, max_size=12))
def test_depdb_json_round_trip_preserves_queries(records):
    db = DepDB(records)
    clone = DepDB.from_json(db.to_json())
    assert clone.counts() == db.counts()
    for host in db.hosts():
        assert clone.network_paths(host) == db.network_paths(host)
        assert clone.hardware_of(host) == db.hardware_of(host)
        assert clone.software_on(host) == db.software_on(host)


@settings(max_examples=80, deadline=None)
@given(st.lists(any_records, max_size=12))
def test_depdb_deduplicates_idempotently(records):
    db = DepDB(records)
    before = len(db)
    assert db.ingest(records) == 0  # every record already present
    assert len(db) == before
