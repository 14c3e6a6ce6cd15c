"""Unit tests for the DepDB store."""

import pytest

from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)


@pytest.fixture
def db() -> DepDB:
    db = DepDB()
    db.add(NetworkDependency("S1", "Internet", ("ToR1", "Core1")))
    db.add(NetworkDependency("S1", "Internet", ("ToR1", "Core2")))
    db.add(NetworkDependency("S1", "S2", ("ToR1",)))
    db.add(HardwareDependency("S1", "CPU", "X5550"))
    db.add(SoftwareDependency("Riak", "S1", ("libc6",)))
    db.add(SoftwareDependency("Redis", "S1", ("libc6", "jemalloc")))
    return db


class TestIngest:
    def test_duplicates_ignored(self, db):
        before = len(db)
        assert not db.add(NetworkDependency("S1", "Internet", ("ToR1", "Core1")))
        assert len(db) == before

    def test_add_all_counts_new(self, db):
        new = [
            NetworkDependency("S1", "Internet", ("ToR1", "Core1")),  # dup
            HardwareDependency("S9", "Disk", "WD"),
        ]
        assert db.ingest(new) == 1

    def test_merge(self, db):
        other = DepDB([HardwareDependency("S3", "Disk", "WD")])
        assert db.merge(other) == 1
        assert db.hardware_of("S3")

    def test_counts(self, db):
        assert db.counts() == {"network": 3, "hardware": 1, "software": 2}


class TestQueries:
    def test_network_paths_by_destination(self, db):
        assert len(db.network_paths("S1", "Internet")) == 2
        assert len(db.network_paths("S1")) == 3
        assert db.network_paths("S9") == []

    def test_network_destinations_order(self, db):
        assert db.network_destinations("S1") == ["Internet", "S2"]

    def test_software_on_with_filter(self, db):
        assert len(db.software_on("S1")) == 2
        only = db.software_on("S1", programs=["Riak"])
        assert [r.pgm for r in only] == ["Riak"]

    def test_hosts_include_destinations(self, db):
        # Regression: hosts that only ever appear as a network dst
        # (Internet, S2) used to be invisible.
        assert db.hosts() == ["S1", "Internet", "S2"]

    def test_hosts_dst_only_host_visible(self):
        db = DepDB([NetworkDependency("A", "B", ("sw1",))])
        assert db.hosts() == ["A", "B"]

    def test_records_returns_everything(self, db):
        assert len(db.records()) == len(db) == 6


class TestPersistence:
    def test_line_format_round_trip(self, db):
        clone = DepDB.loads(db.dumps())
        assert sorted(map(str, clone.records())) == sorted(
            map(str, db.records())
        )

    def test_json_round_trip(self, db):
        clone = DepDB.from_json(db.to_json())
        assert clone.counts() == db.counts()
        assert clone.network_paths("S1", "Internet") == db.network_paths(
            "S1", "Internet"
        )

    def test_invalid_json_rejected(self):
        from repro.errors import DependencyDataError

        with pytest.raises(DependencyDataError):
            DepDB.from_json("{broken")


class TestJsonValidation:
    """Malformed payloads fail with a clean error naming the record —
    never a raw KeyError/TypeError out of the parser (regression)."""

    def _error(self, text):
        from repro.errors import DependencyDataError

        with pytest.raises(DependencyDataError) as exc:
            DepDB.from_json(text)
        return str(exc.value)

    def test_top_level_must_be_object(self):
        assert "must be an object" in self._error("[]")

    def test_unknown_top_level_key_named(self):
        message = self._error('{"network": [], "softwares": []}')
        assert "softwares" in message

    def test_nesting_past_the_recursion_limit_rejected(self):
        assert "invalid DepDB JSON" in self._error("[" * 100_000)

    def test_section_must_be_list(self):
        assert "list" in self._error('{"network": {}}')

    def test_entry_must_be_object(self):
        message = self._error('{"network": ["nope"]}')
        assert "network entry #0" in message

    def test_missing_field_named(self):
        message = self._error(
            '{"hardware": [{"hw": "S1", "type": "CPU"}]}'
        )
        assert "hardware entry #0" in message
        assert "dep" in message

    def test_wrong_field_type_named(self):
        message = self._error(
            '{"network": [{"src": "S1", "dst": "S2", "route": "ToR1"}]}'
        )
        assert "network entry #0" in message
        assert "route" in message

    def test_list_element_must_be_string(self):
        message = self._error(
            '{"software": [{"pgm": "Riak", "hw": "S1", "dep": ["libc6", 3]}]}'
        )
        assert "software entry #0" in message

    def test_later_entry_index_reported(self):
        good = '{"src": "A", "dst": "B", "route": ["r"]}'
        message = self._error(
            '{"network": [%s, {"src": "A"}]}' % good
        )
        assert "network entry #1" in message
