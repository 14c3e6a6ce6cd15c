"""AuditEngine.audit_store: snapshot-diffed delta audits."""

import pytest

from repro.core.audit import SIAAuditor
from repro.core.spec import AuditSpec
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.engine import AuditEngine

RECORDS = [
    NetworkDependency("S1", "Internet", ("ToR1", "Core1")),
    NetworkDependency("S2", "Internet", ("ToR2", "Core1")),
    HardwareDependency("S1", "CPU", "X5550"),
    HardwareDependency("S2", "CPU", "X5550"),
    SoftwareDependency("Riak1", "S1", ("libc6",)),
    SoftwareDependency("Riak2", "S2", ("libc6",)),
]

SPEC = AuditSpec(deployment="riak", servers=("S1", "S2"))


@pytest.fixture(params=["memory", "sqlite"])
def db(request, tmp_path):
    """The audited store, in memory and as the durable SQLite backend."""
    if request.param == "memory":
        yield DepDB(RECORDS)
        return
    with DepDB.sqlite(tmp_path / "store.sqlite") as store:
        assert store.ingest(iter(RECORDS)) == len(RECORDS)
        yield store


class TestFirstAudit:
    def test_first_audit_is_a_change(self, db):
        outcome = AuditEngine().audit_store(db, SPEC)
        assert outcome.previous is None
        assert outcome.changed is True
        assert outcome.cache_hit is False
        assert outcome.content_hash == db.content_hash()

    def test_snapshot_recorded_with_structural_hash_label(self, db):
        outcome = AuditEngine().audit_store(db, SPEC)
        assert outcome.snapshot is not None
        assert outcome.snapshot.label == outcome.structural_hash
        assert db.last_snapshot().digest == db.content_hash()

    def test_custom_label(self, db):
        outcome = AuditEngine().audit_store(db, SPEC, label="v1")
        assert outcome.snapshot.label == "v1"

    def test_record_snapshot_false_leaves_store_untouched(self, db):
        outcome = AuditEngine().audit_store(
            db, SPEC, record_snapshot=False
        )
        assert outcome.snapshot is None
        assert db.last_snapshot() is None


class TestReaudit:
    def test_unchanged_store_is_cache_hit(self, db):
        engine = AuditEngine()
        first = engine.audit_store(db, SPEC)
        second = engine.audit_store(db, SPEC)
        assert second.changed is False
        assert second.previous == first.content_hash
        assert second.cache_hit is True
        assert second.audit.to_dict() == first.audit.to_dict()

    def test_drifted_store_reaudits(self, db):
        engine = AuditEngine()
        first = engine.audit_store(db, SPEC)
        db.add(HardwareDependency("S1", "Disk", "WD-1TB"))
        second = engine.audit_store(db, SPEC)
        assert second.changed is True
        assert second.previous == first.content_hash
        assert second.content_hash != first.content_hash

    def test_reverted_store_hits_cache_again(self, db):
        # Config flap: drift then revert to a previously audited record
        # set — the content-addressed caches recognise the old state.
        engine = AuditEngine()
        first = engine.audit_store(db, SPEC)
        drifted = DepDB(
            RECORDS + [HardwareDependency("S1", "Disk", "WD-1TB")]
        )
        engine.audit_store(drifted, SPEC)
        reverted = DepDB(RECORDS)
        reverted.snapshot("pre-flap")  # any prior snapshot, digest differs
        drifted_back = engine.audit_store(reverted, SPEC)
        assert drifted_back.cache_hit is True
        assert drifted_back.structural_hash == first.structural_hash

    def test_matches_cold_audit_bitwise(self, db):
        warm = AuditEngine()
        warm.audit_store(db, SPEC)
        cached = warm.audit_store(db, SPEC)
        cold = AuditEngine().audit_store(DepDB(RECORDS), SPEC)
        assert cached.audit.to_dict() == cold.audit.to_dict()

    def test_outcome_to_dict_round_trips(self, db):
        outcome = AuditEngine().audit_store(db, SPEC)
        payload = outcome.to_dict()
        assert payload["changed"] is True
        assert payload["snapshot"]["digest"] == outcome.content_hash


class TestDriftDuringAudit:
    """A record that lands while the audit runs was not audited."""

    def test_state_ingested_mid_audit_is_not_marked_audited(
        self, db, monkeypatch
    ):
        late = HardwareDependency("S1", "Disk", "WD-1TB")
        build = SIAAuditor.build_graph

        def build_then_drift(auditor, spec):
            graph = build(auditor, spec)
            db.add(late)  # another thread or process, in effect
            return graph

        engine = AuditEngine()
        monkeypatch.setattr(SIAAuditor, "build_graph", build_then_drift)
        first = engine.audit_store(db, SPEC)
        monkeypatch.undo()
        assert first.changed is True
        assert first.snapshot is None
        assert first.content_hash != db.content_hash()
        assert db.last_snapshot() is None
        # The next audit sees the late record, and says so.
        second = engine.audit_store(db, SPEC)
        assert (second.changed, second.cache_hit) == (True, False)
        assert second.structural_hash != first.structural_hash
        assert second.snapshot.digest == db.content_hash()
        third = engine.audit_store(db, SPEC)
        assert (third.changed, third.cache_hit) == (False, True)

    def test_ingest_from_inside_a_weigher(self, db):
        late = HardwareDependency("S9", "Disk", "WD-1TB")  # not audited

        def weigher(kind, identifier):
            db.add(late)
            return None

        engine = AuditEngine()
        first = engine.audit_store(db, SPEC, weigher=weigher)
        assert first.snapshot is None
        second = engine.audit_store(db, SPEC)
        assert second.changed is True
        assert second.previous is None


class TestUnchangedStoreIsNotRekeyed:
    def test_second_audit_keys_no_record(self, tmp_path, sqlite_keyed):
        keyed = sqlite_keyed
        with DepDB.sqlite(tmp_path / "store.sqlite") as store:
            store.ingest(iter(RECORDS))
            engine = AuditEngine()
            first = engine.audit_store(store, SPEC)
            assert len(keyed) == len(RECORDS)  # once, not once per hash
            del keyed[:]
            second = engine.audit_store(store, SPEC)
            assert keyed == []
            assert second.changed is False
            assert second.snapshot.digest == first.content_hash
            drift = HardwareDependency("S1", "Disk", "WD-1TB")
            store.add(drift)
            third = engine.audit_store(store, SPEC)
            assert keyed == [drift]
            assert third.changed is True
