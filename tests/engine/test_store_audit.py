"""AuditEngine.audit_store: snapshot-diffed delta audits."""

import dataclasses
import gc
import weakref

import pytest

from repro.core.spec import AuditSpec, DetailLevel, RGAlgorithm
from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.engine import AuditEngine, SIAAuditor, structural_hash

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
    """The audited store, in memory and as the durable SQLite store."""
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

    def test_graph_is_hashed_once_per_store_audit(self, db, monkeypatch):
        """A miss builds and hashes the graph once; an unchanged store's
        re-audit is an index lookup that does neither."""
        built, hashed = [], []
        build = SIAAuditor.build_graph

        def counting_build(auditor, spec):
            built.append(spec)
            return build(auditor, spec)

        def counting_hash(graph):
            hashed.append(graph)
            return structural_hash(graph)

        monkeypatch.setattr(SIAAuditor, "build_graph", counting_build)
        monkeypatch.setattr("repro.engine.facade.structural_hash", counting_hash)
        engine = AuditEngine()
        first = engine.audit_store(db, SPEC)
        assert (len(built), len(hashed)) == (1, 1)
        second = engine.audit_store(db, SPEC)
        assert (len(built), len(hashed)) == (1, 1)  # the hit: neither
        assert second.cache_hit
        assert second.structural_hash == first.structural_hash

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

    def test_write_between_recheck_and_snapshot_is_not_marked_audited(
        self, db, write_after_hash
    ):
        # Another thread ingests right after the re-check that the store
        # still holds the audited records (the second hash of the call).
        late = HardwareDependency("S9", "Disk", "WD-1TB")
        writer = write_after_hash(db, late, nth=2)
        engine = AuditEngine()
        first = engine.audit_store(db, SPEC)
        writer.join()
        assert late in db.records()
        assert first.snapshot.digest == first.content_hash
        assert db.last_snapshot().digest == first.content_hash
        assert db.content_hash() != first.content_hash
        second = engine.audit_store(db, SPEC)
        assert second.changed is True
        assert second.previous == first.content_hash


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


# Records whose graph depends on their order: S1's two routes, two
# hardware components and two programs are children in insertion order.
ORDERED = [
    NetworkDependency("S1", "Internet", ("ToR1", "Core1")),
    NetworkDependency("S1", "Internet", ("ToR1", "Core2")),
    NetworkDependency("S1", "Storage", ("ToR1",)),
    NetworkDependency("S2", "Internet", ("ToR2", "Core1")),
    HardwareDependency("S1", "CPU", "X5550"),
    HardwareDependency("S1", "Disk", "WD-1TB"),
    HardwareDependency("S2", "CPU", "X5550"),
    SoftwareDependency("Riak1", "S1", ("libc6",)),
    SoftwareDependency("Nginx1", "S1", ("libssl",)),
    SoftwareDependency("Riak2", "S2", ("libc6",)),
]

#: Each graph-shaping spec field changed alone.
GRAPH_SHAPING = {
    "level=fault-set": {"level": DetailLevel.FAULT_SET},
    "level=component-set": {"level": DetailLevel.COMPONENT_SET},
    "programs": {"programs": {"S1": ["Riak1"]}},
    "destinations": {"destinations": ("Internet",)},
    "include_host_events": {"include_host_events": False},
}


@pytest.fixture(params=["memory", "sqlite"])
def make_store(request, tmp_path):
    """``make(records)``: a fresh store of ``records``, in memory or as
    a SQLite file.  Holds its stores weakly, so a test can drop one."""
    opened = []

    def make(records):
        if request.param == "memory":
            return DepDB(records)
        store = DepDB.sqlite(tmp_path / f"store{len(opened)}.sqlite", records)
        opened.append(weakref.ref(store))
        return store

    yield make
    for ref in opened:
        if ref() is not None:
            ref().close()


def cold(store, spec):
    """A cold audit of ``store``'s records, in its record order."""
    return AuditEngine().audit_store(
        DepDB(list(store.iter_records())), spec, record_snapshot=False
    )


def assert_cold(outcome, store, spec):
    expected = cold(store, spec)
    assert outcome.structural_hash == expected.structural_hash
    assert outcome.audit.to_dict() == expected.audit.to_dict()


class TestStoreIndexSoundness:
    """``audit_store``'s index answers only what a cold audit would."""

    def test_record_order_is_part_of_the_key(self, make_store):
        forward = make_store(ORDERED)
        backward = make_store(ORDERED[::-1])
        assert forward.content_hash() == backward.content_hash()
        assert (
            cold(forward, SPEC).structural_hash
            != cold(backward, SPEC).structural_hash
        )
        engine = AuditEngine()
        for store in (forward, backward, forward, backward):
            assert_cold(engine.audit_store(store, SPEC), store, SPEC)
        assert engine.audit_store(backward, SPEC).cache_hit

    @pytest.mark.parametrize("change", GRAPH_SHAPING, ids=str)
    def test_each_graph_shaping_field(self, make_store, change):
        store = make_store(ORDERED)
        spec = dataclasses.replace(SPEC, **GRAPH_SHAPING[change])
        assert cold(store, spec).structural_hash != cold(store, SPEC).structural_hash
        engine = AuditEngine()
        engine.audit_store(store, SPEC)
        assert_cold(engine.audit_store(store, spec), store, spec)
        assert_cold(engine.audit_store(store, spec), store, spec)
        assert_cold(engine.audit_store(store, SPEC), store, SPEC)

    def test_no_programs_is_not_an_empty_mapping(self, make_store):
        # {} selects every program on every host, [] selects none.
        store = make_store(ORDERED)
        every = dataclasses.replace(SPEC, programs={})
        none = dataclasses.replace(SPEC, programs=[])
        engine = AuditEngine()
        assert_cold(engine.audit_store(store, every), store, every)
        assert_cold(engine.audit_store(store, none), store, none)
        assert (
            cold(store, every).structural_hash
            != cold(store, none).structural_hash
        )

    def test_an_evicted_result_is_recomputed(self, make_store, monkeypatch):
        monkeypatch.setattr("repro.engine.facade.MAX_CACHED_AUDITS", 1)
        store = make_store(ORDERED)
        engine = AuditEngine()
        engine.audit_store(store, SPEC)
        engine.audit_spec(DepDB(RECORDS), SPEC)  # evicts the store's audit
        outcome = engine.audit_store(store, SPEC)
        assert outcome.cache_hit is False
        assert_cold(outcome, store, SPEC)

    def test_a_seedless_sampling_spec_is_never_indexed(self, make_store):
        store = make_store(ORDERED)
        spec = dataclasses.replace(
            SPEC,
            algorithm=RGAlgorithm.SAMPLING,
            sampling_rounds=4096,
            seed=None,
        )
        engine = AuditEngine()
        for _ in range(2):
            outcome = engine.audit_store(store, spec)
            assert outcome.cache_hit is False
            expected = cold(store, spec)
            assert outcome.structural_hash == expected.structural_hash
            # Fresh entropy each run: all but the round counts agree.
            got, want = outcome.audit.to_dict(), expected.audit.to_dict()
            del got["notes"], want["notes"]
            assert got == want
        assert len(engine._stores) == 0

    @pytest.mark.parametrize("record_snapshot", [True, False])
    def test_a_write_mid_build_leaves_no_entry(
        self, make_store, write_after_hash, record_snapshot
    ):
        store = make_store(ORDERED)
        late = HardwareDependency("S1", "PSU", "PSU-1")  # shapes the graph
        writer = write_after_hash(store, late, nth=1)
        engine = AuditEngine()
        first = engine.audit_store(
            store, SPEC, record_snapshot=record_snapshot
        )
        writer.join()
        assert first.snapshot is None
        assert store.last_snapshot() is None
        assert len(engine._stores) == 0
        assert first.content_hash != store.content_hash()
        assert_cold(first, store, SPEC)  # the build saw the late record
        second = engine.audit_store(store, SPEC)
        assert (second.changed, second.cache_hit) == (True, True)
        assert second.snapshot.digest == store.content_hash()
        assert_cold(second, store, SPEC)

    def test_the_engine_does_not_keep_a_store_alive(self, make_store):
        store = make_store(ORDERED)
        engine = AuditEngine()
        engine.audit_store(store, SPEC)
        assert len(engine._stores) == 1
        alive = weakref.ref(store)
        store.close()
        del store
        gc.collect()
        assert alive() is None
        # The dead entry goes at the next store audit.
        other = make_store(ORDERED)
        engine.audit_store(other, SPEC)
        assert len(engine._stores) == 1

    def test_an_evicted_result_counts_one_miss(self, make_store, monkeypatch):
        monkeypatch.setattr("repro.engine.facade.MAX_CACHED_AUDITS", 1)
        store = make_store(ORDERED)
        engine = AuditEngine()
        engine.audit_store(store, SPEC)
        engine.audit_spec(DepDB(RECORDS), SPEC)  # evicts the store's audit
        before = engine.info()["audits"]
        outcome = engine.audit_store(store, SPEC)
        after = engine.info()["audits"]
        assert outcome.cache_hit is False
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert_cold(outcome, store, SPEC)
