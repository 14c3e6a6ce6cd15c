"""The SQLite DepDB: durability, dedup, snapshots, lifecycle."""

import pickle
import re
import sqlite3
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.depdb import (
    DepDB,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.depdb.backend import records_digest
from repro.errors import DependencyDataError

RECORDS = [
    NetworkDependency("S1", "Internet", ("ToR1", "Core1")),
    NetworkDependency("S1", "Internet", ("ToR1", "Core2")),
    NetworkDependency("S1", "S2", ("ToR1",)),
    HardwareDependency("S1", "CPU", "X5550"),
    SoftwareDependency("Riak", "S1", ("libc6",)),
    SoftwareDependency("Redis", "S1", ("libc6", "jemalloc")),
]


@pytest.fixture
def db(tmp_path):
    db = DepDB.sqlite(tmp_path / "dep.sqlite", records=RECORDS)
    yield db
    db.close()


class TestDurability:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path, records=RECORDS) as db:
            expected = db.records()
        with DepDB.sqlite(path) as reopened:
            assert reopened.records() == expected

    def test_snapshots_survive_reopen(self, tmp_path):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path, records=RECORDS) as db:
            snap = db.snapshot("v1")
        with DepDB.sqlite(path) as reopened:
            last = reopened.last_snapshot()
            assert last is not None
            assert last.digest == snap.digest
            assert last.label == "v1"
            assert last.counts == (3, 1, 2)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path):
            pass
        import sqlite3

        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(DependencyDataError, match="schema version"):
            DepDB.sqlite(path)

    def test_unreadable_database_rejected(self, tmp_path):
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"SQLite format 3\x00" + b"\xff" * 64)
        with pytest.raises(DependencyDataError, match="cannot open|is closed|database"):
            DepDB.sqlite(path)


class TestIngest:
    def test_duplicates_ignored(self, db):
        assert not db.add(RECORDS[0])
        assert len(db) == len(RECORDS)

    def test_add_many_counts_new(self, db):
        new = [RECORDS[0], HardwareDependency("S9", "Disk", "WD")]
        assert db.ingest(new) == 1

    def test_route_with_comma_in_hop_not_conflated(self, tmp_path):
        # JSON-array storage: one hop containing a comma is distinct
        # from two hops with the same flattened text.
        a = NetworkDependency("A", "B", ("x,y",))
        b = NetworkDependency("A", "B", ("x", "y"))
        with DepDB.sqlite(tmp_path / "d.sqlite") as db:
            assert db.add(a)
            assert db.add(b)
            assert db.counts()["network"] == 2
            assert a in db.records() and b in db.records()

    def test_batched_ingest_is_transactional(self, tmp_path):
        with DepDB.sqlite(tmp_path / "d.sqlite") as db:
            added = db.ingest(iter(RECORDS), batch_size=2)
            assert added == len(RECORDS)
            assert db.records() == RECORDS


class TestQueries:
    def test_records_order_contract(self, db):
        # network, then hardware, then software; insertion order within.
        assert db.records() == RECORDS

    def test_network_paths(self, db):
        assert len(db.network_paths("S1", "Internet")) == 2
        assert len(db.network_paths("S1")) == 3
        assert db.network_paths("S9") == []

    def test_network_destinations_order(self, db):
        assert db.network_destinations("S1") == ["Internet", "S2"]

    def test_hosts_include_destinations(self, db):
        assert db.hosts() == ["S1", "Internet", "S2"]

    def test_software_on_filter(self, db):
        assert [r.pgm for r in db.software_on("S1", programs=["Riak"])] == [
            "Riak"
        ]

    def test_counts(self, db):
        assert db.counts() == {"network": 3, "hardware": 1, "software": 2}


class TestSnapshots:
    def test_snapshot_is_content_addressed(self, db):
        first = db.snapshot("a")
        again = db.snapshot("b")
        assert first.digest == again.digest == db.content_hash()
        # Re-snapshotting an unchanged store updates in place.
        assert len(db.snapshots()) == 1
        assert db.last_snapshot().label == "b"
        assert again.seq > first.seq

    def test_snapshot_sequence_advances_on_change(self, db):
        first = db.snapshot()
        db.add(HardwareDependency("S9", "Disk", "WD"))
        second = db.snapshot()
        assert second.digest != first.digest
        assert second.seq == first.seq + 1
        assert [s.digest for s in db.snapshots()] == [
            first.digest,
            second.digest,
        ]

    def test_counts_are_those_of_the_rows_the_digest_covers(
        self, tmp_path, monkeypatch
    ):
        # Another connection commits right after the digest is taken:
        # its rows are in neither the digest nor the counts.
        path = tmp_path / "dep.sqlite"
        covered = [RECORDS[0], RECORDS[3]]
        late = [RECORDS[1], RECORDS[4]]
        backend = DepDB.sqlite(path)
        other = DepDB.sqlite(path)
        try:
            backend.add_many(covered)
            content_hash = backend.content_hash

            def hash_then_other_ingests():
                digest = content_hash()
                other.add_many(late)
                return digest

            monkeypatch.setattr(
                backend, "content_hash", hash_then_other_ingests
            )
            snap = backend.snapshot("v1")
            assert snap.digest == records_digest(covered)
            assert snap.counts == (1, 1, 0)
            assert other.last_snapshot().counts == snap.counts
            assert backend.counts() == {
                "network": 2,
                "hardware": 1,
                "software": 1,
            }
        finally:
            backend.close()
            other.close()


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        db = DepDB.sqlite(tmp_path / "d.sqlite")
        db.close()
        db.close()

    def test_closed_store_raises_clean_error(self, tmp_path):
        db = DepDB.sqlite(tmp_path / "d.sqlite", records=RECORDS)
        db.close()
        with pytest.raises(DependencyDataError, match="closed"):
            db.records()
        with pytest.raises(DependencyDataError, match="closed"):
            db.snapshot("after close")

    def test_pickle_rebuilds_as_memory_store(self, db):
        # Engine workers pickle job.depdb; sqlite connections cannot
        # cross process boundaries, so the clone is an in-memory DepDB
        # with identical records.
        clone = pickle.loads(pickle.dumps(db))
        assert clone.records() == db.records()
        assert clone.content_hash() == db.content_hash()
        clone.add(HardwareDependency("S9", "Disk", "WD"))  # writable


# --------------------------------------------------------------------- #
# Content-hash pin: whatever the SQLite store's content_hash() does
# inside, its value is records_digest of the rows on file, which is what
# an in-memory DepDB holding the same records computes in full.
# --------------------------------------------------------------------- #

_NAME = st.text("ab1,\"é", min_size=1, max_size=3)
_record = st.one_of(
    st.builds(
        NetworkDependency,
        src=_NAME,
        dst=_NAME,
        route=st.lists(_NAME, min_size=1, max_size=2).map(tuple),
    ),
    st.builds(HardwareDependency, hw=_NAME, type=_NAME, dep=_NAME),
    st.builds(
        SoftwareDependency,
        pgm=_NAME,
        hw=_NAME,
        dep=st.lists(_NAME, min_size=1, max_size=2).map(tuple),
    ),
)
_batch = st.lists(_record, max_size=6)
_step = st.one_of(
    st.tuples(st.just("ingest"), _batch),
    st.tuples(st.just("other"), _batch),  # a second store, same file
    st.tuples(st.just("replay"), st.just(None)),  # duplicates only
    st.tuples(st.just("hash"), st.just(None)),
    st.tuples(st.just("snapshot"), st.just(None)),
    st.tuples(st.just("reopen"), st.just(None)),
)


def _assert_hash_pinned(backend):
    """The three-way equality every step of the pin suite must keep."""
    stored = list(backend.iter_records())
    oracle = DepDB(stored)
    assert (
        backend.content_hash()
        == records_digest(stored)
        == oracle.content_hash()
    )


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_step, max_size=12))
def test_content_hash_pinned_under_interleaving(steps):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "dep.sqlite"
        backend = DepDB.sqlite(path)
        other = DepDB.sqlite(path)
        ingested = []
        try:
            _assert_hash_pinned(backend)
            for kind, batch in steps:
                if kind == "ingest":
                    backend.add_many(batch)
                    ingested.extend(batch)
                elif kind == "other":
                    other.add_many(batch)
                    ingested.extend(batch)
                elif kind == "replay":
                    assert backend.add_many(ingested) == 0
                elif kind == "hash":
                    assert backend.content_hash() == other.content_hash()
                elif kind == "snapshot":
                    snap = backend.snapshot("pin")
                    assert snap.digest == records_digest(backend.records())
                    assert other.last_snapshot().digest == snap.digest
                else:
                    backend.close()
                    backend = DepDB.sqlite(path)
                _assert_hash_pinned(backend)
                _assert_hash_pinned(other)
            assert backend.content_hash() == records_digest(set(ingested))
        finally:
            backend.close()
            other.close()


class TestContentHashPin:
    def test_every_kind_of_step_in_one_fixed_run(self, tmp_path):
        # The hypothesis suite above, unrolled once over all three
        # record types so a failure here names the step.
        path = tmp_path / "dep.sqlite"
        backend = DepDB.sqlite(path)
        other = DepDB.sqlite(path)
        try:
            empty = backend.content_hash()
            assert empty == records_digest([])
            backend.add_many(RECORDS[:2])
            _assert_hash_pinned(backend)
            first = backend.content_hash()
            assert first != empty
            # A second connection writes all three types in between.
            other.add_many([RECORDS[2], RECORDS[3], RECORDS[4]])
            _assert_hash_pinned(backend)
            assert backend.content_hash() == other.content_hash() != first
            # Duplicates change nothing.
            before = backend.content_hash()
            assert backend.add_many(RECORDS[:5]) == 0
            assert not backend.add(RECORDS[0])
            assert backend.content_hash() == before
            # snapshot() records the digest of what is on file *now*.
            other.add(RECORDS[5])
            snap = backend.snapshot("v1")
            assert snap.digest == records_digest(RECORDS)
            assert snap.counts == (3, 1, 2)
            _assert_hash_pinned(backend)
            # Close and reopen: same file, same value.
            backend.close()
            backend = DepDB.sqlite(path)
            assert backend.content_hash() == snap.digest
            backend.add(HardwareDependency("S9", "Disk", "WD"))
            _assert_hash_pinned(backend)
            _assert_hash_pinned(other)
        finally:
            backend.close()
            other.close()

    def test_known_answers(self, tmp_path):
        # The value itself, not only agreement between routes to it:
        # the digest is in snapshot tables already on disk.
        with DepDB.sqlite(tmp_path / "dep.sqlite") as db:
            assert db.content_hash() == records_digest([]) == (
                "d8323293ae24818c21c0e3429b568e19"
                "31910a698415bf58cd23adcc733fbd4f"
            )
            db.ingest(RECORDS)
            assert db.content_hash() == records_digest(RECORDS) == (
                "076d1db18108ce3aec550ad79d82ca09"
                "bab02e277bae6e457459d641c07f3915"
            )

    def test_order_of_ingest_does_not_matter(self, tmp_path):
        forward = DepDB.sqlite(tmp_path / "a.sqlite")
        backward = DepDB.sqlite(tmp_path / "b.sqlite")
        try:
            for record in RECORDS:
                forward.add(record)
                forward.content_hash()  # hashed at every size on the way
            backward.add_many(reversed(RECORDS))
            assert forward.content_hash() == backward.content_hash()
        finally:
            forward.close()
            backward.close()

    def test_hash_of_a_closed_store_raises(self, tmp_path):
        backend = DepDB.sqlite(tmp_path / "dep.sqlite")
        backend.add_many(RECORDS)
        backend.content_hash()
        backend.close()
        with pytest.raises(DependencyDataError, match="closed"):
            backend.content_hash()


class TestAppendOnly:
    """Record rows never change or go away; the schema says so."""

    @pytest.mark.parametrize("table", ["network", "hardware", "software"])
    def test_raw_update_and_delete_refused(self, tmp_path, table):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path, records=RECORDS) as db:
            before = db.records()
        column = {"network": "src", "hardware": "hw", "software": "pgm"}[table]
        conn = sqlite3.connect(path)
        try:
            with pytest.raises(sqlite3.IntegrityError, match="append-only"):
                conn.execute(f"UPDATE {table} SET {column} = 'x'")
            with pytest.raises(sqlite3.IntegrityError, match="append-only"):
                conn.execute(f"DELETE FROM {table}")
        finally:
            conn.close()
        with DepDB.sqlite(path) as db:
            assert db.records() == before
            assert db.ingest(RECORDS) == 0  # INSERT OR IGNORE is not an UPDATE

    def test_store_written_before_the_triggers_gains_them_on_open(
        self, tmp_path
    ):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path, records=RECORDS):
            pass
        conn = sqlite3.connect(path)
        with conn:
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'trigger'"
            ).fetchall():
                conn.execute(f"DROP TRIGGER {name}")
        with DepDB.sqlite(path):
            pass
        with pytest.raises(sqlite3.IntegrityError, match="append-only"):
            conn.execute("DELETE FROM hardware")
        conn.close()

    def test_out_of_band_delete_trips_a_full_rescan(self, tmp_path, sqlite_keyed):
        path = tmp_path / "dep.sqlite"
        backend = DepDB.sqlite(path)
        try:
            backend.add_many(RECORDS)
            stale = backend.content_hash()
            conn = sqlite3.connect(path)
            with conn:
                conn.execute("DROP TRIGGER network_no_delete")
                conn.execute("DELETE FROM network WHERE id = 1")
            conn.close()
            del sqlite_keyed[:]
            assert backend.content_hash() == records_digest(RECORDS[1:]) != stale
            assert len(sqlite_keyed) == len(RECORDS) - 1  # every remaining row
            del sqlite_keyed[:]
            assert backend.content_hash() == records_digest(RECORDS[1:])
            assert sqlite_keyed == []  # and the memo is rebuilt
        finally:
            backend.close()


def _records(n: int, tag: str) -> list:
    """``n`` records of each type, all distinct for distinct ``tag``."""
    return [
        *(NetworkDependency(f"{tag}S{i}", "Internet", (f"T{i}",)) for i in range(n)),
        *(HardwareDependency(f"{tag}S{i}", "CPU", f"X{i}") for i in range(n)),
        *(SoftwareDependency(f"P{i}", f"{tag}S{i}", ("libc6",)) for i in range(n)),
    ]


# The tripwire's predicate, one plain statement per table: the oracle
# ``_still_covers`` must agree with in every state of ``TestTripwire``.
_COVERS_ORACLE = (
    "SELECT COUNT(*), COALESCE(MAX(id), 0) FROM {table} WHERE id <= ?"
)


def _oracle_covers(backend, memo) -> bool:
    return all(
        backend._execute(_COVERS_ORACLE.format(table=table), (top,)).fetchone()
        == (count, top)
        for table, (count, top) in memo.covered.items()
    )


def _replace_contents(path, records) -> None:
    """Overwrite the database at ``path`` in place with a store holding
    ``records``: open connections see the new pages, as after a restore."""
    source_path = Path(str(path) + ".copy")
    with DepDB.sqlite(source_path, records=records):
        pass
    source = sqlite3.connect(source_path)
    target = sqlite3.connect(path)
    try:
        source.backup(target)
    finally:
        source.close()
        target.close()


class TestTripwire:
    """``_still_covers`` reads exactly the per-table predicate
    ``COUNT(*), MAX(id) WHERE id <= <covered max id>`` equal to the memo."""

    N = 5

    @pytest.fixture
    def store(self, tmp_path):
        path = tmp_path / "dep.sqlite"
        backend = DepDB.sqlite(path)
        backend.add_many(_records(self.N, "a"))
        backend.content_hash()
        yield path, backend
        backend.close()

    def _agree(self, backend) -> bool:
        memo = backend._hashed
        verdict = backend._still_covers(memo)
        assert verdict == _oracle_covers(backend, memo)
        return verdict

    def test_unchanged_store(self, store):
        _, backend = store
        assert self._agree(backend)

    def test_rows_appended_by_another_connection(self, store):
        path, backend = store
        with DepDB.sqlite(path, records=_records(2, "b")):
            pass
        assert self._agree(backend)

    @pytest.mark.parametrize("table", ["network", "hardware", "software"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_out_of_band_delete(self, store, table, position):
        path, backend = store
        top = backend._hashed.covered[table][1]
        row = {"first": top - self.N + 1, "middle": top - self.N // 2, "last": top}
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(f"DROP TRIGGER {table}_no_delete")
            conn.execute(f"DELETE FROM {table} WHERE id = ?", (row[position],))
        conn.close()
        assert not self._agree(backend)

    def test_file_replaced_by_a_shorter_copy(self, store):
        path, backend = store
        _replace_contents(path, _records(self.N - 2, "c"))
        assert not self._agree(backend)

    def test_file_replaced_by_a_longer_copy(self, store):
        path, backend = store
        _replace_contents(path, _records(self.N + 2, "c"))
        # Each table again holds the covered count of rows at or below
        # the covered maximum id: the predicate holds, whatever those
        # rows now say.  Agreement with the oracle is what is pinned.
        assert self._agree(backend)


def _statements(backend, call) -> list:
    """Every ``(sql, params)`` the backend runs during ``call()``."""
    seen = []
    execute = backend._execute

    def recording(sql, params=()):
        seen.append((sql, params))
        return execute(sql, params)

    backend._execute = recording
    try:
        call()
    finally:
        del backend._execute
    return seen


def _plan(backend, sql, params) -> list[str]:
    rows = backend._execute("EXPLAIN QUERY PLAN " + sql, params).fetchall()
    return [detail for *_ids, detail in rows]


def _vm_steps(backend, call) -> int:
    """SQLite virtual-machine instructions run during ``call()``: rows
    visited one by one cost steps, a b-tree seek or an index-only
    ``COUNT(*)`` costs one."""
    steps = 0

    def tick():
        nonlocal steps
        steps += 1
        return 0

    backend._conn.set_progress_handler(tick, 1)
    try:
        call()
    finally:
        backend._conn.set_progress_handler(None, 1)
    return steps


def _fat_tree_like(path, hosts: int) -> DepDB:
    """Four routes per host, every one to ``Internet``, as in a fat
    tree; one hardware and one software record per host."""
    backend = DepDB.sqlite(path)
    backend.add_many(
        [
            *(
                NetworkDependency(f"S{i}", "Internet", (f"ToR{i}", f"C{j}"))
                for i in range(hosts)
                for j in range(4)
            ),
            *(HardwareDependency(f"S{i}", "CPU", "X5550") for i in range(hosts)),
            *(
                SoftwareDependency(f"P{i}", f"S{i}", ("libc6",))
                for i in range(hosts)
            ),
        ]
    )
    return backend


def _steps_as_the_store_grows(tmp_path, measure) -> list[int]:
    """``measure(backend)`` on a 20-host and on an 80-host store."""
    steps = []
    for hosts in (20, 80):
        backend = _fat_tree_like(tmp_path / f"{hosts}.sqlite", hosts)
        try:
            steps.append(measure(backend))
        finally:
            backend.close()
    return steps


_LOOKUPS = pytest.mark.parametrize(
    "call, table, column",
    [
        (lambda b: b.network_paths("S3", "Internet"), "network", "src"),
        (lambda b: b.network_paths("S3"), "network", "src"),
        (lambda b: b.network_destinations("S3"), "network", "src"),
        (lambda b: b.hardware_of("S3"), "hardware", "hw"),
        (lambda b: b.software_on("S3"), "software", "hw"),
    ],
    ids=[
        "network_paths(src, dst)",
        "network_paths(src)",
        "network_destinations",
        "hardware_of",
        "software_on",
    ],
)


class TestQueryPlans:
    """The per-host lookups and the tripwire read a few index pages,
    whatever the data.

    Every network row of a fat-tree store has ``dst = "Internet"``, so a
    plan that searches on ``dst`` walks the whole table."""

    @pytest.fixture
    def backend(self, tmp_path):
        backend = _fat_tree_like(tmp_path / "dep.sqlite", 40)
        yield backend
        backend.close()

    @_LOOKUPS
    def test_lookup_searches_an_index_on_its_column(
        self, backend, call, table, column
    ):
        ((sql, params),) = _statements(backend, lambda: call(backend))
        plan = _plan(backend, sql, params)
        assert any(
            re.match(
                rf"SEARCH {table} USING (COVERING )?INDEX \w+ \({column}=\?",
                detail,
            )
            for detail in plan
        ), plan

    @_LOOKUPS
    def test_lookup_work_does_not_grow_with_the_store(
        self, tmp_path, call, table, column
    ):
        # Host S3 has the same rows in both stores; only the others grow.
        steps = _steps_as_the_store_grows(
            tmp_path, lambda b: _vm_steps(b, lambda: call(b))
        )
        assert steps[0] == steps[1], steps

    def test_tripwire_reads_no_table_in_full(self, backend):
        backend.content_hash()
        statements = _statements(
            backend, lambda: backend._still_covers(backend._hashed)
        )
        assert len(statements) == 3  # one per table
        for sql, params in statements:
            for detail in _plan(backend, sql, params):
                assert not (
                    detail.startswith("SCAN ")
                    and detail != "SCAN CONSTANT ROW"
                    and "COVERING INDEX" not in detail
                ), detail

    def test_tripwire_work_does_not_grow_with_the_store(self, tmp_path):
        def measure(backend):
            backend.content_hash()
            memo = backend._hashed
            return _vm_steps(backend, lambda: backend._still_covers(memo))

        steps = _steps_as_the_store_grows(tmp_path, measure)
        assert steps[0] == steps[1], steps

    def test_store_written_with_the_dst_index_drops_it_on_open(self, tmp_path):
        # The file an earlier schema wrote: the same tables plus an index
        # on network (dst).  Reopened, it loses the index and nothing else.
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path, records=RECORDS) as db:
            snap = db.snapshot("v1")
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_network_dst ON network (dst)"
            )
        conn.close()
        with DepDB.sqlite(path) as reopened:
            indexes = {
                name
                for (name,) in reopened._execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert "idx_network_dst" not in indexes
            assert "idx_network_src" in indexes
            assert reopened.records() == RECORDS
            assert reopened.content_hash() == snap.digest
            assert snap.digest == records_digest(RECORDS)
            assert reopened.last_snapshot() == snap


class TestHashWorkIsTheDrift:
    """``content_hash`` keys the rows added since it last ran, no more."""

    def test_record_key_calls(self, db, sqlite_keyed):
        keyed = sqlite_keyed
        db.content_hash()
        assert len(keyed) == len(RECORDS)  # the one full scan
        del keyed[:]
        db.content_hash()
        assert keyed == []
        batch = [
            NetworkDependency("S2", "Internet", ("ToR2", "Core1")),
            HardwareDependency("S2", "CPU", "X5550"),
            SoftwareDependency("Riak", "S2", ("libc6",)),
            RECORDS[0],  # a duplicate is not a new row
        ]
        db.ingest(batch)
        db.content_hash()
        assert keyed == batch[:3]
        del keyed[:]
        snap = db.snapshot("v1")
        assert keyed == []
        assert snap.digest == records_digest(RECORDS + batch[:3])

    def test_rows_of_another_connection_are_keyed_once(self, tmp_path, sqlite_keyed):
        path = tmp_path / "dep.sqlite"
        backend = DepDB.sqlite(path)
        other = DepDB.sqlite(path)
        try:
            backend.add_many(RECORDS[:4])
            backend.content_hash()
            del sqlite_keyed[:]
            other.add_many(RECORDS[3:])
            assert backend.content_hash() == records_digest(RECORDS)
            assert sqlite_keyed == RECORDS[4:]
        finally:
            backend.close()
            other.close()

    def test_close_drops_the_memo(self, tmp_path, sqlite_keyed):
        path = tmp_path / "dep.sqlite"
        with DepDB.sqlite(path, records=RECORDS) as db:
            db.content_hash()
        assert db._hashed is None
        del sqlite_keyed[:]
        with DepDB.sqlite(path) as reopened:  # a fresh process, in effect
            reopened.content_hash()
        assert len(sqlite_keyed) == len(RECORDS)


def test_hashing_and_ingesting_threads_share_one_backend(tmp_path):
    # The memo is state shared by the service's worker threads; a lost
    # update to it would leave keys out of (or twice in) the list.
    backend = DepDB.sqlite(tmp_path / "dep.sqlite")
    batches = [
        [
            HardwareDependency(f"S{worker}", "Disk", f"WD-{worker}-{i}-{j}")
            for j in range(3)
        ]
        for worker in range(4)
        for i in range(10)
    ]
    errors = []

    def work(mine):
        try:
            for batch in mine:
                backend.add_many(batch)
                backend.content_hash()
        except Exception as exc:  # surfaced below, in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(batches[k::4],)) for k in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(backend) == 120
        _assert_hash_pinned(backend)
    finally:
        backend.close()
