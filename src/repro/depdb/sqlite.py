"""The durable SQLite DepDB (stdlib ``sqlite3`` only).

Production dependency sets drift continuously and outlive any one
process, so the store must too.  :class:`SQLiteDepDB` is the
:class:`~repro.depdb.DepDB` subclass that :meth:`DepDB.sqlite
<repro.depdb.DepDB.sqlite>` opens: it keeps ingest, persistence and
the snapshot check from its base and overrides storage, queries, the
content hash, the snapshot log and ``close``.  The three Table-1
record types live in indexed per-type tables:

* ``network (id, src, dst, route)`` — ``route`` is a JSON array, so a
  hop containing a comma can never be confused with two hops;
* ``hardware (id, hw, type, dep)``;
* ``software (id, pgm, hw, dep)`` — ``dep`` is a JSON array.

Each table carries a UNIQUE constraint over its payload columns, so
dedup is ``INSERT OR IGNORE`` — the same exact-equality semantics as
the in-memory store.  ``id`` (the rowid) preserves insertion order;
records are never updated or deleted (``BEFORE UPDATE`` / ``BEFORE
DELETE`` triggers abort, whichever connection tries), so id order *is*
first-insertion order and every query replays the in-memory store's
ordering contract exactly.

Each per-host lookup has an index on the column it filters
(``network.src``, ``hardware.hw``, ``software.hw``).  There is none on
``network.dst``: no query filters on it alone, and every row of a
fat-tree store has ``dst = "Internet"``, so a planner offered it for
``src = ? AND dst = ?`` walked the whole table.  There is none on
``software.pgm`` either: no query reads it, and every ingest paid to
keep it.  Opening a file that has either drops it.

The ``snapshots`` table is content-addressed by the record-set hash
(:func:`~repro.depdb.backend.records_digest`): one row per distinct
store state ever audited, re-sequenced in place when an unchanged store
is snapshotted again.  :meth:`~repro.engine.facade.AuditEngine.
audit_store` compares the live hash against
``last_snapshot`` to prove whether anything drifted since the last
audit.

That live hash costs the store's drift, not its size.
:meth:`SQLiteDepDB.content_hash` keeps, per open store, the
sorted record keys it last hashed and the ``(row count, max id)`` per
table they cover; a call keys only the rows ``WHERE id >`` that
maximum, merges them in and re-hashes the joined keys
(:func:`~repro.depdb.backend.sorted_keys_digest`, so the value is the
full recomputation's, bit for bit).  Freshness is read from the tables
rather than pushed by ``add_many``, because another
connection or process writing the same file must be seen too; if the
covered rows are no longer all there (a truncated or replaced file) the
memo is dropped and the store rescanned in full.  That tripwire reads
no covered row: the count at or below the covered id is the whole-table
``COUNT(*)`` (one index-only count) less the count past it.  About
140 B per record, held while the store is open.

Writes run in WAL mode with batched transactions
(:meth:`SQLiteDepDB.add_many` wraps a whole batch in one commit); the
store's lock serialises access to its single shared connection, so one
store is safe to use from the service's worker threads.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.depdb.backend import Snapshot, record_key, sorted_keys_digest
from repro.depdb.database import DepDB
from repro.depdb.records import (
    DependencyRecord,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.errors import DependencyDataError

__all__ = ["SQLiteDepDB"]

#: Bumped only on incompatible schema changes.
_SCHEMA_VERSION = 1

#: Seconds to wait on a database file another connection has locked.
_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS network (
    id INTEGER PRIMARY KEY,
    src TEXT NOT NULL,
    dst TEXT NOT NULL,
    route TEXT NOT NULL,
    UNIQUE (src, dst, route)
);
CREATE INDEX IF NOT EXISTS idx_network_src ON network (src);
DROP INDEX IF EXISTS idx_network_dst;
CREATE TABLE IF NOT EXISTS hardware (
    id INTEGER PRIMARY KEY,
    hw TEXT NOT NULL,
    type TEXT NOT NULL,
    dep TEXT NOT NULL,
    UNIQUE (hw, type, dep)
);
CREATE INDEX IF NOT EXISTS idx_hardware_hw ON hardware (hw);
CREATE TABLE IF NOT EXISTS software (
    id INTEGER PRIMARY KEY,
    pgm TEXT NOT NULL,
    hw TEXT NOT NULL,
    dep TEXT NOT NULL,
    UNIQUE (pgm, hw, dep)
);
CREATE INDEX IF NOT EXISTS idx_software_hw ON software (hw);
DROP INDEX IF EXISTS idx_software_pgm;
CREATE TABLE IF NOT EXISTS snapshots (
    digest TEXT PRIMARY KEY,
    label TEXT NOT NULL DEFAULT '',
    seq INTEGER NOT NULL,
    created REAL NOT NULL,
    network INTEGER NOT NULL,
    hardware INTEGER NOT NULL,
    software INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: The record tables, in ``records()`` order.
_TABLES = ("network", "hardware", "software")

# Append-only, enforced: the records-order contract and the content-hash
# memo both rest on a record row never changing or disappearing.
# ``INSERT OR IGNORE`` fires neither kind of trigger.
_SCHEMA += "".join(
    f"CREATE TRIGGER IF NOT EXISTS {table}_no_{verb.lower()} "
    f"BEFORE {verb} ON {table} BEGIN "
    f"SELECT RAISE(ABORT, 'DepDB records are append-only: "
    f"{verb} on {table} refused'); END;\n"
    for table in _TABLES
    for verb in ("UPDATE", "DELETE")
)


def _pack(items: Iterable[str]) -> str:
    return json.dumps(list(items), separators=(",", ":"))


def _unpack(text: str) -> tuple[str, ...]:
    return tuple(json.loads(text))


@dataclass
class _HashMemo:
    """What one open store has already hashed.

    Attributes:
        keys: Sorted ``record_key`` of every covered row.
        covered: Per table, the ``(row count, max id)`` of the rows
            whose keys are in ``keys``; rows past ``max id`` are new.
        digest: ``sorted_keys_digest(keys)``.
    """

    keys: list[str]
    covered: dict[str, tuple[int, int]]
    digest: str


class SQLiteDepDB(DepDB):
    """Durable, indexed DepDB on one SQLite database file.

    Args:
        path: Database file (created if missing) or ``":memory:"`` for
            an ephemeral store with the same semantics.
        records: Optional initial records to ingest.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        records: Optional[Iterable[DependencyRecord]] = None,
    ) -> None:
        # Not DepDB.__init__: this store keeps no in-memory indices.
        self.path = str(path)
        self._lock = threading.RLock()
        self._closed = False
        self._hashed: Optional[_HashMemo] = None
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=_TIMEOUT, check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            with self._conn:
                self._conn.executescript(_SCHEMA)
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO meta (key, value) VALUES "
                        "('schema_version', ?)",
                        (str(_SCHEMA_VERSION),),
                    )
                elif row[0] != str(_SCHEMA_VERSION):
                    raise DependencyDataError(
                        f"DepDB database {self.path} has schema version "
                        f"{row[0]}; this build speaks {_SCHEMA_VERSION}"
                    )
        except sqlite3.Error as exc:
            raise DependencyDataError(
                f"cannot open DepDB database {self.path}: {exc}"
            ) from exc
        if records:
            self.ingest(records)

    # ----------------------------- plumbing ---------------------------- #

    def _execute(self, sql: str, params: tuple = ()):
        if self._closed:
            raise DependencyDataError(
                f"DepDB database {self.path} is closed"
            )
        try:
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise DependencyDataError(
                f"DepDB database {self.path}: {exc}"
            ) from exc

    def _insert(self, record: DependencyRecord) -> int:
        if isinstance(record, NetworkDependency):
            cursor = self._execute(
                "INSERT OR IGNORE INTO network (src, dst, route) "
                "VALUES (?, ?, ?)",
                (record.src, record.dst, _pack(record.route)),
            )
        elif isinstance(record, HardwareDependency):
            cursor = self._execute(
                "INSERT OR IGNORE INTO hardware (hw, type, dep) "
                "VALUES (?, ?, ?)",
                (record.hw, record.type, record.dep),
            )
        elif isinstance(record, SoftwareDependency):
            cursor = self._execute(
                "INSERT OR IGNORE INTO software (pgm, hw, dep) "
                "VALUES (?, ?, ?)",
                (record.pgm, record.hw, _pack(record.dep)),
            )
        else:
            raise DependencyDataError(
                f"unsupported record type {type(record).__name__}"
            )
        return cursor.rowcount

    # ------------------------------ ingest ----------------------------- #

    def add_many(self, records: Iterable[DependencyRecord]) -> int:
        """Insert a batch inside one transaction; returns the new count."""
        with self._lock, self._conn:
            return sum(self._insert(record) for record in records)

    # ------------------------------ queries ---------------------------- #

    def _select_network(
        self, where: str = "", params: tuple = ()
    ) -> list[NetworkDependency]:
        with self._lock:
            rows = self._execute(
                f"SELECT src, dst, route FROM network {where} ORDER BY id",
                params,
            ).fetchall()
        return [
            NetworkDependency(src=src, dst=dst, route=_unpack(route))
            for src, dst, route in rows
        ]

    def _select_hardware(
        self, where: str = "", params: tuple = ()
    ) -> list[HardwareDependency]:
        with self._lock:
            rows = self._execute(
                f"SELECT hw, type, dep FROM hardware {where} ORDER BY id",
                params,
            ).fetchall()
        return [
            HardwareDependency(hw=hw, type=type_, dep=dep)
            for hw, type_, dep in rows
        ]

    def _select_software(
        self, where: str = "", params: tuple = ()
    ) -> list[SoftwareDependency]:
        with self._lock:
            rows = self._execute(
                f"SELECT pgm, hw, dep FROM software {where} ORDER BY id",
                params,
            ).fetchall()
        return [
            SoftwareDependency(pgm=pgm, hw=hw, dep=_unpack(dep))
            for pgm, hw, dep in rows
        ]

    def records(self) -> list[DependencyRecord]:
        return [
            *self._select_network(),
            *self._select_hardware(),
            *self._select_software(),
        ]

    def iter_records(self) -> Iterator[DependencyRecord]:
        yield from self._select_network()
        yield from self._select_hardware()
        yield from self._select_software()

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {
                table: self._execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
                for table in _TABLES
            }

    def __len__(self) -> int:
        return sum(self.counts().values())

    def network_paths(
        self, src: str, dst: Optional[str] = None
    ) -> list[NetworkDependency]:
        if dst is None:
            return self._select_network("WHERE src = ?", (src,))
        return self._select_network("WHERE src = ? AND dst = ?", (src, dst))

    def network_destinations(self, src: str) -> list[str]:
        with self._lock:
            rows = self._execute(
                "SELECT dst FROM network WHERE src = ? ORDER BY id", (src,)
            ).fetchall()
        return list(dict.fromkeys(dst for (dst,) in rows))

    def hardware_of(self, host: str) -> list[HardwareDependency]:
        return self._select_hardware("WHERE hw = ?", (host,))

    def software_on(
        self, host: str, programs: Optional[Iterable[str]] = None
    ) -> list[SoftwareDependency]:
        records = self._select_software("WHERE hw = ?", (host,))
        if programs is None:
            return records
        wanted = set(programs)
        return [r for r in records if r.pgm in wanted]

    def hosts(self) -> list[str]:
        with self._lock:
            names: list[str] = []
            for sql in (
                "SELECT src FROM network ORDER BY id",
                "SELECT dst FROM network ORDER BY id",
                "SELECT hw FROM hardware ORDER BY id",
                "SELECT hw FROM software ORDER BY id",
            ):
                names.extend(name for (name,) in self._execute(sql))
        return list(dict.fromkeys(names))

    # --------------------------- content address ----------------------- #

    def content_hash(self) -> str:
        """:func:`~repro.depdb.backend.records_digest` of the rows on
        file, for the cost of the rows added since the last call.

        The value is the in-memory store's full recomputation's, bit for
        bit.  Freshness is read from the tables (``id`` past the covered
        maximum), never pushed by the write path, so rows written
        through another connection or process are seen too.
        """
        with self._lock:
            memo = self._hashed
            if memo is None or not self._still_covers(memo):
                memo = _HashMemo(
                    [], dict.fromkeys(_TABLES, (0, 0)), sorted_keys_digest(())
                )
            # Keys and coverage move together, after every read is in.
            covered = dict(memo.covered)
            fresh: list[str] = []
            for table, select in (
                ("network", self._select_network),
                ("hardware", self._select_hardware),
                ("software", self._select_software),
            ):
                count, top = covered[table]
                # Bounded above as well: the watermark must be the id
                # of a row that was read, whatever commits meanwhile.
                newest = self._execute(
                    f"SELECT COALESCE(MAX(id), 0) FROM {table}"
                ).fetchone()[0]
                if newest > top:
                    rows = select("WHERE id > ? AND id <= ?", (top, newest))
                    fresh.extend(map(record_key, rows))
                    covered[table] = (count + len(rows), newest)
            if fresh:
                memo.keys.extend(fresh)
                memo.keys.sort()  # a sorted run plus a short tail
                memo.digest = sorted_keys_digest(memo.keys)
                memo.covered = covered
            self._hashed = memo
            return memo.digest

    def _still_covers(self, memo: _HashMemo) -> bool:
        """Tripwire: are the rows ``memo`` covers all still there?

        False for a truncated or replaced file (the triggers stop
        everything short of that); the caller then rescans in full.
        """
        # COUNT(id <= top) as COUNT(all) - COUNT(id > top): ids are
        # non-null integers, so the two are equal, and the whole-table
        # count reads the smallest index, not every row.  One statement,
        # so one read snapshot.
        return all(
            self._execute(
                f"SELECT (SELECT COUNT(*) FROM {table}) - "
                f"(SELECT COUNT(*) FROM {table} WHERE id > ?), "
                f"(SELECT COALESCE(MAX(id), 0) FROM {table} WHERE id <= ?)",
                (top, top),
            ).fetchone()
            == (count, top)
            for table, (count, top) in memo.covered.items()
        )

    # ------------------------------ snapshots -------------------------- #

    def _record_snapshot(self, digest: str, label: str) -> Snapshot:
        # The counts of the rows that digest covers, read under the same
        # lock hold: a row another connection commits meanwhile is in
        # neither.
        counts = tuple(self._hashed.covered[table][0] for table in _TABLES)
        created = time.time()
        with self._conn:
            seq = (
                self._execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM snapshots"
                ).fetchone()[0]
                + 1
            )
            self._execute(
                "INSERT INTO snapshots "
                "(digest, label, seq, created, network, hardware, software) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (digest) DO UPDATE SET "
                "label = excluded.label, seq = excluded.seq, "
                "created = excluded.created",
                (digest, label, seq, created, *counts),
            )
        return Snapshot(
            digest=digest, label=label, seq=seq, created=created, counts=counts
        )

    def _snapshot_rows(self, suffix: str = "") -> list[Snapshot]:
        with self._lock:
            rows = self._execute(
                "SELECT digest, label, seq, created, network, hardware, "
                f"software FROM snapshots ORDER BY seq {suffix}"
            ).fetchall()
        return [
            Snapshot(
                digest=digest,
                label=label,
                seq=seq,
                created=created,
                counts=(network, hardware, software),
            )
            for digest, label, seq, created, network, hardware, software in rows
        ]

    def snapshots(self) -> list[Snapshot]:
        return self._snapshot_rows()

    def last_snapshot(self) -> Optional[Snapshot]:
        rows = self._snapshot_rows("DESC LIMIT 1")
        return rows[0] if rows else None

    # ------------------------------ lifecycle -------------------------- #

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True
                self._hashed = None
