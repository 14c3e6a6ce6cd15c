"""Storage-backend protocol for the DepDB (§3).

The DepDB facade in :mod:`repro.depdb.database` delegates every ingest
and query to a :class:`DepDBBackend`.  Two implementations ship:

* :class:`~repro.depdb.memory.MemoryBackend` — the original indexed
  in-memory store, the default and the reference for behaviour;
* :class:`~repro.depdb.sqlite.SQLiteBackend` — a durable stdlib
  ``sqlite3`` store with indexed per-type tables and content-addressed
  snapshots, for dependency sets that outlive a process.

The contract every backend honours (the parity property suite in
``tests/depdb/test_backend_parity.py`` enforces it):

* :meth:`~DepDBBackend.add` deduplicates on exact record equality and
  reports whether the record was new;
* :meth:`~DepDBBackend.records` returns network, then hardware, then
  software records, each group in first-insertion order — the order
  every serialisation (and therefore every content address built from a
  dump) depends on;
* query results are lists in the same insertion order;
* :meth:`~DepDBBackend.content_hash` is an *order-independent* digest
  of the record set, so two stores holding the same records hash
  identically regardless of ingest order or backing storage.  Its byte
  format is defined once, in :func:`sorted_keys_digest`;
  :func:`records_digest` is that function over the sorted
  :func:`record_key` of every record, and the inherited
  ``content_hash`` recomputes it in full on every call — which is what
  the memory backend does and why it is the oracle.  A backend may
  override ``content_hash`` to do less work
  (:class:`~repro.depdb.sqlite.SQLiteBackend` keeps its sorted keys
  between calls), never to return another value.

Snapshots tie the store to the incremental audit layer: recording one
after an audit lets the next :meth:`~repro.engine.incremental.
DeltaAuditEngine.audit_store` call prove, by digest equality, that the
store has not drifted since the last-audited state.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.depdb.records import (
    DependencyRecord,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.errors import DependencyDataError

__all__ = [
    "DepDBBackend",
    "Snapshot",
    "record_key",
    "records_digest",
    "sorted_keys_digest",
]

#: Domain separator of the record-set content hash (bump on format change).
_DIGEST_DOMAIN = b"indaas-depdb-v1\0"


def record_key(record: DependencyRecord) -> str:
    """Canonical, collision-free text identity of one record.

    Unlike the Table-1 dump line, field boundaries survive arbitrary
    content (a route hop containing a comma cannot collide with two
    hops), so this is what content hashing and the SQLite UNIQUE
    constraints key on.
    """
    if isinstance(record, NetworkDependency):
        payload = ["network", record.src, record.dst, list(record.route)]
    elif isinstance(record, HardwareDependency):
        payload = ["hardware", record.hw, record.type, record.dep]
    elif isinstance(record, SoftwareDependency):
        payload = ["software", record.pgm, record.hw, list(record.dep)]
    else:
        raise DependencyDataError(
            f"unsupported record type {type(record).__name__}"
        )
    return json.dumps(payload, separators=(",", ":"))


def sorted_keys_digest(keys: Iterable[str]) -> str:
    """The content hash's byte format, over already-sorted record keys.

    Domain prefix, then each key followed by ``\\n``.  The one
    definition of the format: :func:`records_digest` sorts and calls
    this, and so does a backend that keeps its keys sorted between
    calls (:meth:`SQLiteBackend.content_hash
    <repro.depdb.sqlite.SQLiteBackend.content_hash>`).
    """
    digest = hashlib.sha256(_DIGEST_DOMAIN)
    digest.update("\n".join([*keys, ""]).encode("utf-8"))
    return digest.hexdigest()


def records_digest(records: Iterable[DependencyRecord]) -> str:
    """Order-independent content hash of a record set."""
    return sorted_keys_digest(sorted(map(record_key, records)))


@dataclass(frozen=True)
class Snapshot:
    """One content-addressed snapshot of a store's record set.

    Attributes:
        digest: :func:`records_digest` of the record set at snapshot
            time — the snapshot's identity.  Re-snapshotting an
            unchanged store updates the existing entry in place.
        label: Free-form annotation; the audit layers store the audited
            graph's structural hash here so a later request can name it
            as its ``base``.
        seq: Monotonic snapshot ordinal (``last_snapshot`` is max-seq).
        created: Wall-clock POSIX timestamp.
        counts: ``(network, hardware, software)`` record counts.
    """

    digest: str
    label: str
    seq: int
    created: float
    counts: tuple[int, int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_dict(self) -> dict:
        return {
            "digest": self.digest,
            "label": self.label,
            "seq": self.seq,
            "created": self.created,
            "counts": {
                "network": self.counts[0],
                "hardware": self.counts[1],
                "software": self.counts[2],
            },
        }


class DepDBBackend(abc.ABC):
    """Abstract storage backend behind the :class:`~repro.depdb.DepDB`."""

    # ------------------------------ ingest ----------------------------- #

    @abc.abstractmethod
    def add(self, record: DependencyRecord) -> bool:
        """Insert one record; returns False for exact duplicates."""

    def add_many(self, records: Iterable[DependencyRecord]) -> int:
        """Insert a batch (one transaction where the backend has them);
        returns how many records were new."""
        return sum(1 for record in records if self.add(record))

    # ------------------------------ queries ---------------------------- #

    @abc.abstractmethod
    def records(self) -> list[DependencyRecord]:
        """All records: network, hardware, software; insertion order."""

    def iter_records(self) -> Iterator[DependencyRecord]:
        """Lazy :meth:`records` — same records, same order."""
        yield from self.records()

    @abc.abstractmethod
    def counts(self) -> dict[str, int]:
        """Record counts keyed ``network`` / ``hardware`` / ``software``."""

    def __len__(self) -> int:
        return sum(self.counts().values())

    @abc.abstractmethod
    def network_paths(
        self, src: str, dst: Optional[str] = None
    ) -> list[NetworkDependency]:
        """All redundant routes out of ``src`` (optionally towards ``dst``)."""

    @abc.abstractmethod
    def network_destinations(self, src: str) -> list[str]:
        """Distinct destinations reachable from ``src``, insertion order."""

    @abc.abstractmethod
    def hardware_of(self, host: str) -> list[HardwareDependency]:
        """Hardware components of ``host``."""

    @abc.abstractmethod
    def software_on(
        self, host: str, programs: Optional[Iterable[str]] = None
    ) -> list[SoftwareDependency]:
        """Software records on ``host``, optionally program-filtered."""

    @abc.abstractmethod
    def software_named(self, pgm: str) -> list[SoftwareDependency]:
        """Software records of program ``pgm`` across all hosts."""

    @abc.abstractmethod
    def hosts(self) -> list[str]:
        """Every host any record mentions — network sources *and*
        destinations, hardware hosts, software hosts; first-seen order."""

    # --------------------------- content address ----------------------- #

    def content_hash(self) -> str:
        """Order-independent digest of the current record set."""
        return records_digest(self.iter_records())

    # ------------------------------ snapshots -------------------------- #

    @abc.abstractmethod
    def snapshot(self, label: str = "") -> Snapshot:
        """Record the current record set as a content-addressed snapshot.

        Keyed by :meth:`content_hash`: snapshotting an unchanged store
        re-labels (and re-sequences to the front) the existing entry
        instead of growing the snapshot log.
        """

    @abc.abstractmethod
    def snapshots(self) -> list[Snapshot]:
        """All snapshots, oldest first (by ``seq``)."""

    @abc.abstractmethod
    def last_snapshot(self) -> Optional[Snapshot]:
        """The most recently recorded snapshot, or None."""

    # ------------------------------ lifecycle -------------------------- #

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""
