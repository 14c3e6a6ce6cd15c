"""Record identity, the content-hash format and snapshots of a DepDB (§3).

Both stores — the in-memory :class:`~repro.depdb.DepDB` and its SQLite
subclass — address their record set by the digest defined here:

* :func:`record_key` is one record's canonical text identity, which the
  digest and the SQLite UNIQUE constraints key on;
* :func:`sorted_keys_digest` is the byte format of the digest, over
  already-sorted keys, defined once;
* :func:`records_digest` is that digest over any record set, in any
  order.  Two stores holding the same records hash identically,
  whatever their ingest order or storage.

A :class:`Snapshot` is one audited state of a store, keyed by that
digest: recording one after an audit lets the next
:meth:`~repro.engine.facade.AuditEngine.audit_store` call prove, by
digest equality, that the store has not drifted since.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

from repro.depdb.records import (
    DependencyRecord,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.errors import DependencyDataError

__all__ = [
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
    this, and so does a store that keeps its keys sorted between calls
    (:meth:`SQLiteDepDB.content_hash
    <repro.depdb.sqlite.SQLiteDepDB.content_hash>`).
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

