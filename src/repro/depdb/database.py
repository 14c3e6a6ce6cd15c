"""DepDB — the dependency information database (§3).

Dependency acquisition modules store their adapted records here; the
auditing agent later queries it while building dependency graphs
(§4.1.1 Steps 2–6).  :class:`DepDB` is the indexed in-memory store:
secondary indices cover the exact query shapes the graph builder needs,
and everything lives in plain dicts and lists, so it is also what any
store pickles down to when an audit fans out across worker processes.
:meth:`DepDB.sqlite` opens its durable subclass
(:mod:`repro.depdb.sqlite`), which keeps the records in a file and
answers every query identically (the parity suite in ``tests/depdb``).

The contract both honour:

* :meth:`~DepDB.add` deduplicates on exact record equality and reports
  whether the record was new;
* :meth:`~DepDB.records` returns network, then hardware, then software
  records, each group in first-insertion order — the order every
  serialisation (and therefore every content address built from a
  dump) depends on; query results are lists in the same order;
* :meth:`~DepDB.content_hash` is the order-independent
  :func:`~repro.depdb.backend.records_digest` of the record set.  This
  class recomputes it in full on every call, which makes it the oracle;
  the SQLite store does less work for the same value.

Text/JSON persistence (Table-1 dumps) is shared by both, so acquired
data can be shipped from data sources to the agent.  Content-addressed
snapshots tie the store to the incremental audit layer:
:meth:`~DepDB.snapshot_audited` records one after an audit only if the
store still holds the audited records, so the next
:meth:`~repro.engine.facade.AuditEngine.audit_store` call can prove, by
digest equality, whether anything drifted since.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from itertools import islice
from typing import Iterable, Iterator, Optional, Union

from repro.depdb.backend import Snapshot, records_digest
from repro.depdb.records import (
    DependencyRecord,
    HardwareDependency,
    NetworkDependency,
    SoftwareDependency,
)
from repro.depdb import xmlformat
from repro.errors import DependencyDataError

__all__ = ["DepDB"]

#: JSON persistence sections, with their required fields and types.
_JSON_FIELDS = {
    "network": (("src", str), ("dst", str), ("route", list)),
    "hardware": (("hw", str), ("type", str), ("dep", str)),
    "software": (("pgm", str), ("hw", str), ("dep", list)),
}


def _record_from_json(kind: str, index: int, item) -> DependencyRecord:
    """Validate one JSON entry and build its typed record.

    Raises a :class:`DependencyDataError` naming the offending record —
    never a raw ``KeyError``/``TypeError`` from a malformed document.
    """
    where = f"{kind} entry #{index}"
    if not isinstance(item, dict):
        raise DependencyDataError(
            f"{where} must be an object, got {type(item).__name__}: {item!r}"
        )
    values = {}
    for name, expected in _JSON_FIELDS[kind]:
        if name not in item:
            raise DependencyDataError(
                f"{where} is missing required field {name!r}: {item!r}"
            )
        value = item[name]
        if not isinstance(value, expected):
            raise DependencyDataError(
                f"{where} field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}: {item!r}"
            )
        if expected is list and not all(
            isinstance(element, str) for element in value
        ):
            raise DependencyDataError(
                f"{where} field {name!r} must be a list of strings: {item!r}"
            )
        values[name] = value
    try:
        if kind == "network":
            return NetworkDependency(
                src=values["src"],
                dst=values["dst"],
                route=tuple(values["route"]),
            )
        if kind == "hardware":
            return HardwareDependency(
                hw=values["hw"], type=values["type"], dep=values["dep"]
            )
        return SoftwareDependency(
            pgm=values["pgm"], hw=values["hw"], dep=tuple(values["dep"])
        )
    except DependencyDataError as exc:
        # Field-level validation from the record types (empty strings,
        # empty route hops) — re-raise with the record named.
        raise DependencyDataError(f"{where}: {exc}") from exc


class DepDB:
    """Indexed in-memory store of network / hardware / software records.

    One re-entrant lock serialises writes and snapshots, so one store is
    safe to share between the service's handler and worker threads.

    Args:
        records: Optional initial records to ingest.
    """

    def __init__(
        self, records: Optional[Iterable[DependencyRecord]] = None
    ) -> None:
        self._lock = threading.RLock()
        self._network: list[NetworkDependency] = []
        self._hardware: list[HardwareDependency] = []
        self._software: list[SoftwareDependency] = []
        self._net_by_src: dict[str, list[NetworkDependency]] = defaultdict(list)
        self._net_by_dst: dict[str, list[NetworkDependency]] = defaultdict(list)
        self._hw_by_host: dict[str, list[HardwareDependency]] = defaultdict(list)
        self._sw_by_host: dict[str, list[SoftwareDependency]] = defaultdict(list)
        self._seen: set[DependencyRecord] = set()
        self._snapshots: list[Snapshot] = []
        self._snapshot_seq = 0
        if records:
            self.ingest(records)

    @classmethod
    def sqlite(
        cls,
        path: Union[str, "Path"] = ":memory:",  # noqa: F821
        records: Optional[Iterable[DependencyRecord]] = None,
    ) -> "DepDB":
        """Open (or create) a durable SQLite DepDB."""
        from repro.depdb.sqlite import SQLiteDepDB

        return SQLiteDepDB(path, records)

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def add(self, record: DependencyRecord) -> bool:
        """Insert one record; returns False for exact duplicates."""
        return self.add_many((record,)) == 1

    def add_many(self, records: Iterable[DependencyRecord]) -> int:
        """Insert a batch under one hold of the lock (one transaction in
        the SQLite store); returns how many records were new."""
        with self._lock:
            return sum(1 for record in records if self._insert(record))

    def _insert(self, record: DependencyRecord) -> bool:
        if record in self._seen:
            return False
        if isinstance(record, NetworkDependency):
            self._network.append(record)
            self._net_by_src[record.src].append(record)
            self._net_by_dst[record.dst].append(record)
        elif isinstance(record, HardwareDependency):
            self._hardware.append(record)
            self._hw_by_host[record.hw].append(record)
        elif isinstance(record, SoftwareDependency):
            self._software.append(record)
            self._sw_by_host[record.hw].append(record)
        else:
            raise DependencyDataError(
                f"unsupported record type {type(record).__name__}"
            )
        self._seen.add(record)
        return True

    def ingest(
        self, records: Iterable[DependencyRecord], batch_size: int = 1024
    ) -> int:
        """Stream records in, committing one transaction per batch.

        The streaming entry point of the acquisition layer: the source
        may be an unbounded generator — at most ``batch_size`` records
        are materialised at a time.  Returns how many were new.
        """
        if batch_size < 1:
            raise DependencyDataError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        added = 0
        iterator = iter(records)
        while True:
            batch = list(islice(iterator, batch_size))
            if not batch:
                return added
            added += self.add_many(batch)

    def merge(self, other: "DepDB") -> int:
        """Absorb another DepDB (e.g. one per data source)."""
        return self.ingest(other.iter_records())

    # ------------------------------------------------------------------ #
    # Queries used by the dependency-graph builder
    # ------------------------------------------------------------------ #

    def network_paths(
        self, src: str, dst: Optional[str] = None
    ) -> list[NetworkDependency]:
        """All redundant routes out of ``src`` (optionally towards ``dst``)."""
        paths = self._net_by_src.get(src, [])
        if dst is None:
            return list(paths)
        return [p for p in paths if p.dst == dst]

    def network_destinations(self, src: str) -> list[str]:
        """Distinct destinations reachable from ``src``, insertion order."""
        seen: dict[str, None] = {}
        for record in self._net_by_src.get(src, []):
            seen.setdefault(record.dst, None)
        return list(seen)

    def hardware_of(self, host: str) -> list[HardwareDependency]:
        """Hardware components of ``host``."""
        return list(self._hw_by_host.get(host, []))

    def software_on(
        self, host: str, programs: Optional[Iterable[str]] = None
    ) -> list[SoftwareDependency]:
        """Software records on ``host``.

        The current prototype requires the auditing client to list the
        software components of interest (§3); pass them as ``programs``
        to filter, or omit to return everything acquired on that host.
        """
        records = self._sw_by_host.get(host, [])
        if programs is None:
            return list(records)
        wanted = set(programs)
        return [r for r in records if r.pgm in wanted]

    def hosts(self) -> list[str]:
        """Every host that at least one record mentions, first-seen order.

        Network *destinations* count: a host that only ever appears as
        a ``dst`` (an edge service, the Internet gateway) is still part
        of the deployment's dependency surface.
        """
        seen: dict[str, None] = {}
        for name in (
            list(self._net_by_src)
            + list(self._net_by_dst)
            + list(self._hw_by_host)
            + list(self._sw_by_host)
        ):
            seen.setdefault(name, None)
        return list(seen)

    def records(self) -> list[DependencyRecord]:
        """All records: network, hardware, software; insertion order."""
        return [*self._network, *self._hardware, *self._software]

    def iter_records(self) -> Iterator[DependencyRecord]:
        """Lazy :meth:`records` — same records, same order."""
        yield from self._network
        yield from self._hardware
        yield from self._software

    def counts(self) -> dict[str, int]:
        """Record counts keyed ``network`` / ``hardware`` / ``software``."""
        return {
            "network": len(self._network),
            "hardware": len(self._hardware),
            "software": len(self._software),
        }

    def __len__(self) -> int:
        return len(self._seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self.counts()
        return (
            f"DepDB(network={c['network']}, hardware={c['hardware']}, "
            f"software={c['software']})"
        )

    # ------------------------------------------------------------------ #
    # Content addressing and snapshots
    # ------------------------------------------------------------------ #

    def content_hash(self) -> str:
        """Order-independent digest of the current record set."""
        with self._lock:
            return records_digest(self.iter_records())

    def snapshot(self, label: str = "") -> Snapshot:
        """Record the current record set as a content-addressed snapshot.

        Keyed by :meth:`content_hash`: snapshotting an unchanged store
        re-labels (and re-sequences to the front) the existing entry
        instead of growing the snapshot log.
        """
        with self._lock:
            return self._record_snapshot(self.content_hash(), label)

    def snapshot_audited(
        self, audited: str, label: str = ""
    ) -> Optional[Snapshot]:
        """:meth:`snapshot` if the store still holds the record set whose
        content hash is ``audited``; otherwise None, and no snapshot.

        The check and the write run under one hold of the lock, so a
        write from another thread lands before both or after both —
        never between them, where it would be recorded as audited.
        """
        with self._lock:
            if self.content_hash() != audited:
                return None
            return self._record_snapshot(audited, label)

    def _record_snapshot(self, digest: str, label: str) -> Snapshot:
        """Log a snapshot of ``digest``, the content hash the caller has
        just taken under its current hold of the lock."""
        self._snapshot_seq += 1
        snap = Snapshot(
            digest=digest,
            label=label,
            seq=self._snapshot_seq,
            created=time.time(),
            counts=(len(self._network), len(self._hardware), len(self._software)),
        )
        self._snapshots = [
            s for s in self._snapshots if s.digest != digest
        ] + [snap]
        return snap

    def snapshots(self) -> list[Snapshot]:
        """All snapshots, oldest first (by ``seq``)."""
        return list(self._snapshots)

    def last_snapshot(self) -> Optional[Snapshot]:
        """The most recently recorded snapshot, or None."""
        return self._snapshots[-1] if self._snapshots else None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release storage resources (idempotent; a no-op in memory)."""

    def __enter__(self) -> "DepDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self):
        # Worker processes need the records, not the storage: every store
        # rebuilds as an in-memory one (SQLite connections do not pickle;
        # the parity contract makes the substitution invisible).
        return (DepDB, (tuple(self.iter_records()),))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def dumps(self) -> str:
        """Serialise all records in the Table-1 line format."""
        return xmlformat.dumps(self.iter_records())

    @classmethod
    def loads(cls, text: str) -> "DepDB":
        db = cls()
        db.ingest(xmlformat.iter_records(text))
        return db

    def to_json(self) -> str:
        """JSON persistence (stable across versions, unlike repr)."""
        payload: dict = {"network": [], "hardware": [], "software": []}
        for record in self.iter_records():
            if isinstance(record, NetworkDependency):
                payload["network"].append(
                    {
                        "src": record.src,
                        "dst": record.dst,
                        "route": list(record.route),
                    }
                )
            elif isinstance(record, HardwareDependency):
                payload["hardware"].append(
                    {"hw": record.hw, "type": record.type, "dep": record.dep}
                )
            else:
                payload["software"].append(
                    {
                        "pgm": record.pgm,
                        "hw": record.hw,
                        "dep": list(record.dep),
                    }
                )
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DepDB":
        try:
            payload = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DependencyDataError(f"invalid DepDB JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise DependencyDataError(
                "DepDB JSON must be an object with network/hardware/"
                f"software lists, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_JSON_FIELDS))
        if unknown:
            raise DependencyDataError(
                f"unknown DepDB JSON keys {unknown}; expected network, "
                "hardware and/or software"
            )

        def build() -> Iterator[DependencyRecord]:
            for kind in _JSON_FIELDS:
                items = payload.get(kind, [])
                if not isinstance(items, list):
                    raise DependencyDataError(
                        f"DepDB JSON {kind!r} must be a list, "
                        f"got {type(items).__name__}"
                    )
                for index, item in enumerate(items):
                    yield _record_from_json(kind, index, item)

        db = cls()
        db.ingest(build())
        return db

