"""Durable write-ahead journal for audit jobs.

``indaas serve --state-dir DIR`` makes the service crash-safe: every
job's lifecycle is appended to a per-job JSONL journal with one fsync
per state change, and finished reports are stored as content-addressed
files.  A killed server replays the journals on startup
(:meth:`JobJournal.replay`), re-queues jobs that never finished and
serves already-finished reports byte-identically — by the determinism
contract, a re-run of a seeded request produces the exact bytes the
interrupted run would have.  A running server reads one finished job
back (:meth:`JobJournal.read`) once it no longer holds it in memory.

Layout under the state directory::

    jobs/<job_id>.jsonl      append-only journal, one record per line
    reports/<sha256>.json    content-addressed report bytes

Journal records (each a canonical-JSON line with a ``record`` field):

* ``submitted`` — the full :class:`~repro.api.AuditRequest` document,
  tenant and fingerprint; written once, first.
* ``event`` — one canonical job event, exactly as served to clients.
  The job's terminal event record also carries ``elapsed``, the seconds
  its status reports, so a job read back reports what it did before.
* ``report`` — content address (``sha256``) of the finished report
  bytes plus ``report_key``/``structural_hash``; always written on the
  line *before* the terminal ``done`` event, after the bytes themselves
  are stored, so recovery that sees ``done`` always finds the bytes.

One state change is one :meth:`JobJournal.append`, one ``write`` and
one ``fsync``: admission writes ``submitted`` (plus a born-done job's
``report``) and the admission events together, completion writes
``report`` and ``done`` together, and each progress event is its own
append.  Crash tolerance: a crash mid-append leaves a prefix of the
batch ending in at most one partial line; :meth:`replay` stops at the
first undecodable line and truncates the file back to the last complete
record, so the journal stays appendable after recovery, and a torn batch
can replay ``report`` without ``done`` but never ``done`` without the
``report`` line before it.  Report files are written to a temp name,
fsync'd, then renamed — a report either exists completely or not at
all, and its name is the SHA-256 of its bytes (verified on load).

Fault injection: appends cross the ``journal.append`` point, where a
scheduled ``disk-full`` fault raises ``OSError(ENOSPC)`` — the
:class:`~repro.service.jobs.JobManager` degrades to in-memory operation
instead of failing jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.api import canonical_json
from repro.errors import ServiceError
from repro.testing.faults import fault_point

__all__ = [
    "JobJournal",
    "JournaledJob",
    "event_record",
    "job_number",
    "report_record",
    "submitted_record",
]

_TERMINAL = frozenset({"done", "failed", "cancelled"})
_JOB_FILE = re.compile(r"\A(?P<job_id>[\w.-]+)\.jsonl\Z")


@dataclass
class JournaledJob:
    """One job reconstructed from its journal file."""

    job_id: str
    tenant: str = "public"
    request: Optional[dict] = None  # audit_request document
    fingerprint: Optional[str] = None
    events: list = field(default_factory=list)
    state: str = "queued"
    error: Optional[dict] = None
    cached: bool = False
    report_sha: Optional[str] = None
    report_key: Optional[str] = None
    structural_hash: Optional[str] = None
    elapsed: float = 0.0

    @property
    def is_terminal(self) -> bool:
        return self.state in _TERMINAL


def job_number(job_id: str) -> int:
    """Numeric suffix of ``job-NNNNNN`` ids (0 when unparseable)."""
    _, _, suffix = job_id.rpartition("-")
    return int(suffix) if suffix.isdigit() else 0


class JobJournal:
    """Append-only, fsync'd journal of every job under one state dir.

    Thread-safe.  One open append handle per live job; terminal jobs
    are closed (:meth:`close_job`) to bound file descriptors.
    """

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.root = Path(state_dir)
        self.jobs_dir = self.root / "jobs"
        self.reports_dir = self.root / "reports"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.reports_dir.mkdir(parents=True, exist_ok=True)
        self._handles: dict[str, object] = {}
        self._lock = threading.Lock()

    # ----------------------------- append ----------------------------- #

    def _job_path(self, job_id: str) -> Path:
        if not _JOB_FILE.match(f"{job_id}.jsonl"):
            raise ServiceError(f"unjournalable job id: {job_id!r}")
        return self.jobs_dir / f"{job_id}.jsonl"

    def append(self, job_id: str, *records: dict) -> None:
        """Durably append one state change's records to a job's journal.

        The batch is one ``write`` and one ``fsync``, and it only counts
        as written once both complete; a failed append truncates back to
        the previous end-of-file so a partial batch can never precede a
        later good one.  Raises ``OSError`` (e.g. ``ENOSPC``) to the
        caller, which owns the degrade decision.
        """
        data = "".join(
            canonical_json(record) + "\n" for record in records
        ).encode("utf-8")
        with self._lock:
            handle = self._handles.get(job_id)
            if handle is None:
                created = not self._job_path(job_id).exists()
                handle = open(self._job_path(job_id), "ab")
                self._handles[job_id] = handle
                if created:
                    _fsync_dir(self.jobs_dir)
            position = handle.tell()
            try:
                fault_point("journal.append", job_id=job_id)
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            except OSError:
                try:
                    handle.truncate(position)
                except OSError:
                    # Cannot repair in place; drop the handle so a
                    # later append reopens (and replay re-truncates).
                    handle.close()
                    del self._handles[job_id]
                raise

    def close_job(self, job_id: str) -> None:
        with self._lock:
            handle = self._handles.pop(job_id, None)
            if handle is not None:
                handle.close()

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()

    # ------------------------- report store --------------------------- #

    def store_report(self, data: bytes) -> str:
        """Store report bytes content-addressed; returns their SHA-256.

        Idempotent: identical bytes share one file.  Atomic: temp file,
        fsync, rename, directory fsync — a crash leaves either the
        complete report or nothing.
        """
        digest = hashlib.sha256(data).hexdigest()
        final = self.reports_dir / f"{digest}.json"
        if final.exists():
            return digest
        temp = self.reports_dir / f".{digest}.tmp.{os.getpid()}"
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
        _fsync_dir(self.reports_dir)
        return digest

    def load_report(self, sha256: str) -> Optional[bytes]:
        """Fetch stored report bytes, verifying the content address.

        Returns ``None`` when missing or corrupt — recovery re-runs the
        job instead of serving damaged bytes.
        """
        path = self.reports_dir / f"{sha256}.json"
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != sha256:
            return None
        return data

    # ----------------------------- replay ----------------------------- #

    def replay(self) -> Iterator[JournaledJob]:
        """Reconstruct every journaled job, oldest first, one at a time.

        Each file is read as by :meth:`read`, only when the caller asks
        for its job, so a replay holds one job at a time.
        """
        for job_id in self._job_ids():
            job = self.read(job_id)
            if job is not None:
                yield job

    def read(self, job_id: str) -> Optional[JournaledJob]:
        """Reconstruct one job from its journal file.

        Tolerates (and repairs) a partial trailing line — the signature
        of a crash mid-append.  ``None`` when there is no file, or when
        it has no complete ``submitted`` record: the job was never
        durably admitted, so the client never got an acknowledgement
        for it.
        """
        try:
            records = self._read_records(self._job_path(job_id))
        except FileNotFoundError:
            return None
        return _fold_records(job_id, records)

    def last_number(self) -> int:
        """The highest ``job-NNNNNN`` number with a file (0 if none)."""
        return max(map(job_number, self._job_ids()), default=0)

    def _job_ids(self) -> list[str]:
        matches = (
            _JOB_FILE.match(path.name)
            for path in self.jobs_dir.glob("*.jsonl")
        )
        ids = [match.group("job_id") for match in matches if match]
        return sorted(ids, key=lambda job_id: (job_number(job_id), job_id))

    def _read_records(self, path: Path) -> list[dict]:
        data = path.read_bytes()
        records = []
        offset = 0
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # partial trailing line: crash mid-append
            try:
                record = json.loads(line)
            except ValueError:
                # Torn write (a zeroed block may not even decode as
                # text): everything after is suspect.
                break
            if not isinstance(record, dict):
                break
            records.append(record)
            offset += len(line)
        if offset < len(data):
            with open(path, "ab") as handle:
                handle.truncate(offset)
        return records


def submitted_record(
    job_id: str,
    tenant: str,
    request_document: dict,
    fingerprint: Optional[str],
) -> dict:
    """The ``submitted`` record: a job's admission, written first."""
    return {
        "record": "submitted",
        "job_id": job_id,
        "tenant": tenant,
        "request": request_document,
        "fingerprint": fingerprint,
    }


def event_record(event: dict) -> dict:
    """An ``event`` record: one canonical job event as served."""
    return {"record": "event", "event": event}


def report_record(
    sha256: str,
    report_key: Optional[str],
    structural_hash: Optional[str],
) -> dict:
    """The ``report`` record: the content address of stored bytes."""
    return {
        "record": "report",
        "sha256": sha256,
        "report_key": report_key,
        "structural_hash": structural_hash,
    }


def _fold_records(job_id: str, records: list[dict]) -> Optional[JournaledJob]:
    job = JournaledJob(job_id=job_id)
    for record in records:
        kind = record.get("record")
        if kind == "submitted":
            job.tenant = record.get("tenant", job.tenant)
            job.request = record.get("request")
            job.fingerprint = record.get("fingerprint")
        elif kind == "event":
            event = record.get("event")
            if isinstance(event, dict):
                job.events.append(event)
                name = event.get("event")
                if name in _TERMINAL:
                    job.state = name
                    error = event.get("error")
                    if isinstance(error, dict):
                        job.error = error
                    elapsed = record.get("elapsed")
                    if isinstance(elapsed, float):
                        job.elapsed = elapsed
                elif name == "started":
                    job.state = "running"
                elif name in ("queued", "recovered"):
                    job.state = "queued"
                if name == "cache_hit":
                    job.cached = True
        elif kind == "report":
            job.report_sha = record.get("sha256")
            job.report_key = record.get("report_key")
            job.structural_hash = record.get("structural_hash")
    if job.request is None:
        return None
    return job


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover — some filesystems refuse
        pass
    finally:
        os.close(fd)
