"""Durable write-ahead journal for audit jobs.

``indaas serve --state-dir DIR`` makes the service crash-safe: every
job's lifecycle is appended to one shared JSONL log with one fsync per
state change, and finished reports are stored as content-addressed
files.  A killed server replays the log on startup
(:meth:`JobJournal.replay`), re-queues jobs that never finished and
serves already-finished reports byte-identically — by the determinism
contract, a re-run of a seeded request produces the exact bytes the
interrupted run would have.  A running server reads one finished job
back (:meth:`JobJournal.read`) once it no longer holds it in memory.

Layout under the state directory::

    journal.jsonl            append-only log of every job, one record per line
    reports/<sha256>.json    content-addressed report bytes

Journal records (each a canonical-JSON line with a ``record`` field and
the ``job_id`` it belongs to; the records of live jobs interleave):

* ``submitted`` — the :class:`~repro.api.AuditRequest` document,
  tenant, fingerprint and ``depdb_sha256``, the SHA-256 of the request's
  DepDB text; written first.  The document holds the text itself only
  in the first ``submitted`` record of each text; every later job of
  the text names it by the sha alone.  Every ``submitted`` record an
  earlier release wrote holds its text and no sha, and still replays.
  A job re-queued by recovery is restated — ``submitted``
  again, then every event so far — and read back from its newest
  ``submitted`` record.
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
append.  The log is opened once; its directory is fsync'd once, when
the file is created.

Startup is one sequential scan of the log that truncates a torn tail,
sets :attr:`JobJournal.last_number` and builds the read-back indexes:
job number → byte offset of the job's ``submitted`` record, 8 bytes per
job, and text sha → offset of the first ``submitted`` record holding
that text, for each such record whose text hashes to its sha.
:meth:`JobJournal.read` seeks there and folds the job's records forward
until the terminal event that ended it — the one carrying ``elapsed`` —
or the end of the log; a job whose record names its text by sha alone
gets it from the record that holds it.  The text is checked against the
sha on every read, so a job whose text is missing or fails the check is
not restored, never served a wrong text.  Crash
tolerance: a crash mid-append leaves a prefix of the batch ending in at
most one partial line; the scan stops at the first undecodable line and
truncates the log back to the last complete record, so the log stays
appendable after recovery, and a torn batch can replay
``report`` without ``done`` but never ``done`` without the ``report``
line before it.  Report files are written to a temp file of their own,
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
import tempfile
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Optional, Union

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
    "text_sha256",
]

_TERMINAL = frozenset({"done", "failed", "cancelled"})

@dataclass
class JournaledJob:
    """One job reconstructed from its journal records."""

    job_id: str
    tenant: str = "public"
    request: Optional[dict] = None  # audit_request document, text included
    depdb_sha256: Optional[str] = None  # None in earlier releases' logs
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
    """Append-only, fsync'd log of every job under one state dir.

    Thread-safe: appends serialise on a lock, and :meth:`read` opens its
    own handle, so a read-back never waits for an append.

    Raises :class:`~repro.errors.ServiceError` on a state directory
    holding the per-job files of the older layout (``jobs/*.jsonl``),
    which this log does not read.
    """

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.root = Path(state_dir)
        self.path = self.root / "journal.jsonl"
        self.reports_dir = self.root / "reports"
        old_jobs = self.root / "jobs"
        if old_jobs.is_dir() and any(old_jobs.glob("*.jsonl")):
            raise ServiceError(
                f"state dir {self.root} holds per-job journal files "
                f"({old_jobs}/*.jsonl) from an older release; this release "
                f"journals every job to one log, {self.path}, and cannot "
                f"read them.  Drain those jobs with the older release, or "
                f"move {old_jobs} aside (its jobs are then lost) or start "
                f"on an empty --state-dir",
                code="old-state-layout",
            )
        self.reports_dir.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        if created:
            _fsync_dir(self.root)
        self._lock = threading.Lock()
        self._torn = False  # bytes past _end from a failed append
        #: Job number - 1 → offset of the job's newest ``submitted``
        #: record, -1 for numbers without one.
        self._offsets = array("q")
        #: Text sha → offset of the first ``submitted`` record that
        #: holds the text.
        self._texts: dict[str, int] = {}
        #: The highest job number with a record in the log (0 if none).
        self.last_number = 0
        self._end = self._scan()

    # ----------------------------- append ----------------------------- #

    def append(self, job_id: str, *records: dict) -> None:
        """Durably append one state change's records for one job.

        The batch is one ``write`` and one ``fsync``, and it only counts
        as written once both complete; a failed append truncates back to
        the previous end of the log so a partial batch can never precede
        a later good one.  Raises ``OSError`` (e.g. ``ENOSPC``) to the
        caller, which owns the degrade decision.
        """
        number = job_number(job_id)
        if number <= 0:
            raise ServiceError(f"unjournalable job id: {job_id!r}")
        lines = [
            (canonical_json({**record, "job_id": job_id}) + "\n").encode(
                "utf-8"
            )
            for record in records
        ]
        data = b"".join(lines)
        with self._lock:
            try:
                fault_point("journal.append", job_id=job_id)
                if self._torn:
                    os.ftruncate(self._fd, self._end)
                    self._torn = False
                _write_all(self._fd, data)
                os.fsync(self._fd)
            except OSError:
                self._torn = True
                try:
                    os.ftruncate(self._fd, self._end)
                    self._torn = False
                except OSError:
                    pass  # retried before the next append's write
                raise
            offset = self._end
            for record, line in zip(records, lines):
                if record.get("record") == "submitted":
                    self._index(number, offset)
                    sha = record.get("depdb_sha256")
                    if sha is not None and "depdb" in record["request"]:
                        self._texts.setdefault(sha, offset)
                offset += len(line)
            self._end = offset
            self.last_number = max(self.last_number, number)

    def has_text(self, sha256: str) -> bool:
        """Whether a ``submitted`` record in the log holds this text."""
        return sha256 in self._texts

    def close(self) -> None:
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1

    # ------------------------- report store --------------------------- #

    def store_report(self, data: bytes) -> str:
        """Store report bytes content-addressed; returns their SHA-256.

        Idempotent: identical bytes share one file.  Atomic: temp file,
        fsync, rename, directory fsync — a crash leaves either the
        complete report or nothing.  Each call writes its own temp file,
        so threads storing the same bytes at once do not collide.
        """
        digest = hashlib.sha256(data).hexdigest()
        final = self.reports_dir / f"{digest}.json"
        if final.exists():
            return digest
        fd, temp = tempfile.mkstemp(
            prefix=f".{digest}.", suffix=".tmp", dir=self.reports_dir
        )
        try:
            os.fchmod(fd, 0o644)
            with open(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, final)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
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

    # ------------------------------ read ------------------------------ #

    def replay(self) -> Iterator[JournaledJob]:
        """Reconstruct every journaled job, by job number, one at a time.

        Each job is read as by :meth:`read`, only when the caller asks
        for it, so a replay holds one job at a time.
        """
        with open(self.path, "rb") as handle:
            for offset in self._offsets:
                if offset < 0:
                    continue
                job = self._job_at(handle, offset)
                if job is not None:
                    yield job

    def read(self, job_id: str) -> Optional[JournaledJob]:
        """Reconstruct one job from the log.

        ``None`` when the log holds no complete ``submitted`` record for
        it — the job was never durably admitted, so the client never got
        an acknowledgement for it — or no text that matches its sha.
        """
        number = job_number(job_id)
        if not 0 < number <= len(self._offsets):
            return None
        offset = self._offsets[number - 1]
        if offset < 0:
            return None
        with open(self.path, "rb") as handle:
            return self._job_at(handle, offset, job_id)

    def _job_at(
        self, handle: IO[bytes], offset: int, job_id: Optional[str] = None
    ) -> Optional[JournaledJob]:
        """The job whose ``submitted`` record starts at ``offset``, with
        its text checked against its sha — read back from the record
        that holds it when its own names it by sha alone."""
        job = _fold(handle, offset, job_id)
        sha = None if job is None else job.depdb_sha256
        if sha is None:
            return job  # an earlier release's record names no sha
        if not isinstance(job.request, dict) or not isinstance(sha, str):
            return None
        if "depdb" in job.request:
            return job if _held_text(job.request, sha) else None
        holder = self._texts.get(sha)
        if holder is None:
            return None
        handle.seek(holder)
        record = _decode(handle.readline()) or {}
        held = _held_text(record.get("request"), sha)
        if held is None:
            return None
        job.request = {**job.request, "depdb": held[1]}
        return job

    def _index(self, number: int, offset: int) -> None:
        missing = number - len(self._offsets)
        if missing > 0:
            self._offsets.extend([-1] * missing)
        self._offsets[number - 1] = offset

    def _scan(self) -> int:
        """Index the log; truncate a torn tail.  Returns the log's end.

        Stops at the first line that is partial or does not decode as a
        JSON object (a zeroed block may not even decode as text):
        everything after a torn write is suspect.
        """
        offset = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                record = _decode(line)
                if record is None:
                    break
                job_id = record.get("job_id")
                number = job_number(job_id) if isinstance(job_id, str) else 0
                if number > 0:
                    if record.get("record") == "submitted":
                        self._index(number, offset)
                        held = _held_text(
                            record.get("request"), record.get("depdb_sha256")
                        )
                        if held is not None:
                            self._texts.setdefault(held[0], offset)
                    self.last_number = max(self.last_number, number)
                offset += len(line)
        if offset < self.path.stat().st_size:
            os.ftruncate(self._fd, offset)
        return offset


def submitted_record(
    job_id: str,
    tenant: str,
    request_document: dict,
    fingerprint: Optional[str],
    depdb_sha256: Optional[str] = None,
) -> dict:
    """The ``submitted`` record: a job's admission, written first.

    ``depdb_sha256`` names the request's DepDB text, so the document may
    leave the text out once an earlier ``submitted`` record holds it.
    """
    return {
        "record": "submitted",
        "job_id": job_id,
        "tenant": tenant,
        "request": request_document,
        "fingerprint": fingerprint,
        "depdb_sha256": depdb_sha256,
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


def text_sha256(text: str) -> str:
    """The SHA-256 that names a DepDB text in the log.

    Any ``str`` hashes, a lone surrogate from a ``\\ud800`` JSON escape
    included (``surrogatepass``), so no text can fail admission here.
    """
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _held_text(request, sha) -> Optional[tuple]:
    """``(sha, text)`` of a request document that holds its DepDB text,
    when the text hashes to ``sha`` (any sha when ``None``), else
    ``None``."""
    text = request.get("depdb") if isinstance(request, dict) else None
    if not isinstance(text, str):
        return None
    actual = text_sha256(text)
    return (actual, text) if sha is None or sha == actual else None


def _decode(line: bytes) -> Optional[dict]:
    """One complete log line as a record; ``None`` for a torn one."""
    if not line.endswith(b"\n"):
        return None  # partial trailing line: crash mid-append
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def _fold(
    handle: IO[bytes], offset: int, job_id: Optional[str] = None
) -> Optional[JournaledJob]:
    """Fold the records of the job whose ``submitted`` record starts at
    ``offset``, up to the event that ended it or the end of the log.

    ``None`` when the record there is not that job's (``job_id`` given)
    or names no request.
    """
    handle.seek(offset)
    first = _decode(handle.readline())
    if first is None or first.get("record") != "submitted":
        return None
    if job_id is not None and first.get("job_id") != job_id:
        return None
    job = JournaledJob(job_id=first["job_id"])
    _apply(job, first)
    # Canonical JSON writes a record's tag as exactly these bytes, so
    # the other jobs' lines are skipped without being decoded.
    tag = canonical_json({"job_id": job.job_id})[1:-1].encode("utf-8")
    for line in handle:
        if tag not in line:
            continue
        record = _decode(line)
        if record is None:
            break  # an append still being written
        if record.get("job_id") == job.job_id and _apply(job, record):
            break
    return job if job.request is not None else None


def _apply(job: JournaledJob, record: dict) -> bool:
    """Fold one record into ``job``; True once the job has ended."""
    kind = record.get("record")
    if kind == "submitted":
        job.events.clear()  # a restatement repeats every event
        job.tenant = record.get("tenant", job.tenant)
        job.request = record.get("request")
        job.depdb_sha256 = record.get("depdb_sha256")
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
                    # Written only by the append that ended the job; a
                    # restatement repeats an outcome without it.
                    job.elapsed = elapsed
                    return True
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
    return False


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover — some filesystems refuse
        pass
    finally:
        os.close(fd)
