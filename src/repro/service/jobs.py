"""Job lifecycle for the audit service.

A :class:`JobManager` owns one shared
:class:`~repro.engine.facade.AuditEngine` (its graph cache and worker
pool) and a pool of worker threads.  Submissions come in
as canonical :class:`~repro.api.AuditRequest` objects and move through the
:data:`~repro.api.JOB_STATES` lifecycle; every transition appends a
canonical :func:`~repro.api.job_event` to the job's event log, which
the server's long-poll endpoint pages through.

Content addressing (two levels, both exact) is the service's one result
cache; the engine's is left unused:

* **Request fingerprint** — hash of every output-shaping request field
  including the DepDB text.  A fingerprint hit is decided at submit
  time: the job is born ``done`` with the cached report bytes and never
  touches the queue.
* **Report key** — structural hash of the built fault graph plus the
  post-graph parameters.  Finished reports are stored under this key and
  served byte-identical from ``GET /v1/reports/<key>``.

Requests without a ``seed`` are not reproducible, so they are never
content-addressed — their reports exist only on the job itself.

The DepDB text is the unit of reuse below the result cache.  The jobs
of one text (submitted or recovered) share one copy of it, hashed once;
the journal writes it once, in the ``submitted`` record of the first job
that needs it, and every later job's record names it by that hash.  The graph index holds the
newest :data:`MAX_BUILT_GRAPHS` built fault graphs, each keyed by
everything the build reads from a request — the text's hash, servers,
deployment, required count and probability — so a cold job whose key is
held skips the parse, the build and the hash; a ``base`` resolves
against the same entries by structural hash.

Retention: the manager holds its live jobs and the newest
:data:`MAX_RETAINED_JOBS` finished ones.  An older finished job is read
back from the journal when it is looked up — its report bytes only when
the lookup serves them; without a journal (or with a degraded one) its
id answers 410 ``expired``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro import api
from repro.engine.cache import LRUCache
from repro.engine.facade import AuditEngine
from repro.engine.parallel import cancel_scope
from repro.errors import (
    AuditCancelled,
    IndaasError,
    ServiceError,
    SpecificationError,
)
from repro.service.admission import AdmissionQueue
from repro.service.journal import (
    JobJournal,
    JournaledJob,
    event_record,
    job_number,
    report_record,
    submitted_record,
    text_sha256,
)
from repro.service.stores import TenantStores

__all__ = ["Job", "JobManager"]

#: Entries in each content-addressed store: reports, request
#: fingerprints and idempotency keys (LRU).
MAX_CACHED_REPORTS = 256

#: Entries in the graph index: built fault graphs by build key, which
#: cold jobs reuse and :attr:`~repro.api.AuditRequest.base` resolves
#: against (LRU).
MAX_BUILT_GRAPHS = 32

#: Finished jobs held in memory, the newest ones; live jobs are always held.
MAX_RETAINED_JOBS = 256


@dataclass
class Job:
    """One audit job: request, lifecycle state, event log, result."""

    id: str
    request: api.AuditRequest
    tenant: str
    created: float
    state: str = "queued"
    events: list = field(default_factory=list)
    cancel: threading.Event = field(default_factory=threading.Event)
    error: Optional[dict] = None
    report_bytes: Optional[bytes] = None
    report_key: Optional[str] = None
    structural_hash: Optional[str] = None
    report_sha: Optional[str] = None  # content address in the journal
    cached: bool = False
    started: Optional[float] = None
    finished: Optional[float] = None
    journaled: bool = False
    recovered: bool = False
    depdb_sha256: Optional[str] = None  # of request.depdb, set on admission

    @property
    def is_terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


class JobManager:
    """Thread-based executor behind the HTTP front-end.

    Args:
        engine: Shared :class:`~repro.engine.facade.AuditEngine` the
            jobs compile and sample on (a private one is created
            otherwise).
        workers: Worker threads, ``>= 0``.  ``0`` runs no threads — tests
            drive execution deterministically with :meth:`run_pending`.
        per_tenant_limit / total_limit: Admission bounds (see
            :class:`~repro.service.admission.AdmissionQueue`).
        state_dir: Directory for the durable job journal
            (:class:`~repro.service.journal.JobJournal`).  ``None`` runs
            fully in memory (the pre-journal behaviour).
        resume: With a ``state_dir``, replay the journal on startup:
            finished jobs come back serving byte-identical reports,
            unfinished ones are re-queued and re-run.  Either way new
            jobs are numbered past every job already in the journal.

    Raises :class:`~repro.errors.ServiceError` when ``state_dir`` holds
    the per-job journal files of an older release.
    """

    def __init__(
        self,
        engine=None,
        *,
        workers: int = 2,
        per_tenant_limit: int = 8,
        total_limit: int = 64,
        state_dir: Optional[Union[str, Path]] = None,
        resume: bool = True,
    ) -> None:
        if workers < 0:
            raise SpecificationError(f"workers must be >= 0, got {workers}")
        # An engine the manager constructs is the manager's to close;
        # an injected one (and its worker pool) stays the caller's.
        self._owns_engine = engine is None
        self.engine = AuditEngine() if engine is None else engine
        self.admission = AdmissionQueue(
            per_tenant_limit=per_tenant_limit, total_limit=total_limit
        )
        self._jobs: dict[str, Job] = {}  # live + the newest finished
        self._retained: deque = deque()  # held finished job ids, oldest first
        self._states: Counter = Counter()  # every job admitted or recovered
        self._event = threading.Condition(threading.RLock())
        # key -> (bytes, structural hash, sha256 in the journal or None)
        self._reports = LRUCache(MAX_CACHED_REPORTS)
        self._fingerprints = LRUCache(MAX_CACHED_REPORTS)  # fingerprint -> key
        # build key -> (graph, structural hash)
        self._graphs = LRUCache(MAX_BUILT_GRAPHS)
        self._idempotency = LRUCache(MAX_CACHED_REPORTS)  # client key -> job id
        # DepDB text -> (its one copy, its sha256)
        self._texts = LRUCache(MAX_RETAINED_JOBS)
        self._counter = 0
        self._running = 0
        self._cache_hits = 0
        self._ewma: Optional[float] = None
        self._closed = False
        self.journal = JobJournal(state_dir) if state_dir is not None else None
        self.stores = TenantStores(state_dir)
        self._journal_errors = 0
        self._journal_degraded = False
        self._recovered_jobs = 0
        resumed = self.journal is not None and resume
        if self.journal is not None:
            # Never reuse a journaled id, replayed or not: a new job
            # appending to an old run's file would merge the two.
            self._counter = self.journal.last_number
        # Ids numbered from here up to the counter were issued (or
        # recovered) by this manager.
        self._first_issued = 1 if resumed else self._counter + 1
        if resumed:
            self._recover()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"indaas-audit-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ----------------------------- submit ----------------------------- #

    def submit(
        self,
        request: api.AuditRequest,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Admit one audit request; returns the (possibly finished) job.

        Raises :class:`~repro.errors.Backpressure` when admission bounds
        are hit and :class:`~repro.errors.ServiceError` once closed.

        ``idempotency_key`` makes retried submissions safe: a repeat
        submit with the same key while the first submit's job is still
        live returns that job instead of enqueuing a duplicate (the
        retrying client sends the request
        :meth:`~repro.api.AuditRequest.fingerprint`, or a one-shot
        token for unseeded requests).  Once the job is done, the
        fingerprint report cache takes over — a repeat submit gets a
        fresh born-done job, exactly as without a key.
        """
        tenant = request.tenant or "public"
        # Resolve "@store" against the tenant's dependency store before
        # taking the manager lock (store I/O must not stall the service).
        request = self._resolve_store_request(request, tenant)
        with self._event:
            if self._closed:
                raise ServiceError(
                    "service is shutting down",
                    status=503,
                    code="shutting-down",
                )
            if idempotency_key is not None:
                existing_id = self._idempotency.get(idempotency_key)
                existing = (
                    self._jobs.get(existing_id)
                    if existing_id is not None
                    else None
                )
                # Terminal jobs fall through (a live job is always
                # held): the report cache answers repeat submits of
                # finished seeded requests (born-done cache-hit job),
                # and failed/cancelled jobs must not pin their outcome
                # onto deliberate resubmissions.
                if existing is not None and not existing.is_terminal:
                    return existing
            request, sha = self._share_text(request)
            self._counter += 1
            job = Job(
                id=_job_id(self._counter),
                request=request,
                tenant=tenant,
                created=time.monotonic(),
                depdb_sha256=sha,
            )
            self._append_event(job, "submitted", tenant=tenant)
            cached = self._cached_report(request)
            if cached is not None:
                data, key, digest, sha = cached
                job.state = "done"
                job.cached = True
                job.report_bytes = data
                job.report_key = key
                job.structural_hash = digest
                job.report_sha = sha
                job.finished = job.created
                self._cache_hits += 1
                self._append_event(job, "cache_hit", report_key=key)
                self._append_event(job, "done", state="done", cached=True)
                self._register(job, idempotency_key)
                self._journal_admitted(job)
                self._snapshot_store(job)
                self._event.notify_all()
                return job
            try:
                position = self.admission.push(
                    tenant, job, retry_after=self.retry_after()
                )
            except ServiceError:
                self._counter -= 1  # refused: the id was never issued
                raise
            self._append_event(job, "queued", queue_position=position)
            self._register(job, idempotency_key)
            self._journal_admitted(job)
            self._event.notify_all()
            return job

    def _share_text(self, request: api.AuditRequest) -> tuple:
        """The request on the held copy of its DepDB text, and the
        text's sha.  Caller holds the lock."""
        held = self._texts.get(request.depdb)
        if held is None:
            held = (request.depdb, text_sha256(request.depdb))
            self._texts.put(request.depdb, held)
        elif held[0] is not request.depdb:
            request = dataclasses.replace(request, depdb=held[0])
        return request, held[1]

    def _register(self, job: Job, idempotency_key: Optional[str] = None) -> None:
        # Caller holds the lock.
        self._jobs[job.id] = job
        self._states[job.state] += 1
        if job.is_terminal:
            self._retain(job)
        if idempotency_key is not None:
            self._idempotency.put(idempotency_key, job.id)

    def _set_state(self, job: Job, state: str) -> None:
        # Caller holds the lock; ``job`` is registered.
        self._states[job.state] -= 1
        self._states[state] += 1
        job.state = state

    def _retain(self, job: Job) -> None:
        """Hold a finished job; drop the oldest past the bound.

        A dropped job stays on disk (journal and report store) and
        :meth:`get` reads it back from there.  Caller holds the lock.
        """
        self._retained.append(job.id)
        while len(self._retained) > MAX_RETAINED_JOBS:
            del self._jobs[self._retained.popleft()]

    # ------------------------- tenant stores -------------------------- #

    def _resolve_store_request(
        self, request: api.AuditRequest, tenant: str
    ) -> api.AuditRequest:
        """Materialise a ``depdb="@store"`` request from the tenant store.

        The store's records are dumped into the request as canonical
        Table-1 text, so everything downstream — fingerprinting, the
        journal, execution, recovery replay — sees an ordinary
        self-contained request.  An unchanged store therefore dumps to
        identical text, and a repeat ``@store`` submit is a fingerprint
        cache hit serving byte-identical report bytes.  The previous
        audit's snapshot label (the structural hash it was recorded
        under) becomes the request's ``base`` so the job's event log
        carries the graph delta against the last-audited state.
        """
        if request.depdb != api.STORE_DEPDB:
            return request
        store = self.stores.get(tenant)
        if len(store) == 0:
            raise ServiceError(
                f"tenant {tenant!r} has no ingested dependency data; "
                f"POST a DepDB dump to /v1/tenants/{tenant}/depdb first",
                status=400,
                code="empty-store",
            )
        last = store.last_snapshot()
        metadata = dict(request.metadata)
        metadata["depdb_source"] = "store"
        metadata["depdb_content_hash"] = store.content_hash()
        return dataclasses.replace(
            request,
            depdb=store.dumps(),
            base=request.base or (last.label if last is not None else None),
            metadata=metadata,
        )

    def _snapshot_store(self, job: Job) -> None:
        """After a store-backed job finishes, snapshot the audited state.

        The snapshot is keyed by the record-set content hash and
        labelled with the audited graph's structural hash, so the next
        ``@store`` request diffs against (and can ``base`` itself on)
        exactly this audit.  Skipped when the store drifted since the
        job was admitted (:meth:`~repro.depdb.DepDB.snapshot_audited`) —
        the audited state no longer exists, and snapshotting the *new*
        state would falsely mark it audited.
        """
        if job.state != "done" or job.structural_hash is None:
            return
        metadata = job.request.metadata
        if metadata.get("depdb_source") != "store":
            return
        try:
            self.stores.get(job.tenant).snapshot_audited(
                metadata.get("depdb_content_hash"), job.structural_hash
            )
        except IndaasError:
            pass  # a broken store must not fail a finished audit

    def ingest_depdb(self, tenant: str, text: str) -> dict:
        """Ingest a dependency payload into a tenant's store."""
        return self.stores.ingest(tenant, text)

    def depdb_stats(self, tenant: str) -> dict:
        """Current shape of a tenant's store."""
        return self.stores.stats(tenant)

    # ---------------------------- journal ----------------------------- #

    def _journal_safe(self, operation) -> bool:
        """Run one journal operation; degrade instead of failing the job.

        Durability is best-effort once the disk misbehaves (``ENOSPC``
        and friends): the service keeps running in memory, counts the
        error, and flags itself degraded in :meth:`stats` — losing
        crash-safety is strictly better than losing availability.
        """
        if self.journal is None or self._journal_degraded:
            return False
        try:
            operation()
            return True
        except OSError:
            self._journal_errors += 1
            self._journal_degraded = True
            return False

    def _journal_admitted(self, job: Job) -> None:
        # Caller holds the lock.  Written only after the job is
        # registered: a submission rejected by admission control must
        # not resurrect on replay.
        job.journaled = self._journal(job, job.events, admit=True)

    def _journal(self, job: Job, events: list, admit: bool = False) -> bool:
        """Append one state change to the job's journal in one fsync.

        The batch is, in order: the ``submitted`` record when ``admit``,
        holding the job's text unless the log already does; the
        ``report`` record when ``events`` end with ``done`` — its bytes stored content-addressed first (unless
        a cache hit's already are), so replay that sees ``done`` finds
        them — and the events.  Caller holds the lock, so an event is
        durable before any client can see it.
        """

        def append() -> None:
            records = []
            if admit:
                request = job.request
                fingerprint = (
                    request.fingerprint() if request.seed is not None else None
                )
                document = request.to_dict()
                if self.journal.has_text(job.depdb_sha256):
                    del document["depdb"]  # an earlier record holds it
                records.append(
                    submitted_record(
                        job.id,
                        job.tenant,
                        document,
                        fingerprint,
                        job.depdb_sha256,
                    )
                )
            if events[-1]["event"] == "done":
                if job.report_sha is None:
                    job.report_sha = self.journal.store_report(
                        job.report_bytes
                    )
                records.append(
                    report_record(
                        job.report_sha, job.report_key, job.structural_hash
                    )
                )
            records.extend(map(event_record, events))
            if job.is_terminal:
                # The batch ends with the terminal event: keep the
                # elapsed time the job's status reports beside it.
                records[-1]["elapsed"] = max(0.0, job.finished - job.created)
            self.journal.append(job.id, *records)

        return self._journal_safe(append)

    def _recover(self) -> None:
        """Replay the journal: restore finished jobs, re-queue the rest.

        Jobs are replayed one at a time, oldest first, and only the
        newest :data:`MAX_RETAINED_JOBS` finished jobs stay held.
        """
        for journaled in self.journal.replay():
            job = self._restore(journaled)
            if job is None:
                continue  # unreadable request: nothing we can re-run
            job.recovered = True
            job.request, job.depdb_sha256 = self._share_text(job.request)
            self._register(job)
            if job.report_key is not None and job.request.seed is not None:
                self._reports.put(
                    job.report_key,
                    (job.report_bytes, job.structural_hash, job.report_sha),
                )
                self._fingerprints.put(
                    journaled.fingerprint or job.request.fingerprint(),
                    job.report_key,
                )
            if not job.is_terminal:
                # Queued or in-flight at crash time (or a done job whose
                # report bytes were lost): run it again — seeded
                # requests reproduce the exact bytes by the determinism
                # contract.  The journal restates it whole (submitted
                # and every event) in one append, so a read-back starts
                # there and never folds an outcome it no longer has.
                job.journaled = False
                self._append_event(job, "recovered", state="queued")
                self._journal_admitted(job)
                self.admission.push(job.tenant, job, force=True)
            self._recovered_jobs += 1

    def _restore(
        self, journaled: JournaledJob, report: bool = True
    ) -> Optional[Job]:
        """The job the journal describes: finished, with its outcome
        and report bytes, or ``queued`` when it did not finish or its
        bytes are gone.  ``None`` when its request no longer parses.

        ``report=False`` leaves a done job's bytes unread and unverified
        (for a lookup that does not serve them).
        """
        try:
            request = api.AuditRequest.from_dict(journaled.request)
        except IndaasError:
            return None
        job = Job(
            id=journaled.job_id,
            request=request,
            tenant=journaled.tenant,
            created=time.monotonic(),
            journaled=True,
        )
        job.events = list(journaled.events)
        data = None
        if journaled.state == "done" and journaled.report_sha is not None:
            if report:
                data = self.journal.load_report(journaled.report_sha)
            finished = data is not None or not report
        else:
            finished = journaled.state in ("failed", "cancelled")
        if finished:
            job.state = journaled.state
            job.error = journaled.error
            job.cached = journaled.cached
            # Only the difference of the two is ever read.
            job.created, job.finished = 0.0, journaled.elapsed
            if journaled.state == "done":
                job.report_bytes = data
                job.report_key = journaled.report_key
                job.structural_hash = journaled.structural_hash
                job.report_sha = journaled.report_sha
        return job

    def _cached_report(self, request: api.AuditRequest):
        if request.seed is None:
            return None  # unseeded audits are not reproducible
        key = self._fingerprints.get(request.fingerprint())
        if key is None:
            return None
        stored = self._reports.get(key)
        if stored is None:
            return None
        data, digest, sha = stored
        return data, key, digest, sha

    def retry_after(self) -> float:
        """Backpressure hint: expected queue drain time, clamped."""
        with self._event:
            per_job = self._ewma if self._ewma is not None else 1.0
            waiting = len(self.admission) + self._running
            lanes = max(1, len(self._workers))
            return max(0.1, min(60.0, per_job * (waiting + 1) / lanes))

    # ---------------------------- execution --------------------------- #

    def _worker_loop(self) -> None:
        while True:
            job = self.admission.pop()
            if job is None:
                return
            self._run_job(job)

    def run_pending(self, max_jobs: Optional[int] = None) -> int:
        """Execute queued jobs inline (deterministic tests, workers=0)."""
        done = 0
        while max_jobs is None or done < max_jobs:
            job = self.admission.pop(timeout=0)
            if job is None:
                break
            self._run_job(job)
            done += 1
        return done

    def _run_job(self, job: Job) -> None:
        with self._event:
            if job.cancel.is_set():
                self._finish(job, "cancelled")
                return
            self._set_state(job, "running")
            job.started = time.monotonic()
            self._running += 1
            self._append_event(job, "started", state="running")
            self._event.notify_all()
            build = _build_key(job)
            built = self._graphs.get(build)
            base = job.request.base
            held = (
                self._graphs.find(lambda entry: entry[1] == base)
                if base
                else None
            )
            base_graph = None if held is None else held[0]

        def progress(stage: str, **fields) -> None:
            with self._event:
                self._append_event(job, stage, **fields)
                self._event.notify_all()

        try:
            with cancel_scope(job.cancel):
                result = api.execute_request(
                    job.request,
                    engine=self.engine,
                    progress=progress,
                    base_graph=base_graph,
                    built=built,
                )
            report = api.report_for_request(
                job.request, result.audit, result.structural_hash
            )
            data = report.to_json().encode("utf-8")
        except AuditCancelled:
            with self._event:
                self._running -= 1
                self._finish(job, "cancelled")
            return
        except IndaasError as exc:
            with self._event:
                self._running -= 1
                self._finish(
                    job,
                    "failed",
                    error={"code": "audit-failed", "message": str(exc)},
                )
            return
        except Exception as exc:  # noqa: BLE001 — workers must survive
            with self._event:
                self._running -= 1
                self._finish(
                    job,
                    "failed",
                    error={
                        "code": "internal",
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                )
            return
        if built is None:
            self._graphs.put(build, (result.graph, result.structural_hash))
        key = api.report_key(result.structural_hash, job.request)
        with self._event:
            self._running -= 1
            job.report_bytes = data
            job.report_key = key
            job.structural_hash = result.structural_hash
            elapsed = time.monotonic() - job.started
            self._ewma = (
                elapsed
                if self._ewma is None
                else 0.8 * self._ewma + 0.2 * elapsed
            )
            self._finish(
                job,
                "done",
                report_key=key,
                structural_hash=result.structural_hash,
            )
            if job.request.seed is not None:
                # After _finish: a journalled job's bytes are stored by
                # now, and the cache keeps their address for its hits.
                self._reports.put(
                    key, (data, result.structural_hash, job.report_sha)
                )
                self._fingerprints.put(job.request.fingerprint(), key)
            self._snapshot_store(job)

    def _finish(self, job: Job, state: str, error=None, **fields) -> None:
        # Caller holds the lock.
        self._set_state(job, state)
        job.error = error
        job.finished = time.monotonic()
        if error is not None:
            fields["error"] = error
        self._append_event(job, state, state=state, **fields)
        self._retain(job)
        self._event.notify_all()

    def _append_event(self, job: Job, event: str, **fields) -> None:
        record = api.job_event(
            event, seq=len(job.events) + 1, job_id=job.id, **fields
        )
        job.events.append(record)
        if job.journaled:
            self._journal(job, [record])

    # ----------------------------- queries ---------------------------- #

    def get(self, job_id: str, report: bool = True) -> Job:
        """The job ``job_id``.

        A finished job the manager no longer holds is read back from
        the journal and, unless ``report=False``, its report bytes from
        the report store, outside the lock.  An id this manager never
        issued is 404 ``not-found``; one it issued but can no longer
        read back (no journal, a degraded one, or lost report bytes) is
        410 ``expired``.
        """
        with self._event:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            number = job_number(job_id)
            issued = (
                self._first_issued <= number <= self._counter
                and job_id == _job_id(number)
            )
            readable = self.journal is not None and not self._journal_degraded
        if not issued:
            raise ServiceError(
                f"unknown job: {job_id}", status=404, code="not-found"
            )
        journaled = self.journal.read(job_id) if readable else None
        job = None if journaled is None else self._restore(journaled, report)
        if job is None or not job.is_terminal:
            raise ServiceError(
                f"job {job_id} has expired", status=410, code="expired"
            )
        return job

    def status(self, job_id: str) -> api.JobStatus:
        """Canonical :class:`~repro.api.JobStatus` snapshot of a job."""
        return self._status(self.get(job_id, report=False))

    def _status(self, job: Job) -> api.JobStatus:
        with self._event:
            reference = (
                job.finished if job.finished is not None else time.monotonic()
            )
            return api.JobStatus(
                job_id=job.id,
                state=job.state,
                tenant=job.tenant,
                deployment=job.request.deployment,
                queue_position=(
                    self.admission.position(job)
                    if job.state == "queued"
                    else None
                ),
                cached=job.cached,
                report_key=job.report_key,
                structural_hash=job.structural_hash,
                error=job.error,
                elapsed_seconds=max(0.0, reference - job.created),
                events=len(job.events),
            )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> api.JobStatus:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        job = self.get(job_id, report=False)
        with self._event:
            while not job.is_terminal:
                if deadline is None:
                    self._event.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._event.wait(remaining):
                        break
        return self._status(job)

    def events_after(
        self, job_id: str, after: int, timeout: Optional[float] = None
    ) -> tuple[list, bool]:
        """Events past sequence number ``after`` plus a terminal flag.

        Blocks up to ``timeout`` for news; the server's
        ``events/poll`` endpoint calls this on the connection's thread.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        job = self.get(job_id, report=False)
        with self._event:
            while len(job.events) <= after and not job.is_terminal:
                if deadline is None:
                    self._event.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._event.wait(remaining):
                        break
            return list(job.events[after:]), job.is_terminal

    def report_bytes(self, key: str) -> bytes:
        """Content-addressed report lookup (serves ``/v1/reports/<key>``)."""
        with self._event:
            stored = self._reports.get(key)
            if stored is None:
                raise ServiceError(
                    f"unknown report: {key}", status=404, code="not-found"
                )
            return stored[0]

    def cancel(self, job_id: str) -> api.JobStatus:
        """Cancel a job: dequeue it if queued, interrupt it if running."""
        job = self.get(job_id, report=False)
        with self._event:
            if not job.is_terminal:
                job.cancel.set()
                if self.admission.remove(job):
                    self._finish(job, "cancelled")
                # else: a worker owns it; cancel_scope stops it at the
                # next block boundary and the worker marks it.
        return self._status(job)

    def stats(self) -> dict:
        """Service health counters (the ``/v1/healthz`` body); ``caches``
        is the census of its five LRUs and the engine's three.  The
        graph index's (``graphs``) hits over hits plus misses are the
        share of cold jobs that reused a built graph."""
        with self._event:
            engine = self.engine.info()
            return {
                "queued": len(self.admission),
                "running": self._running,
                "workers": len(self._workers),
                "jobs": {
                    state: count
                    for state, count in self._states.items()
                    if count
                },
                "cache_hits": self._cache_hits,
                "closed": self._closed,
                "journal": {
                    "enabled": self.journal is not None,
                    "degraded": self._journal_degraded,
                    "errors": self._journal_errors,
                    "recovered_jobs": self._recovered_jobs,
                },
                "stores": {
                    "durable": self.stores.durable,
                    "tenants": self.stores.tenants(),
                },
                "pool": engine["pool"],
                "caches": {
                    "reports": self._reports.info(),
                    "fingerprints": self._fingerprints.info(),
                    "graphs": self._graphs.info(),
                    "idempotency": self._idempotency.info(),
                    "depdb_texts": self._texts.info(),
                    "engine_graphs": engine["cache"],
                    "engine_audits": engine["audits"],
                    "engine_stores": engine["stores"],
                },
            }

    # ---------------------------- shutdown ---------------------------- #

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop admitting work and bring the workers home.

        ``drain=True`` finishes every queued and in-flight job first;
        ``drain=False`` cancels queued jobs and interrupts running ones
        at their next block boundary.  Idempotent.
        """
        with self._event:
            if self._closed:
                return
            self._closed = True
            if not drain:
                for job in self._jobs.values():
                    if not job.is_terminal:
                        job.cancel.set()
        evicted = self.admission.close(drain=drain)
        with self._event:
            for job in evicted:
                if not job.is_terminal:
                    self._finish(job, "cancelled")
        for thread in self._workers:
            thread.join(timeout=timeout)
        if self.journal is not None:
            self.journal.close()
        self.stores.close()
        if self._owns_engine:
            self.engine.close()


def _job_id(number: int) -> str:
    return f"job-{number:06d}"


def _build_key(job: Job) -> tuple:
    """Everything the graph build reads from a registered job's request.

    The two numbers go in by ``repr``, which keeps apart values that
    compare equal but build graphs of other hashes (``True`` and ``1``,
    ``0.0`` and ``-0.0``).
    """
    request = job.request
    return (
        job.depdb_sha256,
        request.servers,
        request.deployment,
        repr(request.required),
        repr(request.probability),
    )
