"""Job lifecycle for the audit service.

A :class:`JobManager` owns one shared
:class:`~repro.engine.facade.AuditEngine` (and with it the engine's
audit result cache) and a pool of worker threads.  Submissions come in
as canonical :class:`~repro.api.AuditRequest` objects and move through the
:data:`~repro.api.JOB_STATES` lifecycle; every transition appends a
canonical :func:`~repro.api.job_event` to the job's event log, which is
what the server's streaming endpoint replays.

Content addressing (two levels, both exact):

* **Request fingerprint** — hash of every output-shaping request field
  including the DepDB text.  A fingerprint hit is decided at submit
  time: the job is born ``done`` with the cached report bytes and never
  touches the queue.
* **Report key** — structural hash of the built fault graph plus the
  post-graph parameters.  Finished reports are stored under this key and
  served byte-identical from ``GET /v1/reports/<key>``.

Requests without a ``seed`` are not reproducible, so they are never
content-addressed — their reports exist only on the job itself.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro import api
from repro.engine.cache import LRUCache
from repro.engine.facade import AuditEngine
from repro.engine.parallel import cancel_scope
from repro.errors import AuditCancelled, IndaasError, ServiceError
from repro.service.admission import AdmissionQueue
from repro.service.journal import JobJournal
from repro.service.stores import TenantStores

__all__ = ["Job", "JobManager"]


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
    cached: bool = False
    started: Optional[float] = None
    finished: Optional[float] = None
    journaled: bool = False
    recovered: bool = False

    @property
    def is_terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


class JobManager:
    """Thread-based executor behind the HTTP front-end.

    Args:
        engine: Shared :class:`~repro.engine.facade.AuditEngine`, whose
            result cache serves repeat audits (a private one is created
            otherwise).
        workers: Worker threads.  ``0`` runs no threads — tests drive
            execution deterministically with :meth:`run_pending`.
        per_tenant_limit / total_limit: Admission bounds (see
            :class:`~repro.service.admission.AdmissionQueue`).
        report_cache: Entries in the content-addressed report store.
        graph_cache: Entries in the structural-hash → fault-graph store
            used to resolve :attr:`~repro.api.AuditRequest.base`.
        state_dir: Directory for the durable job journal
            (:class:`~repro.service.journal.JobJournal`).  ``None`` runs
            fully in memory (the pre-journal behaviour).
        resume: With a ``state_dir``, replay the journal on startup:
            finished jobs come back serving byte-identical reports,
            unfinished ones are re-queued and re-run.
    """

    def __init__(
        self,
        engine=None,
        *,
        workers: int = 2,
        per_tenant_limit: int = 8,
        total_limit: int = 64,
        report_cache: int = 256,
        graph_cache: int = 32,
        state_dir: Optional[Union[str, Path]] = None,
        resume: bool = True,
    ) -> None:
        # An engine the manager constructs is the manager's to close;
        # an injected one (and its worker pool) stays the caller's.
        self._owns_engine = engine is None
        self.engine = AuditEngine() if engine is None else engine
        self.admission = AdmissionQueue(
            per_tenant_limit=per_tenant_limit, total_limit=total_limit
        )
        self._jobs: dict[str, Job] = {}
        self._event = threading.Condition(threading.RLock())
        self._reports = LRUCache(report_cache)  # key -> (bytes, hash)
        self._fingerprints = LRUCache(report_cache)  # fingerprint -> key
        self._graphs = LRUCache(graph_cache)  # structural hash -> graph
        self._idempotency = LRUCache(report_cache)  # client key -> job id
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
        if self.journal is not None and resume:
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
                # Terminal jobs fall through: the report cache answers
                # repeat submits of finished seeded requests (born-done
                # cache-hit job), and failed/cancelled jobs must not
                # pin their outcome onto deliberate resubmissions.
                if existing is not None and not existing.is_terminal:
                    return existing
            self._counter += 1
            job = Job(
                id=f"job-{self._counter:06d}",
                request=request,
                tenant=tenant,
                created=time.monotonic(),
            )
            self._append_event(job, "submitted", tenant=tenant)
            cached = self._cached_report(request)
            if cached is not None:
                data, key, digest = cached
                job.state = "done"
                job.cached = True
                job.report_bytes = data
                job.report_key = key
                job.structural_hash = digest
                job.finished = job.created
                self._cache_hits += 1
                self._append_event(job, "cache_hit", report_key=key)
                self._append_event(job, "done", state="done", cached=True)
                self._jobs[job.id] = job
                self._register(job, idempotency_key)
                self._journal_admitted(job)
                self._snapshot_store(job)
                self._event.notify_all()
                return job
            position = self.admission.push(
                tenant, job, retry_after=self.retry_after()
            )
            self._append_event(job, "queued", queue_position=position)
            self._jobs[job.id] = job
            self._register(job, idempotency_key)
            self._journal_admitted(job)
            self._event.notify_all()
            return job

    def _register(self, job: Job, idempotency_key: Optional[str]) -> None:
        # Caller holds the lock.
        if idempotency_key is not None:
            self._idempotency.put(idempotency_key, job.id)

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
        under) becomes the request's ``base`` so the job's event stream
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
        exactly this audit.  Skipped when the store drifted while the
        job was in flight — the audited state no longer exists, and
        snapshotting the *new* state would falsely mark it audited.
        """
        if job.state != "done" or job.structural_hash is None:
            return
        metadata = job.request.metadata
        if metadata.get("depdb_source") != "store":
            return
        try:
            store = self.stores.get(job.tenant)
            if store.content_hash() == metadata.get("depdb_content_hash"):
                store.snapshot(job.structural_hash)
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
        if self.journal is None or self._journal_degraded:
            return
        fingerprint = (
            job.request.fingerprint() if job.request.seed is not None else None
        )
        ok = self._journal_safe(
            lambda: self.journal.record_submitted(
                job.id, job.tenant, job.request.to_dict(), fingerprint
            )
        )
        if not ok:
            return
        job.journaled = True
        if job.report_bytes is not None:  # born done from the cache
            self._journal_report(job)
        for event in job.events:
            if not self._journal_safe(
                lambda event=event: self.journal.record_event(job.id, event)
            ):
                return
        if job.is_terminal:
            self.journal.close_job(job.id)

    def _journal_report(self, job: Job) -> None:
        def store() -> None:
            sha = self.journal.store_report(job.report_bytes)
            self.journal.record_report(
                job.id, sha, job.report_key, job.structural_hash
            )

        self._journal_safe(store)

    def _recover(self) -> None:
        """Replay the journal: restore finished jobs, re-queue the rest."""
        for journaled in self.journal.replay():
            try:
                request = api.AuditRequest.from_dict(journaled.request)
            except IndaasError:
                continue  # unreadable request: nothing we can re-run
            self._counter = max(self._counter, journaled.number)
            job = Job(
                id=journaled.job_id,
                request=request,
                tenant=journaled.tenant,
                created=time.monotonic(),
                journaled=True,
                recovered=True,
            )
            job.events = list(journaled.events)
            restored = False
            if journaled.is_terminal:
                data = (
                    self.journal.load_report(journaled.report_sha)
                    if journaled.report_sha is not None
                    else None
                )
                if journaled.state in ("failed", "cancelled") or data is not None:
                    job.state = journaled.state
                    job.error = journaled.error
                    job.cached = journaled.cached
                    job.finished = job.created
                    if data is not None:
                        job.report_bytes = data
                        job.report_key = journaled.report_key
                        job.structural_hash = journaled.structural_hash
                        if (
                            request.seed is not None
                            and journaled.report_key is not None
                        ):
                            self._reports.put(
                                journaled.report_key,
                                (data, journaled.structural_hash),
                            )
                            self._fingerprints.put(
                                journaled.fingerprint or request.fingerprint(),
                                journaled.report_key,
                            )
                    self.journal.close_job(job.id)
                    restored = True
            if not restored:
                # Queued or in-flight at crash time (or a done job whose
                # report bytes were lost): run it again — seeded
                # requests reproduce the exact bytes by the determinism
                # contract.
                job.state = "queued"
                self._append_event(job, "recovered", state="queued")
                self.admission.push(job.tenant, job, force=True)
            self._jobs[job.id] = job
            self._recovered_jobs += 1

    def _cached_report(self, request: api.AuditRequest):
        if request.seed is None:
            return None  # unseeded audits are not reproducible
        key = self._fingerprints.get(request.fingerprint())
        if key is None:
            return None
        stored = self._reports.get(key)
        if stored is None:
            return None
        data, digest = stored
        return data, key, digest

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
            job.state = "running"
            job.started = time.monotonic()
            self._running += 1
            self._append_event(job, "started", state="running")
            self._event.notify_all()
            base_graph = (
                self._graphs.get(job.request.base)
                if job.request.base
                else None
            )

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
        key = api.report_key(result.structural_hash, job.request)
        with self._event:
            self._running -= 1
            job.report_bytes = data
            job.report_key = key
            job.structural_hash = result.structural_hash
            if job.journaled:
                # WAL ordering: the report bytes land (content-addressed,
                # fsync'd) before the terminal event that promises them.
                self._journal_report(job)
            self._graphs.put(result.structural_hash, result.graph)
            if job.request.seed is not None:
                self._reports.put(key, (data, result.structural_hash))
                self._fingerprints.put(job.request.fingerprint(), key)
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
                engine_cache_hit=result.engine_cache_hit,
            )
            self._snapshot_store(job)

    def _finish(self, job: Job, state: str, error=None, **fields) -> None:
        # Caller holds the lock.
        job.state = state
        job.error = error
        job.finished = time.monotonic()
        if error is not None:
            fields["error"] = error
        self._append_event(job, state, state=state, **fields)
        if self.journal is not None and job.journaled:
            self.journal.close_job(job.id)
        self._event.notify_all()

    def _append_event(self, job: Job, event: str, **fields) -> None:
        record = api.job_event(
            event, seq=len(job.events) + 1, job_id=job.id, **fields
        )
        job.events.append(record)
        if job.journaled:
            self._journal_safe(
                lambda: self.journal.record_event(job.id, record)
            )

    # ----------------------------- queries ---------------------------- #

    def get(self, job_id: str) -> Job:
        with self._event:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(
                    f"unknown job: {job_id}", status=404, code="not-found"
                )
            return job

    def status(self, job_id: str) -> api.JobStatus:
        """Canonical :class:`~repro.api.JobStatus` snapshot of a job."""
        with self._event:
            job = self.get(job_id)
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
        with self._event:
            job = self.get(job_id)
            while not job.is_terminal:
                if deadline is None:
                    self._event.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._event.wait(remaining):
                        break
        return self.status(job_id)

    def events_after(
        self, job_id: str, after: int, timeout: Optional[float] = None
    ) -> tuple[list, bool]:
        """Events past sequence number ``after`` plus a terminal flag.

        Blocks up to ``timeout`` for news; the server's streaming
        endpoint long-polls this in a worker thread.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._event:
            job = self.get(job_id)
            while len(job.events) <= after and not job.is_terminal:
                if deadline is None:
                    self._event.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._event.wait(remaining):
                        break
            return list(job.events[after:]), job.is_terminal

    def stream_events(self, job_id: str) -> Iterator[dict]:
        """Yield a job's events as they happen, ending at terminal state."""
        seen = 0
        while True:
            events, terminal = self.events_after(job_id, seen, timeout=0.5)
            for event in events:
                yield event
            seen += len(events)
            if terminal and not events:
                return

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
        with self._event:
            job = self.get(job_id)
            if not job.is_terminal:
                job.cancel.set()
                if self.admission.remove(job):
                    self._finish(job, "cancelled")
                # else: a worker owns it; cancel_scope stops it at the
                # next block boundary and the worker marks it.
        return self.status(job_id)

    def stats(self) -> dict:
        """Service health counters (the ``/v1/healthz`` body)."""
        with self._event:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queued": len(self.admission),
                "running": self._running,
                "workers": len(self._workers),
                "jobs": states,
                "cache_hits": self._cache_hits,
                "reports_cached": len(self._reports),
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
                "pool": self.engine.info()["pool"],
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
