"""HTTP transport: talk to a remote ``indaas serve`` audit service.

:class:`ServiceClient` is the canonical-schema client of the audit
service — stdlib :mod:`http.client` only, speaking exactly the
documents :mod:`repro.api` defines.  It is built to survive the
failures the service itself is audited against:

* **Retries with capped exponential backoff** and deterministic
  (seeded) jitter for connection errors and 503s — the same
  :class:`RetryPolicy` seed always produces the same delay sequence,
  so a failing run reproduces exactly.
* **429 handling** honours the server's ``Retry-After`` hint;
  an unparseable header is annotated on the error and falls back to
  the default backoff instead of being silently dropped.
* **Idempotent resubmission**: every ``POST /v1/audits`` carries an
  ``Idempotency-Key`` (the request :meth:`~repro.api.AuditRequest.
  fingerprint` when seeded, a one-shot token otherwise), so a retry
  whose original response was lost re-attaches to the job the first
  attempt created instead of enqueuing a duplicate.  The same makes it
  safe to send a request once more, outside the retry policy, when the
  server closed the kept-alive connection while it sat idle.
* **Long-poll waiting**: :meth:`ServiceClient.wait` is one
  ``GET /v1/jobs/<id>?wait=S`` per ~20 s of waiting, answered with the
  terminal status as soon as the job has one — a job that finishes
  inside one poll costs one request, and submit, wait and fetch make a
  cold remote audit three.  ``events/poll`` (:meth:`ServiceClient.
  events_after`) stays the way to read a job's events.

:meth:`ServiceClient.audit` has the signature of
:func:`repro.api.run_request` — one request in, its canonical report
out, the same bytes by the determinism contract — so it is what the
Figure-1 :class:`~repro.agents.agent.AuditingAgent` takes as its
executor to audit remotely.  This module knows nothing of the roles.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro import api
from repro.errors import ServiceError, SpecificationError
from repro.testing.faults import fault_point

__all__ = ["RetryPolicy", "ServiceClient"]

#: Backoff used when a 429 carries no (or an unparseable) Retry-After.
_DEFAULT_RETRY_AFTER = 1.0

#: Upper bound on one long-poll request's server-side wait.
_LONG_POLL_SECONDS = 20.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes:
        retries: Retry attempts after the first try (0 disables).
        backoff: Base delay in seconds; attempt ``k`` waits
            ``min(cap, backoff * 2**k)`` scaled by jitter.
        cap: Ceiling on any single delay (also caps ``Retry-After``).
        jitter: Fractional spread: each delay is multiplied by a value
            drawn uniformly from ``[1 - jitter, 1 + jitter]``.
        seed: Seed of the jitter stream.  Two clients with the same
            policy see the same delays — chaos runs reproduce.
    """

    retries: int = 4
    backoff: float = 0.1
    cap: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise SpecificationError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.backoff <= 0 or self.cap < self.backoff:
            raise SpecificationError(
                "need 0 < backoff <= cap, got "
                f"backoff={self.backoff}, cap={self.cap}"
            )
        if not 0 <= self.jitter < 1:
            raise SpecificationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def delays(self) -> Iterator[float]:
        """The policy's deterministic delay sequence, one per retry."""
        rng = random.Random(self.seed)
        for attempt in range(self.retries):
            base = min(self.cap, self.backoff * (2.0 ** attempt))
            yield base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class ServiceClient:
    """Blocking, retrying client of one audit service endpoint.

    Args:
        base_url: Service root, e.g. ``http://127.0.0.1:8130``.
        timeout: Per-connection socket timeout in seconds.
        retry: Retry policy for transient failures; ``None`` disables
            retries entirely (single attempt, original behaviour).

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = RetryPolicy(),
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise SpecificationError(
                f"service URL must be http://host[:port], got {base_url!r}"
            )
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.retry = retry
        self.request_count = 0  # HTTP requests actually sent
        self.retry_count = 0  # of which were retries
        self._conn: Optional[http.client.HTTPConnection] = None
        self._delays = list(retry.delays()) if retry is not None else []

    # --------------------------- plumbing ----------------------------- #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call_once(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Mapping[str, str]],
    ) -> tuple[int, Mapping, bytes]:
        request_headers = dict(headers or {})
        if body is not None:
            request_headers.setdefault("Content-Type", "application/json")
        try:
            fault_point("transport.request", method=method, path=path)
            while True:
                conn = self._connection()
                reused = conn.sock is not None  # open since an earlier call
                try:
                    self.request_count += 1
                    conn.request(
                        method, path, body=body, headers=request_headers
                    )
                    response = conn.getresponse()
                    return response.status, response.headers, response.read()
                except ConnectionError:
                    if not reused:
                        raise
                    # The server closed the kept-alive connection while
                    # it sat idle: send once more on a fresh one.  Safe
                    # for every route: a submit carries its
                    # Idempotency-Key.
                    self.close()
        except (ConnectionError, http.client.HTTPException, OSError) as exc:
            self.close()
            raise ServiceError(
                f"audit service at {self.host}:{self.port} unreachable: "
                f"{exc}",
                status=503,
                code="unreachable",
                retryable=True,
            ) from exc

    def _call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        retry_429: bool = True,
    ) -> tuple[int, Mapping, bytes]:
        """One logical request, with the policy's retry loop around it.

        Retries connection-level failures and 503s on the backoff
        schedule; retries 429s after honouring ``Retry-After`` (capped).
        ``POST`` bodies must be made idempotent by the caller (the
        submit path attaches an ``Idempotency-Key``) — the loop itself
        never changes the request.
        """
        attempts = len(self._delays) + 1
        last_error: Optional[ServiceError] = None
        for attempt in range(attempts):
            try:
                status, headers_out, payload = self._call_once(
                    method, path, body, headers
                )
            except ServiceError as exc:
                last_error = exc
                if attempt == attempts - 1:
                    raise
                self._sleep(self._delays[attempt])
                self.retry_count += 1
                continue
            if status == 503 and attempt < attempts - 1:
                last_error = self._error_for(status, headers_out, payload)
                self._sleep(self._delays[attempt])
                self.retry_count += 1
                continue
            if status == 429 and retry_429 and attempt < attempts - 1:
                error = self._error_for(status, headers_out, payload)
                last_error = error
                pause = error.retry_after
                if pause is None:
                    pause = self._delays[attempt]
                cap = self.retry.cap if self.retry is not None else pause
                self._sleep(min(pause, cap))
                self.retry_count += 1
                continue
            return status, headers_out, payload
        raise last_error  # pragma: no cover — loop always returns/raises

    @staticmethod
    def _sleep(seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    @classmethod
    def _error_for(
        cls, status: int, headers: Mapping, payload: bytes
    ) -> ServiceError:
        """Map a non-2xx response to a typed :class:`ServiceError`."""
        code, message = "error", payload.decode("utf-8", "replace").strip()
        try:
            error = json.loads(payload)["error"]
            code, message = error["code"], error["message"]
        except (ValueError, KeyError, TypeError):
            pass
        retry_after = None
        raw = headers.get("Retry-After")
        if raw is not None:
            try:
                retry_after = max(0.0, float(raw))
            except (TypeError, ValueError):
                # An unparseable hint must not silently disable
                # backoff: annotate the error and use the default.
                message += f" (unparseable Retry-After header {raw!r})"
                retry_after = _DEFAULT_RETRY_AFTER
        return ServiceError(
            message,
            status=status,
            code=code,
            retry_after=retry_after,
            retryable=status in (429, 503),
        )

    @classmethod
    def _raise_for(cls, status: int, headers: Mapping, payload: bytes) -> None:
        if 200 <= status < 300:
            return
        raise cls._error_for(status, headers, payload)

    def _call_json(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> dict:
        status, headers_out, payload = self._call(method, path, body, headers)
        self._raise_for(status, headers_out, payload)
        return json.loads(payload)

    # ---------------------------- protocol ---------------------------- #

    def submit(self, request: api.AuditRequest) -> api.JobStatus:
        """POST one audit request; returns the job's first status.

        Idempotent under retries: seeded requests key on their
        fingerprint (a repeat POST — retried or deliberate — attaches
        to the existing job); unseeded requests get a one-shot token so
        only the retry loop deduplicates, never two deliberate submits.
        """
        if request.seed is not None:
            key = request.fingerprint()
        else:
            key = f"once-{uuid.uuid4().hex}"
        return api.JobStatus.from_dict(
            self._call_json(
                "POST",
                "/v1/audits",
                request.to_json().encode("utf-8"),
                headers={"Idempotency-Key": key},
            )
        )

    def status(self, job_id: str, wait: float = 0.0) -> api.JobStatus:
        """The job's status; with ``wait``, a long-poll for its end.

        Blocks server-side up to ``wait`` seconds (the server caps it at
        60) and returns as soon as the job is terminal.
        """
        path = f"/v1/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait:.3f}"
        return api.JobStatus.from_dict(self._call_json("GET", path))

    def ingest_depdb(self, text: str, tenant: str = "default") -> dict:
        """POST a DepDB payload (Table-1 text or JSON) into the tenant's
        server-side store; later audits reference it as ``depdb="@store"``.
        """
        path = f"/v1/tenants/{urllib.parse.quote(tenant, safe='')}/depdb"
        return self._call_json("POST", path, text.encode("utf-8"))

    def depdb_stats(self, tenant: str = "default") -> dict:
        """Current shape of the tenant's server-side dependency store."""
        path = f"/v1/tenants/{urllib.parse.quote(tenant, safe='')}/depdb"
        return self._call_json("GET", path)

    def events_after(
        self, job_id: str, after: int = 0, wait: float = 0.0
    ) -> tuple[list, bool]:
        """Long-poll the job's events past sequence number ``after``.

        Blocks server-side up to ``wait`` seconds for news; returns
        ``(events, terminal)``.
        """
        query = urllib.parse.urlencode(
            {"after": after, "wait": f"{max(0.0, wait):.3f}"}
        )
        document = self._call_json(
            "GET", f"/v1/jobs/{job_id}/events/poll?{query}"
        )
        events = document.get("events")
        terminal = document.get("terminal")
        if not isinstance(events, list) or not isinstance(terminal, bool):
            raise ServiceError(
                "malformed job_events document from server",
                status=502,
                code="bad-events-document",
            )
        return events, terminal

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> api.JobStatus:
        """Block until the job is terminal; raises on timeout.

        Long-polls the job's status route — one outstanding HTTP request
        per ~:data:`_LONG_POLL_SECONDS` of waiting, and its answer is
        the terminal status itself.  The last poll ends at the deadline,
        so it doubles as the after-deadline check.  A 404 is the
        server's unknown-job error and propagates as such; it says
        nothing about the next job.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            chunk = _LONG_POLL_SECONDS
            if deadline is not None:
                chunk = min(chunk, max(0.0, deadline - time.monotonic()))
            status = self.status(job_id, wait=chunk)
            if status.is_terminal:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status.state} after its deadline",
                    status=504,
                    code="timeout",
                )

    def report(
        self,
        job_id: Optional[str] = None,
        key: Optional[str] = None,
    ) -> api.AuditReport:
        """Fetch a finished report by job id or by content address."""
        return api.AuditReport.from_json(self.report_bytes(job_id, key))

    def report_bytes(
        self,
        job_id: Optional[str] = None,
        key: Optional[str] = None,
    ) -> bytes:
        if (job_id is None) == (key is None):
            raise SpecificationError(
                "pass exactly one of job_id or key"
            )
        path = (
            f"/v1/jobs/{job_id}/report"
            if job_id is not None
            else f"/v1/reports/{key}"
        )
        status, headers, payload = self._call("GET", path)
        self._raise_for(status, headers, payload)
        return payload

    def cancel(self, job_id: str) -> api.JobStatus:
        return api.JobStatus.from_dict(
            self._call_json("POST", f"/v1/jobs/{job_id}/cancel", b"")
        )

    def health(self) -> dict:
        return self._call_json("GET", "/v1/healthz")

    def audit(
        self, request: api.AuditRequest, timeout: Optional[float] = None
    ) -> api.AuditReport:
        """Submit, wait and fetch: one remote audit, start to finish."""
        submitted = self.submit(request)
        status = (
            submitted
            if submitted.is_terminal
            else self.wait(submitted.job_id, timeout=timeout)
        )
        if status.state == "done":
            return self.report(job_id=status.job_id)
        error = status.error or {}
        raise ServiceError(
            error.get("message", f"job ended {status.state}"),
            status=409,
            code=error.get("code", f"job-{status.state}"),
        )
