"""Request routing for the audit service (transport-independent).

The router maps ``(method, path)`` to handlers on a
:class:`~repro.service.jobs.JobManager` and renders every outcome —
success or failure — as a canonical :mod:`repro.api` document.  It knows
nothing about sockets: the HTTP front end in :mod:`repro.service.server`
calls :meth:`Router.dispatch` on each connection's own thread and
writes whatever :class:`Response` comes back.
"""

from __future__ import annotations

import re
import urllib.parse
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro import api
from repro.errors import IndaasError, ServiceError
from repro.service.jobs import JobManager
from repro.testing.faults import fault_point

__all__ = ["Response", "Router"]


@dataclass
class Response:
    """One HTTP response, fully decided: a JSON body and its headers."""

    status: int
    body: bytes = b""
    headers: tuple = ()


def _json_response(status: int, document: dict, **headers) -> Response:
    return Response(
        status=status,
        body=(api.canonical_json(document) + "\n").encode("utf-8"),
        headers=tuple(headers.items()),
    )


def _int_param(params: dict, name: str, default: int) -> int:
    try:
        return max(0, int(params[name][0]))
    except (KeyError, IndexError, ValueError):
        return default


def _wait_param(params: dict) -> float:
    """A long-poll's ``wait`` in seconds, clamped to [0, 60]."""
    try:
        wait = float(params["wait"][0])
    except (KeyError, IndexError, ValueError):
        return 0.0
    return min(60.0, max(0.0, wait))


def _utf8(body: bytes, what: str) -> str:
    """A request body as text; one that is not UTF-8 is a 400."""
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ServiceError(
            f"{what} is not UTF-8: {exc}", status=400, code="bad-request"
        ) from exc


def error_response(exc: ServiceError) -> Response:
    headers = {}
    if exc.retry_after is not None:
        headers["Retry-After"] = str(max(1, round(exc.retry_after)))
    return _json_response(
        exc.status, api.error_body(exc.code, str(exc)), **headers
    )


@dataclass
class Router:
    """Route table over one :class:`JobManager`."""

    manager: JobManager
    routes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._route("POST", r"/v1/audits", self.submit)
        self._route("GET", r"/v1/jobs/(?P<job_id>[\w.-]+)", self.job_status)
        self._route(
            "GET",
            r"/v1/jobs/(?P<job_id>[\w.-]+)/events/poll",
            self.job_events_poll,
        )
        self._route(
            "GET", r"/v1/jobs/(?P<job_id>[\w.-]+)/report", self.job_report
        )
        self._route(
            "POST", r"/v1/jobs/(?P<job_id>[\w.-]+)/cancel", self.job_cancel
        )
        self._route("GET", r"/v1/reports/(?P<key>[0-9a-f]+)", self.report)
        self._route(
            "POST", r"/v1/tenants/(?P<tenant>[^/]+)/depdb", self.depdb_ingest
        )
        self._route(
            "GET", r"/v1/tenants/(?P<tenant>[^/]+)/depdb", self.depdb_stats
        )
        self._route("GET", r"/v1/healthz", self.healthz)

    def _route(self, method: str, pattern: str, handler) -> None:
        self.routes.append((method, re.compile(pattern + r"\Z"), handler))

    def dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        query: str = "",
        headers: Optional[Mapping[str, str]] = None,
    ) -> Response:
        """Resolve and run one request; never raises.

        ``query`` is the raw (still-encoded) query string; ``headers``
        are the request headers with lower-cased names.  Both are
        optional so transport shims predating them keep working.
        """
        try:
            fault_point("server.dispatch", method=method, path=path)
            matched_path = False
            for route_method, pattern, handler in self.routes:
                match = pattern.match(path)
                if match is None:
                    continue
                matched_path = True
                if route_method == method:
                    return handler(
                        body=body,
                        query=query,
                        headers=headers or {},
                        **match.groupdict(),
                    )
            if matched_path:
                raise ServiceError(
                    f"method {method} not allowed on {path}",
                    status=405,
                    code="method-not-allowed",
                )
            raise ServiceError(
                f"no such endpoint: {path}", status=404, code="not-found"
            )
        except ServiceError as exc:
            return error_response(exc)
        except IndaasError as exc:
            return _json_response(
                400, api.error_body("bad-request", str(exc))
            )
        except Exception as exc:  # noqa: BLE001 — the server must answer
            return _json_response(
                500,
                api.error_body(
                    "internal", f"{type(exc).__name__}: {exc}"
                ),
            )

    # ---------------------------- handlers ---------------------------- #

    def submit(
        self, body: bytes, headers: Mapping[str, str] = (), **_
    ) -> Response:
        request = api.AuditRequest.from_json(_utf8(body, "audit request"))
        key = dict(headers).get("idempotency-key") or None
        job = self.manager.submit(request, idempotency_key=key)
        status = self.manager.status(job.id)
        # A fingerprint cache hit is born done: 200, not 202.
        code = 200 if status.state == "done" else 202
        return _json_response(
            code, status.to_dict(), Location=f"/v1/jobs/{job.id}"
        )

    def job_status(self, job_id: str, query: str = "", **_) -> Response:
        """The job's status; with ``wait``, a long-poll for its end.

        ``?wait=S`` blocks up to ``S`` seconds in
        :meth:`~repro.service.jobs.JobManager.wait` and answers the
        terminal status as soon as there is one, else the current status
        at the timeout.  The retrying client's
        :meth:`~repro.agents.transport.ServiceClient.wait` sits on this:
        one request per ~20 s of waiting, and the answer is the status
        it was waiting for.  Without ``wait`` the answer is immediate.
        """
        wait = _wait_param(urllib.parse.parse_qs(query))
        status = self.manager.wait(job_id, timeout=wait)
        return _json_response(200, status.to_dict())

    def job_events_poll(self, job_id: str, query: str = "", **_) -> Response:
        """Long-poll: events past ``after``, blocking up to ``wait`` s.

        The API for reading a job's events as they happen; a client
        that only wants the outcome waits on the status route instead.
        """
        params = urllib.parse.parse_qs(query)
        after = _int_param(params, "after", 0)
        events, terminal = self.manager.events_after(
            job_id, after, timeout=_wait_param(params)
        )
        return _json_response(
            200,
            api.envelope(
                "job_events",
                {"job_id": job_id, "events": events, "terminal": terminal},
            ),
        )

    def job_report(self, job_id: str, **_) -> Response:
        # One lookup: a job the manager no longer holds is read back
        # (and its report bytes verified) once per request.
        job = self.manager.get(job_id)
        state = job.state
        if state == "failed":
            return _json_response(
                409,
                api.error_body(
                    "job-failed",
                    (job.error or {}).get("message", "audit failed"),
                    job_id=job_id,
                ),
            )
        if state == "cancelled":
            return _json_response(
                409, api.error_body("job-cancelled", "job was cancelled",
                                    job_id=job_id),
            )
        if job.report_bytes is None:
            raise ServiceError(
                f"job {job_id} is {state}; report not ready",
                status=404,
                code="not-ready",
                retry_after=self.manager.retry_after(),
            )
        return Response(status=200, body=job.report_bytes)

    def job_cancel(self, job_id: str, body: bytes = b"", **_) -> Response:
        return _json_response(200, self.manager.cancel(job_id).to_dict())

    def report(self, key: str, **_) -> Response:
        return Response(status=200, body=self.manager.report_bytes(key))

    def depdb_ingest(self, tenant: str, body: bytes, **_) -> Response:
        """Ingest a DepDB payload (Table-1 text or JSON) for a tenant."""
        tenant = urllib.parse.unquote(tenant)
        text = _utf8(body, "dependency payload")
        outcome = self.manager.ingest_depdb(tenant, text)
        return _json_response(200, api.envelope("depdb_ingest", outcome))

    def depdb_stats(self, tenant: str, **_) -> Response:
        tenant = urllib.parse.unquote(tenant)
        return _json_response(
            200,
            api.envelope("depdb_stats", self.manager.depdb_stats(tenant)),
        )

    def healthz(self, **_) -> Response:
        return _json_response(
            200, api.envelope("health", {"status": "ok", **self.manager.stats()})
        )
