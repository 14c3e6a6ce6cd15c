"""HTTP integration: the full wire loop against a live ServiceThread.

The contract under test is the ISSUE's hard one: a report served over
HTTP is bit-identical to direct engine execution of the same request;
overload answers 429 + Retry-After immediately (never hangs); malformed
specs get structured 400 bodies.
"""

import http.client
import json
import socket

import pytest

from repro import api
from repro.service import JobManager, ServiceThread

from tests.service.conftest import make_request


@pytest.fixture
def service():
    """A live server with two real workers."""
    handle = ServiceThread(JobManager(workers=2)).start()
    yield handle
    handle.stop()


@pytest.fixture
def saturated_service():
    """A live server with zero workers: queued jobs never drain, so
    admission decisions are deterministic."""
    handle = ServiceThread(
        JobManager(workers=0, per_tenant_limit=2, total_limit=3)
    ).start()
    yield handle
    handle.stop()


def http_call(handle, method, path, body=None):
    conn = http.client.HTTPConnection(
        handle.server.host, handle.server.port, timeout=30
    )
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


def raw_exchange(handle, head: bytes) -> bytes:
    """Send raw request bytes; return everything the server answers
    before it closes the connection."""
    with socket.create_connection(
        (handle.server.host, handle.server.port), timeout=30
    ) as sock:
        sock.sendall(head)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def direct_bytes(request: api.AuditRequest) -> bytes:
    result = api.execute_request(request)
    return (
        api.report_for_request(request, result.audit, result.structural_hash)
        .to_json()
        .encode("utf-8")
    )


class TestRoundTrip:
    def test_served_report_is_bit_identical_to_direct_engine(self, service):
        request = make_request(algorithm="sampling", rounds=2000, seed=21)
        status, headers, body = http_call(
            service, "POST", "/v1/audits", request.to_json()
        )
        assert status == 202
        submitted = api.JobStatus.from_json(body)
        assert headers["Location"] == f"/v1/jobs/{submitted.job_id}"
        finished = service.server.manager.wait(submitted.job_id, timeout=60)
        assert finished.state == "done"
        status, _, served = http_call(
            service, "GET", f"/v1/jobs/{submitted.job_id}/report"
        )
        assert status == 200
        assert served == direct_bytes(request)

    def test_repeat_post_is_pure_cache_hit(self, service):
        request = make_request(seed=22)
        _, _, first = http_call(
            service, "POST", "/v1/audits", request.to_json()
        )
        service.server.manager.wait(
            api.JobStatus.from_json(first).job_id, timeout=60
        )
        status, _, second = http_call(
            service, "POST", "/v1/audits", request.to_json()
        )
        assert status == 200  # born done, never queued
        snapshot = api.JobStatus.from_json(second)
        assert snapshot.cached is True
        assert snapshot.state == "done"

    def test_finished_report_served_content_addressed(self, service):
        request = make_request(seed=23)
        _, _, body = http_call(
            service, "POST", "/v1/audits", request.to_json()
        )
        job_id = api.JobStatus.from_json(body).job_id
        finished = service.server.manager.wait(job_id, timeout=60)
        status, _, by_key = http_call(
            service, "GET", f"/v1/reports/{finished.report_key}"
        )
        assert status == 200
        _, _, by_job = http_call(
            service, "GET", f"/v1/jobs/{job_id}/report"
        )
        assert by_key == by_job

    def test_event_stream_is_canonical_jsonl(self, service):
        """The long-poll pages a job's events as canonical documents."""
        request = make_request(seed=24)
        _, _, body = http_call(
            service, "POST", "/v1/audits", request.to_json()
        )
        job_id = api.JobStatus.from_json(body).job_id
        service.server.manager.wait(job_id, timeout=60)
        status, headers, payload = http_call(
            service, "GET", f"/v1/jobs/{job_id}/events/poll?after=0&wait=5"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(payload)
        assert payload == (api.canonical_json(document) + "\n").encode()
        assert document["kind"] == "job_events"
        assert document["schema_version"] == api.SCHEMA_VERSION
        assert document["job_id"] == job_id
        assert document["terminal"] is True
        events = document["events"]
        assert all(e["kind"] == "event" for e in events)
        assert all(e["schema_version"] == api.SCHEMA_VERSION for e in events)
        assert events[0]["event"] == "submitted"
        assert events[-1]["event"] in ("done", "failed", "cancelled")
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))


class TestBackpressure:
    def test_tenant_overload_answers_429_immediately(self, saturated_service):
        for seed in (1, 2):
            status, _, _ = http_call(
                saturated_service,
                "POST",
                "/v1/audits",
                make_request(seed=seed, tenant="acme").to_json(),
            )
            assert status == 202
        status, headers, body = http_call(
            saturated_service,
            "POST",
            "/v1/audits",
            make_request(seed=3, tenant="acme").to_json(),
        )
        assert status == 429
        assert float(headers["Retry-After"]) >= 1
        error = json.loads(body)
        assert error["kind"] == "error"
        assert error["error"]["code"] == "tenant-overloaded"

    def test_other_tenants_keep_being_admitted(self, saturated_service):
        for seed in (1, 2):
            http_call(
                saturated_service,
                "POST",
                "/v1/audits",
                make_request(seed=seed, tenant="acme").to_json(),
            )
        status, _, _ = http_call(
            saturated_service,
            "POST",
            "/v1/audits",
            make_request(seed=4, tenant="globex").to_json(),
        )
        assert status == 202
        # ...until the global bound trips, for anyone.
        status, _, body = http_call(
            saturated_service,
            "POST",
            "/v1/audits",
            make_request(seed=5, tenant="initech").to_json(),
        )
        assert status == 429
        assert json.loads(body)["error"]["code"] == "overloaded"


class TestErrors:
    def test_malformed_spec_is_structured_400(self, service):
        status, _, body = http_call(
            service, "POST", "/v1/audits", b'{"schema_version": 1}'
        )
        assert status == 400
        error = json.loads(body)
        assert error["kind"] == "error"
        assert error["error"]["code"] == "bad-request"
        assert "servers" in error["error"]["message"]

    @pytest.mark.parametrize("field, bad", [("seed", -1), ("probability", 1.5)])
    def test_out_of_range_numbers_are_400_not_a_failed_job(
        self, service, field, bad
    ):
        payload = make_request().to_dict()
        payload[field] = bad
        status, _, body = http_call(
            service, "POST", "/v1/audits", json.dumps(payload)
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert error["code"] == "bad-request"
        assert field in error["message"]

    def test_invalid_json_is_structured_400(self, service):
        status, _, body = http_call(
            service, "POST", "/v1/audits", b"not json {"
        )
        assert status == 400
        assert json.loads(body)["error"]["code"] == "bad-request"

    def test_wrong_schema_version_is_400(self, service):
        payload = make_request().to_dict()
        payload["schema_version"] = 999
        status, _, body = http_call(
            service, "POST", "/v1/audits", json.dumps(payload)
        )
        assert status == 400
        assert "schema_version" in json.loads(body)["error"]["message"]

    def test_unknown_job_is_404(self, service):
        status, _, body = http_call(service, "GET", "/v1/jobs/job-999999")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-found"

    def test_chunked_event_stream_route_is_gone(self, service):
        _, _, body = http_call(
            service, "POST", "/v1/audits", make_request(seed=25).to_json()
        )
        job_id = api.JobStatus.from_json(body).job_id
        status, _, body = http_call(service, "GET", f"/v1/jobs/{job_id}/events")
        assert status == 404
        error = json.loads(body)
        assert error["kind"] == "error"
        assert error["error"]["code"] == "not-found"

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_is_400(self, service, length):
        answer = raw_exchange(
            service,
            b"POST /v1/audits HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}",
        )
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "error" in json.loads(body)

    def test_unknown_path_is_404_and_wrong_method_405(self, service):
        status, _, _ = http_call(service, "GET", "/v2/nope")
        assert status == 404
        status, _, _ = http_call(service, "DELETE", "/v1/audits")
        assert status == 405

    def test_report_of_unfinished_job_is_not_ready(self, saturated_service):
        _, _, body = http_call(
            saturated_service,
            "POST",
            "/v1/audits",
            make_request(seed=31).to_json(),
        )
        job_id = api.JobStatus.from_json(body).job_id
        status, headers, body = http_call(
            saturated_service, "GET", f"/v1/jobs/{job_id}/report"
        )
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not-ready"
        assert "Retry-After" in headers


class TestOperational:
    def test_healthz(self, service):
        status, _, body = http_call(service, "GET", "/v1/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_cancel_endpoint(self, saturated_service):
        _, _, body = http_call(
            saturated_service,
            "POST",
            "/v1/audits",
            make_request(seed=41).to_json(),
        )
        job_id = api.JobStatus.from_json(body).job_id
        status, _, body = http_call(
            saturated_service, "POST", f"/v1/jobs/{job_id}/cancel"
        )
        assert status == 200
        assert api.JobStatus.from_json(body).state == "cancelled"

    def test_keep_alive_serves_multiple_requests(self, service):
        conn = http.client.HTTPConnection(
            service.server.host, service.server.port, timeout=30
        )
        try:
            for _ in range(3):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_stop_drains_in_flight_jobs(self):
        handle = ServiceThread(JobManager(workers=1)).start()
        _, _, body = http_call(
            handle,
            "POST",
            "/v1/audits",
            make_request(algorithm="sampling", rounds=20_000, seed=51)
            .to_json(),
        )
        job_id = api.JobStatus.from_json(body).job_id
        handle.stop(drain=True)
        # Post-drain the job is finished, not abandoned.
        assert handle.server.manager.status(job_id).state == "done"
