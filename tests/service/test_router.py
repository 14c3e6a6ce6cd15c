"""The status route's long-poll: ``GET /v1/jobs/<id>?wait=S``.

Driven through :meth:`Router.dispatch` over a worker-less manager, so a
job stays queued until the test runs it: every answer is decided by the
test, not by a worker's timing.
"""

import json
import threading
import time

import pytest

from repro import api
from repro.service import JobManager
from repro.service.router import Router

from tests.service.conftest import make_request


@pytest.fixture
def manager():
    jobs = JobManager(workers=0)
    yield jobs
    jobs.shutdown(drain=False)


def get_status(router: Router, job_id: str, query: str = ""):
    response = router.dispatch("GET", f"/v1/jobs/{job_id}", b"", query=query)
    return response.status, json.loads(response.body)


def recorded_timeouts(manager, monkeypatch) -> list:
    """Record the timeout each status request hands to ``wait``."""
    timeouts = []
    wait = manager.wait

    def recording(job_id, timeout=None):
        timeouts.append(timeout)
        return wait(job_id, timeout=0)

    monkeypatch.setattr(manager, "wait", recording)
    return timeouts


class TestStatusLongPoll:
    def test_answers_the_terminal_status_once_the_job_is_done(self, manager):
        job = manager.submit(make_request(seed=31))
        runner = threading.Timer(0.2, manager.run_pending)
        runner.start()
        started = time.monotonic()
        code, document = get_status(Router(manager), job.id, "wait=30")
        elapsed = time.monotonic() - started
        runner.join()
        assert code == 200
        status = api.JobStatus.from_dict(document)
        assert (status.state, status.report_key) == (
            "done",
            manager.get(job.id).report_key,
        )
        assert elapsed < 20  # answered at the finish, not the timeout

    def test_answers_the_current_status_at_the_timeout(self, manager):
        job = manager.submit(make_request(seed=32))
        started = time.monotonic()
        code, document = get_status(Router(manager), job.id, "wait=0.3")
        assert time.monotonic() - started >= 0.3
        assert code == 200
        assert api.JobStatus.from_dict(document).state == "queued"

    def test_without_wait_the_answer_is_immediate(self, manager):
        job = manager.submit(make_request(seed=33))
        started = time.monotonic()
        code, document = get_status(Router(manager), job.id)
        assert time.monotonic() - started < 1.0
        assert code == 200
        assert api.JobStatus.from_dict(document).state == "queued"

    def test_unknown_job_is_404_not_found(self, manager):
        code, document = get_status(Router(manager), "no-such-job", "wait=5")
        assert code == 404
        assert document["error"]["code"] == "not-found"

    @pytest.mark.parametrize(
        "query, timeout",
        [
            ("", 0.0),
            ("wait=2.5", 2.5),
            ("wait=1000", 60.0),
            ("wait=-5", 0.0),
            ("wait=soon", 0.0),
        ],
    )
    def test_wait_is_clamped_to_sixty_seconds(
        self, manager, monkeypatch, query, timeout
    ):
        job = manager.submit(make_request(seed=34))
        timeouts = recorded_timeouts(manager, monkeypatch)
        code, _ = get_status(Router(manager), job.id, query)
        assert code == 200
        assert timeouts == [timeout]


class TestMalformedBodies:
    """A body the JSON decoder cannot take is the client's fault: 400
    ``bad-request``, never 500 ``internal``."""

    def post(self, manager, path: str, body: bytes):
        response = Router(manager).dispatch("POST", path, body)
        return response.status, json.loads(response.body)["error"]

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"\xff\xfe{", "audit request is not UTF-8"),
            # Valid JSON in UTF-16 is refused as the DepDB route refuses it.
            ('{"servers": ["S1"]}'.encode("utf-16"), "is not UTF-8"),
            (b"[" * 100_000, "invalid audit_request JSON"),
        ],
        ids=["not-utf-8", "utf-16", "nested-past-the-recursion-limit"],
    )
    def test_audit_submission_is_400(self, manager, body, message):
        status, error = self.post(manager, "/v1/audits", body)
        assert (status, error["code"]) == (400, "bad-request")
        assert message in error["message"]

    def test_non_utf8_depdb_payload_is_400(self, manager):
        status, error = self.post(
            manager, "/v1/tenants/acme/depdb", b"\xff\xfe{"
        )
        assert (status, error["code"]) == (400, "bad-request")
        assert "dependency payload is not UTF-8" in error["message"]

    def test_deep_depdb_payload_is_400(self, manager):
        body = b'{"network": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        status, error = self.post(manager, "/v1/tenants/acme/depdb", body)
        assert (status, error["code"]) == (400, "bad-request")
        assert "invalid DepDB JSON" in error["message"]

    def test_misspelt_depdb_key_is_400(self, manager):
        body = json.dumps({"softwares": []}).encode("utf-8")
        status, error = self.post(manager, "/v1/tenants/acme/depdb", body)
        assert (status, error["code"]) == (400, "bad-request")
        assert "softwares" in error["message"]
        assert manager.depdb_stats("acme")["total"] == 0
