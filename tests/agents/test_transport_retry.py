"""Retrying transport: backoff, Retry-After, long-poll.

Satellite regressions pinned here:

* an unparseable ``Retry-After`` header falls back to the default
  backoff and annotates the error (never silently ``None``);
* :meth:`ServiceClient.wait` long-polls the status route — a job that
  finishes inside one poll costs one HTTP request, not one per poll
  interval.
"""

import os

import pytest

from repro import api
from repro.agents.transport import RetryPolicy, ServiceClient
from repro.errors import ServiceError, SpecificationError
from repro.service import JobManager, ServiceThread
from repro.testing.faults import Fault, FaultInjector, FaultSchedule

from tests.service.conftest import make_request
from tests.testing.schedules import seeded_schedule

SEED = int(os.environ.get("REPRO_FAULT_SEED", "20140807"))


@pytest.fixture
def service():
    handle = ServiceThread(JobManager(workers=1)).start()
    yield handle
    handle.stop()


@pytest.fixture
def client(service):
    with ServiceClient(service.url, retry=RetryPolicy(seed=SEED)) as remote:
        yield remote


class TestRetryPolicy:
    def test_delays_are_deterministic_per_seed(self):
        policy = RetryPolicy(retries=6, seed=SEED)
        assert list(policy.delays()) == list(policy.delays())
        assert list(policy.delays()) != list(
            RetryPolicy(retries=6, seed=SEED + 1).delays()
        )

    def test_delays_are_capped_exponential(self):
        policy = RetryPolicy(retries=8, backoff=1.0, cap=4.0, jitter=0.0)
        assert list(policy.delays()) == [1.0, 2.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]

    def test_jitter_stays_within_the_band(self):
        policy = RetryPolicy(retries=50, backoff=1.0, cap=1.0, jitter=0.25)
        assert all(0.75 <= delay <= 1.25 for delay in policy.delays())

    def test_validation(self):
        with pytest.raises(SpecificationError):
            RetryPolicy(retries=-1)
        with pytest.raises(SpecificationError):
            RetryPolicy(backoff=0.5, cap=0.1)
        with pytest.raises(SpecificationError):
            RetryPolicy(jitter=1.5)


class TestRetryAfterParsing:
    def test_parseable_header_is_honoured(self):
        error = ServiceClient._error_for(429, {"Retry-After": "7"}, b"{}")
        assert error.retry_after == 7.0
        assert error.retryable

    def test_unparseable_header_falls_back_and_annotates(self):
        error = ServiceClient._error_for(
            429, {"Retry-After": "Wed, 21 Oct"}, b"{}"
        )
        # Satellite fix: never silently None — the retry loop must
        # still back off, and the operator must see why.
        assert error.retry_after == 1.0
        assert "unparseable Retry-After" in str(error)

    def test_missing_header_stays_none(self):
        error = ServiceClient._error_for(503, {}, b"{}")
        assert error.retry_after is None
        assert error.retryable

    def test_non_load_statuses_are_not_retryable(self):
        assert not ServiceClient._error_for(404, {}, b"{}").retryable
        assert not ServiceClient._error_for(500, {}, b"{}").retryable


class TestRetries:
    def test_connection_reset_is_retried_to_success(self, client):
        schedule = FaultSchedule(
            (Fault(kind="connection-reset", point="transport.request", at=0),)
        )
        with FaultInjector(schedule) as injector:
            assert client.health()["status"] == "ok"
        assert injector.fired
        assert client.retry_count == 1

    def test_retries_exhausted_surfaces_the_error(self, service):
        schedule = FaultSchedule(
            (
                Fault(
                    kind="connection-reset",
                    point="transport.request",
                    at=0,
                    times=3,
                ),
            )
        )
        policy = RetryPolicy(retries=2, backoff=0.01, seed=SEED)
        with ServiceClient(service.url, retry=policy) as remote:
            with FaultInjector(schedule):
                with pytest.raises(ServiceError) as excinfo:
                    remote.health()
        assert excinfo.value.code == "unreachable"
        assert excinfo.value.retryable

    def test_retry_disabled_fails_fast(self, service):
        schedule = FaultSchedule(
            (Fault(kind="connection-reset", point="transport.request", at=0),)
        )
        with ServiceClient(service.url, retry=None) as remote:
            with FaultInjector(schedule):
                with pytest.raises(ServiceError):
                    remote.health()
            assert remote.retry_count == 0

    def test_submit_retry_attaches_to_the_first_job(self, service):
        """A retried POST whose first response was lost must not
        enqueue a duplicate: the Idempotency-Key re-attaches it."""
        saturated = ServiceThread(JobManager(workers=0)).start()
        try:
            policy = RetryPolicy(retries=2, backoff=0.01, seed=SEED)
            with ServiceClient(saturated.url, retry=policy) as remote:
                request = make_request(seed=101)
                first = remote.submit(request)
                repeat = remote.submit(request)  # same fingerprint key
                assert repeat.job_id == first.job_id
        finally:
            saturated.stop()


class TestLongPollWait:
    def test_wait_uses_a_handful_of_requests(self, client):
        request = make_request(algorithm="sampling", rounds=60_000, seed=102)
        submitted = client.submit(request)
        before = client.request_count
        status = client.wait(submitted.job_id, timeout=60)
        assert status.state == "done"
        used = client.request_count - before
        # One status long-poll, answered with the terminal status: a job
        # that finishes inside one ~20 s poll costs exactly one request.
        # The old fixed-interval poller burned ~10 requests per second.
        assert used == 1, f"wait() made {used} HTTP requests"

    def test_unknown_job_does_not_degrade_later_waits(
        self, client, monkeypatch
    ):
        """A 404 from ``wait()`` is the unknown-*job* error: it says
        nothing about the server's routes, so the next ``wait()`` on the
        same client must still long-poll."""
        paths = []
        call_once = client._call_once
        monkeypatch.setattr(
            client,
            "_call_once",
            lambda method, path, *rest: paths.append(path)
            or call_once(method, path, *rest),
        )
        with pytest.raises(ServiceError) as excinfo:
            client.wait("no-such-job", timeout=5)
        assert (excinfo.value.status, excinfo.value.code) == (
            404,
            "not-found",
        )
        assert len(paths) == 1
        assert paths[0].startswith("/v1/jobs/no-such-job?wait=")
        request = make_request(algorithm="sampling", rounds=60_000, seed=103)
        submitted = client.submit(request)
        del paths[:]
        assert client.wait(submitted.job_id, timeout=60).state == "done"
        assert len(paths) == 1, f"wait() made {len(paths)} HTTP requests"
        assert paths[0].startswith(f"/v1/jobs/{submitted.job_id}?wait=")

    def test_wait_timeout_raises_typed_error(self, service):
        stalled = ServiceThread(JobManager(workers=0)).start()
        try:
            with ServiceClient(stalled.url) as remote:
                submitted = remote.submit(make_request(seed=104))
                with pytest.raises(ServiceError) as excinfo:
                    remote.wait(submitted.job_id, timeout=0.3)
            assert excinfo.value.code == "timeout"
        finally:
            stalled.stop()

    def test_events_after_pages_incrementally(self, client):
        submitted = client.submit(make_request(seed=105))
        client.wait(submitted.job_id, timeout=60)
        events, terminal = client.events_after(submitted.job_id, 0, wait=0)
        assert terminal
        assert events[0]["event"] == "submitted"
        assert events[-1]["event"] == "done"
        assert all(event["kind"] == "event" for event in events)
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, len(events) + 1))
        tail, _ = client.events_after(submitted.job_id, seqs[-2], wait=0)
        assert [event["seq"] for event in tail] == [seqs[-1]]


class TestRemoteAudit:
    def test_audit_under_seeded_chaos_stays_bit_identical(self, service):
        """The acceptance shape: a seeded chaos schedule perturbs the
        transport, the report bytes do not change."""
        request = make_request(algorithm="sampling", rounds=2000, seed=108)
        with ServiceClient(service.url, retry=RetryPolicy(seed=SEED)) as calm:
            reference = calm.audit(request, timeout=60).to_json()
        schedule = seeded_schedule(
            SEED, n=3, points=("transport.request", "server.dispatch")
        )
        policy = RetryPolicy(retries=6, backoff=0.01, seed=SEED)
        with ServiceClient(service.url, retry=policy) as chaotic:
            with FaultInjector(schedule):
                chaos_report = chaotic.audit(request, timeout=60).to_json()
        assert chaos_report == reference
        direct = api.execute_request(request)
        assert (
            api.report_for_request(
                request, direct.audit, direct.structural_hash
            ).to_json()
            == reference
        )
