"""The job table's bound: live jobs plus the newest finished ones.

A :class:`~repro.service.jobs.JobManager` holds every live job and the
newest ``MAX_RETAINED_JOBS`` finished ones.  An older finished job is
read back from the journal it was written to and served exactly as
before; without a journal its id answers 410 ``expired``, and an id the
manager never issued stays 404.  The bound is patched to 3 here so ten
jobs cross it.
"""

import json
from collections import Counter

import pytest

from repro import api
from repro.errors import Backpressure, ServiceError
from repro.service import JobManager, Router, ServiceThread
from repro.service import jobs as jobs_module
from repro.service.journal import JobJournal
from repro.testing.faults import Fault, FaultInjector, FaultSchedule

from tests.service.conftest import make_request
from tests.service.test_http import http_call

BOUND = 3

#: Ten jobs: cold and cached seeded audits, a failed one and a
#: cancelled one, in that order of ids.
MIX = (
    ("run", 1),
    ("run", 2),
    ("run", 1),  # cached
    ("fail", 3),
    ("run", 4),
    ("run", 2),  # cached
    ("cancel", 5),
    ("run", 1),  # cached
    ("run", 6),
    ("run", 4),  # cached
)


@pytest.fixture(autouse=True)
def small_bound(monkeypatch):
    monkeypatch.setattr(jobs_module, "MAX_RETAINED_JOBS", BOUND)


def request_for(kind: str, seed: int):
    if kind == "fail":
        return make_request(seed=seed, depdb="not a depdb line")
    return make_request(seed=seed)


def served(manager: JobManager, job_id: str) -> tuple:
    """Everything a client can read of a job: status, events, report."""
    events, terminal = manager.events_after(job_id, 0)
    return (
        manager.status(job_id).to_dict(),
        events,
        terminal,
        manager.get(job_id).report_bytes,
    )


def run_mix(manager: JobManager) -> dict:
    """Submit and finish :data:`MIX`; what was served of each job as
    it finished, by id."""
    seen = {}
    for kind, seed in MIX:
        job = manager.submit(request_for(kind, seed))
        if kind == "cancel":
            manager.cancel(job.id)
        manager.run_pending()
        seen[job.id] = served(manager, job.id)
    return seen


def held_terminal(manager: JobManager) -> list:
    return sorted(
        job.id for job in manager._jobs.values() if job.is_terminal
    )


def expect_error(call, status: int, code: str) -> None:
    with pytest.raises(ServiceError) as caught:
        call()
    assert (caught.value.status, caught.value.code) == (status, code)


class TestJournaledManager:
    def test_ten_jobs_leave_the_newest_three_in_memory(self, tmp_path):
        manager = JobManager(workers=0, state_dir=tmp_path)
        seen = run_mix(manager)
        assert held_terminal(manager) == sorted(seen)[-BOUND:]
        assert len(manager._jobs) == BOUND
        manager.shutdown()

    def test_an_evicted_job_is_served_as_before(self, tmp_path):
        manager = JobManager(workers=0, state_dir=tmp_path)
        seen = run_mix(manager)
        assert "job-000001" not in manager._jobs
        for job_id, before in seen.items():
            assert served(manager, job_id) == before
        assert [before[0]["state"] for before in seen.values()] == [
            "done", "done", "done", "failed", "done",
            "done", "cancelled", "done", "done", "done",
        ]
        assert sum(before[0]["cached"] for before in seen.values()) == 4
        # A lookup reads the job back without holding it again.
        assert len(manager._jobs) == BOUND
        assert manager.wait("job-000001").to_dict() == seen["job-000001"][0]
        assert manager.cancel("job-000001").to_dict() == seen["job-000001"][0]
        manager.shutdown()

    def test_stats_count_every_job(self, tmp_path):
        manager = JobManager(workers=0, state_dir=tmp_path)
        seen = run_mix(manager)
        live = manager.submit(make_request(seed=7))
        ids = [*seen, live.id]
        states = Counter(manager.status(job_id).state for job_id in ids)
        assert states == {"done": 8, "failed": 1, "cancelled": 1, "queued": 1}
        assert manager.stats()["jobs"] == dict(states)
        manager.run_pending()
        assert manager.stats()["jobs"] == {
            "done": 9, "failed": 1, "cancelled": 1,
        }
        manager.shutdown()

    def test_a_degraded_journal_answers_expired(self, tmp_path):
        # The first job's five appends succeed; the sixth (the second
        # job's admission) fails and the manager runs on in memory.
        schedule = FaultSchedule(
            (Fault(kind="disk-full", point="journal.append", at=5),)
        )
        with FaultInjector(schedule) as injector:
            manager = JobManager(workers=0, state_dir=tmp_path)
            run_mix(manager)
        assert injector.fired
        assert manager.stats()["journal"]["degraded"] is True
        expect_error(lambda: manager.get("job-000001"), 410, "expired")
        manager.shutdown()


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record every call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestOneReadBackPerRequest:
    """A dropped job is read back once per request, and its report
    bytes are loaded only by the route that sends them."""

    @pytest.fixture
    def dropped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_RETAINED_JOBS", 1)
        manager = JobManager(workers=0, state_dir=tmp_path)
        first = manager.submit(make_request(seed=1))
        manager.run_pending()
        manager.submit(make_request(seed=2))
        manager.run_pending()
        assert first.id not in manager._jobs
        yield manager, first
        manager.shutdown()

    def test_the_report_route_reads_the_job_once(self, dropped, monkeypatch):
        manager, first = dropped
        reads = count_calls(monkeypatch, JobJournal, "read")
        loads = count_calls(monkeypatch, JobJournal, "load_report")
        response = Router(manager).dispatch(
            "GET", f"/v1/jobs/{first.id}/report", b""
        )
        assert (response.status, response.body) == (200, first.report_bytes)
        assert (len(reads), len(loads)) == (1, 1)

    def test_the_status_route_loads_no_report(self, dropped, monkeypatch):
        manager, first = dropped
        reads = count_calls(monkeypatch, JobJournal, "read")
        loads = count_calls(monkeypatch, JobJournal, "load_report")
        response = Router(manager).dispatch("GET", f"/v1/jobs/{first.id}", b"")
        assert response.status == 200
        assert json.loads(response.body)["state"] == "done"
        assert (len(reads), len(loads)) == (1, 0)
        # Nor does any other lookup that sends no report bytes.
        manager.status(first.id)
        manager.events_after(first.id, 0)
        manager.cancel(first.id)
        assert (len(reads), len(loads)) == (4, 0)


class TestWithoutJournal:
    def test_an_evicted_id_is_expired_and_an_unknown_one_not_found(self):
        manager = JobManager(workers=0)
        seen = run_mix(manager)
        newest = max(seen)
        assert served(manager, newest) == seen[newest]
        for call in (
            manager.get,
            manager.status,
            manager.wait,
            manager.cancel,
            lambda job_id: manager.events_after(job_id, 0),
        ):
            expect_error(lambda: call("job-000001"), 410, "expired")
            for unknown in ("job-000011", "job-1", "nope"):
                expect_error(lambda: call(unknown), 404, "not-found")
        manager.shutdown()

    def test_a_refused_submission_issues_no_id(self):
        manager = JobManager(workers=0, per_tenant_limit=1)
        first = manager.submit(make_request(seed=1, tenant="t"))
        with pytest.raises(Backpressure):
            manager.submit(make_request(seed=2, tenant="t"))
        expect_error(lambda: manager.get("job-000002"), 404, "not-found")
        second = manager.submit(make_request(seed=3, tenant="u"))
        assert (first.id, second.id) == ("job-000001", "job-000002")
        manager.shutdown(drain=False)

    def test_idempotent_resubmit_of_a_live_job_reattaches(self):
        manager = JobManager(workers=0)
        done = make_request(seed=1)
        manager.submit(done)
        manager.run_pending()
        live = manager.submit(make_request(seed=2), idempotency_key="k")
        for _ in range(2 * BOUND):
            assert manager.submit(done).cached  # born done, retained
        assert len(held_terminal(manager)) == BOUND
        again = manager.submit(make_request(seed=2), idempotency_key="k")
        assert again is live
        assert manager.status(live.id).state == "queued"
        manager.run_pending()
        assert manager.status(live.id).state == "done"
        manager.shutdown()


class TestRecovery:
    def test_recovery_retains_the_bound_and_serves_the_rest(self, tmp_path):
        first = JobManager(workers=0, state_dir=tmp_path)
        seen = run_mix(first)
        queued = first.submit(make_request(seed=8))
        first.journal.close()  # a hard kill: no shutdown

        second = JobManager(workers=0, state_dir=tmp_path)
        assert second.stats()["journal"]["recovered_jobs"] == len(MIX) + 1
        assert held_terminal(second) == sorted(seen)[-BOUND:]
        assert second.get(queued.id).state == "queued"  # live: held
        for job_id, before in seen.items():
            assert served(second, job_id) == before
        assert second.stats()["jobs"] == {
            "done": 8, "failed": 1, "cancelled": 1, "queued": 1,
        }
        second.run_pending()
        request = make_request(seed=8)
        result = api.execute_request(request)
        assert second.get(queued.id).report_bytes == (
            api.report_for_request(request, result.audit, result.structural_hash)
            .to_json()
            .encode("utf-8")
        )
        second.shutdown()


def http_get(handle, path: str) -> tuple:
    status, _headers, body = http_call(handle, "GET", path)
    return status, body


def submit_over_http(handle, request) -> str:
    status, _headers, body = http_call(
        handle, "POST", "/v1/audits", request.to_json().encode()
    )
    assert status in (200, 202)
    return json.loads(body)["job_id"]


def served_over_http(handle, job_id: str) -> tuple:
    return tuple(
        http_get(handle, f"/v1/jobs/{job_id}{route}")
        for route in ("", "/events/poll?after=0", "/report")
    )


class TestOverHTTP:
    def test_an_evicted_job_is_served_byte_identically(self, tmp_path):
        handle = ServiceThread(
            JobManager(workers=1, state_dir=tmp_path)
        ).start()
        try:
            seen = {}
            for kind, seed in MIX:
                if kind == "cancel":
                    continue  # a worker may start it first
                job_id = submit_over_http(handle, request_for(kind, seed))
                code, _ = http_get(handle, f"/v1/jobs/{job_id}?wait=30")
                assert code == 200
                seen[job_id] = served_over_http(handle, job_id)
            assert "job-000001" not in handle.server.manager._jobs
            for job_id, before in seen.items():
                assert served_over_http(handle, job_id) == before
            assert seen["job-000001"][2][0] == 200  # the report itself
            assert http_get(handle, "/v1/jobs/job-000099")[0] == 404
        finally:
            handle.stop()

    def test_without_a_journal_an_evicted_id_is_410(self):
        handle = ServiceThread(JobManager(workers=1)).start()
        try:
            for seed in range(1, BOUND + 2):
                job_id = submit_over_http(handle, make_request(seed=seed))
                http_get(handle, f"/v1/jobs/{job_id}?wait=30")
            code, body = http_get(handle, "/v1/jobs/job-000001/report")
            assert code == 410
            assert json.loads(body)["error"]["code"] == "expired"
            assert http_get(handle, "/v1/jobs/job-000099")[0] == 404
        finally:
            handle.stop()
