"""JobManager: lifecycle, caching, backpressure, cancellation, shutdown."""

import pytest

from repro import api
from repro.errors import Backpressure, ServiceError, SpecificationError
from repro.service import JobManager

from tests.service.conftest import DEPDB, make_request


def manager(**overrides) -> JobManager:
    fields = dict(workers=0)  # tests drive execution via run_pending()
    fields.update(overrides)
    return JobManager(**fields)


def direct_bytes(request: api.AuditRequest) -> bytes:
    result = api.execute_request(request)
    return (
        api.report_for_request(request, result.audit, result.structural_hash)
        .to_json()
        .encode("utf-8")
    )


class TestLifecycle:
    def test_submit_queue_run_done(self):
        jobs = manager()
        job = jobs.submit(make_request())
        assert jobs.status(job.id).state == "queued"
        assert jobs.status(job.id).queue_position == 0
        assert jobs.run_pending() == 1
        status = jobs.status(job.id)
        assert status.state == "done"
        assert status.report_key
        assert status.structural_hash
        events = [e["event"] for e in job.events]
        assert events == [
            "submitted", "queued", "started", "compiled", "audited", "done",
        ]
        assert [e["seq"] for e in job.events] == list(range(1, 7))
        assert all(e["kind"] == "event" for e in job.events)

    def test_server_report_is_bit_identical_to_direct_execution(self):
        request = make_request(algorithm="sampling", rounds=2000, seed=11)
        jobs = manager()
        job = jobs.submit(request)
        jobs.run_pending()
        assert job.report_bytes == direct_bytes(request)

    def test_bit_identical_for_any_engine_worker_count(self):
        from repro.engine import AuditEngine

        request = make_request(algorithm="sampling", rounds=2000, seed=13)
        jobs = manager()
        job = jobs.submit(request)
        jobs.run_pending()
        # A direct client fanning the same request over two processes
        # gets the exact bytes the (in-process) service produced.
        fanned = api.execute_request(request, engine=AuditEngine(n_workers=2))
        assert job.report_bytes == (
            api.report_for_request(request, fanned.audit, fanned.structural_hash)
            .to_json()
            .encode("utf-8")
        )

    def test_failed_job_carries_structured_error(self):
        jobs = manager()
        job = jobs.submit(
            make_request(depdb="<bogus line that cannot parse>")
        )
        jobs.run_pending()
        status = jobs.status(job.id)
        assert status.state == "failed"
        assert status.error["code"] == "audit-failed"
        assert "no attributes found" in status.error["message"]

    def test_unknown_job_is_a_404_error(self):
        with pytest.raises(ServiceError) as excinfo:
            manager().status("job-999999")
        assert excinfo.value.status == 404


class TestContentAddressing:
    def test_repeat_submission_is_a_pure_cache_hit(self):
        jobs = manager()
        first = jobs.submit(make_request())
        jobs.run_pending()
        second = jobs.submit(make_request())
        status = jobs.status(second.id)
        assert status.state == "done"
        assert status.cached is True
        assert second.report_bytes == first.report_bytes
        assert len(jobs.admission) == 0  # never touched the queue
        assert [e["event"] for e in second.events] == [
            "submitted", "cache_hit", "done",
        ]

    def test_report_served_content_addressed(self):
        jobs = manager()
        job = jobs.submit(make_request())
        jobs.run_pending()
        assert jobs.report_bytes(job.report_key) == job.report_bytes
        with pytest.raises(ServiceError) as excinfo:
            jobs.report_bytes("0" * 64)
        assert excinfo.value.status == 404

    def test_unseeded_requests_are_never_content_addressed(self):
        jobs = manager()
        first = jobs.submit(make_request(seed=None))
        jobs.run_pending()
        second = jobs.submit(make_request(seed=None))
        assert jobs.status(second.id).state == "queued"
        assert not second.cached
        assert first.report_bytes is not None
        assert first.report_key is not None
        with pytest.raises(ServiceError):
            jobs.report_bytes(first.report_key)

    def test_base_hash_yields_delta_event(self):
        jobs = manager()
        first = jobs.submit(make_request(servers=("S1", "S2")))
        jobs.run_pending()
        second = jobs.submit(
            make_request(
                servers=("S1", "S3"),
                base=jobs.status(first.id).structural_hash,
            )
        )
        jobs.run_pending()
        compiled = next(
            e for e in second.events if e["event"] == "compiled"
        )
        assert "delta" in compiled
        # Advisory only: report identical to a no-base run.
        plain = jobs.submit(make_request(servers=("S1", "S3")))
        assert jobs.status(plain.id).cached


class TestBackpressure:
    def test_per_tenant_queue_bound_raises_429(self):
        jobs = manager(per_tenant_limit=2, total_limit=8)
        jobs.submit(make_request(seed=1, tenant="acme"))
        jobs.submit(make_request(seed=2, tenant="acme"))
        with pytest.raises(Backpressure) as excinfo:
            jobs.submit(make_request(seed=3, tenant="acme"))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after > 0
        # Other tenants still admitted; round-robin order interleaves.
        job = jobs.submit(make_request(seed=4, tenant="globex"))
        assert jobs.status(job.id).queue_position == 1

    def test_submit_after_shutdown_is_503(self):
        jobs = manager()
        jobs.shutdown()
        with pytest.raises(ServiceError) as excinfo:
            jobs.submit(make_request())
        assert excinfo.value.status == 503

    def test_negative_worker_count_is_refused(self):
        with pytest.raises(SpecificationError, match="workers must be >= 0"):
            JobManager(workers=-1)


class TestCancellation:
    def test_cancel_queued_job(self):
        jobs = manager()
        job = jobs.submit(make_request())
        status = jobs.cancel(job.id)
        assert status.state == "cancelled"
        assert jobs.run_pending() == 0

    def test_cancel_running_job_stops_at_block_boundary(self):
        jobs = manager(workers=1)
        job = jobs.submit(
            make_request(algorithm="sampling", rounds=50_000_000, seed=5)
        )
        # Wait for the worker to pick it up, then cancel mid-sampling.
        deadline_events = 0
        for _ in range(200):
            events, _ = jobs.events_after(job.id, deadline_events, timeout=0.1)
            deadline_events += len(events)
            if any(e["event"] == "started" for e in events):
                break
        jobs.cancel(job.id)
        status = jobs.wait(job.id, timeout=30)
        assert status.state == "cancelled"
        jobs.shutdown()

    def test_cancel_multiworker_job_within_one_block(self):
        """Regression (ISSUE 7): a job sampling across worker *processes*
        used to ignore cancellation until the whole plan had run —
        ``pool.map`` never polled the cancel scope.  The fixed path polls
        between block completions, so cancelling takes effect within
        roughly one block's wall-clock (milliseconds here; the bound is a
        generous CI ceiling, far below the full 200M-round runtime)."""
        import time

        from repro.engine import AuditEngine

        jobs = JobManager(engine=AuditEngine(n_workers=2), workers=1)
        job = jobs.submit(
            make_request(algorithm="sampling", rounds=200_000_000, seed=5)
        )
        seen_events = 0
        for _ in range(200):
            events, _ = jobs.events_after(job.id, seen_events, timeout=0.1)
            seen_events += len(events)
            if any(e["event"] == "started" for e in events):
                break
        cancelled_at = time.monotonic()
        jobs.cancel(job.id)
        status = jobs.wait(job.id, timeout=60)
        latency = time.monotonic() - cancelled_at
        assert status.state == "cancelled"
        assert latency < 20.0
        jobs.shutdown()

    def test_cancel_terminal_job_is_a_noop(self):
        jobs = manager()
        job = jobs.submit(make_request())
        jobs.run_pending()
        assert jobs.cancel(job.id).state == "done"


class TestEventsAndShutdown:
    def test_stream_events_ends_at_terminal(self):
        jobs = manager()
        job = jobs.submit(make_request())
        jobs.run_pending()
        events, terminal = jobs.events_after(job.id, 0)
        assert terminal
        assert events[-1]["event"] == "done"
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))

    def test_worker_threads_drain_and_exit(self):
        jobs = JobManager(workers=2)
        submitted = [
            jobs.submit(make_request(seed=seed)) for seed in range(4)
        ]
        jobs.shutdown(drain=True)
        for job in submitted:
            assert jobs.status(job.id).state == "done"
        assert all(not t.is_alive() for t in jobs._workers)

    def test_shutdown_without_drain_cancels_queued(self):
        jobs = manager()
        job = jobs.submit(make_request())
        jobs.shutdown(drain=False)
        assert jobs.status(job.id).state == "cancelled"

    def test_stats_counts(self):
        jobs = manager()
        jobs.submit(make_request())
        stats = jobs.stats()
        assert stats["queued"] == 1
        assert stats["workers"] == 0
        assert stats["jobs"] == {"queued": 1}


class TestWatchParity:
    def test_watch_events_share_field_names_with_job_events(self, tmp_path):
        """The `indaas watch` JSONL stream and the server's job event
        stream are the same schema: kind, event, seq, elapsed_seconds."""
        import json

        from repro.service import WatchService

        (tmp_path / "net.depdb").write_text(DEPDB)
        (tmp_path / "web.json").write_text(
            json.dumps(
                {
                    "name": "web-tier",
                    "depdb": "net.depdb",
                    "servers": ["S1", "S2"],
                    "seed": 0,
                }
            )
        )
        watch_line = WatchService(tmp_path, sleep=lambda _: None).run_once()
        jobs = manager()
        job = jobs.submit(make_request())
        jobs.run_pending()
        server_event = job.events[-1]
        for key in ("schema_version", "kind", "event", "seq"):
            assert key in watch_line
            assert key in server_event
        assert watch_line["kind"] == server_event["kind"] == "event"
        assert "elapsed_seconds" in watch_line
