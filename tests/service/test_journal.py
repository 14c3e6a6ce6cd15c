"""Durable job journal: append/replay, crash repair, manager recovery.

The contract under test is the PR's hard one: a server killed at any
point and restarted with the same ``--state-dir`` serves every finished
report byte-identically and re-runs every unfinished job to the exact
bytes the uninterrupted run would have produced (seeded determinism).
"""

import errno
import json

import pytest

from repro import api
from repro.errors import ServiceError
from repro.service import JobManager
from repro.service import jobs as jobs_module
from repro.service import journal as journal_module
from repro.service.journal import (
    JobJournal,
    event_record,
    report_record,
    submitted_record,
)
from repro.testing.faults import Fault, FaultInjector, FaultSchedule

from tests.service.conftest import make_request


def manager_with(state_dir, **kwargs) -> JobManager:
    kwargs.setdefault("workers", 0)
    return JobManager(state_dir=state_dir, **kwargs)


def crash(manager: JobManager) -> None:
    """Simulate a hard kill: drop the manager without shutdown()."""
    manager.journal.close()


def direct_bytes(request: api.AuditRequest) -> bytes:
    result = api.execute_request(request)
    return (
        api.report_for_request(request, result.audit, result.structural_hash)
        .to_json()
        .encode("utf-8")
    )


def count_fsyncs(monkeypatch) -> list:
    """Count the journal's fsyncs (file and directory) from now on."""
    synced = []
    fsync = journal_module.os.fsync

    def counting(fd):
        synced.append(fd)
        fsync(fd)

    monkeypatch.setattr(journal_module.os, "fsync", counting)
    return synced


def retention_view(manager: JobManager, job_id: str) -> tuple:
    """What a client reads of a job: status, events and report bytes."""
    return (
        manager.status(job_id).to_dict(),
        manager.events_after(job_id, 0),
        manager.get(job_id).report_bytes,
    )


def submitted(job_id: str) -> dict:
    return submitted_record(job_id, "t", {"kind": "audit_request"}, None)


def queued(job_id: str) -> dict:
    return event_record(api.job_event("queued", seq=2, job_id=job_id))


#: One cold job of ``make_request()`` as a release whose ``audited`` and
#: ``done`` events carried ``engine_cache_hit`` journalled it.
EARLIER_RELEASE_LOG = r"""{"fingerprint":"0516c3937bf347df44cb4a39e4e3f2202a8798fca3c2863a17402765e2c862dc","job_id":"job-000001","record":"submitted","request":{"adaptive":false,"algorithm":"minimal","base":null,"depdb":"<src=\"S1\" dst=\"Internet\" route=\"ToR1,Core1\"/>\n<src=\"S2\" dst=\"Internet\" route=\"ToR1,Core1\"/>\n<src=\"S3\" dst=\"Internet\" route=\"ToR2,Core2\"/>\n","deployment":"S1 & S3","kind":"audit_request","max_order":null,"metadata":{},"probability":null,"ranking":"size","required":1,"rounds":100000,"sample_probability":0.5,"schema_version":1,"seed":7,"servers":["S1","S3"],"tenant":"default","top_n":null},"tenant":"default"}
{"event":{"event":"submitted","job_id":"job-000001","kind":"event","schema_version":1,"seq":1,"tenant":"default"},"job_id":"job-000001","record":"event"}
{"event":{"event":"queued","job_id":"job-000001","kind":"event","queue_position":0,"schema_version":1,"seq":2},"job_id":"job-000001","record":"event"}
{"event":{"event":"started","job_id":"job-000001","kind":"event","schema_version":1,"seq":3,"state":"running"},"job_id":"job-000001","record":"event"}
{"event":{"event":"compiled","events":13,"job_id":"job-000001","kind":"event","schema_version":1,"seq":4,"structural_hash":"61ce0e5e9311fef5a318c1c7bcdb5b9280203b5ecf84e6cb9d19efad79cd31fb"},"job_id":"job-000001","record":"event"}
{"event":{"engine_cache_hit":false,"event":"audited","job_id":"job-000001","kind":"event","schema_version":1,"seq":5},"job_id":"job-000001","record":"event"}
{"job_id":"job-000001","record":"report","report_key":"6d55790205d1c7e16b7e6ebcb5165dc8f4e872cb828cb331782a02c1bc6f9de1","sha256":"2a560e253a47499110d714f8609f44cdbc36a538530911e633a9d61facbf532e","structural_hash":"61ce0e5e9311fef5a318c1c7bcdb5b9280203b5ecf84e6cb9d19efad79cd31fb"}
{"elapsed":0.0016885910008568317,"event":{"engine_cache_hit":false,"event":"done","job_id":"job-000001","kind":"event","report_key":"6d55790205d1c7e16b7e6ebcb5165dc8f4e872cb828cb331782a02c1bc6f9de1","schema_version":1,"seq":6,"state":"done","structural_hash":"61ce0e5e9311fef5a318c1c7bcdb5b9280203b5ecf84e6cb9d19efad79cd31fb"},"job_id":"job-000001","record":"event"}
"""
EARLIER_RELEASE_REPORT_SHA = (
    "2a560e253a47499110d714f8609f44cdbc36a538530911e633a9d61facbf532e"
)


class TestJobJournal:
    def test_append_then_replay_round_trips(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append(
            "job-000001",
            submitted_record(
                "job-000001", "acme", {"kind": "audit_request"}, "f" * 64
            ),
        )
        journal.append("job-000001", queued("job-000001"))
        journal.close()
        jobs = list(JobJournal(tmp_path).replay())
        assert [job.job_id for job in jobs] == ["job-000001"]
        assert jobs[0].tenant == "acme"
        assert jobs[0].fingerprint == "f" * 64
        assert jobs[0].state == "queued"
        assert len(jobs[0].events) == 1

    def test_replay_orders_by_job_number(self, tmp_path):
        journal = JobJournal(tmp_path)
        for job_id in ("job-000010", "job-000002", "job-000001"):
            journal.append(job_id, submitted(job_id))
        journal.close()
        jobs = list(JobJournal(tmp_path).replay())
        assert [job.job_id for job in jobs] == [
            "job-000001", "job-000002", "job-000010",
        ]

    def test_partial_trailing_line_is_dropped_and_truncated(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("job-000001", submitted("job-000001"))
        journal.append("job-000001", queued("job-000001"))
        journal.close()
        path = tmp_path / "journal.jsonl"
        intact = path.read_bytes()
        # A crash mid-append leaves half a line, no newline.
        path.write_bytes(intact + b'{"record": "event", "ev')
        jobs = list(JobJournal(tmp_path).replay())
        assert len(jobs[0].events) == 1  # torn record never surfaces
        assert path.read_bytes() == intact  # file repaired in place

    def test_torn_middle_line_discards_the_suspect_tail(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("job-000001", submitted("job-000001"))
        journal.close()
        path = tmp_path / "journal.jsonl"
        good = path.read_bytes()
        path.write_bytes(good + b'{"torn": \n{"record": "event"}\n')
        jobs = list(JobJournal(tmp_path).replay())
        assert jobs[0].events == []
        assert path.read_bytes() == good

    def test_file_without_submitted_record_is_ignored(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append("job-000009", queued("job-000009"))
        journal.close()
        assert list(JobJournal(tmp_path).replay()) == []

    def test_zeroed_line_is_a_torn_write(self, tmp_path):
        # Ten zero bytes and a newline read as truncated UTF-32 text,
        # not as bad JSON: still a torn write, never a failed replay.
        journal = JobJournal(tmp_path)
        journal.append("job-000001", submitted("job-000001"))
        journal.close()
        path = tmp_path / "journal.jsonl"
        good = path.read_bytes()
        path.write_bytes(good + bytes(10) + b"\n")
        jobs = list(JobJournal(tmp_path).replay())
        assert jobs[0].events == []
        assert path.read_bytes() == good

    def test_batch_is_one_write_and_one_fsync(self, tmp_path, monkeypatch):
        journal = JobJournal(tmp_path)
        journal.append("job-000001", submitted("job-000001"))
        synced = count_fsyncs(monkeypatch)
        journal.append(
            "job-000001",
            queued("job-000001"),
            report_record("a" * 64, "k", "h"),
            event_record(api.job_event("done", seq=3, job_id="job-000001")),
        )
        journal.close()
        assert len(synced) == 1
        job = list(JobJournal(tmp_path).replay())[0]
        assert (job.state, job.report_sha) == ("done", "a" * 64)

    @pytest.mark.parametrize("failure", ["fault-point", "fsync"])
    def test_disk_full_at_a_batched_append_truncates_the_whole_batch(
        self, tmp_path, monkeypatch, failure
    ):
        journal = JobJournal(tmp_path)
        journal.append("job-000001", submitted("job-000001"))
        path = tmp_path / "journal.jsonl"
        before = path.read_bytes()
        batch = (
            report_record("a" * 64, "k", "h"),
            event_record(api.job_event("done", seq=2, job_id="job-000001")),
        )
        if failure == "fault-point":
            # Raised at the journal.append point, before the write.
            schedule = FaultSchedule(
                (Fault(kind="disk-full", point="journal.append", at=0),)
            )
            with FaultInjector(schedule), pytest.raises(OSError):
                journal.append("job-000001", *batch)
        else:
            # Raised by the fsync, after the whole batch was written.
            def full(fd):
                raise OSError(errno.ENOSPC, "disk full")

            with monkeypatch.context() as patch, pytest.raises(OSError):
                patch.setattr(journal_module.os, "fsync", full)
                journal.append("job-000001", *batch)
        assert path.read_bytes() == before
        journal.append("job-000001", queued("job-000001"))
        journal.close()
        job = list(JobJournal(tmp_path).replay())[0]
        assert (job.state, job.report_sha) == ("queued", None)

    def test_report_store_is_content_addressed_and_verifying(self, tmp_path):
        journal = JobJournal(tmp_path)
        sha = journal.store_report(b'{"kind": "audit_report"}')
        assert journal.store_report(b'{"kind": "audit_report"}') == sha
        assert journal.load_report(sha) == b'{"kind": "audit_report"}'
        assert journal.load_report("0" * 64) is None
        # Corruption is detected, not served.
        (tmp_path / "reports" / f"{sha}.json").write_bytes(b"garbage")
        assert journal.load_report(sha) is None


class TestManagerRecovery:
    def test_finished_report_survives_restart_byte_identical(self, tmp_path):
        request = make_request(seed=81)
        first = manager_with(tmp_path)
        job = first.submit(request)
        first.run_pending()
        served = first.get(job.id).report_bytes
        assert first.get(job.id).state == "done"
        crash(first)

        second = manager_with(tmp_path)
        restored = second.get(job.id)
        assert restored.state == "done"
        assert restored.recovered
        assert restored.report_bytes == served == direct_bytes(request)
        assert second.stats()["journal"]["recovered_jobs"] == 1
        second.shutdown()

    def test_queued_job_is_rerun_to_identical_bytes(self, tmp_path):
        request = make_request(seed=82)
        first = manager_with(tmp_path)
        job = first.submit(request)  # workers=0: stays queued
        crash(first)

        second = manager_with(tmp_path)
        restored = second.get(job.id)
        assert restored.state == "queued"
        assert [e["event"] for e in restored.events][-1] == "recovered"
        second.run_pending()
        assert second.get(job.id).state == "done"
        assert second.get(job.id).report_bytes == direct_bytes(request)
        second.shutdown()

    def test_restored_fingerprint_makes_resubmit_a_cache_hit(self, tmp_path):
        request = make_request(seed=83)
        first = manager_with(tmp_path)
        first.submit(request)
        first.run_pending()
        crash(first)

        second = manager_with(tmp_path)
        repeat = second.submit(request)
        assert repeat.state == "done"
        assert repeat.cached
        second.shutdown()

    def test_failed_job_restores_without_rerun(self, tmp_path):
        request = make_request(seed=84, depdb="not a depdb line")
        first = manager_with(tmp_path)
        job = first.submit(request)
        first.run_pending()
        assert first.get(job.id).state == "failed"
        crash(first)

        second = manager_with(tmp_path)
        restored = second.get(job.id)
        assert restored.state == "failed"
        assert restored.error is not None
        second.shutdown()

    def test_lost_report_bytes_requeue_the_job(self, tmp_path):
        request = make_request(seed=85)
        first = manager_with(tmp_path)
        job = first.submit(request)
        first.run_pending()
        crash(first)
        for path in (tmp_path / "reports").glob("*.json"):
            path.unlink()  # the content-addressed bytes vanish

        second = manager_with(tmp_path)
        assert second.get(job.id).state == "queued"
        second.run_pending()
        assert second.get(job.id).report_bytes == direct_bytes(request)
        second.shutdown()

    def test_a_log_with_engine_cache_hit_fields_recovers(self, tmp_path):
        """Events written before the field was removed replay as written
        and the job serves the same bytes."""
        request = make_request()
        (tmp_path / "journal.jsonl").write_text(EARLIER_RELEASE_LOG)
        journal = JobJournal(tmp_path)
        assert journal.store_report(direct_bytes(request)) == (
            EARLIER_RELEASE_REPORT_SHA
        )
        journal.close()
        manager = manager_with(tmp_path)
        job = manager.get("job-000001")
        assert job.state == "done"
        assert job.report_bytes == direct_bytes(request)
        assert [e.get("engine_cache_hit") for e in job.events[-2:]] == [
            False,
            False,
        ]
        repeat = manager.submit(request)
        assert repeat.cached and repeat.report_bytes == job.report_bytes
        manager.shutdown()

    def test_resume_false_starts_empty(self, tmp_path):
        first = manager_with(tmp_path)
        job = first.submit(make_request(seed=86))
        crash(first)
        second = manager_with(tmp_path, resume=False)
        with pytest.raises(Exception):
            second.get(job.id)
        second.shutdown()

    def test_resume_false_numbers_past_the_journal(self, tmp_path):
        # Reusing job-000001 would append the new job to the old file,
        # and a later resumed server would replay the two as one job.
        first = manager_with(tmp_path)
        old = first.submit(make_request(seed=1))
        first.run_pending()
        first.shutdown()
        second = manager_with(tmp_path, resume=False)
        new = second.submit(make_request(seed=2))
        assert new.id != old.id
        second.shutdown(drain=False)

        third = manager_with(tmp_path)
        restored = third.get(old.id)
        assert (restored.state, restored.request.seed) == ("done", 1)
        assert restored.report_bytes == direct_bytes(make_request(seed=1))
        cancelled = third.get(new.id)
        assert (cancelled.state, cancelled.request.seed) == ("cancelled", 2)
        assert cancelled.report_key is None
        third.shutdown()

    def test_unseeded_requests_journal_without_fingerprint(self, tmp_path):
        request = make_request(seed=None)
        first = manager_with(tmp_path)
        job = first.submit(request)
        first.run_pending()
        crash(first)
        path = tmp_path / "journal.jsonl"
        submitted = json.loads(path.read_text().splitlines()[0])
        assert submitted["fingerprint"] is None

        second = manager_with(tmp_path)
        # Recovered fine, but never content-addressed: a resubmit runs.
        assert second.get(job.id).state == "done"
        repeat = second.submit(request)
        assert repeat.state != "done"
        second.shutdown()

    def test_counter_resumes_past_journaled_ids(self, tmp_path):
        first = manager_with(tmp_path)
        job = first.submit(make_request(seed=87))
        crash(first)
        second = manager_with(tmp_path)
        new = second.submit(make_request(seed=88))
        assert new.id != job.id
        assert new.number > second.get(job.id).number if hasattr(new, "number") else True
        second.shutdown()


class TestOneFsyncPerStateChange:
    """Each state change is one append: one write, one fsync."""

    def test_the_log_is_created_with_one_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        synced = count_fsyncs(monkeypatch)
        JobJournal(tmp_path).close()
        assert len(synced) == 1
        JobJournal(tmp_path).close()  # reopened, not created
        assert len(synced) == 1

    def test_born_done_job_costs_one_fsync(self, tmp_path, monkeypatch):
        request = make_request(seed=92)
        manager = manager_with(tmp_path)
        manager.submit(request)
        manager.run_pending()
        synced = count_fsyncs(monkeypatch)
        stored = []
        store_report = JobJournal.store_report

        def counting_store(journal, data):
            stored.append(data)
            return store_report(journal, data)

        monkeypatch.setattr(JobJournal, "store_report", counting_store)
        repeat = manager.submit(request)
        assert repeat.cached
        # Submitted + report + the three admission events in one
        # append; the cache knows the stored bytes' address, so they
        # are neither hashed nor looked up again.
        assert len(synced) == 1
        assert stored == []
        manager.shutdown()

    def test_cold_job_costs_seven_fsyncs(self, tmp_path, monkeypatch):
        manager = manager_with(tmp_path)
        synced = count_fsyncs(monkeypatch)  # the log exists from here
        job = manager.submit(make_request(seed=93))
        manager.run_pending()
        assert manager.get(job.id).state == "done"
        # Admission (submitted, submitted/queued events), started,
        # compiled, audited, the report bytes and their directory, then
        # report + done in one append.
        assert len(synced) == 7
        manager.shutdown()

    @pytest.mark.parametrize(
        "tear",
        ["mid-report", "mid-done", "report-zeroed", "report-zeroed-to-newline"],
    )
    def test_torn_completion_batch_replays_to_a_prefix(self, tmp_path, tear):
        request = make_request(seed=94)
        first = manager_with(tmp_path)
        job = first.submit(request)
        first.run_pending()
        crash(first)
        path = tmp_path / "journal.jsonl"
        *head, report, done = path.read_bytes().splitlines(keepends=True)
        assert json.loads(report)["record"] == "report"
        assert json.loads(done)["event"]["event"] == "done"
        head = b"".join(head)
        torn = {
            "mid-report": report[: len(report) // 2],
            "mid-done": report + done[: len(done) // 2],
            "report-zeroed": bytes(len(report)) + done,
            "report-zeroed-to-newline": bytes(len(report) - 1) + b"\n" + done,
        }[tear]
        path.write_bytes(head + torn)

        (replayed,) = JobJournal(tmp_path).replay()
        kept = report if tear == "mid-done" else b""
        assert path.read_bytes() == head + kept
        assert replayed.state == "running"  # never done
        assert (replayed.report_sha is not None) == (tear == "mid-done")

        second = manager_with(tmp_path)
        assert second.get(job.id).state == "queued"
        second.run_pending()
        assert second.get(job.id).report_bytes == direct_bytes(request)
        second.shutdown()


class TestJournalDegradation:
    def test_disk_full_degrades_but_jobs_still_finish(self, tmp_path):
        schedule = FaultSchedule(
            (Fault(kind="disk-full", point="journal.append", at=0),)
        )
        with FaultInjector(schedule) as injector:
            manager = manager_with(tmp_path)
            request = make_request(seed=89)
            job = manager.submit(request)
            manager.run_pending()
        assert injector.fired
        assert manager.get(job.id).state == "done"
        assert manager.get(job.id).report_bytes == direct_bytes(request)
        journal_stats = manager.stats()["journal"]
        assert journal_stats["degraded"] is True
        assert journal_stats["errors"] >= 1
        manager.shutdown()

    def test_degraded_manager_never_serves_partial_journals(self, tmp_path):
        # A cold job crosses journal.append five times: 0 admission
        # (submitted + submitted/queued events), 1 started, 2 compiled,
        # 3 audited, 4 report + done.  Index 2 hits the mid-job
        # ``compiled`` progress event.
        schedule = FaultSchedule(
            (Fault(kind="disk-full", point="journal.append", at=2),)
        )
        with FaultInjector(schedule):
            manager = manager_with(tmp_path)
            manager.submit(make_request(seed=90))
            manager.run_pending()
            crash(manager)
        # Whatever survived on disk must replay cleanly (no torn lines,
        # no half-written jobs resurrected in a bogus state).
        recovered = manager_with(tmp_path)
        for job in recovered._jobs.values():
            assert job.state in ("queued", "running", "done", "failed", "cancelled")
        recovered.shutdown()

    @pytest.mark.parametrize(
        "at",
        range(5),
        ids=["admission", "started", "compiled", "audited", "report-done"],
    )
    def test_disk_full_at_each_append_recovers_identical_bytes(
        self, tmp_path, at
    ):
        request = make_request(seed=95)
        schedule = FaultSchedule(
            (Fault(kind="disk-full", point="journal.append", at=at),)
        )
        with FaultInjector(schedule) as injector:
            manager = manager_with(tmp_path)
            job = manager.submit(request)
            manager.run_pending()
            crash(manager)
        assert injector.fired[0]["crossing"] == at
        assert manager.get(job.id).report_bytes == direct_bytes(request)
        recovered = manager_with(tmp_path)
        # A failed admission journalled nothing; any later failure left
        # an unfinished job that re-runs to the same bytes.
        assert len(recovered._jobs) == (0 if at == 0 else 1)
        recovered.run_pending()
        for restored in recovered._jobs.values():
            assert restored.state == "done"
            assert restored.report_bytes == direct_bytes(request)
        recovered.shutdown()


def log_job_ids(path) -> list:
    """The job id of every record in the log, in log order."""
    return [json.loads(line)["job_id"] for line in path.read_bytes().splitlines()]


class TestOneLog:
    """Every job's records go to one log, read back through an index."""

    def test_interleaved_jobs_replay_and_read_back_byte_identically(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(jobs_module, "MAX_RETAINED_JOBS", 1)
        first = manager_with(tmp_path)
        a = first.submit(make_request(seed=101))
        b = first.submit(make_request(seed=102))  # queued behind a
        first.run_pending(max_jobs=1)  # a runs and finishes
        c = first.submit(make_request(seed=101))  # a cache hit of a
        first.run_pending()  # b runs and finishes
        d = first.submit(make_request(seed=103))
        first.run_pending()
        ids = log_job_ids(tmp_path / "journal.jsonl")
        # b's records straddle a's and c's: the jobs really interleave.
        first_b, last_b = ids.index(b.id), len(ids) - 1 - ids[::-1].index(b.id)
        assert {a.id, c.id} <= set(ids[first_b:last_b])
        assert set(first._jobs) == {d.id}  # a, b and c were dropped
        served = {job.id: retention_view(first, job.id) for job in (a, b, c, d)}
        assert served[c.id][0]["cached"] is True
        crash(first)

        second = manager_with(tmp_path)
        for job_id, before in served.items():
            assert retention_view(second, job_id) == before
        second.shutdown()

    def test_a_rerun_job_reads_back_its_rerun(self, tmp_path, monkeypatch):
        # A done job whose report bytes were lost is re-queued and run
        # again; read back after that, it must answer the re-run's
        # events, not stop at the first run's `done`.
        monkeypatch.setattr(jobs_module, "MAX_RETAINED_JOBS", 1)
        first = manager_with(tmp_path)
        job = first.submit(make_request(seed=105))
        first.run_pending()
        crash(first)
        for path in (tmp_path / "reports").glob("*.json"):
            path.unlink()

        second = manager_with(tmp_path)
        second.run_pending()
        before = retention_view(second, job.id)
        assert "recovered" in [e["event"] for e in before[1][0]]
        second.submit(make_request(seed=106))
        second.run_pending()  # drops the re-run job
        assert job.id not in second._jobs
        assert retention_view(second, job.id) == before
        crash(second)

        third = manager_with(tmp_path)
        assert retention_view(third, job.id) == before
        third.shutdown()

    @pytest.mark.parametrize("tail", ["partial", "zeroed"])
    def test_a_torn_last_line_is_cut_and_the_log_stays_appendable(
        self, tmp_path, tail
    ):
        journal = JobJournal(tmp_path)
        journal.append("job-000001", submitted("job-000001"))
        journal.append("job-000002", submitted("job-000002"))
        journal.close()
        path = tmp_path / "journal.jsonl"
        intact = path.read_bytes()
        torn = {"partial": b'{"job_id": "job-000001", "rec', "zeroed": bytes(7)}
        path.write_bytes(intact + torn[tail])

        journal = JobJournal(tmp_path)
        assert path.read_bytes() == intact
        assert journal.last_number == 2
        journal.append("job-000001", queued("job-000001"))
        journal.append("job-000003", submitted("job-000003"))
        journal.close()
        jobs = {job.job_id: job for job in JobJournal(tmp_path).replay()}
        assert sorted(jobs) == ["job-000001", "job-000002", "job-000003"]
        assert len(jobs["job-000001"].events) == 1

    def test_read_seeks_to_the_jobs_own_records(self, tmp_path):
        journal = JobJournal(tmp_path)
        for number in (1, 2):
            journal.append(f"job-00000{number}", submitted(f"job-00000{number}"))
        journal.append("job-000002", queued("job-000002"))
        journal.append("job-000001", queued("job-000001"))
        done = event_record(api.job_event("done", seq=3, job_id="job-000001"))
        journal.append("job-000001", done)
        journal.append("job-000002", done)  # another job's record
        for reader in (journal, JobJournal(tmp_path)):  # live, rescanned
            one = reader.read("job-000001")
            assert (one.state, len(one.events)) == ("done", 2)
            two = reader.read("job-000002")
            assert [e["event"] for e in two.events] == ["queued", "done"]
            assert reader.read("job-000003") is None
            assert reader.read("job-1") is None  # same number, not its id
        journal.close()

    def test_every_record_names_its_job(self, tmp_path):
        manager = manager_with(tmp_path)
        job = manager.submit(make_request(seed=104))
        manager.run_pending()
        manager.shutdown()
        assert set(log_job_ids(tmp_path / "journal.jsonl")) == {job.id}

    def test_an_old_layout_state_dir_is_refused(self, tmp_path):
        (tmp_path / "jobs").mkdir()
        (tmp_path / "jobs" / "job-000001.jsonl").write_text("{}\n")
        with pytest.raises(ServiceError) as caught:
            manager_with(tmp_path)
        assert caught.value.code == "old-state-layout"
        assert "jobs" in str(caught.value)
        assert not (tmp_path / "journal.jsonl").exists()
