"""Crash-safety at the HTTP level: real ``indaas serve`` subprocesses.

The PR's acceptance scenario lives here: ``kill -9`` the server mid-job,
restart it with the same ``--state-dir``, and the eventually-served
report is byte-identical to an uninterrupted run's.
"""

import contextlib
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.agents.transport import RetryPolicy, ServiceClient

from tests.service.conftest import DEPDB
from tests.testing.schedules import seeded_schedule

REPO = Path(__file__).resolve().parents[2]
SEED = int(os.environ.get("REPRO_FAULT_SEED", "20140807"))


@contextlib.contextmanager
def spawn(argv):
    """An ``indaas serve`` subprocess; on exit it is killed if it still
    runs, reaped, and both its pipes are closed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        yield process
    finally:
        if process.poll() is None:
            process.kill()
        process.communicate()


def wait_for_port(port, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=1)
            conn.request("GET", "/v1/healthz")
            if conn.getresponse().status == 200:
                conn.close()
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"service on port {port} never became healthy")


def slow_request(seed):
    return api.AuditRequest(
        servers=("S1", "S3"),
        depdb=DEPDB,
        algorithm="sampling",
        rounds=400_000,
        seed=seed,
    )


def client_for(port):
    return ServiceClient(
        f"http://127.0.0.1:{port}",
        retry=RetryPolicy(backoff=0.05, seed=SEED),
    )


class TestKillMinusNine:
    def test_report_after_crash_recovery_is_byte_identical(self, tmp_path):
        port = 21131 + (os.getpid() % 200)
        request = slow_request(seed=31)
        serve_args = ["--port", str(port), "--workers", "1"]

        # Reference: the same request on a server that is never killed.
        with spawn([*serve_args, "--state-dir", str(tmp_path / "ref")]) as process:
            try:
                wait_for_port(port)
                with client_for(port) as client:
                    submitted = client.submit(request)
                    assert (
                        client.wait(submitted.job_id, timeout=120).state
                        == "done"
                    )
                    reference = client.report_bytes(job_id=submitted.job_id)
            finally:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=30)

        # Crash run: kill -9 while the job is in flight.
        state_dir = tmp_path / "crash"
        with spawn([*serve_args, "--state-dir", str(state_dir)]) as process:
            wait_for_port(port)
            with client_for(port) as client:
                submitted = client.submit(request)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if client.status(submitted.job_id).state == "running":
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("job never started running")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)

        # Restart on the same state dir: the job resumes and finishes.
        with spawn([*serve_args, "--state-dir", str(state_dir)]) as process:
            try:
                wait_for_port(port)
                with client_for(port) as client:
                    final = client.wait(submitted.job_id, timeout=120)
                    assert final.state == "done"
                    recovered = client.report_bytes(job_id=submitted.job_id)
                    events, _ = client.events_after(
                        submitted.job_id, 0, wait=0
                    )
                    assert "recovered" in [e["event"] for e in events]
            finally:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=30)
        assert recovered == reference
        # ... and both are the bytes a local run of the request gives.
        assert recovered == api.run_request(request).to_json().encode("utf-8")


class TestSigtermWithQueuedJobs:
    def test_queued_jobs_survive_restart(self, tmp_path):
        """SIGTERM drains the in-flight job; a job still queued behind
        it must reappear after restart and run to completion."""
        port = 22131 + (os.getpid() % 200)
        state_dir = tmp_path / "state"
        serve_args = [
            "--port", str(port), "--workers", "1",
            "--state-dir", str(state_dir),
        ]
        first, second = slow_request(seed=32), slow_request(seed=33)

        with spawn(serve_args) as process:
            wait_for_port(port)
            with client_for(port) as client:
                running = client.submit(first)
                queued = client.submit(second)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
            assert process.returncode == 0

        with spawn(serve_args) as process:
            try:
                wait_for_port(port)
                with client_for(port) as client:
                    for job_id in (running.job_id, queued.job_id):
                        final = client.wait(job_id, timeout=120)
                        assert final.state == "done", (job_id, final.state)
                    health = client.health()
                    assert health["journal"]["enabled"]
                    assert health["journal"]["recovered_jobs"] >= 1
            finally:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=30)


class TestServeInject:
    def test_inject_arms_a_schedule_file(self, tmp_path):
        port = 23131 + (os.getpid() % 200)
        schedule_path = tmp_path / "schedule.json"
        schedule_path.write_text(
            seeded_schedule(SEED, n=2, points=("server.dispatch",)).to_json()
        )
        with spawn(
            ["--port", str(port), "--inject", str(schedule_path)]
        ) as process:
            try:
                wait_for_port(port)
                # Dispatch-level slow faults delay but never break requests.
                with client_for(port) as client:
                    assert client.health()["status"] == "ok"
                    report = client.audit(
                        api.AuditRequest(
                            servers=("S1", "S3"), depdb=DEPDB, seed=34
                        ),
                        timeout=60,
                    )
                direct = api.execute_request(
                    api.AuditRequest(servers=("S1", "S3"), depdb=DEPDB, seed=34)
                )
                assert report.to_json() == api.report_for_request(
                    api.AuditRequest(servers=("S1", "S3"), depdb=DEPDB, seed=34),
                    direct.audit,
                    direct.structural_hash,
                ).to_json()
            finally:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=30)
            assert f"fault injection armed (2 faults, seed={SEED})" in (
                process.stderr.read()
            )

    def test_inject_rejects_malformed_schedules(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "not_a_schedule"}))
        with spawn(["--port", "0", "--inject", str(bad)]) as process:
            _, stderr = process.communicate(timeout=30)
        assert process.returncode != 0
        assert "fault_schedule" in stderr
        # A point that no code crosses arms nothing: refused, not ignored.
        stale = tmp_path / "stale.json"
        stale.write_text(
            json.dumps(
                {
                    "kind": "fault_schedule",
                    "faults": [
                        {"kind": "connection-reset", "point": "server.stream-chunk"}
                    ],
                }
            )
        )
        # A server that accepted the schedule would run on: the context
        # kills it.
        with spawn(["--port", "0", "--inject", str(stale)]) as process:
            _, stderr = process.communicate(timeout=30)
        assert process.returncode != 0
        assert "server.stream-chunk" in stderr
