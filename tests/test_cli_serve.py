"""The ``indaas serve`` verb and ``audit --remote``: live subprocess tests."""

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

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]
DEPDB = (
    '<src="S1" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S2" dst="Internet" route="ToR1,Core1"/>\n'
    '<src="S3" dst="Internet" route="ToR2,Core2"/>\n'
)


@contextlib.contextmanager
def spawn(argv):
    """An ``indaas`` subprocess; on exit it is killed if it still runs,
    reaped, and both its pipes are closed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
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


def wait_for_port(port, timeout=20.0):
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


@pytest.fixture
def depdb_file(tmp_path):
    path = tmp_path / "net.depdb"
    path.write_text(DEPDB)
    return path


@pytest.fixture
def served_port(tmp_path):
    """A live ``indaas serve`` subprocess on an ephemeral-ish port."""
    port = 18131 + (os.getpid() % 200)
    with spawn(["serve", "--port", str(port), "--workers", "2"]) as process:
        try:
            wait_for_port(port)
            yield port
        finally:
            process.terminate()
            process.wait(timeout=20)


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self):
        port = 20131 + (os.getpid() % 200)
        with spawn(["serve", "--port", str(port)]) as process:
            wait_for_port(port)
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=20)
            assert process.returncode == 0
            stderr = process.stderr.read()
            assert "listening on" in stderr
            assert "draining" in stderr

    def test_sigint_also_exits_zero(self):
        port = 19131 + (os.getpid() % 200)
        with spawn(["serve", "--port", str(port)]) as process:
            wait_for_port(port)
            process.send_signal(signal.SIGINT)
            process.wait(timeout=20)
            assert process.returncode == 0

    def test_healthz_over_the_wire(self, served_port):
        conn = http.client.HTTPConnection("127.0.0.1", served_port, timeout=5)
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert payload["kind"] == "health"
        assert payload["workers"] == 2


class TestAuditRemote:
    def test_remote_json_is_bit_identical_to_local(
        self, served_port, depdb_file, capsys
    ):
        argv = [
            "audit",
            str(depdb_file),
            "--servers",
            "S1,S3",
            "--seed",
            "7",
            "--json",
        ]
        assert main(argv) == 0
        local = capsys.readouterr().out
        assert (
            main(argv + ["--remote", f"http://127.0.0.1:{served_port}"]) == 0
        )
        remote = capsys.readouterr().out
        assert remote == local
        payload = json.loads(remote)
        assert payload["kind"] == "audit_report"

    def test_remote_unreachable_is_a_clean_error(self, depdb_file, capsys):
        code = main(
            [
                "audit",
                str(depdb_file),
                "--servers",
                "S1,S3",
                "--remote",
                "http://127.0.0.1:1",
            ]
        )
        assert code != 0
        assert "unreachable" in capsys.readouterr().err


class TestWatchSignals:
    def test_watch_sigterm_exits_zero(self, tmp_path):
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
        with spawn(["watch", str(tmp_path), "--interval", "0.2"]) as process:
            deadline = time.monotonic() + 20
            first_line = None
            while time.monotonic() < deadline and not first_line:
                first_line = process.stdout.readline()
            assert first_line, "watch never produced an iteration"
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=20)
            assert process.returncode == 0
        entry = json.loads(first_line)
        assert entry["kind"] == "event"
        assert entry["event"] == "iteration"


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8130
        assert args.workers == 2
        assert args.per_tenant == 8
        assert args.queue_limit == 64
        # The block size is part of the seeded stream, so a served
        # answer must not depend on a server flag.
        assert not hasattr(args, "block_size")

    def test_block_size_is_not_a_server_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--block-size", "2048"])
        assert exc.value.code == 2
        assert "--block-size" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_no_worker_threads_is_refused(self, workers, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli._run_serve", lambda args: pytest.fail("it served")
        )
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", workers])
        assert exc.value.code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_audit_gains_remote_flags(self):
        args = build_parser().parse_args(
            ["audit", "d.depdb", "--servers", "S1", "--remote",
             "http://h:1", "--tenant", "acme", "--json"]
        )
        assert args.remote == "http://h:1"
        assert args.tenant == "acme"
        assert args.json is True
        assert args.timeout == 300.0
