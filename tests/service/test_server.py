"""The HTTP front end's threads: one per connection, and its two bounds.

Each connection is served on its own thread, so a parked long-poll
holds only its own connection.  Past ``_MAX_CONNECTIONS`` a new
connection is answered 503 with ``Retry-After``; a keep-alive
connection idle for ``_IDLE_TIMEOUT`` seconds is closed, and the client
reopens it on its next call.
"""

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro import api
from repro.agents.transport import ServiceClient
from repro.service import JobManager, ServiceThread
from repro.service import server as server_module

from tests.service.conftest import make_request


@pytest.fixture
def parked_service():
    """A server whose jobs never run (no workers): a long-poll on one
    of them stays parked until its ``wait`` runs out."""
    handle = ServiceThread(JobManager(workers=0)).start()
    yield handle
    handle.stop(drain=False)


def connect(handle) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(
        handle.server.host, handle.server.port, timeout=30
    )


def get(conn: http.client.HTTPConnection, path: str) -> tuple:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, dict(response.headers), response.read()


class TestConnectionCap:
    def test_the_connection_past_the_cap_is_refused_with_503(
        self, parked_service, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_MAX_CONNECTIONS", 2)
        held = [connect(parked_service) for _ in range(2)]
        try:
            for conn in held:  # both accepted, both kept alive
                assert get(conn, "/v1/healthz")[0] == 200
            refused = connect(parked_service)
            status, headers, body = get(refused, "/v1/healthz")
            refused.close()
            assert status == 503
            assert float(headers["Retry-After"]) >= 1
            assert headers["Connection"] == "close"
            assert json.loads(body)["error"]["code"] == "too-many-connections"
            held.pop().close()  # a slot frees once its thread is done
            deadline = time.monotonic() + 10
            while True:
                again = connect(parked_service)
                status = get(again, "/v1/healthz")[0]
                again.close()
                if status == 200 or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert status == 200
        finally:
            for conn in held:
                conn.close()


class TestIdleTimeout:
    def test_an_idle_connection_is_closed_and_the_client_reopens_it(
        self, parked_service, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_IDLE_TIMEOUT", 0.2)
        with socket.create_connection(
            (parked_service.server.host, parked_service.server.port),
            timeout=10,
        ) as idle:
            started = time.monotonic()
            assert idle.recv(1) == b""  # the server closed it
            assert time.monotonic() - started < 5
        with ServiceClient(parked_service.url, retry=None) as client:
            assert client.health()["status"] == "ok"
            time.sleep(0.6)  # the server drops the kept-alive connection
            assert client.health()["status"] == "ok"
            # The second call found the connection closed and was sent
            # once more on a fresh one: no retry policy involved.
            assert (client.request_count, client.retry_count) == (3, 0)

    def test_stop_returns_promptly_with_an_idle_client_connected(self):
        handle = ServiceThread(JobManager(workers=1)).start()
        idle = connect(handle)
        try:
            assert get(idle, "/v1/healthz")[0] == 200  # kept alive
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 5
            # ...and the idle connection was closed, not left to time out.
            assert idle.sock.recv(1) == b""
        finally:
            idle.close()


class TestThreadPerConnection:
    def test_parked_long_polls_do_not_delay_a_submit(self, parked_service):
        conn = connect(parked_service)
        conn.request(
            "POST", "/v1/audits", body=make_request(seed=61).to_json()
        )
        response = conn.getresponse()
        job_id = api.JobStatus.from_json(response.read()).job_id
        conn.close()

        answers = []

        def park() -> None:
            poll = connect(parked_service)
            try:
                answers.append(get(poll, f"/v1/jobs/{job_id}?wait=10")[0])
            finally:
                poll.close()

        polls = [threading.Thread(target=park) for _ in range(20)]
        for thread in polls:
            thread.start()
        # Wait until every poll holds a connection of its own.
        manager = parked_service.server.manager
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            listener = parked_service.server._listener
            with listener._lock:
                if len(listener._connections) >= 20:
                    break
            time.sleep(0.02)
        time.sleep(0.2)  # and has reached its wait
        assert answers == []

        started = time.monotonic()
        submit = connect(parked_service)
        submit.request(
            "POST", "/v1/audits", body=make_request(seed=62).to_json()
        )
        assert submit.getresponse().status == 202
        submit.close()
        assert time.monotonic() - started < 2
        assert answers == []  # the polls are still parked

        manager.cancel(job_id)  # ends every poll at once
        for thread in polls:
            thread.join(timeout=30)
        assert answers == [200] * 20

    def test_concurrent_clients_leave_no_connection_behind(self, parked_service):
        """Many keep-alive clients at once, with threads switching as
        often as possible: every request is answered, and the server's
        connection table ends empty (no lost add or discard)."""
        answers = []

        def client() -> None:
            conn = connect(parked_service)
            try:
                for _ in range(10):
                    answers.append(get(conn, "/v1/healthz")[0])
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [200] * 80
        listener = parked_service.server._listener
        deadline = time.monotonic() + 10
        while listener._connections and time.monotonic() < deadline:
            time.sleep(0.02)
        assert listener._connections == set()
