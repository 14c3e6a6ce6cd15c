"""HTTP/1.1 front end for the audit service (stdlib only).

One :class:`AuditServer` owns a listening socket and serves each
connection on a thread of its own, built on :mod:`socketserver`: the
thread parses a request, dispatches it with :meth:`Router.dispatch`
(the :class:`~repro.service.jobs.JobManager` API is blocking) and
writes the answer, then waits for the connection's next keep-alive
request.  A request therefore runs on one thread from its first byte
to its last, and a slow audit job or a parked long-poll holds only its
own connection, never accepts, health checks or other tenants'
submissions.

Two bounds keep the thread count finite: past
:data:`_MAX_CONNECTIONS` open connections a new one is answered ``503``
with ``Retry-After`` and closed, and a keep-alive connection idle for
:data:`_IDLE_TIMEOUT` seconds is closed (the retrying client reopens
it).

The wire protocol is deliberately minimal HTTP/1.1: request line +
headers, ``Content-Length`` bodies and keep-alive.  That is exactly the
subset ``http.client`` (the :mod:`repro.agents.transport` client) and
``curl`` speak.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Optional

from repro.errors import ServiceError
from repro.service.jobs import JobManager
from repro.service.router import Response, Router, error_response

__all__ = ["AuditServer", "ServiceThread"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 32 * 1024 * 1024  # DepDB dumps travel inline

#: Open connections, each with its own thread.  A long-poll on
#: ``/v1/jobs/<id>?wait=S`` (``ServiceClient.wait``) or on
#: ``/v1/jobs/<id>/events/poll`` holds its connection for up to 60 s,
#: so the bound must stay comfortably above the expected number of
#: waiting clients; past it a new connection is refused with 503.
_MAX_CONNECTIONS = 128

#: Seconds a keep-alive connection may sit idle between requests; longer
#: than the 60 s long-poll cap, so only a silent client is closed.
_IDLE_TIMEOUT = 75.0

#: Seconds between the accept loop's checks for :meth:`AuditServer.stop`.
_POLL_SECONDS = 0.05

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class AuditServer:
    """Serve a :class:`JobManager` over HTTP.

    Args:
        manager: The job manager to expose.
        host / port: Bind address; ``port=0`` picks a free port (read
            it back from :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.router = Router(manager)
        self.host = host
        self.port = port
        self._listener: Optional[_Listener] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Bind, then accept connections on a background thread."""
        if self._listener is not None:
            raise ServiceError("server already started")
        self._listener = _Listener((self.host, self.port), self)
        self.port = self._listener.server_address[1]
        threading.Thread(
            target=self._listener.serve_forever,
            args=(_POLL_SECONDS,),
            name="indaas-serve",
            daemon=True,
        ).start()

    def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain the manager, close every connection.

        Idempotent and safe from any thread.  An idle keep-alive
        connection does not hold it up; a request still running when the
        manager has shut down loses its connection.
        """
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.shutdown()  # waits for the accept loop to end
            listener.server_close()
        self.manager.shutdown(drain=drain)
        if listener is not None:
            listener.close_connections()

    # --------------------------- connections -------------------------- #

    def serve_request(self, rfile, wfile) -> bool:
        """Serve one request of a connection; False closes it."""
        try:
            head = _read_head(rfile)
            if head is None:
                return False  # the client closed between requests
            method, path, query, version, headers = _parse_head(head)
            body = _read_body(rfile, headers)
        except ServiceError as exc:  # answer, then close
            wfile.write(_response_bytes(error_response(exc), close=True))
            return False
        response = self.router.dispatch(method, path, body, query, headers)
        wants_close = (
            headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0"
        )
        wfile.write(_response_bytes(response, close=wants_close))
        return not wants_close


class _Connection(socketserver.StreamRequestHandler):
    """One connection's thread: its keep-alive requests, in order."""

    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = _IDLE_TIMEOUT
        super().setup()

    def handle(self) -> None:
        listener = self.server
        try:
            if not listener.admit(self.connection):
                refusal = ServiceError(
                    f"more than {_MAX_CONNECTIONS} open connections",
                    status=503,
                    code="too-many-connections",
                    retry_after=1,
                )
                self.wfile.write(
                    _response_bytes(error_response(refusal), close=True)
                )
                return
            while listener.audit.serve_request(self.rfile, self.wfile):
                pass
        except OSError:
            pass  # idle timeout, reset, or closed by stop()
        finally:
            listener.release(self.connection)


class _Listener(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """The listening socket: a thread per connection, at most
    :data:`_MAX_CONNECTIONS` of them serving requests."""

    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True
    request_queue_size = 128  # listen backlog

    def __init__(self, address: tuple, audit: AuditServer) -> None:
        super().__init__(address, _Connection)
        self.audit = audit
        self._connections: set = set()
        self._lock = threading.Lock()

    def admit(self, connection: socket.socket) -> bool:
        with self._lock:
            if len(self._connections) >= _MAX_CONNECTIONS:
                return False
            self._connections.add(connection)
            return True

    def release(self, connection: socket.socket) -> None:
        with self._lock:
            self._connections.discard(connection)

    def close_connections(self) -> None:
        """Wake every connection thread: its next read ends the
        connection, so an idle one is closed at once."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def _read_head(rfile) -> Optional[bytes]:
    """The request line and headers through their blank line; ``None``
    when the client closed before sending any of it."""
    lines = []
    size = 0
    while True:
        line = rfile.readline(_MAX_HEADER_BYTES + 1 - size)
        size += len(line)
        if size > _MAX_HEADER_BYTES:
            raise _bad_request("headers too large")
        if not line.endswith(b"\n"):
            if lines or line:
                raise _bad_request("truncated request")
            return None
        if line == b"\r\n":
            if lines:
                return b"".join(lines) + line
            continue  # a stray blank line before the request line
        lines.append(line)


def _read_body(rfile, headers: dict) -> bytes:
    raw_length = headers.get("content-length", "0") or "0"
    if not raw_length.isdigit():  # "abc", "-5", "1_0" alike
        raise _bad_request("malformed content-length")
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise _bad_request("body too large", status=413)
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise _bad_request("truncated body")
    return body


def _parse_head(head: bytes) -> tuple[str, str, str, str, dict]:
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise _bad_request("non-ascii request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _bad_request("malformed request line")
    method, target, version = parts
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise _bad_request("malformed header line")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, path, query, version, headers


def _bad_request(message: str, status: int = 400) -> ServiceError:
    return ServiceError(message, status=status, code="bad-request")


def _response_bytes(response: Response, close: bool) -> bytes:
    headers = [
        f"HTTP/1.1 {response.status} "
        f"{_REASONS.get(response.status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    headers.extend(f"{k}: {v}" for k, v in response.headers)
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + response.body


class ServiceThread:
    """An :class:`AuditServer` accepting on a background thread.

    The in-process harness for tests and for ``indaas audit --remote``
    round-trips against a local service: ``start()`` returns once the
    socket is bound (so :attr:`url` is usable immediately) and
    ``stop()`` is safe from any thread.
    """

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = AuditServer(manager, host, port)

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServiceThread":
        self.server.start()
        return self

    def stop(self, drain: bool = True) -> None:
        self.server.stop(drain=drain)
