"""Asyncio HTTP/1.1 front-end for the audit service (stdlib only).

One :class:`AuditServer` owns an ``asyncio.start_server`` socket and a
small thread pool.  The event loop does nothing but byte shuffling:
every dispatched request runs on a pool thread (the
:class:`~repro.service.jobs.JobManager` API is blocking), so a slow
audit job never stalls accepts, health checks or other tenants'
submissions.

The wire protocol is deliberately minimal HTTP/1.1: request line +
headers, ``Content-Length`` bodies and keep-alive.  That is exactly the
subset ``http.client`` (the :mod:`repro.agents.transport` client) and
``curl`` speak.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import ServiceError, SpecificationError
from repro.service.jobs import JobManager
from repro.service.router import Response, Router

__all__ = ["AuditServer", "ServiceThread"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 32 * 1024 * 1024  # DepDB dumps travel inline

#: Pool threads for blocking dispatch.  A long-poll on
#: ``/v1/jobs/<id>?wait=S`` (``ServiceClient.wait``) or on
#: ``/v1/jobs/<id>/events/poll`` parks one thread for up to 60 s, so the
#: pool must stay comfortably above the expected number of waiting
#: clients or their polls starve submissions and health checks.
_HANDLER_THREADS = 16

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
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=_HANDLER_THREADS,
            thread_name_prefix="indaas-http",
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=_MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Close the listener, drain the manager, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.manager.shutdown(drain=drain)
        )
        self._pool.shutdown(wait=False, cancel_futures=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # --------------------------- connections -------------------------- #

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        await self._write_simple(
                            writer, 400, b'{"error":"truncated request"}\n'
                        )
                    return
                except asyncio.LimitOverrunError:
                    await self._write_simple(
                        writer, 400, b'{"error":"headers too large"}\n'
                    )
                    return
                keep_alive = await self._handle_request(head, reader, writer)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancels idle keep-alive handlers; finishing
            # quietly (instead of propagating) keeps teardown silent.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _handle_request(self, head: bytes, reader, writer) -> bool:
        try:
            method, path, query, version, headers = _parse_head(head)
        except SpecificationError as exc:
            await self._write_simple(
                writer, 400, f'{{"error":"{exc}"}}\n'.encode("utf-8")
            )
            return False
        raw_length = headers.get("content-length", "0") or "0"
        if not raw_length.isdigit():  # "abc", "-5", "1_0" alike
            await self._write_simple(
                writer, 400, b'{"error":"malformed content-length"}\n'
            )
            return False
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            await self._write_simple(
                writer, 413, b'{"error":"body too large"}\n'
            )
            return False
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            await self._write_simple(
                writer, 400, b'{"error":"truncated body"}\n'
            )
            return False
        loop = asyncio.get_running_loop()
        response: Response = await loop.run_in_executor(
            self._pool, self.router.dispatch, method, path, body, query,
            headers,
        )
        wants_close = (
            headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0"
        )
        await self._write_response(
            writer, response, close=wants_close
        )
        return not wants_close

    async def _write_response(
        self, writer, response: Response, close: bool
    ) -> None:
        headers = [
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        headers.extend(f"{k}: {v}" for k, v in response.headers)
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("ascii")
            + response.body
        )
        await writer.drain()

    async def _write_simple(self, writer, status: int, body: bytes) -> None:
        await self._write_response(
            writer,
            Response(status=status, body=body),
            close=True,
        )


def _parse_head(head: bytes) -> tuple[str, str, str, str, dict]:
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise SpecificationError("non-ascii request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise SpecificationError("malformed request line")
    method, target, version = parts
    path, _, query = target.partition("?")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise SpecificationError("malformed header line")
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, path, query, version, headers


class ServiceThread:
    """Run an :class:`AuditServer` on a background event-loop thread.

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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stopped: Optional[asyncio.Event] = None
        self._failure: Optional[BaseException] = None
        self._drain = True
        self._thread = threading.Thread(
            target=self._run, name="indaas-serve", daemon=True
        )

    @property
    def url(self) -> str:
        return self.server.url

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceError("service thread failed to start in time")
        if self._failure is not None:
            raise ServiceError(f"service thread died: {self._failure}")
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._loop is None or self._stopped is None:
            return
        self._drain = drain
        self._loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._failure = exc
            self._started.set()

    async def _main(self) -> None:
        self._stopped = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._started.set()
        await self._stopped.wait()
        await self.server.stop(drain=self._drain)
