"""The :mod:`asyncio` HTTP front end: slow clients cost sockets, not threads.

One event loop serves every route of :mod:`repro.serving.http`:

* **connections** are ``asyncio`` streams — reading the request head and body
  and writing the response are awaited, so a slow or stalled peer (trickling
  its body, reading its answer at modem speed, idling on keep-alive)
  suspends one coroutine (a few KB) rather than occupying a thread;
* **requests** are awaited end to end through the shared request core
  (:func:`~repro.serving.http.dispatch_request`) against the backend's
  awaitable surface: a :class:`~repro.serving.service.PlanService` answers a
  cache hit inline on the loop and awaits a miss's optimization future, and a
  process-shard :class:`~repro.sharding.router.ShardRouter` suspends the
  request on a loop future that the same loop resolves when the shard's
  answer arrives — no handler thread exists anywhere on the request path;
* **overload** is the backend's admission control: a request beyond its
  bound is refused at once with HTTP 503 (``GET /healthz`` never waits on
  the backend — it only checks which shard processes are alive — so
  liveness probing survives saturation);
* **shutdown** is graceful: stop accepting, drain requests in flight against
  a deadline, cancel idle/straggling connections, then (optionally) close
  the backend.

HTTP/1.1 parsing is hand-rolled and minimal (request line, headers,
``Content-Length``-framed bodies, keep-alive) in the repository's
stdlib-only style.  :func:`serve_async` runs the server on the backend's own
event loop when the backend has one (its ``event_loop`` attribute): a
process-shard deployment then runs exactly one event-loop thread, the
:class:`~repro.sharding.multiplexer.ResponseMultiplexer`'s, for sockets and
for the shards' duplex pipes and exit sentinels.  Other backends get a loop
thread of their own.

``benchmarks/bench_async.py`` measures the payoff: K deliberately slow
clients leave fast-client latency through this server at its baseline.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http import HTTPStatus
from typing import Any

from repro.serving.http import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_SECONDS,
    PayloadTooLargeError,
    PlanBackend,
    dispatch_request,
    validated_content_length,
)

__all__ = ["AsyncPlanServer", "AsyncServerHandle", "serve_async"]

_HEAD_LIMIT = 64 * 1024
"""Maximum request-head (request line + headers) size before a 400."""


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """Split a request head into (method, path, version, lowercased headers)."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise ValueError("undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, version, headers


class AsyncPlanServer:
    """The asyncio JSON/HTTP plan server.

    Drive it natively (``await start(); await serve_forever()``) or from
    synchronous code via :func:`serve_async`, which runs the loop on a
    background thread and returns a joinable handle.
    """

    def __init__(
        self,
        plan_service: "PlanBackend",
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        request_timeout: float = REQUEST_TIMEOUT_SECONDS,
    ) -> None:
        self.plan_service = plan_service
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self.request_timeout = request_timeout
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._busy: set[asyncio.Task] = set()
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (idempotent-unsafe: call once)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_HEAD_LIMIT
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        assert self._server is not None, "the server has not been started"
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close_gracefully(
        self, timeout: float = 5.0, *, close_backend: bool = False
    ) -> bool:
        """Stop accepting, drain in-flight requests, then close.

        Connections mid-request get ``timeout`` seconds to finish and are
        cancelled past it; idle keep-alive connections are cancelled
        immediately after the drain.  Returns whether the drain completed in
        time.  With ``close_backend`` the backend is closed last, so drained
        requests are answered first.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        busy = [task for task in self._busy if task is not asyncio.current_task()]
        drained = True
        if busy:
            _, pending = await asyncio.wait(busy, timeout=timeout)
            drained = not pending
        leftovers = [task for task in self._connections if task is not asyncio.current_task()]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)
        if close_backend:
            # Closing a shard tier joins its processes: not on the loop.
            await asyncio.to_thread(self.plan_service.close)
        return drained

    # -- the connection loop ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        try:
            while not self._closing:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), self.request_timeout
                    )
                except asyncio.IncompleteReadError:
                    return  # the client closed (cleanly, between requests)
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, 400, {"error": "request head too large"}, close=True
                    )
                    return
                except (TimeoutError, asyncio.TimeoutError):
                    # (asyncio.TimeoutError is distinct before Python 3.11)
                    return  # stalled client: costs this socket, nothing else
                try:
                    method, path, version, headers = _parse_head(head)
                except ValueError as error:
                    await self._respond(writer, 400, {"error": str(error)}, close=True)
                    return
                body = b""
                if method == "POST":
                    try:
                        length = validated_content_length(
                            headers.get("content-length"), self.max_body_bytes
                        )
                    except PayloadTooLargeError as error:
                        await self._respond(writer, 413, {"error": str(error)}, close=True)
                        return
                    except ValueError as error:
                        await self._respond(writer, 400, {"error": str(error)}, close=True)
                        return
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length), self.request_timeout
                        )
                    except asyncio.IncompleteReadError as error:
                        await self._respond(
                            writer,
                            400,
                            {
                                "error": f"truncated request body "
                                f"({len(error.partial)} of {length} bytes)"
                            },
                            close=True,
                        )
                        return
                    except (TimeoutError, asyncio.TimeoutError):
                        return  # half-sent body then silence: drop the socket
                self._busy.add(task)
                try:
                    status, payload = await dispatch_request(
                        self.plan_service, method, path, body, headers.get("x-trace-id")
                    )
                    keep_alive = (
                        status < 400
                        and version == "HTTP/1.1"
                        and headers.get("connection", "").lower() != "close"
                    )
                    await self._respond(writer, status, payload, close=not keep_alive)
                finally:
                    self._busy.discard(task)
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            pass  # graceful-close cancellation of an idle/straggling connection
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass  # the peer vanished mid-conversation, or never read its answer
        finally:
            self._connections.discard(task)
            self._busy.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, Any] | str",
        close: bool,
    ) -> None:
        if isinstance(payload, str):
            # The Prometheus exposition of GET /metrics: already-rendered text.
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        # Bounded drain: a peer that never reads its response releases this
        # coroutine at the timeout instead of holding it forever.
        await asyncio.wait_for(writer.drain(), self.request_timeout)


class AsyncServerHandle:
    """A running :class:`AsyncPlanServer` driven by a background loop thread.

    What synchronous callers (tests, the CLI's ``repro serve``) hold:
    exposes the bound address and a blocking :meth:`close` that performs the
    server's graceful shutdown and, when the loop thread is the handle's own
    (``thread`` given), stops and joins it.  A borrowed loop runs on.
    """

    def __init__(
        self,
        server: AsyncPlanServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread | None,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def close(self, timeout: float = 5.0, *, close_backend: bool = False) -> bool:
        """Gracefully close the server and stop the loop thread (idempotent)."""
        if self._closed:
            return True
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.close_gracefully(timeout, close_backend=close_backend), self._loop
        )
        try:
            drained = future.result(timeout=timeout + 10.0)
        finally:
            if self._thread is not None:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=10.0)
                if not self._thread.is_alive():
                    self._loop.close()
        return drained

    def __enter__(self) -> "AsyncServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve_async(
    plan_service: "PlanBackend",
    host: str = "127.0.0.1",
    port: int = 8080,
    **server_options: Any,
) -> AsyncServerHandle:
    """Start an :class:`AsyncPlanServer` on a background event-loop thread.

    The thread is the backend's own loop when it has one (``event_loop``,
    e.g. a process-shard router's multiplexer), else a new ``aserver-loop``
    thread.  Returns once the socket is bound (binding errors re-raise here);
    the handle's :meth:`~AsyncServerHandle.close` shuts everything down
    gracefully.  ``server_options`` are forwarded (``max_body_bytes``,
    ``request_timeout``).
    """
    server = AsyncPlanServer(plan_service, host, port, **server_options)
    loop = getattr(plan_service, "event_loop", None)
    if loop is not None:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result()
        return AsyncServerHandle(server, loop, None)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    startup_error: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            startup_error.append(error)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True, name="aserver-loop")
    thread.start()
    started.wait()
    if startup_error:
        thread.join(timeout=5.0)
        loop.close()
        raise startup_error[0]
    return AsyncServerHandle(server, loop, thread)
