"""One event loop over every process shard's pipe and exit sentinel.

A :class:`~repro.sharding.process.ProcessShard` talks to its child over one
duplex pipe.  Instead of one reader thread per shard, *one* thread runs an
:mod:`asyncio` event loop that watches every registered shard's pipe with
``loop.add_reader`` and dispatches each ``(request_id, ok, payload, spans)``
answer to the owning shard's callback.  Every router and standalone shard in
a process shares the same process-wide multiplexer
(:func:`default_multiplexer`) — shard count scales without the thread count
following it.

The loop is not private: a process-shard router hands it to the HTTP front
end (:func:`repro.serving.aserver.serve_async`), which then serves its sockets
on the same thread.  A shard answer that a request awaits on this loop
resolves that request's loop future right here, with no thread hand-off.

A shard registers its pipe, its child's :attr:`multiprocessing.Process.sentinel`
and two callbacks (``on_message`` for answers, ``on_death`` to fail its
waiters), and unregisters on close.  A shard's death is an event, not a poll:
the loop watches the sentinels too, and schedules no timer.  When a child's
sentinel fires (it exited) or its pipe reaches end of file (or a frame cut
short), the loop first reads every answer still buffered in the pipe, then
drops the port and calls ``on_death`` — so a dying shard's finished answers
reach their callers before its other waiters fail.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
from typing import Any, Callable, NamedTuple

__all__ = ["ResponseMultiplexer", "default_multiplexer"]


class _Port(NamedTuple):
    """One registered shard: its pipe, its child's exit sentinel, its callbacks."""

    connection: Any
    fileno: int
    on_message: Callable[[tuple], None]
    sentinel: int | None
    on_death: Callable[[], None] | None


async def _run(function: Callable, args: tuple):
    return function(*args)


class ResponseMultiplexer:
    """One event-loop thread correlating every registered shard's answers.

    Thread-safe: ports may be registered/unregistered from any thread; the
    change is made on the loop thread before the call returns.  The loop
    thread starts lazily, on the first registration or :attr:`loop` access.
    """

    def __init__(self, name: str = "shard-mux") -> None:
        self._name = name
        self._lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None  # guarded-by: _lock
        self._thread: threading.Thread | None = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._ports: set[_Port] = set()  # touched on the loop thread only

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The running event loop (started on first use)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the response multiplexer has been closed")
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._thread = threading.Thread(
                    target=self._loop.run_forever, name=self._name, daemon=True
                )
                self._thread.start()
            return self._loop

    def on_loop_thread(self) -> bool:
        """Whether the caller runs on the loop thread."""
        with self._lock:
            return self._thread is threading.current_thread()

    # -- registration ------------------------------------------------------

    def register(
        self,
        connection,
        on_message: Callable[[tuple], None],
        sentinel: int | None = None,
        on_death: Callable[[], None] | None = None,
    ) -> _Port:
        """Start reading ``connection``; returns the port handle.

        ``sentinel`` becomes ready when the process writing to ``connection``
        exits.  Then, or when the pipe reaches end of file, ``on_death`` is
        called once on the loop thread, after every buffered answer.
        """
        loop = self.loop  # raises once closed
        port = _Port(connection, connection.fileno(), on_message, sentinel, on_death)
        self._on_loop(loop, self._add, port)
        return port

    def unregister(self, port: _Port) -> None:
        """Stop correlating ``port`` (idempotent; a no-op once closed).

        The loop no longer watches the pipe when this returns, so the caller
        may close it at once.
        """
        try:
            loop = self.loop
        except RuntimeError:
            return
        self._on_loop(loop, self._drop, port)

    def ports(self) -> int:
        """Number of registered shard channels (introspection/tests)."""
        return len(self._ports)

    @property
    def thread_name(self) -> str | None:
        """Name of the running loop thread, or ``None`` before first use."""
        with self._lock:
            return self._thread.name if self._thread is not None else None

    def close(self) -> None:
        """Stop the loop thread (idempotent; for tests — the process-wide
        default multiplexer lives as long as the process)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=2.0)
        if not thread.is_alive():
            loop.close()

    # -- the loop ----------------------------------------------------------

    def _on_loop(self, loop: asyncio.AbstractEventLoop, function: Callable, *args) -> None:
        """Run ``function(*args)`` on the loop thread and return once it ran."""
        if self.on_loop_thread():
            function(*args)
        else:
            asyncio.run_coroutine_threadsafe(_run(function, args), loop).result()

    def _add(self, port: _Port) -> None:
        loop = asyncio.get_running_loop()
        self._ports.add(port)
        loop.add_reader(port.fileno, self._readable, port)
        if port.sentinel is not None:
            loop.add_reader(port.sentinel, self._exited, port)

    def _drop(self, port: _Port) -> None:
        if port not in self._ports:
            return
        self._ports.discard(port)
        loop = asyncio.get_running_loop()
        loop.remove_reader(port.fileno)
        if port.sentinel is not None:
            loop.remove_reader(port.sentinel)

    def _readable(self, port: _Port) -> None:
        """One frame is (at least partly) in the pipe: read and dispatch it.

        The pipe has no user-space buffer, so a second frame keeps the pipe
        readable and the loop calls back again.
        """
        try:
            frame = port.connection.recv_bytes()
        except (EOFError, OSError):  # end of file, or a frame cut short
            self._exited(port)
            return
        self._deliver(port, frame)

    def _exited(self, port: _Port) -> None:
        """The writer is gone: dispatch what it wrote, then bury the port."""
        try:
            while port.connection.poll():
                self._deliver(port, port.connection.recv_bytes())
        except (EOFError, OSError):
            pass
        if port in self._ports:
            self._drop(port)
            if port.on_death is not None:
                port.on_death()

    @staticmethod
    def _deliver(port: _Port, frame: bytes) -> None:
        try:
            port.on_message(pickle.loads(frame))
        except Exception:  # noqa: BLE001 - e.g. an undecodable payload
            # The frame was consumed; skip it.  Its waiter is failed when the
            # owner dies or closes.
            pass


_default_lock = threading.Lock()
_default: ResponseMultiplexer | None = None


def default_multiplexer() -> ResponseMultiplexer:
    """The process-wide multiplexer every :class:`ProcessShard` shares.

    One loop thread correlates all shards of all routers (and any standalone
    shards) in this process; it lives for the life of the process.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = ResponseMultiplexer()
        return _default
