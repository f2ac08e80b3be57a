"""One selector loop over every process shard's pipe and exit sentinel.

A :class:`~repro.sharding.process.ProcessShard` talks to its child over one
duplex pipe.  Instead of one reader thread per shard, *one* thread waits on
every registered shard's pipe at once (:func:`multiprocessing.connection.wait`,
the stdlib's selector over file descriptors) and dispatches each
``(request_id, ok, payload, spans)`` answer to the owning shard's callback.
Every router and standalone shard in a process shares the same process-wide
multiplexer (:func:`default_multiplexer`) — shard count scales without the
thread count following it.

A shard registers its pipe, its child's :attr:`multiprocessing.Process.sentinel`
and two callbacks (``on_message`` for answers, ``on_death`` to fail its
waiters), and unregisters on close.  A shard's death is an event, not a poll:
the one ``wait`` call watches the sentinels too, with no timeout.  When a
child's sentinel fires (it exited) or its pipe reaches end of file, the loop
first reads every answer still buffered in the pipe, then calls ``on_death``
and drops the port — so a dying shard's finished answers reach their callers
before its other waiters fail.  Between events the loop sleeps, waking only
for a pipe, a sentinel or its own self-pipe (registration changes, close).

The multiplexer stays agnostic of who waits: it calls ``on_message`` on its
own thread, and :class:`repro.sharding.process.ProcessShard` resolves the
request's :class:`concurrent.futures.Future` — which wakes a blocked caller,
or (through ``asyncio.wrap_future``) schedules the answer onto the awaiting
event loop.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
import threading
from typing import Any, Callable, NamedTuple

__all__ = ["ResponseMultiplexer", "default_multiplexer"]


class _Port(NamedTuple):
    """One registered shard: its pipe, its child's exit sentinel, its callbacks."""

    connection: Any
    on_message: Callable[[tuple], None]
    sentinel: int | None
    on_death: Callable[[], None] | None


class ResponseMultiplexer:
    """A single thread correlating every registered shard's answers.

    Thread-safe: ports may be registered/unregistered from any thread while
    the loop runs.  The loop thread starts lazily on the first registration.
    """

    def __init__(self, name: str = "shard-mux") -> None:
        self._name = name
        self._lock = threading.Lock()
        self._ports: set[_Port] = set()  # guarded-by: _lock
        self._thread: threading.Thread | None = None  # guarded-by: _lock
        self._stopped = threading.Event()
        # A self-pipe: registration changes wake the selector immediately.
        self._wake_recv, self._wake_send = multiprocessing.Pipe(duplex=False)

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
        with self._lock:
            if self._stopped.is_set():
                raise RuntimeError("the response multiplexer has been closed")
            port = _Port(connection, on_message, sentinel, on_death)
            self._ports.add(port)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name=self._name, daemon=True
                )
                self._thread.start()
        self._wake()
        return port

    def unregister(self, port: _Port) -> None:
        """Stop correlating ``port`` (idempotent).

        The caller may close the underlying pipe immediately afterwards: a
        selector pass racing the closure sees a dead file descriptor, which
        the loop tolerates and drops on its next rebuild.
        """
        with self._lock:
            self._ports.discard(port)
        self._wake()

    def ports(self) -> int:
        """Number of registered shard channels (introspection/tests)."""
        with self._lock:
            return len(self._ports)

    @property
    def thread_name(self) -> str | None:
        """Name of the running loop thread, or ``None`` before first use."""
        with self._lock:
            return self._thread.name if self._thread is not None else None

    def close(self) -> None:
        """Stop the loop thread (idempotent; for tests — the process-wide
        default multiplexer lives as long as the process)."""
        self._stopped.set()
        self._wake()
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)

    # -- the loop ----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send.send_bytes(b"w")
        except (OSError, ValueError):  # pragma: no cover - closed during teardown
            pass

    def _run(self) -> None:
        while not self._stopped.is_set():
            try:
                self._run_once()
            except Exception:  # noqa: BLE001 - one loop serves every shard
                # A pipe closed between snapshot and wait raises OSError; drop
                # the stale snapshot and rebuild.  Nothing may kill the
                # process-wide selector thread: a dead loop would hang every
                # shard's waiters forever.
                continue

    def _run_once(self) -> None:
        with self._lock:
            ports = list(self._ports)
        waitables = [self._wake_recv]
        for port in ports:
            waitables.append(port.connection)
            if port.sentinel is not None:
                waitables.append(port.sentinel)
        ready = set(multiprocessing.connection.wait(waitables))
        if self._stopped.is_set():
            return
        if self._wake_recv in ready:
            self._drain_wakeups()
        for port in ports:
            exited = port.sentinel in ready
            if exited or port.connection in ready:
                if not self._drain_port(port) or exited:
                    self._bury(port)

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.poll():
                self._wake_recv.recv_bytes()
        except (EOFError, OSError):  # pragma: no cover - closed during teardown
            pass

    def _drain_port(self, port: _Port) -> bool:
        """Dispatch every answer buffered in ``port``'s pipe; ``False`` once
        the pipe is closed (end of file, a frame cut short by the writer's
        death, or a descriptor closed under us)."""
        try:
            while port.connection.poll():
                frame = port.connection.recv_bytes()
                try:
                    port.on_message(pickle.loads(frame))
                except Exception:  # noqa: BLE001 - e.g. an undecodable payload
                    # The frame was consumed; skip it and keep draining.  Its
                    # waiter is failed when the owner dies or closes.
                    continue
        except (EOFError, OSError):
            return False
        return True

    def _bury(self, port: _Port) -> None:
        """Drop a port whose writer is gone, then tell its owner."""
        with self._lock:
            self._ports.discard(port)
        if port.on_death is not None:
            port.on_death()


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
