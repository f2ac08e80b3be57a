"""One selector loop over every process shard's response pipe.

A :class:`~repro.sharding.process.ProcessShard` used to pin one dedicated
reader thread per shard in the router process, each blocking on its own
response queue — N shards cost N parked threads before a single request
flows.  The :class:`ResponseMultiplexer` flattens that: *one* thread waits on
all registered shards' response pipes at once
(:func:`multiprocessing.connection.wait`, the stdlib's selector over pipe
file descriptors) and dispatches each ``(request_id, ok, payload)`` answer to
the owning shard's correlation callback.

Every router and standalone shard in a process shares the same process-wide
multiplexer (:func:`default_multiplexer`) — shard count scales without the
thread count following it.

Registration is keyed by small :class:`_Port` handles: a shard registers its
response queue plus three callbacks (``on_message`` for answers, ``alive``
for liveness probing, ``on_death`` to fail its waiters) and unregisters on
close.  Liveness is swept at the poll cadence, but only for ports with no
answer bytes pending, so buffered answers of a crashing shard are still
delivered before its waiters are failed — the same ordering the per-shard
reader threads guaranteed.  The sweep timer only runs while at least one
shard is registered: an idle multiplexer parks in the selector without a
timeout and wakes on the self-pipe, costing zero scheduled wake-ups.

The multiplexer stays agnostic of who waits: it calls ``on_message`` on its
own thread, and :class:`repro.sharding.process.ProcessShard` resolves the
request's :class:`concurrent.futures.Future` — which wakes a blocked caller,
or (through ``asyncio.wrap_future``) schedules the answer onto the awaiting
event loop.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue
import threading
import time
from typing import Callable

__all__ = ["ResponseMultiplexer", "default_multiplexer"]

_POLL_SECONDS = 0.25
"""Default wait timeout: the cadence of the dead-shard liveness sweep.
Overridable per instance (``poll_seconds=``) and, for the process-wide
default multiplexer, via the ``REPRO_MUX_POLL_SECONDS`` environment variable
— tests of the death sweep set it low instead of sleeping 250 ms per
assertion."""

_POLL_ENV_VAR = "REPRO_MUX_POLL_SECONDS"


def _default_poll_seconds() -> float:
    """The default multiplexer's sweep cadence (env-overridable, validated)."""
    raw = os.environ.get(_POLL_ENV_VAR, "").strip()
    if not raw:
        return _POLL_SECONDS
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{_POLL_ENV_VAR} must be a positive number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(
            f"{_POLL_ENV_VAR} must be a positive number of seconds, got {raw!r}"
        )
    return value


class _Port:
    """One registered shard response channel."""

    __slots__ = ("response_queue", "reader", "on_message", "alive", "on_death")

    def __init__(
        self,
        response_queue,
        on_message: Callable[[tuple], None],
        alive: Callable[[], bool] | None,
        on_death: Callable[[], None] | None,
    ) -> None:
        self.response_queue = response_queue
        # The queue's receiving Connection — what the selector waits on.  A
        # private attribute, but a stable one (CPython's mp.Queue has carried
        # it unchanged for over a decade), and the whole point: readiness
        # without a blocking get() per shard.
        self.reader = response_queue._reader
        self.on_message = on_message
        self.alive = alive
        self.on_death = on_death


class ResponseMultiplexer:
    """A single thread correlating every registered shard's answers.

    Thread-safe: ports may be registered/unregistered from any thread while
    the loop runs.  The loop thread starts lazily on the first registration
    and idles at the poll cadence when no ports are registered.
    """

    def __init__(self, name: str = "shard-mux", poll_seconds: float = _POLL_SECONDS) -> None:
        self._name = name
        self._poll_seconds = poll_seconds
        self._lock = threading.Lock()
        self._ports: set[_Port] = set()  # guarded-by: _lock
        self._thread: threading.Thread | None = None  # guarded-by: _lock
        self._stopped = threading.Event()
        # Dispatch accounting (only the loop thread writes, so plain ints).
        self._dispatched = 0
        self._dropped = 0
        # A self-pipe: registration changes wake the selector immediately
        # instead of waiting out the current poll timeout.
        self._wake_recv, self._wake_send = multiprocessing.Pipe(duplex=False)

    # -- registration ------------------------------------------------------

    def register(
        self,
        response_queue,
        on_message: Callable[[tuple], None],
        alive: Callable[[], bool] | None = None,
        on_death: Callable[[], None] | None = None,
    ) -> _Port:
        """Start correlating ``response_queue``; returns the port handle."""
        with self._lock:
            if self._stopped.is_set():
                raise RuntimeError("the response multiplexer has been closed")
            port = _Port(response_queue, on_message, alive, on_death)
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

        The caller may close the underlying queue immediately afterwards: a
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

    def stats(self) -> dict[str, int]:
        """Dispatch counters: answers routed to callbacks, and drops.

        A *drop* is a message consumed off a port's queue whose callback
        raised or whose payload failed to decode — its waiter is failed by
        the owner's death sweep or close, never hung.
        """
        with self._lock:
            return {
                "ports": len(self._ports),
                "dispatched": self._dispatched,
                "dropped": self._dropped,
            }

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
            thread.join(timeout=2 * self._poll_seconds + 1.0)

    # -- the loop ----------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_send.send_bytes(b"w")
        except (OSError, ValueError):  # pragma: no cover - closed during teardown
            pass

    def _run(self) -> None:
        last_sweep = time.monotonic()
        while not self._stopped.is_set():
            try:
                last_sweep = self._run_once(last_sweep)
            except OSError:
                # A port's queue was closed between snapshot and wait (shard
                # shutdown race); drop the stale snapshot and rebuild.
                continue
            except Exception:  # noqa: BLE001 - one loop serves every shard
                # Nothing may kill the process-wide selector thread: a dead
                # loop would hang every shard's waiters forever.
                continue

    def _run_once(self, last_sweep: float) -> float:
        with self._lock:
            ports = list(self._ports)
        waitables = [port.reader for port in ports] + [self._wake_recv]
        # The poll timeout exists only to drive the dead-shard liveness
        # sweep; with no shard registered there is nothing to sweep, so the
        # idle loop parks without a timeout and wakes on the self-pipe.
        timeout = self._poll_seconds if ports else None
        ready = multiprocessing.connection.wait(waitables, timeout=timeout)
        if self._stopped.is_set():
            return last_sweep
        ready_set = set(ready)
        if self._wake_recv in ready_set:
            self._drain_wakeups()
        for port in ports:
            if port.reader in ready_set:
                self._drain_port(port)
        now = time.monotonic()
        if now - last_sweep >= self._poll_seconds:
            last_sweep = now
            self._sweep_dead(ports)
        return last_sweep

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.poll():
                self._wake_recv.recv_bytes()
        except (EOFError, OSError):  # pragma: no cover - closed during teardown
            pass

    def _drain_port(self, port: _Port) -> None:
        while True:
            try:
                item = port.response_queue.get_nowait()
            except queue.Empty:
                return
            except (EOFError, OSError, ValueError):
                # The channel died under us (shard torn down mid-drain);
                # in-flight waiters are failed by the owner's close/sweep.
                return
            except Exception:  # noqa: BLE001 - e.g. an unpicklable payload
                # The message bytes were consumed; skip it and keep draining.
                # Its waiter is failed by the owner's death sweep or close.
                self._dropped += 1
                continue
            try:
                port.on_message(item)
                self._dispatched += 1
            except Exception:  # pragma: no cover - callbacks must not kill the loop
                self._dropped += 1

    def _sweep_dead(self, ports: list[_Port]) -> None:
        """Fail waiters of shards whose process died with nothing left to read."""
        for port in ports:
            if port.alive is None or port.on_death is None:
                continue
            try:
                pending = port.reader.poll()
            except (OSError, ValueError):
                pending = False
            if pending or port.alive():
                continue
            try:
                port.on_death()
            except Exception:  # pragma: no cover - callbacks must not kill the loop
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
            _default = ResponseMultiplexer(poll_seconds=_default_poll_seconds())
        return _default
