"""Tests of the shard-response multiplexer: one selector loop, not N readers."""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ShardingError
from repro.serving import PlanServiceConfig
from repro.sharding import ProcessShard, ShardRouter, ShardRouterConfig
from repro.sharding.multiplexer import ResponseMultiplexer, default_multiplexer
from repro.sharding.process import preferred_context


def fast_config(**overrides) -> PlanServiceConfig:
    defaults = dict(budget_seconds=None, algorithms=("greedy_min_term",))
    defaults.update(overrides)
    return PlanServiceConfig(**defaults)


def reader_thread_names() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("shard-reader-")]


def mux_thread_names() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name == "shard-mux"]


class TestSingleLoop:
    def test_process_shards_share_one_multiplexer_thread(self, make_random_problem):
        """The ROADMAP limitation: N process shards must not pin N reader threads."""
        before = default_multiplexer().ports()
        config = ShardRouterConfig(
            shards=3, backend="processes", service_config=fast_config()
        )
        with ShardRouter(config) as router:
            assert reader_thread_names() == []  # the old per-shard readers
            assert len(mux_thread_names()) == 1  # one selector loop for all shards
            assert router.multiplexer.ports() == before + 3
            # ... and it actually serves traffic.
            response = router.submit(make_random_problem(5, 0))
            assert sorted(response.order) == list(range(5))
        assert default_multiplexer().ports() == before

    def test_standalone_shard_registers_and_unregisters(self, make_random_problem):
        before = default_multiplexer().ports()
        shard = ProcessShard("solo", fast_config())
        try:
            assert default_multiplexer().ports() == before + 1
            response = shard.submit(make_random_problem(4, 1))
            assert sorted(response.order) == list(range(4))
        finally:
            shard.close()
        assert default_multiplexer().ports() == before

    def test_concurrent_submissions_correlate_through_one_loop(self, make_random_problem):
        """Interleaved answers from several shards reach the right waiters."""
        config = ShardRouterConfig(
            shards=2, backend="processes", service_config=fast_config()
        )
        problems = [make_random_problem(5, seed) for seed in range(10)]
        with ShardRouter(config) as router:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(router.submit, problems))
        for problem, response in zip(problems, responses):
            assert response.cost == pytest.approx(problem.cost(response.order))


class TestDeathAndShutdown:
    def test_dead_shard_fails_in_flight_requests(self, make_random_problem):
        shard = ProcessShard("doomed", fast_config())
        try:
            shard.submit(make_random_problem(4, 2))  # warm: the child is up
            shard._process.terminate()
            shard._process.join(timeout=5.0)
            with pytest.raises(ShardingError, match="died"):
                shard.submit(make_random_problem(4, 3))
        finally:
            shard.close()

    def test_closed_private_multiplexer_rejects_registration(self):
        mux = ResponseMultiplexer(name="test-mux")
        mux.close()
        with pytest.raises(RuntimeError):
            mux.register(None, on_message=lambda item: None)

    def test_private_multiplexer_dispatches_and_stops(self, make_random_problem):
        mux = ResponseMultiplexer(name="test-mux-2")
        shard = ProcessShard("private", fast_config(), multiplexer=mux)
        try:
            response = shard.submit(make_random_problem(4, 4))
            assert sorted(response.order) == list(range(4))
            assert shard.multiplexer is mux
            assert mux.thread_name == "test-mux-2"
        finally:
            shard.close()
            mux.close()
        # The loop thread exits promptly once closed.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(t.name == "test-mux-2" for t in threading.enumerate()):
                break
            time.sleep(0.05)
        assert not any(t.name == "test-mux-2" for t in threading.enumerate())


def _answer_and_exit(writer, count: int) -> None:
    """A child that writes ``count`` answers and exits."""
    for request_id in range(count):
        writer.send((request_id, True, "answer", []))


class TestDeathEvents:
    def test_buffered_answers_are_dispatched_before_on_death(self):
        """The child has written and exited before the loop first looks:
        sentinel and pipe are ready at once, and the answers still win."""
        reader, writer = multiprocessing.Pipe(duplex=False)
        child = preferred_context().Process(target=_answer_and_exit, args=(writer, 3))
        child.start()
        writer.close()
        child.join(timeout=10)
        events: list = []
        died = threading.Event()

        def on_death() -> None:
            events.append("death")
            died.set()

        mux = ResponseMultiplexer(name="test-mux-order")
        try:
            mux.register(
                reader, on_message=events.append, sentinel=child.sentinel, on_death=on_death
            )
            assert died.wait(timeout=5.0)
            assert events == [(0, True, "answer", []), (1, True, "answer", []),
                              (2, True, "answer", []), "death"]
            assert mux.ports() == 0  # a dead port leaves the wait set
        finally:
            mux.close()
            reader.close()

    def test_a_port_without_a_sentinel_dies_at_end_of_file(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        writer.send((7, True, "last words", []))
        writer.close()
        received: list = []
        died = threading.Event()
        mux = ResponseMultiplexer(name="test-mux-eof-port")
        try:
            mux.register(reader, on_message=received.append, on_death=died.set)
            assert died.wait(timeout=5.0)
            assert received == [(7, True, "last words", [])]
        finally:
            mux.close()
            reader.close()

    def test_an_undecodable_answer_is_dropped_and_draining_continues(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        writer.send_bytes(b"not a pickle")
        writer.send((1, True, "fine", []))
        received: list = []
        got = threading.Event()

        def on_message(item) -> None:
            received.append(item)
            got.set()

        mux = ResponseMultiplexer(name="test-mux-garbage")
        try:
            mux.register(reader, on_message=on_message)
            assert got.wait(timeout=5.0)
            assert received == [(1, True, "fine", [])]
        finally:
            mux.close()
            reader.close()
            writer.close()


class TestSelectorWait:
    """Deaths are events, not polls: the selector never schedules a wake-up."""

    def test_selector_waits_without_a_timeout(self, monkeypatch):
        """Idle or with a port registered, ``wait`` is called with ``timeout=None``."""
        import multiprocessing.connection as mp_connection

        recorded: list[float | None] = []
        real_wait = mp_connection.wait

        def recording_wait(waitables, timeout=None):
            # Only the selector's own call: Connection.poll() also goes
            # through wait(), with a zero timeout, to test readiness.
            if sys._getframe(1).f_code.co_name == "_run_once":
                recorded.append(timeout)
            # Clamp so the loop keeps cycling (and recording) during the test.
            return real_wait(waitables, timeout=0.01)

        monkeypatch.setattr(mp_connection, "wait", recording_wait)
        mux = ResponseMultiplexer(name="test-mux-wait")
        reader, writer = multiprocessing.Pipe(duplex=False)
        try:
            port = mux.register(reader, on_message=lambda item: None)
            time.sleep(0.1)
            assert recorded, "the registered loop should cycle (clamped wait)"
            assert all(timeout is None for timeout in recorded)
            mux.unregister(port)
            recorded.clear()
            time.sleep(0.1)
            assert recorded, "the idle loop should still cycle (clamped wait)"
            assert all(timeout is None for timeout in recorded)
        finally:
            mux.close()
            reader.close()
            writer.close()
