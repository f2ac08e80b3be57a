"""Tests of the shard-response multiplexer: one selector loop, not N readers."""

from __future__ import annotations

import asyncio
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


class TestIdleLoop:
    """Deaths are events, not polls: the loop never schedules a wake-up."""

    def test_idle_loop_has_no_timer_scheduled(self, make_random_problem):
        """With no port, with a bare pipe and with a live shard (pipe and exit
        sentinel) registered, the loop waits on file descriptors alone."""
        mux = ResponseMultiplexer(name="test-mux-idle")
        reader, writer = multiprocessing.Pipe(duplex=False)
        shard = None
        try:
            assert mux.loop._scheduled == []  # started, nothing registered
            port = mux.register(reader, on_message=lambda item: None)
            shard = ProcessShard("idle", fast_config(), multiplexer=mux)
            shard.submit(make_random_problem(4, 5))
            time.sleep(0.1)
            assert mux.ports() == 2
            assert mux.loop._scheduled == []
            mux.unregister(port)
            shard.close()
            time.sleep(0.1)
            assert mux.ports() == 0
            assert mux.loop._scheduled == []
        finally:
            if shard is not None:
                shard.close()
            mux.close()
            reader.close()
            writer.close()


class TestLoopThread:
    def test_blocking_submit_on_the_loop_thread_is_refused_at_once(self, make_random_problem):
        """Only the loop reads answers, so a blocking wait on it would never
        end: the shard refuses instead of deadlocking."""
        mux = ResponseMultiplexer(name="test-mux-blocking")
        shard = ProcessShard("refuses", fast_config(), multiplexer=mux)
        problem = make_random_problem(4, 6)

        async def blocking_on_the_loop():
            with pytest.raises(ShardingError, match="blocking call"):
                shard.submit(problem)
            with pytest.raises(ShardingError, match="blocking call"):
                shard.stats()
            return await shard.submit_async(problem)  # the loop's own path works

        try:
            response = asyncio.run_coroutine_threadsafe(
                blocking_on_the_loop(), mux.loop
            ).result(timeout=10)
            assert sorted(response.order) == list(range(4))
            assert shard._waiters == {}
        finally:
            shard.close()
            mux.close()

    def test_loop_futures_and_blocking_callers_share_the_waiters(self, make_random_problem):
        """Requests awaited on the loop and blocking threads interleave on one
        shard: every answer reaches its own caller and no waiter is left."""
        mux = ResponseMultiplexer(name="test-mux-mixed")
        shard = ProcessShard("mixed", fast_config(), multiplexer=mux)
        problems = [make_random_problem(5, seed) for seed in range(8)]
        expected = {problem: shard.submit(problem).order for problem in problems}

        async def on_the_loop():
            return await asyncio.gather(
                *(shard.submit_async(problems[k % 8]) for k in range(64))
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            awaited = asyncio.run_coroutine_threadsafe(on_the_loop(), mux.loop)
            with ThreadPoolExecutor(max_workers=6) as pool:
                blocking = list(pool.map(lambda k: shard.submit(problems[k % 8]), range(96)))
            answers = awaited.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            shard.close()
            mux.close()
        assert [r.order for r in answers] == [expected[problems[k % 8]] for k in range(64)]
        assert [r.order for r in blocking] == [expected[problems[k % 8]] for k in range(96)]
        assert shard._waiters == {}
