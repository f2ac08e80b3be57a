"""Tests of the parent↔child channel of a process shard: one duplex pipe per
shard, and the child's exit (its sentinel) as the shard's death signal."""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

import repro.sharding.process as process_module
from repro.exceptions import ShardingError
from repro.serving import PlanServiceConfig, fingerprint_problem
from repro.sharding import ProcessShard, ShardRouter, ShardRouterConfig
from repro.sharding.multiplexer import ResponseMultiplexer
from repro.sharding.process import _batch_operation
from repro.workloads import hard_problem

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the test replaces the child's entry point in a forked child",
)


def fast_config(**overrides) -> PlanServiceConfig:
    defaults = dict(budget_seconds=None, algorithms=("greedy_min_term",))
    defaults.update(overrides)
    return PlanServiceConfig(**defaults)


def feeder_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name == "QueueFeederThread"]


class TestKillUnderLoad:
    def test_a_sigkilled_shard_fails_fast_and_its_peer_keeps_answering(
        self, make_random_problem
    ):
        """Two process shards under load from four threads; one child is
        SIGKILLed.  Its requests in flight fail typed, later ones fail at
        once without a waiter, and every request to the survivor succeeds."""
        baseline_threads = {thread.ident for thread in threading.enumerate()}
        baseline_children = set(multiprocessing.active_children())
        # The scalar subset DP answers n = 5 at once and n = 18 in seconds:
        # the large problem is a request guaranteed to be in flight at the kill.
        config = ShardRouterConfig(
            shards=2,
            backend="processes",
            service_config=fast_config(algorithms=("dynamic_programming",), kernel="scalar"),
        )
        router = ShardRouter(config)
        try:
            precision = config.service_config.fingerprint_precision
            owned: dict[str, list] = {shard_id: [] for shard_id in router.shard_ids}
            for seed in range(200):
                problem = make_random_problem(5, seed)
                owned[router._ring.node_for(fingerprint_problem(problem, precision).key)].append(
                    problem
                )
            victim_id, survivor_id = router.shard_ids
            assert len(owned[victim_id]) >= 3 and len(owned[survivor_id]) >= 3
            slow = next(
                problem
                for problem in (hard_problem(18, seed) for seed in range(100))
                if router._ring.node_for(fingerprint_problem(problem, precision).key)
                == victim_id
            )
            victim = router._shards[victim_id]

            stop = threading.Event()
            outcomes: list[tuple[str, float, BaseException | None]] = []
            outcomes_lock = threading.Lock()

            def load(offset: int) -> None:
                index = offset
                while not stop.is_set():
                    shard_id = router.shard_ids[index % 2]
                    problem = owned[shard_id][index % len(owned[shard_id])]
                    index += 1
                    started = time.monotonic()
                    try:
                        router.submit(problem)
                        error = None
                    except ShardingError as caught:
                        error = caught
                    with outcomes_lock:
                        outcomes.append((shard_id, started, error))

            with ThreadPoolExecutor(max_workers=5) as pool:
                loaders = [pool.submit(load, offset) for offset in range(4)]
                in_flight = pool.submit(router.submit, slow)
                try:
                    time.sleep(0.5)
                    assert not in_flight.done()
                    assert feeder_threads() == []  # the parent holds no Queue
                    killed_at = time.monotonic()
                    os.kill(victim._process.pid, signal.SIGKILL)

                    with pytest.raises(ShardingError, match=r"died \(exit code -9\)"):
                        in_flight.result(timeout=30)
                    # The in-flight failure comes from the death callback, so
                    # the death has been seen: the victim now refuses at once.
                    seen_at = time.monotonic()
                    with pytest.raises(ShardingError, match="died"):
                        victim._send(("stats",))
                    with pytest.raises(ShardingError, match="died"):
                        router.submit(owned[victim_id][0])
                    time.sleep(0.3)  # steady load against a known-dead shard
                    assert victim._waiters == {}
                finally:
                    stop.set()
                    # Then close: that fails whatever waiter a regression left
                    # hanging, so the loaders always finish.
                    wait(loaders, timeout=10)
                    router.close()
                for loader in loaders:
                    loader.result(timeout=30)

            survivor = [error for shard_id, _, error in outcomes if shard_id == survivor_id]
            assert survivor and all(error is None for error in survivor)
            assert sum(1 for shard_id, started, _ in outcomes
                       if shard_id == survivor_id and started > killed_at) > 0
            for shard_id, started, error in outcomes:
                if shard_id != victim_id:
                    continue
                if started > seen_at:
                    assert isinstance(error, ShardingError)
                if error is not None:
                    assert "died" in str(error)
            assert any(error is not None for shard_id, _, error in outcomes
                       if shard_id == victim_id)
        finally:
            router.close()
        leftover = [
            thread.name for thread in threading.enumerate()
            if thread.ident not in baseline_threads and thread.name != "shard-mux"
        ]
        assert leftover == []
        assert set(multiprocessing.active_children()) == baseline_children


def _truncating_main(connection, parent_end, config, shard_id) -> None:
    """A shard child that reads one request, writes a frame header and part
    of the body it announces, then dies."""
    connection.recv()
    os.write(connection.fileno(), struct.pack("!i", 4096) + b"half an answer")
    os._exit(3)


def _lingering_main(connection, parent_end, config, shard_id) -> None:
    """A shard child that reads one request, closes its end of the pipe and
    runs on without exiting."""
    connection.recv()
    connection.close()
    time.sleep(30)


class TestChannelEdges:
    @needs_fork
    def test_a_frame_cut_short_by_a_dying_child_fails_its_waiter_typed(
        self, monkeypatch, make_random_problem
    ):
        mux = ResponseMultiplexer(name="test-mux-truncated")
        healthy = ProcessShard("healthy", fast_config(), multiplexer=mux)
        monkeypatch.setattr(process_module, "_shard_service_main", _truncating_main)
        broken = ProcessShard("broken", fast_config(), mp_context="fork", multiplexer=mux)
        monkeypatch.undo()
        try:
            assert sorted(healthy.submit(make_random_problem(4, 0)).order) == list(range(4))
            with pytest.raises(ShardingError, match=r"died \(exit code 3\)"):
                broken.submit(make_random_problem(4, 1))
            assert any(t.name == "test-mux-truncated" for t in threading.enumerate())
            assert sorted(healthy.submit(make_random_problem(5, 2)).order) == list(range(5))
            assert mux.ports() == 1  # the dead port left the wait set
        finally:
            broken.close()
            healthy.close()
            mux.close()

    @needs_fork
    def test_a_closed_pipe_refuses_sends_before_the_child_has_exited(self, monkeypatch):
        """End of file is death at once: while the loop still looks for the
        exit code of a child that runs on, sends are refused, not queued."""
        mux = ResponseMultiplexer(name="test-mux-lingering")
        monkeypatch.setattr(process_module, "_shard_service_main", _lingering_main)
        shard = ProcessShard("lingering", fast_config(), mp_context="fork", multiplexer=mux)
        monkeypatch.undo()
        try:
            in_flight = shard._send(("stats",))
            deadline = time.monotonic() + 10
            while mux.ports() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # the port is dropped just before on_death runs
            assert shard.alive() and not in_flight.done()
            with pytest.raises(ShardingError, match="died"):
                shard._send(("stats",))
            assert list(shard._waiters) == [0]
            ok, (error_type, message), _ = in_flight.result(timeout=10)
            assert not ok and error_type == "ShardingError"
            assert message == "shard process died (exit code None)"
        finally:
            shard.close(timeout=0.5)
            mux.close()

    def test_concurrent_large_batches_to_one_shard_do_not_deadlock(self):
        """32 batches of 8 problems at n = 24 (tens of KB a frame) in both
        directions at once, from blocking threads and an event loop."""
        problems = [hard_problem(24, seed) for seed in range(8)]
        assert len(pickle.dumps(_batch_operation(problems, None, None))) > 40_000
        config = fast_config()
        reference_config = ShardRouterConfig(shards=1, backend="inproc", service_config=config)
        with ShardRouter(reference_config) as reference:
            expected = [
                (response.order, response.cost, response.fingerprint)
                for response in reference.optimize_batch(problems)
            ]

        mux = ResponseMultiplexer(name="test-mux-batches")
        shard = ProcessShard("bulk", config, multiplexer=mux)
        try:

            async def awaited() -> list:
                return await asyncio.gather(
                    *(shard.optimize_batch_async(problems) for _ in range(16))
                )

            with ThreadPoolExecutor(max_workers=17) as pool:
                on_loop = pool.submit(asyncio.run, awaited())
                blocking = [pool.submit(shard.optimize_batch, problems) for _ in range(16)]
                answers = [future.result(timeout=60) for future in blocking]
                answers += on_loop.result(timeout=60)
            assert len(answers) == 32
            for answer in answers:
                assert [
                    (response.order, response.cost, response.fingerprint) for response in answer
                ] == expected
        finally:
            shard.close()
            mux.close()

    def test_the_child_exits_when_the_parents_end_closes(self):
        """No shutdown message: end of file on the pipe is enough."""
        mux = ResponseMultiplexer(name="test-mux-eof")
        shard = ProcessShard("orphan", fast_config(), multiplexer=mux)
        try:
            assert shard.cache_keys() == []  # the child is up
            mux.unregister(shard._port)
            shard._connection.close()
            shard._process.join(timeout=10)
            assert shard._process.exitcode == 0
        finally:
            shard.close()
            mux.close()
