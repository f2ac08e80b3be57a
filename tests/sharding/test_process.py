"""Tests of the process-shard module: context choice, child liveness and the
fingerprint the router ships with each problem."""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.exceptions import ParallelError, ServingError
from repro.serving import PlanServiceConfig, fingerprint_problem
from repro.serving.fingerprint import ProblemFingerprint
from repro.sharding.multiplexer import ResponseMultiplexer
from repro.sharding.process import ProcessShard, preferred_context


class TestMpContext:
    def test_preferred_context_accepts_a_start_method_name(self):
        assert preferred_context("spawn").get_start_method() == "spawn"
        with pytest.raises(ParallelError):
            preferred_context("no-such-method")


class TestAlive:
    def test_a_shard_is_alive_until_it_is_closed(self):
        mux = ResponseMultiplexer(name="test-mux-alive")
        shard = ProcessShard("alive", PlanServiceConfig(budget_seconds=None), multiplexer=mux)
        try:
            assert shard.alive()
            assert shard.cache_keys() == []  # the child answers
        finally:
            shard.close()
            mux.close()
        assert not shard.alive()


class TestRegistration:
    def test_a_refused_registration_does_not_leak_the_child(self):
        mux = ResponseMultiplexer(name="test-mux-refusing")
        mux.close()
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="closed"):
            ProcessShard("refused", PlanServiceConfig(budget_seconds=None), multiplexer=mux)
        assert set(multiprocessing.active_children()) == before


@pytest.fixture(scope="module")
def shard():
    mux = ResponseMultiplexer(name="test-mux-fingerprint")
    shard = ProcessShard("shipped", PlanServiceConfig(budget_seconds=None), multiplexer=mux)
    try:
        yield shard
    finally:
        shard.close()
        mux.close()


def sentinel(problem, digest: str, **changes) -> ProblemFingerprint:
    """``problem``'s real fingerprint under a digest the child cannot compute."""
    real = fingerprint_problem(problem)
    return replace(real, digest=digest, **changes)


class TestShippedFingerprint:
    def test_the_child_answers_under_the_shipped_digest(self, shard, make_random_problem):
        problem = make_random_problem(6, seed=1)
        fingerprint = sentinel(problem, "s" * 64)
        first = shard.submit(problem, fingerprint=fingerprint)
        second = shard.submit(problem, fingerprint=fingerprint)
        assert first.fingerprint == second.fingerprint == fingerprint.key
        assert not first.cache_hit and second.cache_hit
        assert shard.cache_keys() == [fingerprint.key]
        assert first.cost == problem.cost(first.order)

    def test_a_batch_answers_under_the_shipped_digests(self, shard, make_random_problem):
        problems = [make_random_problem(5, seed=seed) for seed in (2, 3)]
        fingerprints = [sentinel(problem, f"b{k}" * 32) for k, problem in enumerate(problems)]
        responses = shard.optimize_batch(problems, fingerprints=fingerprints)
        assert [response.fingerprint for response in responses] == [
            fingerprint.key for fingerprint in fingerprints
        ]

    def test_without_a_fingerprint_the_child_hashes(self, shard, make_random_problem):
        problem = make_random_problem(4, seed=4)
        assert shard.submit(problem).fingerprint == fingerprint_problem(problem).key

    def test_a_fingerprint_of_another_size_is_refused(self, shard, make_random_problem):
        problem = make_random_problem(4, seed=5)
        wrong = fingerprint_problem(make_random_problem(5, seed=5))
        with pytest.raises(ServingError, match="covers 5 services"):
            shard.submit(problem, fingerprint=wrong)
        with pytest.raises(ServingError, match="covers 5 services"):
            shard.optimize_batch([problem], fingerprints=[wrong])

    def test_a_fingerprint_at_another_precision_is_refused(self, shard, make_random_problem):
        problem = make_random_problem(4, seed=6)
        coarse = fingerprint_problem(problem, precision=2)
        with pytest.raises(ServingError, match="precision 2"):
            shard.submit(problem, fingerprint=coarse)
        assert shard.alive()
