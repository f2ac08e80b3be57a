"""Tests of the process-shard module: context choice and child liveness."""

from __future__ import annotations

import pytest

from repro.exceptions import ParallelError
from repro.serving import PlanServiceConfig
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
