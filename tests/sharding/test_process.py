"""Tests of the process-shard module's multiprocessing context choice."""

from __future__ import annotations

import pytest

from repro.exceptions import ParallelError
from repro.sharding.process import preferred_context


class TestMpContext:
    def test_preferred_context_accepts_a_start_method_name(self):
        assert preferred_context("spawn").get_start_method() == "spawn"
        with pytest.raises(ParallelError):
            preferred_context("no-such-method")
