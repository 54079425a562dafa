"""The parallel executor: ordering, fallbacks, and error propagation."""

import os

import pytest

from repro.errors import PipelineError
from repro.pipeline.executor import parallel_map, resolve_jobs


def _square(x):
    """Top-level so process pools can pickle it."""
    return x * x


def _boom(x):
    if x == 2:
        raise ValueError("item two is broken")
    return x


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_zero_and_none_mean_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_bool_rejected(self):
        with pytest.raises(PipelineError):
            resolve_jobs(True)

    def test_negative_rejected(self):
        with pytest.raises(PipelineError):
            resolve_jobs(-1)


class TestParallelMap:
    def test_serial_inline(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_order_preserved(self):
        items = list(range(8))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [5], jobs=8) == [25]

    def test_real_exception_propagates(self):
        """The worker's own error surfaces, never a CancelledError."""
        with pytest.raises(ValueError, match="item two is broken"):
            parallel_map(_boom, [0, 1, 2, 3], jobs=2)

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="item two is broken"):
            parallel_map(_boom, [2], jobs=1)
