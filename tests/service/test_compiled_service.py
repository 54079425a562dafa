"""The model's answer tables wired through the serving tier.

Calibration produces a model that answers from its tables, a second
registry sharing a store warm-starts from it without writing anything
new, and the server answers bulk, scalar and grid queries out of the
tables bit-identically to the library.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bench import SweepConfig
from repro.evaluation import run_platform_experiment
from repro.pipeline import ArtifactStore
from repro.service.registry import ModelRegistry

PLATFORM = "occigen"


class TestRegistryCompiles:
    def test_second_registry_warm_starts_from_the_store(self, tmp_path):
        first = asyncio.run(ModelRegistry(cache_dir=tmp_path).get(PLATFORM))
        stored = {e.entry_id for e in ArtifactStore(tmp_path).entries()}
        # A fresh registry sharing the store loads every artifact it
        # needs instead of recomputing it, and the tables it builds
        # answer identically.
        second = asyncio.run(ModelRegistry(cache_dir=tmp_path).get(PLATFORM))
        entries = ArtifactStore(tmp_path).entries()
        assert {e.entry_id for e in entries} == stored
        assert all(e.hits >= 1 for e in entries)
        assert not any(e.key.stage == "compiled" for e in entries)
        queries = [(12, 1, 0), (8, 0, 1), (300, 1, 1)]
        assert second.model.predict_batch(queries) == first.model.predict_batch(
            queries
        )


class TestServedFromTheTable:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_platform_experiment(PLATFORM, config=SweepConfig(seed=0))

    def test_bulk_answers_come_from_the_compiled_table(
        self, server, reference
    ):
        client = server.client()
        client.calibrate(PLATFORM)
        queries = [(n, n % 2, (n + 1) % 2) for n in range(1, 17)]
        rows = client.predict_many(PLATFORM, queries)
        for (n, mc, mm), row in zip(queries, rows):
            assert row["comp_parallel"] == reference.model.comp_parallel(
                n, mc, mm
            )
            assert row["comm_parallel"] == reference.model.comm_parallel(
                n, mc, mm
            )
        metrics = client.metrics()
        assert "compiled" not in metrics
        assert metrics["backends"]["queries"]["threshold"] >= len(queries)

    def test_scalar_answers_come_from_the_compiled_table(
        self, server, reference
    ):
        client = server.client()
        client.calibrate(PLATFORM)
        row = client.predict(PLATFORM, n=8, m_comp=0, m_comm=1)
        assert row["comp_parallel"] == reference.model.comp_parallel(8, 0, 1)
        assert client.metrics()["batching"]["queries"] >= 1

    def test_grid_matches_library(self, server, reference):
        client = server.client()
        client.calibrate(PLATFORM)
        grid = client.predict_grid(PLATFORM, [1, 4, 8], placements=[(0, 1)])
        expected = reference.model.predict_grid([1, 4, 8], [(0, 1)])[(0, 1)]
        cell = grid["grid"][0]
        assert cell["comp_parallel"] == expected.comp_parallel.tolist()
        assert cell["comm_parallel"] == expected.comm_parallel.tolist()
