"""PredictBatcher: coalescing, bit-identical results, error isolation."""

import asyncio

import pytest

from repro.core.placement import PlacementModel
from repro.core.parameters import ModelParameters
from repro.errors import PlacementError
from repro.service.batching import PredictBatcher
from repro.service.metrics import ServiceMetrics
from repro.service.registry import ModelEntry, ModelKey

LOCAL = ModelParameters(
    n_par_max=8,
    t_par_max=60.0,
    n_seq_max=12,
    t_seq_max=58.0,
    t_par_max2=56.0,
    delta_l=1.0,
    delta_r=0.5,
    b_comp_seq=5.0,
    b_comm_seq=10.0,
    alpha=0.4,
)
REMOTE = ModelParameters(
    n_par_max=6,
    t_par_max=30.0,
    n_seq_max=10,
    t_seq_max=28.0,
    t_par_max2=27.0,
    delta_l=0.75,
    delta_r=0.3,
    b_comp_seq=2.5,
    b_comm_seq=9.0,
    alpha=0.4,
)


@pytest.fixture
def entry():
    model = PlacementModel(LOCAL, REMOTE, nodes_per_socket=2, n_numa_nodes=4)
    return ModelEntry(
        key=ModelKey("testbed", 0), platform=None, model=model
    )


class TestCoalescing:
    def test_concurrent_queries_form_one_batch(self, entry):
        metrics = ServiceMetrics()
        batcher = PredictBatcher(metrics=metrics)
        queries = [(n, n % 4, (n + 1) % 4) for n in range(1, 13)]

        async def go():
            return await asyncio.gather(
                *(batcher.predict(entry, *q) for q in queries)
            )

        results = asyncio.run(go())
        assert len(results) == len(queries)
        # All twelve arrived within one event-loop tick -> one batch.
        assert metrics.batches_total == 1
        assert metrics.batched_queries_total == len(queries)
        assert metrics.batch_sizes == {len(queries): 1}

    def test_batched_results_bit_identical_to_direct_predict(self, entry):
        """Acceptance (b): batching must not change a single bit."""
        batcher = PredictBatcher()
        queries = [(n, mc, mm) for n in (1, 4, 9, 12) for mc in range(4)
                   for mm in range(4)]

        async def go():
            return await asyncio.gather(
                *(batcher.predict(entry, *q) for q in queries)
            )

        results = asyncio.run(go())
        model = entry.model
        for (n, mc, mm), point in zip(queries, results):
            assert point.comp_parallel == model.comp_parallel(n, mc, mm)
            assert point.comm_parallel == model.comm_parallel(n, mc, mm)
            assert point.comp_alone == model.comp_alone(n, mc)
            assert point.comm_alone == model.comm_alone(mm)

    def test_sequential_queries_do_not_wait_for_each_other(self, entry):
        metrics = ServiceMetrics()
        batcher = PredictBatcher(metrics=metrics)

        async def go():
            first = await batcher.predict(entry, 4, 0, 0)
            second = await batcher.predict(entry, 8, 0, 1)
            return first, second

        first, second = asyncio.run(go())
        assert first.n == 4 and second.n == 8
        assert metrics.batches_total == 2
        assert metrics.batch_sizes == {1: 2}

    def test_max_batch_flushes_immediately(self, entry):
        metrics = ServiceMetrics()
        batcher = PredictBatcher(max_batch=4, metrics=metrics)
        queries = [(n, 0, 0) for n in range(1, 11)]  # 10 queries

        async def go():
            return await asyncio.gather(
                *(batcher.predict(entry, *q) for q in queries)
            )

        results = asyncio.run(go())
        assert [r.n for r in results] == list(range(1, 11))
        assert metrics.batches_total == 3  # 4 + 4 + 2
        assert metrics.batch_sizes == {4: 2, 2: 1}


class TestErrorIsolation:
    def test_bad_query_fails_alone(self, entry):
        batcher = PredictBatcher()

        async def go():
            return await asyncio.gather(
                batcher.predict(entry, 4, 0, 0),
                batcher.predict(entry, 4, 0, 99),  # out of range
                batcher.predict(entry, 8, 1, 1),
                return_exceptions=True,
            )

        good, bad, also_good = asyncio.run(go())
        assert good.comp_parallel == entry.model.comp_parallel(4, 0, 0)
        assert isinstance(bad, PlacementError)
        assert "out of range" in str(bad)
        assert also_good.comp_parallel == entry.model.comp_parallel(8, 1, 1)

    def test_core_count_past_int64_fails_alone(self, entry):
        """A JSON integer of any length reaches the batcher: it gets its
        own PlacementError (a 422) and the batch around it is answered."""
        batcher = PredictBatcher()

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.predict(entry, 4, 0, 0),
                    batcher.predict(entry, 10**400, 0, 0),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        good, bad = asyncio.run(go())
        assert good.comp_parallel == entry.model.comp_parallel(4, 0, 0)
        assert isinstance(bad, PlacementError)
        assert "at most" in str(bad)

    def test_unexpected_error_fails_alone(self, entry):
        """A non-ReproError still resolves every parked query: the
        failing one with its error, the others with their answers."""

        class Faulty:
            def predict_batch(self, queries):
                if any(n == 13 for n, _, _ in queries):
                    raise RuntimeError("model bug")
                return entry.model.predict_batch(queries)

        faulty = ModelEntry(key=entry.key, platform=None, model=Faulty())
        batcher = PredictBatcher()

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.predict(faulty, 4, 0, 0),
                    batcher.predict(faulty, 13, 0, 0),
                    batcher.predict(faulty, 8, 1, 1),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        good, bad, also_good = asyncio.run(go())
        assert good.n == 4 and also_good.n == 8
        assert isinstance(bad, RuntimeError)

    def test_drain_flushes_pending(self, entry):
        batcher = PredictBatcher(window_s=60.0)  # would park for a minute

        async def go():
            task = asyncio.ensure_future(batcher.predict(entry, 4, 0, 0))
            await asyncio.sleep(0)  # let the query enqueue
            await batcher.drain()
            return await asyncio.wait_for(task, timeout=1.0)

        result = asyncio.run(go())
        assert result.n == 4
