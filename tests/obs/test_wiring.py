"""Tracing wired through the pipeline: coverage and zero interference.

Two contracts: (1) a traced run records spans for all four stages plus
the store's hit/miss events, correctly nested under the run span;
(2) results are bit-identical with tracing on and off — instrumentation
observes, never perturbs.
"""

from repro.bench import SweepConfig
from repro.evaluation import run_platform_experiment
from repro.obs import tracing
from repro.pipeline import ArtifactStore
from tests.pipeline.test_pipeline_cache import assert_results_identical

CONFIG = SweepConfig(seed=3)

STAGES = ("measure", "calibrate", "predict", "score")


class TestPipelineSpans:
    def test_cold_run_covers_all_stages_and_misses(self, tmp_path):
        with tracing() as tracer:
            run_platform_experiment(
                "henri", config=CONFIG, store=ArtifactStore(tmp_path)
            )
        names = {s.name for s in tracer.spans()}
        for stage in STAGES:
            assert f"pipeline.{stage}" in names
        assert "pipeline.run" in names
        assert "sweep.grid" in names
        assert "sweep.placement" in names
        assert "store.save" in names
        totals = tracer.counter_totals()
        assert totals.get("store.miss", 0) >= 1
        assert totals.get("store.store", 0) >= 1
        assert "store.hit" not in totals

    def test_warm_run_records_hits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_platform_experiment("henri", config=CONFIG, store=store)
        with tracing() as tracer:
            run_platform_experiment("henri", config=CONFIG, store=store)
        totals = tracer.counter_totals()
        assert totals.get("store.hit", 0) >= 2  # measure + calibrate
        assert totals.get("store.store", 0) == 0
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["pipeline.measure"].tags["source"] == "cached"
        assert by_name["pipeline.calibrate"].tags["source"] == "cached"
        assert by_name["pipeline.predict"].tags["source"] == "derived"

    def test_stage_spans_nest_under_run(self, tmp_path):
        with tracing() as tracer:
            run_platform_experiment(
                "henri", config=CONFIG, store=ArtifactStore(tmp_path)
            )
        by_name = {s.name: s for s in tracer.spans()}
        run_id = by_name["pipeline.run"].span_id
        for stage in STAGES:
            assert by_name[f"pipeline.{stage}"].parent_id == run_id
        assert by_name["pipeline.run"].tags["platform"] == "henri"

    def test_stage_spans_tag_platform(self, tmp_path):
        with tracing() as tracer:
            run_platform_experiment(
                "henri", config=CONFIG, store=ArtifactStore(tmp_path)
            )
        for stage in STAGES:
            record = next(
                s for s in tracer.spans() if s.name == f"pipeline.{stage}"
            )
            assert record.tags["platform"] == "henri"


class TestTracingDoesNotPerturb:
    def test_results_bit_identical_on_and_off(self):
        plain = run_platform_experiment("henri", config=CONFIG)
        with tracing():
            traced = run_platform_experiment("henri", config=CONFIG)
        assert_results_identical(plain, traced)

    def test_cached_results_bit_identical(self, tmp_path):
        cold = run_platform_experiment(
            "henri", config=CONFIG, cache_dir=tmp_path
        )
        with tracing():
            warm = run_platform_experiment(
                "henri", config=CONFIG, cache_dir=tmp_path
            )
        assert warm.stats.cached_stages == ("measure", "calibrate")
        assert_results_identical(cold, warm)
