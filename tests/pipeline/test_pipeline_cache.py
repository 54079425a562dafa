"""Cache semantics of the pipeline.

The load-bearing guarantees: a warm run is bit-identical to a cold run
and provably skips the expensive stages; parallel execution is
bit-identical to serial; any config change invalidates; corruption
degrades to recompute.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.bench import SweepConfig
from repro.errors import PipelineError
from repro.evaluation import run_all_experiments, run_platform_experiment
from repro.pipeline import ArtifactStore, config_fingerprint

CONFIG = SweepConfig(seed=1)


def assert_results_identical(a, b):
    """Bit-for-bit equality of two ExperimentResults."""
    assert a.platform.name == b.platform.name
    assert a.dataset.to_csv(full_precision=True) == b.dataset.to_csv(
        full_precision=True
    )
    assert a.model.local.to_json() == b.model.local.to_json()
    assert a.model.remote.to_json() == b.model.remote.to_json()
    assert set(a.predictions) == set(b.predictions)
    for key in a.predictions:
        pa, pb = a.predictions[key], b.predictions[key]
        assert np.array_equal(pa.comp_parallel, pb.comp_parallel)
        assert np.array_equal(pa.comm_parallel, pb.comm_parallel)
        assert np.array_equal(pa.comp_alone, pb.comp_alone)
        assert pa.comm_alone == pb.comm_alone
    assert a.errors == b.errors
    assert a.sample_keys == b.sample_keys


class TestColdWarm:
    def test_warm_run_is_bit_identical_and_skips(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = run_platform_experiment("henri", config=CONFIG, store=store)
        assert cold.stats.source_of("measure") == "computed"
        assert cold.stats.source_of("calibrate") == "computed"
        assert cold.stats.source_of("predict") == "derived"
        assert cold.stats.source_of("score") == "derived"

        warm = run_platform_experiment("henri", config=CONFIG, store=store)
        assert warm.stats.cached_stages == ("measure", "calibrate")
        assert warm.stats.computed_stages == ()
        assert_results_identical(cold, warm)

    def test_cache_dir_and_store_are_equivalent(self, tmp_path):
        first = run_platform_experiment(
            "henri", config=CONFIG, cache_dir=tmp_path
        )
        second = run_platform_experiment(
            "henri", config=CONFIG, store=ArtifactStore(tmp_path)
        )
        assert second.stats.cached_stages == ("measure", "calibrate")
        assert_results_identical(first, second)

    def test_uncached_matches_cached(self, tmp_path):
        cached = run_platform_experiment(
            "henri", config=CONFIG, cache_dir=tmp_path
        )
        plain = run_platform_experiment("henri", config=CONFIG)
        assert plain.stats.cached_stages == ()
        assert_results_identical(cached, plain)

    def test_store_and_cache_dir_together_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="not both"):
            run_platform_experiment(
                "henri",
                config=CONFIG,
                store=ArtifactStore(tmp_path),
                cache_dir=tmp_path,
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_platforms_reject_store_and_cache_dir(self, tmp_path, jobs):
        """Checked before any platform runs, serial or fanned out."""
        store_root, cache_root = tmp_path / "store", tmp_path / "cache"
        with pytest.raises(PipelineError, match="not both"):
            run_all_experiments(
                config=CONFIG,
                store=ArtifactStore(store_root),
                cache_dir=cache_root,
                jobs=jobs,
            )
        assert not any(store_root.iterdir())
        assert not cache_root.exists()

    def test_experiment_facade_uses_the_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_platform_experiment("henri", config=CONFIG, store=store)
        before = store.stats.as_dict()
        second = run_platform_experiment("henri", config=CONFIG, store=store)
        after = store.stats.as_dict()
        assert after["hits"] == before["hits"] + 2  # measure + calibrate
        assert after["stores"] == before["stores"]
        assert_results_identical(first, second)


class TestFingerprintInvalidation:
    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"noiseless": True},
            {"repetitions": 3},
            {"labels": {"run": "b"}},
        ],
        ids=lambda c: next(iter(c)),
    )
    def test_every_field_changes_the_fingerprint(self, change):
        assert config_fingerprint(
            dataclasses.replace(CONFIG, **change)
        ) != config_fingerprint(CONFIG)

    @pytest.mark.parametrize(
        "config,fingerprint",
        [
            (SweepConfig(), "318de0648fde988b"),
            (SweepConfig(seed=1), "16d0f8fbe1d15ac4"),
            (SweepConfig(seed=7), "9260bd06eaab8a07"),
            (SweepConfig(seed=3, noiseless=True), "120c1c16c7ebab43"),
            (
                SweepConfig(repetitions=3, labels={"run": "b"}),
                "45bd20db643dc1a5",
            ),
        ],
    )
    def test_fingerprints_never_move(self, config, fingerprint):
        """Stored artifacts are addressed by these fingerprints, which
        still cover the fields an earlier measurement mode read."""
        assert config_fingerprint(config) == fingerprint

    def test_equal_configs_share_a_fingerprint(self):
        assert config_fingerprint(SweepConfig(seed=1)) == config_fingerprint(
            SweepConfig(seed=1)
        )

    def test_changed_config_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_platform_experiment("henri", config=CONFIG, store=store)
        other = run_platform_experiment(
            "henri", config=dataclasses.replace(CONFIG, seed=2), store=store
        )
        assert other.stats.computed_stages == ("measure", "calibrate")
        assert len(store.entries()) == 4  # both configs coexist


class TestCorruptionRecovery:
    def _warm_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = run_platform_experiment("henri", config=CONFIG, store=store)
        return store, cold

    def _measure_entry(self, store):
        (info,) = [e for e in store.entries() if e.key.stage == "measure"]
        return store.root / info.key.platform / info.key.entry_name

    def test_tampered_payload_recomputes(self, tmp_path):
        store, cold = self._warm_store(tmp_path)
        (self._measure_entry(store) / "dataset.csv").write_bytes(b"junk")
        warm = run_platform_experiment("henri", config=CONFIG, store=store)
        assert warm.stats.source_of("measure") == "computed"
        assert warm.stats.source_of("calibrate") == "cached"
        assert_results_identical(cold, warm)

    def test_truncated_manifest_recomputes(self, tmp_path):
        store, cold = self._warm_store(tmp_path)
        manifest = self._measure_entry(store) / "manifest.json"
        manifest.write_text(manifest.read_text()[:25])
        warm = run_platform_experiment("henri", config=CONFIG, store=store)
        assert warm.stats.source_of("measure") == "computed"
        assert_results_identical(cold, warm)

    def test_version_mismatch_recomputes(self, tmp_path):
        store, cold = self._warm_store(tmp_path)
        manifest_path = self._measure_entry(store) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["manifest_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        warm = run_platform_experiment("henri", config=CONFIG, store=store)
        assert warm.stats.source_of("measure") == "computed"
        assert_results_identical(cold, warm)

    def test_undeserialisable_entry_recomputes(self, tmp_path):
        """A checksum-valid entry for the wrong platform is discarded."""
        store, cold = self._warm_store(tmp_path)
        entry = self._measure_entry(store)
        meta_path = entry / "dataset_meta.json"
        meta = json.loads(meta_path.read_text())
        meta["platform"] = "diablo"
        new_text = json.dumps(meta)
        meta_path.write_bytes(new_text.encode("utf-8"))
        # Re-sign the manifest so only deserialisation can object.
        import hashlib

        manifest_path = entry / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["dataset_meta.json"]["sha256"] = hashlib.sha256(
            new_text.encode("utf-8")
        ).hexdigest()
        manifest["files"]["dataset_meta.json"]["bytes"] = len(new_text)
        manifest_path.write_bytes(json.dumps(manifest).encode("utf-8"))

        warm = run_platform_experiment("henri", config=CONFIG, store=store)
        assert warm.stats.source_of("measure") == "computed"
        assert_results_identical(cold, warm)


class TestParallelBitIdentity:
    def test_grid_jobs_in_processes(self):
        serial = run_platform_experiment("henri", config=CONFIG)
        par = run_platform_experiment("henri", config=CONFIG, jobs=2)
        assert_results_identical(serial, par)

    def test_all_platforms_parallel_matches_serial(self):
        serial = run_all_experiments(config=CONFIG)
        parallel = run_all_experiments(config=CONFIG, jobs=3)
        assert list(serial) == list(parallel)  # Table I order preserved
        for name in serial:
            assert_results_identical(serial[name], parallel[name])

    def test_run_all_experiments_facade(self, tmp_path):
        serial = run_all_experiments(config=CONFIG, cache_dir=tmp_path)
        warm = run_all_experiments(config=CONFIG, cache_dir=tmp_path, jobs=2)
        for name in serial:
            assert_results_identical(serial[name], warm[name])

    def test_parallel_writers_share_one_cache(self, tmp_path):
        """Platforms fanned out over one cache dir all persist cleanly."""
        run_all_experiments(config=CONFIG, cache_dir=tmp_path, jobs=3)
        store = ArtifactStore(tmp_path)
        warm = run_all_experiments(config=CONFIG, store=store)
        for result in warm.values():
            assert result.stats.cached_stages == ("measure", "calibrate")
