"""Backend calibration artifacts: round trip, addressing and cache hits
for stage ``backend-<id>``.  Defective artifacts are covered, with
every other artifact kind, by tests/pipeline/test_artifact_cache.py."""

from __future__ import annotations

import functools

import pytest

from repro.backends import BACKENDS, backend_key, load_or_calibrate
from repro.backends.base import decode_backend, encode_backend
from repro.backends.threshold import ThresholdBackend
from repro.pipeline import ArtifactStore
from repro.pipeline.store import load_decoded

FINGERPRINT = "deadbeefcafe"


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


@pytest.fixture(scope="module")
def henri(henri_experiment):
    return henri_experiment


def _queries(calibrated):
    k = calibrated.n_numa_nodes
    return [
        (n, mc, mm)
        for n in range(0, 17, 4)
        for mc in range(k)
        for mm in range(k)
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("backend_id", list(BACKENDS))
    def test_store_then_load_is_identical(self, store, henri, backend_id):
        backend = BACKENDS[backend_id]
        calibrated = backend.calibrate(henri.dataset, henri.platform)
        key = backend_key("henri", backend, FINGERPRINT)
        store.save(key, encode_backend(backend, calibrated))
        loaded = decode_backend(backend, store.load(key))
        queries = _queries(calibrated)
        assert loaded.predict_batch(queries) == calibrated.predict_batch(
            queries
        )

    def test_stage_addressing(self):
        backend = ThresholdBackend()
        key = backend_key("henri", backend, FINGERPRINT)
        assert key.platform == "henri"
        assert key.stage == "backend-threshold"
        assert key.version == str(backend.version)
        assert key.fingerprint == backend.fingerprint(FINGERPRINT)

    def test_missing_entry_is_a_miss(self, store):
        backend = ThresholdBackend()
        key = backend_key("henri", backend, FINGERPRINT)
        decode = functools.partial(decode_backend, backend)
        assert load_decoded(store, key, decode) is None


class TestLoadOrCalibrate:
    def test_miss_then_hit(self, store, henri):
        backend = ThresholdBackend()
        first, cached = load_or_calibrate(
            store, backend, henri.dataset, henri.platform, FINGERPRINT
        )
        assert cached is False
        second, cached = load_or_calibrate(
            store, backend, henri.dataset, henri.platform, FINGERPRINT
        )
        assert cached is True
        queries = _queries(first)
        assert second.predict_batch(queries) == first.predict_batch(queries)

    def test_without_a_store_calibrates_every_time(self, henri):
        backend = ThresholdBackend()
        calibrated, cached = load_or_calibrate(
            None, backend, henri.dataset, henri.platform, FINGERPRINT
        )
        assert cached is False
        assert calibrated.n_numa_nodes == henri.model.n_numa_nodes

    def test_fingerprint_partitions_the_cache(self, store, henri):
        backend = ThresholdBackend()
        load_or_calibrate(
            store, backend, henri.dataset, henri.platform, "fp-one"
        )
        # A different sweep fingerprint must not see fp-one's artifact.
        _, cached = load_or_calibrate(
            store, backend, henri.dataset, henri.platform, "fp-two"
        )
        assert cached is False
