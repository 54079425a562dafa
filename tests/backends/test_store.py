"""Backend calibration artifacts: round trip, cache hits, corruption
discard, and version/id skew for stage ``backend-<id>``."""

from __future__ import annotations

import json

import pytest

from repro.backends import BACKENDS, backend_key, load_or_calibrate
from repro.backends.store import (
    BACKEND_FORMAT_VERSION,
    backend_stage,
    load_backend,
    store_backend,
)
from repro.backends.threshold import ThresholdBackend
from repro.pipeline import ArtifactStore

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
        store_backend(store, "henri", FINGERPRINT, backend, calibrated)
        loaded = load_backend(store, "henri", FINGERPRINT, backend)
        assert loaded is not None
        queries = _queries(calibrated)
        assert loaded.predict_batch(queries) == calibrated.predict_batch(
            queries
        )

    def test_stage_addressing(self):
        backend = ThresholdBackend()
        assert backend_stage("threshold") == "backend-threshold"
        key = backend_key("henri", backend, FINGERPRINT)
        assert key.platform == "henri"
        assert key.stage == "backend-threshold"
        assert key.version == str(backend.version)
        assert key.fingerprint == backend.fingerprint(FINGERPRINT)

    def test_missing_entry_is_a_miss(self, store):
        assert (
            load_backend(store, "henri", FINGERPRINT, ThresholdBackend())
            is None
        )


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


class TestCorruption:
    def _saved(self, store, henri):
        backend = ThresholdBackend()
        calibrated = backend.calibrate(henri.dataset, henri.platform)
        store_backend(store, "henri", FINGERPRINT, backend, calibrated)
        return backend, backend_key("henri", backend, FINGERPRINT)

    def _replace(self, store, key, payloads):
        """Swap an entry's payloads (save alone keeps an existing entry)."""
        store.discard(key)
        store.save(key, payloads)

    def test_garbage_json_is_discarded(self, store, henri, caplog):
        backend, key = self._saved(store, henri)
        self._replace(store, key, {"backend.json": "{not json"})
        with caplog.at_level("WARNING", logger="repro.backends"):
            assert load_backend(store, "henri", FINGERPRINT, backend) is None
        assert "discarding invalid backend artifact" in caplog.text
        # The defective entry is gone: the next load is a clean miss,
        # and load_or_calibrate recalibrates + republishes.
        assert store.load(key) is None
        _, cached = load_or_calibrate(
            store, backend, henri.dataset, henri.platform, FINGERPRINT
        )
        assert cached is False
        assert load_backend(store, "henri", FINGERPRINT, backend) is not None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(format_version=BACKEND_FORMAT_VERSION + 1),
            lambda d: d.update(backend_id="somebody-else"),
            lambda d: d.update(backend_version=99),
            lambda d: d.update(state=[1, 2, 3]),
            lambda d: d.pop("state"),
        ],
        ids=["format", "id", "version", "state-type", "state-missing"],
    )
    def test_skewed_artifacts_are_discarded(self, store, henri, mutate):
        backend, key = self._saved(store, henri)
        payloads = store.load(key)
        data = json.loads(payloads["backend.json"])
        mutate(data)
        self._replace(store, key, {"backend.json": json.dumps(data)})
        assert load_backend(store, "henri", FINGERPRINT, backend) is None
        assert store.load(key) is None

    def test_defective_state_is_discarded(self, store, henri):
        """A structurally valid envelope whose state from_state rejects
        (the ModelError contract) is also a discard, not a crash."""
        backend, key = self._saved(store, henri)
        payloads = store.load(key)
        data = json.loads(payloads["backend.json"])
        data["state"] = {"local": "nonsense"}
        self._replace(store, key, {"backend.json": json.dumps(data)})
        assert load_backend(store, "henri", FINGERPRINT, backend) is None
