"""The artifact store contract: atomicity, verification, degradation.

Every corruption scenario must degrade to a recompute (``load`` returns
``None``) — never a crash, never stale data served as fresh.
"""

import json
import threading

import pytest

from repro.errors import PipelineError
from repro.pipeline.store import StageKey
from repro.pipeline.store import MANIFEST_VERSION, ArtifactStore


def make_key(
    stage="measure", platform="henri", version="1", fingerprint="ab" * 8
):
    return StageKey(
        platform=platform, stage=stage, version=version, fingerprint=fingerprint
    )


PAYLOADS = {"dataset.csv": "a,b\r\n1,2\r\n", "meta.json": '{"x": 1}'}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestRoundTrip:
    def test_save_load_exact(self, store):
        key = make_key()
        store.save(key, PAYLOADS, provenance={"note": "test"})
        assert store.load(key) == PAYLOADS
        assert store.stats.stores == 1
        assert store.stats.hits == 1

    def test_missing_entry_is_a_miss(self, store):
        assert store.load(make_key()) is None
        assert store.stats.misses == 1
        assert store.stats.discards == 0

    def test_crlf_payload_survives(self, store):
        """CSV payloads carry \\r\\n; newline translation would corrupt them."""
        key = make_key()
        store.save(key, {"curves.csv": "n,v\r\n1,2.5\r\n"})
        assert store.load(key)["curves.csv"] == "n,v\r\n1,2.5\r\n"

    def test_fresh_handle_reads_existing_entry(self, store):
        key = make_key()
        store.save(key, PAYLOADS)
        other = ArtifactStore(store.root)
        assert other.load(key) == PAYLOADS

    def test_no_temp_residue(self, store):
        store.save(make_key(), PAYLOADS)
        tmp = store.root / ".tmp"
        assert not tmp.exists() or not any(tmp.iterdir())


class TestSaveValidation:
    def test_empty_payloads_rejected(self, store):
        with pytest.raises(PipelineError, match="empty artifact"):
            store.save(make_key(), {})

    @pytest.mark.parametrize(
        "name", ["../escape", "a/b", ".hidden", "manifest.json", "stats.json"]
    )
    def test_bad_payload_names_rejected(self, store, name):
        with pytest.raises(PipelineError, match="payload file name"):
            store.save(make_key(), {name: "x"})

    def test_root_must_be_a_directory(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("not a dir")
        with pytest.raises(PipelineError, match="not a directory"):
            ArtifactStore(target)


class TestPublishFailures:
    """Only a *lost race* is a duplicate; every other rename failure
    must propagate — a swallowed ENOSPC would silently drop the entry
    and look exactly like a recompute forever after."""

    def test_rename_oserror_without_a_winner_propagates(
        self, store, monkeypatch
    ):
        from pathlib import Path

        def refuse(self, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "rename", refuse)
        key = make_key()
        with pytest.raises(OSError, match="No space left"):
            store.save(key, PAYLOADS)
        assert store.stats.stores == 0
        assert store.stats.duplicates == 0
        # The failed save left no temp residue and no entry behind.
        monkeypatch.undo()
        assert store.load(key) is None
        tmp = store.root / ".tmp"
        assert not tmp.exists() or not any(tmp.iterdir())

    def test_rename_oserror_with_a_winner_is_a_duplicate(
        self, store, monkeypatch
    ):
        from pathlib import Path

        key = make_key()
        store.save(key, PAYLOADS)  # a concurrent writer already won

        def lose_the_race(self, target):
            raise OSError(39, "Directory not empty")

        monkeypatch.setattr(Path, "rename", lose_the_race)
        store.save(key, PAYLOADS)
        assert store.stats.stores == 1
        assert store.stats.duplicates == 1
        monkeypatch.undo()
        assert store.load(key) == PAYLOADS


def _entry_dir(store, key):
    return store.root / key.platform / key.entry_name


class TestCorruptionDegradesToRecompute:
    """Damaged entries are logged, discarded, and reported as misses."""

    def _saved(self, store):
        key = make_key()
        store.save(key, PAYLOADS)
        return key, _entry_dir(store, key)

    def _assert_discarded(self, store, key, entry):
        assert store.load(key) is None
        assert not entry.exists()
        assert store.stats.discards == 1
        assert store.stats.misses == 1

    def test_truncated_manifest(self, store):
        key, entry = self._saved(store)
        manifest = entry / "manifest.json"
        manifest.write_text(manifest.read_text()[:20])
        self._assert_discarded(store, key, entry)

    def test_manifest_not_json(self, store):
        key, entry = self._saved(store)
        (entry / "manifest.json").write_text("not json at all")
        self._assert_discarded(store, key, entry)

    def test_manifest_not_an_object(self, store):
        key, entry = self._saved(store)
        (entry / "manifest.json").write_text('["a", "list"]')
        self._assert_discarded(store, key, entry)

    def test_version_mismatch(self, store):
        key, entry = self._saved(store)
        manifest = json.loads((entry / "manifest.json").read_text())
        manifest["manifest_version"] = MANIFEST_VERSION + 1
        (entry / "manifest.json").write_text(json.dumps(manifest))
        self._assert_discarded(store, key, entry)

    def test_key_mismatch(self, store):
        key, entry = self._saved(store)
        manifest = json.loads((entry / "manifest.json").read_text())
        manifest["key"]["fingerprint"] = "0" * 16
        (entry / "manifest.json").write_text(json.dumps(manifest))
        self._assert_discarded(store, key, entry)

    def test_missing_payload_file(self, store):
        key, entry = self._saved(store)
        (entry / "dataset.csv").unlink()
        self._assert_discarded(store, key, entry)

    def test_payload_checksum_mismatch(self, store):
        key, entry = self._saved(store)
        (entry / "dataset.csv").write_bytes(b"tampered bytes")
        self._assert_discarded(store, key, entry)

    def test_manifest_lists_no_files(self, store):
        key, entry = self._saved(store)
        manifest = json.loads((entry / "manifest.json").read_text())
        manifest["files"] = {}
        (entry / "manifest.json").write_text(json.dumps(manifest))
        self._assert_discarded(store, key, entry)

    def test_recovery_after_discard(self, store):
        """A discarded entry can immediately be re-stored and served."""
        key, entry = self._saved(store)
        (entry / "dataset.csv").write_bytes(b"tampered")
        assert store.load(key) is None
        store.save(key, PAYLOADS)
        assert store.load(key) == PAYLOADS


class TestHitCounter:
    def test_hits_persist_across_handles(self, store):
        key = make_key()
        store.save(key, PAYLOADS)
        store.load(key)
        store.load(key)
        assert store.hits_recorded(key) == 2
        assert ArtifactStore(store.root).hits_recorded(key) == 2

    def test_absent_entry_has_zero_hits(self, store):
        assert store.hits_recorded(make_key()) == 0

    def test_corrupt_stats_sidecar_is_harmless(self, store):
        key = make_key()
        store.save(key, PAYLOADS)
        (_entry_dir(store, key) / "stats.json").write_text("garbage")
        assert store.load(key) == PAYLOADS  # payload still served
        assert store.hits_recorded(key) == 1  # counter restarted

    @pytest.mark.parametrize(
        "content",
        ['["a", "list"]', '{"hits": null}', '{"hits": "many"}', "{}", ""],
    )
    def test_degenerate_stats_reset_to_zero(self, store, content):
        """Regression: non-dict JSON and non-int hit counts used to
        raise (AttributeError / TypeError) out of hits_recorded; every
        shape of damage must read as zero and never crash."""
        key = make_key()
        store.save(key, PAYLOADS)
        (_entry_dir(store, key) / "stats.json").write_text(content)
        assert store.hits_recorded(key) == 0
        assert store.load(key) == PAYLOADS
        assert store.hits_recorded(key) == 1

    def test_negative_hits_clamped(self, store):
        key = make_key()
        store.save(key, PAYLOADS)
        (_entry_dir(store, key) / "stats.json").write_text('{"hits": -4}')
        assert store.hits_recorded(key) == 0

    def test_racing_readers_lose_no_hits(self, store):
        """Regression: the hit bump was a read-modify-write without a
        lock, so concurrent loads silently dropped increments."""
        key = make_key()
        store.save(key, PAYLOADS)
        n_threads, loads_each = 8, 5
        barrier = threading.Barrier(n_threads)
        failures = []

        def reader():
            handle = ArtifactStore(store.root)
            barrier.wait()
            for _ in range(loads_each):
                if handle.load(key) != PAYLOADS:
                    failures.append("bad payload")

        threads = [threading.Thread(target=reader) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert store.hits_recorded(key) == n_threads * loads_each


class TestInspection:
    def test_entries_and_find(self, store):
        k1 = make_key(stage="measure")
        k2 = make_key(stage="calibrate")
        store.save(k1, PAYLOADS)
        store.save(k2, {"m.json": "{}"})
        infos = store.entries()
        assert {i.entry_id for i in infos} == {k1.entry_id, k2.entry_id}
        by_id = {i.entry_id: i for i in infos}
        assert by_id[k1.entry_id].n_files == 2
        assert by_id[k1.entry_id].payload_bytes == sum(
            len(t.encode()) for t in PAYLOADS.values()
        )
        assert store.find(k1.entry_id) == k1

    def test_find_unknown_raises(self, store):
        with pytest.raises(PipelineError, match="no cache entry"):
            store.find("nope/measure-v1-feedfeedfeedfeed")

    def test_manifest_unknown_raises(self, store):
        with pytest.raises(PipelineError, match="no cache entry"):
            store.manifest(make_key())

    def test_manifest_carries_provenance(self, store):
        key = make_key()
        store.save(key, PAYLOADS, provenance={"sweep_config": {"seed": 7}})
        manifest = store.manifest(key)
        assert manifest["provenance"]["sweep_config"]["seed"] == 7
        assert manifest["manifest_version"] == MANIFEST_VERSION

    def test_clear(self, store):
        store.save(make_key(stage="measure"), PAYLOADS)
        store.save(make_key(stage="calibrate"), PAYLOADS)
        assert store.clear() == 2
        assert store.entries() == []
        assert store.clear() == 0


class TestConcurrentWriters:
    def test_racing_writers_are_safe(self, store):
        """N threads saving the same key: one wins, nobody corrupts."""
        key = make_key()
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            handle = ArtifactStore(store.root)
            barrier.wait()
            try:
                handle.save(key, PAYLOADS)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.load(key) == PAYLOADS
        tmp = store.root / ".tmp"
        assert not tmp.exists() or not any(tmp.iterdir())

    def test_racing_distinct_keys(self, store):
        keys = [make_key(fingerprint=f"{i:016x}") for i in range(6)]
        barrier = threading.Barrier(len(keys))

        def writer(k):
            handle = ArtifactStore(store.root)
            barrier.wait()
            handle.save(k, {"data.json": json.dumps({"k": k.fingerprint})})

        threads = [threading.Thread(target=writer, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in keys:
            assert store.load(k) == {
                "data.json": json.dumps({"k": k.fingerprint})
            }

    def test_second_save_is_a_duplicate_not_a_silent_drop(self, store):
        """Losing the publish race must bump ``duplicates``, not vanish."""
        key = make_key()
        store.save(key, PAYLOADS)
        store.save(key, PAYLOADS)  # entry exists: the rename loses
        assert store.stats.stores == 1
        assert store.stats.duplicates == 1
        assert store.load(key) == PAYLOADS

    def test_racing_writers_reconcile_the_books(self, store):
        """Across all handles, stores + duplicates == saves attempted."""
        key = make_key()
        n_writers = 8
        handles = [ArtifactStore(store.root) for _ in range(n_writers)]
        barrier = threading.Barrier(n_writers)
        errors = []

        def writer(handle):
            barrier.wait()
            try:
                handle.save(key, PAYLOADS)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(h,)) for h in handles
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stores = sum(h.stats.stores for h in handles)
        duplicates = sum(h.stats.duplicates for h in handles)
        assert stores == 1  # exactly one rename can win
        assert stores + duplicates == n_writers
        assert store.load(key) == PAYLOADS
