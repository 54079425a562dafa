"""Golden pins of the §IV pipeline: answers, spans and stored entries.

* ``TestGoldenResults`` hashes every platform's
  :func:`~repro.evaluation.experiments.run_platform_experiment` result
  at seeds 1 and 7: the dataset's full-precision CSV, both
  instantiations' JSON, each placement's prediction arrays, its
  ``comm_alone``, the Table II row and the sample placements.
* ``TestGoldenStoreRun`` runs henri cold and then warm through one
  fresh store, and pins each run's spans, the store's counters and
  every stored entry's manifest.

A moved digest is a changed answer, never a value to re-record.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench import SweepConfig
from repro.evaluation import run_platform_experiment
from repro.obs import tracing
from repro.pipeline import ArtifactStore
from repro.topology import platform_names
from tests.tie_order import digest_hint

SEEDS = (1, 7)


def result_digest(result) -> str:
    """SHA-256 over everything one experiment result answers."""
    digest = hashlib.sha256()
    digest.update(result.dataset.to_csv(full_precision=True).encode("utf-8"))
    digest.update(result.model.local.to_json().encode("utf-8"))
    digest.update(result.model.remote.to_json().encode("utf-8"))
    for key in sorted(result.predictions):
        prediction = result.predictions[key]
        digest.update(repr(key).encode("utf-8"))
        for column in (
            prediction.comp_parallel,
            prediction.comm_parallel,
            prediction.comp_alone,
        ):
            digest.update(column.tobytes())
        digest.update(repr(prediction.comm_alone).encode("utf-8"))
    digest.update(repr(result.errors.as_row()).encode("utf-8"))
    digest.update(repr(result.sample_keys).encode("utf-8"))
    return digest.hexdigest()


#: platform -> (seed 1 digest, seed 7 digest)
RESULT_DIGESTS = {
    "dahu": (
        "bf836e8c254e6301c88b69568056e9f8b61218de8874f66e58e9ee9130c4ad7e",
        "fbdfa6382e3e7a3f28ff64921838e49a7a5886ceacc3c680c6acca88abe6e3ec",
    ),
    "diablo": (
        "201f23bd1ab83c181f5e114dc8c89b5d4b5a3fa49f0ed31288c391f781fee424",
        "b2092d1b14646f8da86bd8161c37e8e01df959c4286767bd5c1fdf74a435bbec",
    ),
    "henri": (
        "01d30de1301c530e51ddce4d76a0f889fa833a9c1de534b270f0a6d171add586",
        "1a322489a58051236196977d5e64b83bd78a85b1de8454175b8230e1ef268363",
    ),
    "henri-subnuma": (
        "8819b0d64c88ac33899b7894aaf11160d926f532c64f21b0d6908bfb25078228",
        "e639760f515edc33bfe4e6592fbe7f95315505b9d7faca0f0309eaba44a7ac32",
    ),
    "occigen": (
        "ad9f45c971be4d3efe0e12d8511359b30d077029b253fc2b58888ab1a58853a3",
        "256f5d0ce6e2eddf92bc10085ff8cbec64ad121775e9b047cfd7e80424803b0f",
    ),
    "pyxis": (
        "9ca676b459c187f1ab35f76fc6e7fa6089cac7f96a68a5bfae874efcac831a63",
        "da0d3a9d4fe307c198b83be7d056278bdfc2f9f6399936b1e0ec3d8d61be0869",
    ),
}


class TestGoldenResults:
    def test_digests_cover_every_platform(self):
        assert sorted(RESULT_DIGESTS) == sorted(platform_names())

    @pytest.mark.parametrize("platform", sorted(RESULT_DIGESTS))
    def test_result_digests(self, platform):
        digests = tuple(
            result_digest(
                run_platform_experiment(platform, config=SweepConfig(seed=seed))
            )
            for seed in SEEDS
        )
        assert digests == RESULT_DIGESTS[platform], digest_hint()


def span_sequence(tracer) -> list[tuple[str, str | None, str | None]]:
    """``(name, parent name, source tag)`` of each span, in start order."""
    records = sorted(tracer.spans(), key=lambda record: record.span_id)
    names = {record.span_id: record.name for record in records}
    return [
        (record.name, names.get(record.parent_id), record.tags.get("source"))
        for record in records
    ]


def pipeline_tags(tracer) -> dict[str, dict]:
    """The tags of each ``pipeline.*`` span, by span name."""
    return {
        record.name: dict(record.tags)
        for record in tracer.spans()
        if record.name.startswith("pipeline.")
    }


def stage_tags(measure: str, calibrate: str) -> dict[str, dict]:
    return {
        "pipeline.run": {"platform": "henri", "cached_store": True, "jobs": 1},
        "pipeline.measure": {"platform": "henri", "source": measure},
        "pipeline.calibrate": {"platform": "henri", "source": calibrate},
        "pipeline.predict": {"platform": "henri", "source": "derived"},
        "pipeline.score": {"platform": "henri", "source": "derived"},
    }


def manifests(store: ArtifactStore) -> dict[str, dict]:
    """Every stored entry's manifest, without its creation time."""
    found = {}
    for info in store.entries():
        manifest = dict(store.manifest(info.key))
        del manifest["created_unix"]
        found[info.entry_id] = manifest
    return found


COLD_SPANS = [
    ("pipeline.run", None, None),
    ("pipeline.measure", "pipeline.run", "computed"),
    ("store.load", "pipeline.measure", None),
    ("sweep.grid", "pipeline.measure", None),
    *[("sweep.placement", "sweep.grid", None)] * 4,
    ("store.save", "pipeline.measure", None),
    ("pipeline.calibrate", "pipeline.run", "computed"),
    ("store.load", "pipeline.calibrate", None),
    ("store.save", "pipeline.calibrate", None),
    ("pipeline.predict", "pipeline.run", "derived"),
    ("pipeline.score", "pipeline.run", "derived"),
]

WARM_SPANS = [
    ("pipeline.run", None, None),
    ("pipeline.measure", "pipeline.run", "cached"),
    ("store.load", "pipeline.measure", None),
    ("pipeline.calibrate", "pipeline.run", "cached"),
    ("store.load", "pipeline.calibrate", None),
    ("pipeline.predict", "pipeline.run", "derived"),
    ("pipeline.score", "pipeline.run", "derived"),
]

#: ``SweepConfig(seed=1).to_dict()``, as each manifest records it.
PROVENANCE = {
    "sweep_config": {
        "bytes_per_core": 536870912,
        "labels": {},
        "message_bytes": 64000000,
        "noiseless": False,
        "repetitions": 1,
        "seed": 1,
        "use_engine": False,
    }
}


def _key(stage: str) -> dict[str, str]:
    return {
        "fingerprint": "16d0f8fbe1d15ac4",
        "platform": "henri",
        "stage": stage,
        "stage_version": "1",
    }


def _file(size: int, sha256: str) -> dict:
    return {"bytes": size, "sha256": sha256}


MANIFESTS = {
    "henri/calibrate-v1-16d0f8fbe1d15ac4": {
        "files": {
            "model_local.json": _file(
                313,
                "a9401d6a8f0391e230ade523f77b437ac5ccd615be0a6fc6ff6344f4196fa41e",
            ),
            "model_meta.json": _file(
                48,
                "1a1792f60ab1477b706fc14b459252180b100e4a19b6d531fab65e06b1db91da",
            ),
            "model_remote.json": _file(
                313,
                "819c6d01be150d682131d3c2e5a1f66f98889c3d69dd070b15077739eb2f1240",
            ),
        },
        "key": _key("calibrate"),
        "manifest_version": 1,
        "provenance": PROVENANCE,
    },
    "henri/measure-v1-16d0f8fbe1d15ac4": {
        "files": {
            "dataset.csv": _file(
                6382,
                "27f49e30e5b818080a8842af882f42561a73487dca09391dba032a0cb8207261",
            ),
            "dataset_meta.json": _file(
                70,
                "1a471ef132e6015dfadb069354316021951b3d76a462888e06d3e5279f0d9481",
            ),
        },
        "key": _key("measure"),
        "manifest_version": 1,
        "provenance": PROVENANCE,
    },
}


class TestGoldenStoreRun:
    def test_cold_then_warm_henri(self, tmp_path):
        config = SweepConfig(seed=1)
        store = ArtifactStore(tmp_path)
        with tracing() as cold:
            cold_result = run_platform_experiment(
                "henri", config=config, store=store
            )
        assert span_sequence(cold) == COLD_SPANS
        assert pipeline_tags(cold) == stage_tags("computed", "computed")
        assert store.stats.as_dict() == {
            "hits": 0,
            "misses": 2,
            "stores": 2,
            "discards": 0,
            "duplicates": 0,
        }
        assert manifests(store) == MANIFESTS, digest_hint()

        with tracing() as warm:
            warm_result = run_platform_experiment(
                "henri", config=config, store=store
            )
        assert span_sequence(warm) == WARM_SPANS
        assert pipeline_tags(warm) == stage_tags("cached", "cached")
        assert store.stats.as_dict() == {
            "hits": 2,
            "misses": 2,
            "stores": 2,
            "discards": 0,
            "duplicates": 0,
        }
        assert manifests(store) == MANIFESTS, digest_hint()
        assert result_digest(warm_result) == result_digest(cold_result)
        assert result_digest(cold_result) == RESULT_DIGESTS["henri"][0], (
            digest_hint()
        )
