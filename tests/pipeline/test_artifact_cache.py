"""The one cache policy, exercised on every artifact kind.

* ``TestCachePolicy`` pins :func:`~repro.pipeline.store.load_or_compute`
  itself: what is served, what counts as a defect, what propagates.
* ``TestCorruption`` damages one entry of a warm store — every kind
  (``measure``, ``calibrate``, each ``backend-<id>``, ``tournament``)
  times every defect — and requires the next pipeline + tournament run
  to recompute exactly that entry, republish it bit-identically and
  return the cold run's results.
* ``TestGoldenStore`` reads a store written by an earlier release
  (``fixtures/occigen-seed0``): every entry must still be served, and
  decoding then re-encoding each one must reproduce its bytes, so any
  layout change has to bump a format version on purpose.
"""

from __future__ import annotations

import functools
import json
import shutil
from pathlib import Path

import pytest

from repro.backends import BACKENDS
from repro.backends.base import (
    BACKEND_FORMAT_VERSION,
    decode_backend,
    encode_backend,
)
from repro.backends.tournament import (
    TOURNAMENT_FORMAT_VERSION,
    decode_tournament,
    encode_tournament,
    run_platform_tournament,
)
from repro.bench import SweepConfig
from repro.errors import ModelError
from repro.pipeline import (
    ArtifactStore,
    CalibrateStage,
    MeasureStage,
    PipelineContext,
    StageKey,
    run_platform_pipeline,
)
from repro.pipeline.store import load_or_compute
from repro.topology import get_platform

PLATFORM = "occigen"
CONFIG = SweepConfig(seed=0)
GOLDEN = Path(__file__).parent / "fixtures" / "occigen-seed0"


def _kinds(roster):
    return (
        "measure",
        "calibrate",
        *(f"backend-{backend_id}" for backend_id in roster),
        "tournament",
    )


KINDS = _kinds(BACKENDS)


def _run(store, roster=tuple(BACKENDS)):
    """One pipeline + tournament pass: ``({kind: served?}, run, tour)``."""
    run = run_platform_pipeline(PLATFORM, config=CONFIG, store=store)
    tour = run_platform_tournament(
        run.result,
        config=CONFIG,
        store=store,
        backends={backend_id: BACKENDS[backend_id] for backend_id in roster},
    )
    served = {
        "measure": run.stats.source_of("measure") == "cached",
        "calibrate": run.stats.source_of("calibrate") == "cached",
        **{f"backend-{b}": c for b, c in tour.backend_cached.items()},
        "tournament": tour.cached,
    }
    return served, run, tour


def _material(run, tour):
    """Everything a run returns, in exactly comparable form."""
    result = run.result
    return (
        result.dataset.to_csv(full_precision=True),
        result.model.local.to_json(),
        result.model.remote.to_json(),
        {
            key: (
                pred.comp_parallel.tobytes(),
                pred.comm_parallel.tobytes(),
                pred.comp_alone.tobytes(),
                pred.comm_alone,
            )
            for key, pred in result.predictions.items()
        },
        result.errors,
        {b: c.state_dict() for b, c in tour.calibrated.items()},
        encode_tournament(tour.tournament),
    )


def _payload_bytes(root: Path) -> dict[str, bytes]:
    """Every payload file the store's manifests list, by relative path."""
    found = {}
    for manifest in sorted(root.glob("*/*/manifest.json")):
        entry = manifest.parent
        for name in json.loads(manifest.read_text("utf-8"))["files"]:
            found[f"{entry.relative_to(root)}/{name}"] = (
                entry / name
            ).read_bytes()
    return found


def _entry(root: Path, kind: str) -> Path:
    (entry,) = (root / PLATFORM).glob(f"{kind}-v*")
    return entry


def _member(kind: str) -> str:
    """The JSON member carrying each kind's envelope."""
    return {
        "measure": "dataset_meta.json",
        "calibrate": "model_meta.json",
        "tournament": "tournament.json",
    }.get(kind, "backend.json")


# ---- defects -----------------------------------------------------------------------
#
# Each defect is ``damage(store, entry, kind)``.  The first three break
# the store's own checks (checksum, manifest); every other one is saved
# through ``store.save``, so its checksums are valid and only the
# kind's decoder can object.

_DROP = object()


def _flip_bit(store, entry, kind):
    path = entry / _member(kind)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _truncate_manifest(store, entry, kind):
    manifest = entry / "manifest.json"
    manifest.write_text(manifest.read_text("utf-8")[:25], "utf-8")


def _skew_manifest_version(store, entry, kind):
    path = entry / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    manifest["manifest_version"] = 999
    path.write_text(json.dumps(manifest), "utf-8")


def _resave(edit):
    """A checksum-valid defect: ``edit(payloads, member)`` then save."""

    def damage(store, entry, kind):
        key = store.find(f"{PLATFORM}/{entry.name}")
        payloads = store.load(key)
        edit(payloads, _member(kind))
        store.discard(key)  # save alone keeps an existing entry
        store.save(key, payloads)

    return damage


def _text(text):
    def edit(payloads, member):
        payloads[member] = text

    return _resave(edit)


def _fields(**changes):
    """Rewrite envelope fields of the member (``_DROP`` removes one)."""

    def edit(payloads, member):
        data = json.loads(payloads[member])
        for name, value in changes.items():
            if value is _DROP:
                del data[name]
            else:
                data[name] = value
        payloads[member] = json.dumps(data)

    return _resave(edit)


def _rename_member(payloads, member):
    # Renamed rather than dropped: the store refuses an empty entry.
    payloads["renamed.json"] = payloads.pop(member)


# Case ids are kept short: the suite's reports cut test names at 100
# characters, and every case must stay distinguishable there.
GENERIC = {
    "bit-flip": _flip_bit,
    "cut-manifest": _truncate_manifest,
    "manifest-skew": _skew_manifest_version,
    "no-member": _resave(_rename_member),
    "bad-json": _text("{not json"),
    "not-object": _text("[]"),
}

#: Skewed envelope fields: format version and identity, per kind.
SKEWS = {
    "measure": {"platform": _fields(platform="diablo")},
    "calibrate": {
        "topology": _fields(nodes_per_socket=99),
        "no-topology": _fields(nodes_per_socket=_DROP),
    },
    "backend": {
        "format": _fields(format_version=BACKEND_FORMAT_VERSION + 1),
        "id": _fields(backend_id="somebody-else"),
        "version": _fields(backend_version=99),
        "state-type": _fields(state=[1, 2, 3]),
        "no-state": _fields(state=_DROP),
        # A well-formed envelope whose state from_state rejects.
        "bad-state": _fields(state={"local": "nonsense"}),
    },
    "tournament": {
        "format": _fields(format_version=TOURNAMENT_FORMAT_VERSION + 1),
        "platform": _fields(platform="diablo"),
        "roster": _fields(roster=list(reversed(BACKENDS))),
    },
}

CASES = [
    pytest.param(
        kind, damage, id=f"{kind.removeprefix('backend-')}-{name}"
    )
    for kind in KINDS
    for name, damage in (
        *GENERIC.items(),
        *SKEWS[kind.split("-")[0]].items(),
    )
]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold run's store, payload bytes and results."""
    root = tmp_path_factory.mktemp("cold")
    served, run, tour = _run(ArtifactStore(root))
    assert not any(served.values())
    return root, _payload_bytes(root), _material(run, tour)


class TestCorruption:
    def test_cold_store_holds_every_kind(self, cold):
        root, _, _ = cold
        stages = [e.key.stage for e in ArtifactStore(root).entries()]
        assert sorted(stages) == sorted(KINDS)

    @pytest.mark.parametrize("kind, damage", CASES)
    def test_recovers(self, tmp_path, cold, caplog, kind, damage):
        cold_root, cold_payloads, cold_material = cold
        root = tmp_path / "store"
        shutil.copytree(cold_root, root)
        entry = _entry(root, kind)
        damage(ArtifactStore(root), entry, kind)

        store = ArtifactStore(root)
        with caplog.at_level("WARNING", logger="repro.pipeline"):
            served, run, tour = _run(store)
        # Exactly the damaged entry is discarded, recomputed and
        # republished; every other kind is still a hit.
        assert served == {k: k != kind for k in KINDS}
        assert f"{PLATFORM}/{entry.name}" in caplog.text
        assert store.stats.discards == 1
        assert store.stats.stores == 1
        assert _payload_bytes(root) == cold_payloads
        assert _material(run, tour) == cold_material


class TestCachePolicy:
    KEY = StageKey(platform="p", stage="thing", version="1", fingerprint="f")

    @staticmethod
    def _counted(value="v"):
        calls = []

        def compute():
            calls.append(1)
            return value

        return compute, calls

    @staticmethod
    def _encode(value):
        return {"value.txt": value}

    @staticmethod
    def _decode(payloads):
        return payloads["value.txt"]

    def test_without_a_store_it_just_computes(self):
        compute, calls = self._counted()
        for _ in range(2):
            assert load_or_compute(
                None, self.KEY, compute, self._encode, self._decode
            ) == ("v", False)
        assert len(calls) == 2

    def test_miss_publishes_then_hit_is_served(self, tmp_path):
        store = ArtifactStore(tmp_path)
        compute, calls = self._counted()
        args = (store, self.KEY, compute, self._encode, self._decode)
        first = load_or_compute(*args, provenance={"why": "test"})
        assert first == ("v", False)
        assert load_or_compute(*args) == ("v", True)
        assert len(calls) == 1
        assert store.manifest(self.KEY)["provenance"] == {"why": "test"}

    @pytest.mark.parametrize(
        "error",
        [
            ModelError("bad"),
            KeyError("k"),
            TypeError("t"),
            ValueError("v"),
            json.JSONDecodeError("j", "doc", 0),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_decode_error_is_a_defect(self, tmp_path, error):
        store = ArtifactStore(tmp_path)
        store.save(self.KEY, {"value.txt": "stale"})

        def decode(payloads):
            raise error

        compute, calls = self._counted("fresh")
        assert load_or_compute(
            store, self.KEY, compute, self._encode, decode
        ) == ("fresh", False)
        assert store.stats.discards == 1
        assert store.load(self.KEY) == {"value.txt": "fresh"}

    def test_a_decoder_bug_propagates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(self.KEY, {"value.txt": "kept"})

        def decode(payloads):
            raise RuntimeError("a bug, not a defect")

        compute, calls = self._counted()
        with pytest.raises(RuntimeError, match="a bug"):
            load_or_compute(store, self.KEY, compute, self._encode, decode)
        assert not calls
        assert store.load(self.KEY) == {"value.txt": "kept"}


@pytest.fixture
def golden(tmp_path):
    """A private copy of the golden store (loads bump its hit counters)."""
    root = tmp_path / "golden"
    shutil.copytree(GOLDEN, root)
    return root


def _golden_roster() -> tuple[str, ...]:
    """The roster the golden store was written with: registering a new
    backend later must not invalidate it."""
    (table,) = GOLDEN.glob(f"{PLATFORM}/tournament-v*/tournament.json")
    return tuple(json.loads(table.read_text("utf-8"))["roster"])


def _codec(kind: str, ctx: PipelineContext):
    """``(decode, encode)`` of one artifact kind."""
    if kind in ("measure", "calibrate"):
        stage = MeasureStage() if kind == "measure" else CalibrateStage()
        return functools.partial(stage.deserialize, ctx=ctx), stage.serialize
    if kind == "tournament":
        return (
            functools.partial(
                decode_tournament, platform=PLATFORM, roster=_golden_roster()
            ),
            encode_tournament,
        )
    backend = BACKENDS[kind.removeprefix("backend-")]
    return (
        functools.partial(decode_backend, backend),
        functools.partial(encode_backend, backend),
    )


class TestGoldenStore:
    def test_every_entry_is_served_as_a_hit(self, golden):
        roster = _golden_roster()
        store = ArtifactStore(golden)
        served, _, _ = _run(store, roster)
        assert served == {kind: True for kind in _kinds(roster)}
        assert len(served) == 9
        assert store.stats.as_dict() == {
            "hits": 9,
            "misses": 0,
            "stores": 0,
            "discards": 0,
            "duplicates": 0,
        }
        assert _payload_bytes(golden) == _payload_bytes(GOLDEN)

    def test_decode_then_encode_reproduces_the_bytes(self, golden):
        store = ArtifactStore(golden)
        ctx = PipelineContext(platform=get_platform(PLATFORM), config=CONFIG)
        entries = store.entries()
        assert sorted(e.key.stage for e in entries) == sorted(
            _kinds(_golden_roster())
        )
        for info in entries:
            decode, encode = _codec(info.key.stage, ctx)
            payloads = store.load(info.key)
            assert encode(decode(payloads)) == payloads, info.entry_id
