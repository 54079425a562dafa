"""Content-addressed on-disk store for pipeline artifacts.

Layout: one directory per artifact, addressed by its
:class:`~repro.pipeline.stage.StageKey`::

    <root>/<platform>/<stage>-v<version>-<fingerprint>/
        manifest.json     # provenance: key, config, file checksums
        <payload files>   # whatever the stage serialised (CSV/JSON text)
        stats.json        # sidecar hit counter (not covered by checksums)

Guarantees:

* **Atomic writes** — payloads and manifest are written to a temporary
  directory under ``<root>/.tmp`` and renamed into place.  Readers never
  observe a half-written entry; when two writers race, the first rename
  wins and the loser quietly discards its copy (both computed the same
  bytes — keys are content fingerprints).
* **Verified reads** — a manifest that fails to parse, names a missing
  file, carries the wrong format/stage version, or whose payload
  checksums do not match is *never served*: the entry is logged,
  discarded, and the caller recomputes.  Corruption can cost time, not
  correctness.
* **Bit-identical reload** — payloads are UTF-8 text produced by the
  stages' full-precision serialisers, so a warm run reconstructs the
  exact float64 values of the cold run.

The cache policy on top — serve a hit its decoder accepts, otherwise
discard, compute and publish — is :func:`load_or_compute`, shared by
every artifact kind (the pipeline stages, backend calibrations, the
tournament winner table).  :func:`json_payload`/:func:`json_member`
are the shared codec of single-JSON-member artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from repro.errors import PipelineError, ReproError
from repro.obs import counter, span
from repro.pipeline.stage import StageKey

try:  # POSIX; the hit counter degrades to best-effort elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactStore",
    "DECODE_ERRORS",
    "EntryInfo",
    "MANIFEST_VERSION",
    "StoreStats",
    "json_member",
    "json_payload",
    "load_decoded",
    "load_or_compute",
]

log = logging.getLogger("repro.pipeline")

#: Bumped whenever the manifest schema changes; older entries are
#: discarded and recomputed rather than misread.
MANIFEST_VERSION = 1

_MANIFEST = "manifest.json"
_STATS = "stats.json"
#: flock target serialising stats.json increments; the leading dot
#: keeps it out of the payload namespace (save() rejects dotted names).
_STATS_LOCK = ".stats.lock"
_TMP = ".tmp"


@dataclass
class StoreStats:
    """In-process counters of one store handle (not persisted)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    discards: int = 0
    #: Saves that lost the publish race to a concurrent writer.  Kept
    #: separate from ``stores`` so ``misses == stores + duplicates``
    #: still reconciles under concurrent writers.
    duplicates: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class EntryInfo:
    """One stored artifact, as listed by ``repro cache ls``."""

    key: StageKey
    n_files: int
    payload_bytes: int
    hits: int
    created_unix: float

    @property
    def entry_id(self) -> str:
        return self.key.entry_id


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ArtifactStore:
    """Content-addressed artifact cache rooted at one directory."""

    def __init__(self, root: Path | str) -> None:
        self._root = Path(root).expanduser()
        if self._root.exists() and not self._root.is_dir():
            raise PipelineError(
                f"artifact store root {self._root} exists and is not a directory"
            )
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PipelineError(
                f"cannot create artifact store root {self._root}: {exc}"
            ) from exc
        self.stats = StoreStats()

    @property
    def root(self) -> Path:
        return self._root

    def _entry_dir(self, key: StageKey) -> Path:
        return self._root / key.platform / key.entry_name

    # ---- reads -----------------------------------------------------------------

    def load(self, key: StageKey) -> dict[str, str] | None:
        """The verified payloads of ``key``, or ``None`` to recompute.

        Never raises for a bad entry: corruption of any kind (unparsable
        or truncated manifest, missing payload file, checksum mismatch,
        wrong manifest/stage version, key mismatch) discards the entry
        and reports a miss.
        """
        entry = self._entry_dir(key)
        manifest_path = entry / _MANIFEST
        with span("store.load", entry=key.entry_id) as load_span:
            if not manifest_path.is_file():
                self.stats.misses += 1
                counter("store.miss", entry=key.entry_id)
                load_span.tag(outcome="miss")
                return None
            try:
                payloads = self._read_verified(entry, key)
            except (OSError, ValueError) as exc:
                log.warning(
                    "discarding corrupt cache entry %s: %s", key.entry_id, exc
                )
                shutil.rmtree(entry, ignore_errors=True)
                self.stats.discards += 1
                self.stats.misses += 1
                counter("store.discard", entry=key.entry_id)
                counter("store.miss", entry=key.entry_id)
                load_span.tag(outcome="corrupt")
                return None
            self.stats.hits += 1
            counter("store.hit", entry=key.entry_id)
            load_span.tag(outcome="hit")
            self._bump_hits(entry)
            return payloads

    def _read_verified(self, entry: Path, key: StageKey) -> dict[str, str]:
        """Read and verify one entry; raises ValueError/OSError on any defect."""
        try:
            manifest = json.loads((entry / _MANIFEST).read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest is not valid JSON ({exc})") from exc
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not a JSON object")
        if manifest.get("manifest_version") != MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {manifest.get('manifest_version')!r} != "
                f"{MANIFEST_VERSION}"
            )
        recorded = manifest.get("key", {})
        expected = {
            "platform": key.platform,
            "stage": key.stage,
            "stage_version": key.version,
            "fingerprint": key.fingerprint,
        }
        if recorded != expected:
            raise ValueError(f"manifest key {recorded!r} != {expected!r}")
        files = manifest.get("files")
        if not isinstance(files, dict) or not files:
            raise ValueError("manifest lists no payload files")
        payloads: dict[str, str] = {}
        for name, meta in files.items():
            path = entry / name
            if not path.is_file():
                raise ValueError(f"payload file {name!r} is missing")
            if not isinstance(meta, dict) or "sha256" not in meta:
                raise ValueError(f"payload file {name!r} has no checksum")
            # Exact bytes: universal-newline translation would silently
            # alter CSV payloads (csv emits \r\n) and break checksums.
            raw = path.read_bytes()
            if _sha256(raw) != meta["sha256"]:
                raise ValueError(f"payload file {name!r} fails its checksum")
            payloads[name] = raw.decode("utf-8")
        return payloads

    # ---- writes ----------------------------------------------------------------

    def save(
        self,
        key: StageKey,
        payloads: Mapping[str, str],
        *,
        provenance: Mapping[str, Any] | None = None,
    ) -> None:
        """Atomically persist ``payloads`` (name → text) under ``key``.

        ``provenance`` (e.g. the full sweep-config dict) is embedded in
        the manifest for humans and ``repro cache info``; it is not part
        of the address — the key already fingerprints it.
        """
        if not payloads:
            raise PipelineError(f"refusing to store empty artifact {key.entry_id}")
        for name in payloads:
            if "/" in name or name.startswith(".") or name in (_MANIFEST, _STATS):
                raise PipelineError(f"invalid payload file name {name!r}")
        raw = {name: text.encode("utf-8") for name, text in payloads.items()}
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "key": {
                "platform": key.platform,
                "stage": key.stage,
                "stage_version": key.version,
                "fingerprint": key.fingerprint,
            },
            "provenance": dict(provenance or {}),
            "created_unix": time.time(),
            "files": {
                name: {"sha256": _sha256(data), "bytes": len(data)}
                for name, data in raw.items()
            },
        }
        tmp_root = self._root / _TMP
        tmp_root.mkdir(parents=True, exist_ok=True)
        with span("store.save", entry=key.entry_id):
            tmp_dir = Path(tempfile.mkdtemp(dir=tmp_root, prefix=key.stage))
            try:
                for name, data in raw.items():
                    (tmp_dir / name).write_bytes(data)
                (tmp_dir / _MANIFEST).write_bytes(
                    json.dumps(manifest, indent=2, sort_keys=True).encode(
                        "utf-8"
                    )
                )
                destination = self._entry_dir(key)
                destination.parent.mkdir(parents=True, exist_ok=True)
                try:
                    tmp_dir.rename(destination)
                except OSError:
                    if not destination.exists():
                        # The rename failed for a real reason — disk
                        # full, permissions, a cross-device move — not
                        # because someone else won the race.  Swallowing
                        # it here would silently drop the entry.
                        raise
                    # A concurrent writer already published this key.  Both
                    # computed the same content-addressed bytes: theirs is
                    # as good as ours.  Counted so the books still balance:
                    # every save is either a store or a duplicate.
                    shutil.rmtree(tmp_dir, ignore_errors=True)
                    self.stats.duplicates += 1
                    counter("store.duplicate", entry=key.entry_id)
                    return
            except Exception:
                shutil.rmtree(tmp_dir, ignore_errors=True)
                raise
            self.stats.stores += 1
            counter("store.store", entry=key.entry_id)

    def discard(self, key: StageKey) -> bool:
        """Remove one entry; True if it existed."""
        entry = self._entry_dir(key)
        existed = entry.exists()
        if existed:
            shutil.rmtree(entry, ignore_errors=True)
            self.stats.discards += 1
        return existed

    # ---- persistent hit counter -------------------------------------------------

    def _bump_hits(self, entry: Path) -> None:
        """Atomic persistent hit counter, outside the checksummed set.

        The counter is evidence for smoke tests and ``repro cache info``
        ("did the second run actually hit?"), so it must survive racing
        readers: the read-modify-write is serialised by an ``flock`` on
        a sidecar lock file (one per entry, works across both threads
        and processes since every bump opens its own descriptor) and
        published by tmp+rename, so no increment is lost and no reader
        ever sees a torn ``stats.json``.  Where ``flock`` is missing
        the bump degrades to best-effort; it never raises — a counter
        may not cost a pipeline run.
        """
        stats_path = entry / _STATS
        try:
            with open(entry / _STATS_LOCK, "a") as lock_handle:
                if fcntl is not None:
                    fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
                try:
                    hits = self.entry_hits(entry)
                    with tempfile.NamedTemporaryFile(
                        "w",
                        dir=entry,
                        delete=False,
                        suffix=".tmp",
                        encoding="utf-8",
                    ) as handle:
                        json.dump({"hits": hits + 1}, handle)
                        temp_name = handle.name
                    Path(temp_name).replace(stats_path)
                finally:
                    if fcntl is not None:
                        fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            # The entry vanished under us (concurrent discard) or the
            # filesystem refused: drop the increment, not the run.
            pass

    @staticmethod
    def entry_hits(entry: Path) -> int:
        """The persisted hit count; a corrupt sidecar reads as 0.

        Corruption-tolerant by contract: non-JSON bytes, a non-object
        document (``[]``), a non-numeric ``hits`` (``null``, ``"x"``)
        and a missing file all reset the counter to 0 rather than
        raising — the sidecar is evidence, never load-bearing state.
        """
        try:
            data = json.loads((entry / _STATS).read_text("utf-8"))
            if not isinstance(data, dict):
                return 0
            return max(0, int(data.get("hits", 0)))
        except (OSError, ValueError, TypeError):
            return 0

    def hits_recorded(self, key: StageKey) -> int:
        """Persistent hit count of one entry (0 if absent)."""
        return self.entry_hits(self._entry_dir(key))

    # ---- inspection ------------------------------------------------------------

    def manifest(self, key: StageKey) -> dict[str, Any]:
        """The raw manifest of one entry (for ``repro cache info``)."""
        path = self._entry_dir(key) / _MANIFEST
        if not path.is_file():
            raise PipelineError(f"no cache entry {key.entry_id}")
        try:
            return json.loads(path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise PipelineError(
                f"cache entry {key.entry_id} has an unreadable manifest: {exc}"
            ) from exc

    def entries(self) -> list[EntryInfo]:
        """Every readable entry, sorted by id; unreadable ones are skipped."""
        found: list[EntryInfo] = []
        for manifest_path in sorted(self._root.glob(f"*/*/{_MANIFEST}")):
            entry = manifest_path.parent
            try:
                manifest = json.loads(manifest_path.read_text("utf-8"))
                recorded = manifest["key"]
                key = StageKey(
                    platform=recorded["platform"],
                    stage=recorded["stage"],
                    version=recorded["stage_version"],
                    fingerprint=recorded["fingerprint"],
                )
                files = manifest["files"]
                found.append(
                    EntryInfo(
                        key=key,
                        n_files=len(files),
                        payload_bytes=sum(
                            int(meta.get("bytes", 0)) for meta in files.values()
                        ),
                        hits=self.entry_hits(entry),
                        created_unix=float(manifest.get("created_unix", 0.0)),
                    )
                )
            except (OSError, ValueError, KeyError, TypeError):
                log.warning("skipping unreadable cache entry %s", entry)
        return found

    def find(self, entry_id: str) -> StageKey:
        """Resolve an id printed by ``repro cache ls`` back to a key."""
        for info in self.entries():
            if info.entry_id == entry_id:
                return info.key
        raise PipelineError(
            f"no cache entry {entry_id!r} in {self._root} "
            "(ids are printed by `repro cache ls`)"
        )

    def clear(self) -> int:
        """Remove every entry (and stray temp dirs); returns entries removed."""
        removed = 0
        for manifest_path in self._root.glob(f"*/*/{_MANIFEST}"):
            shutil.rmtree(manifest_path.parent, ignore_errors=True)
            removed += 1
        shutil.rmtree(self._root / _TMP, ignore_errors=True)
        for platform_dir in self._root.iterdir() if self._root.is_dir() else ():
            if platform_dir.is_dir() and not any(platform_dir.iterdir()):
                platform_dir.rmdir()
        self.stats.discards += removed
        return removed


# ---- the cache policy -------------------------------------------------------------

T = TypeVar("T")

#: What a decoder raises on a checksum-valid entry it cannot read — a
#: missing member, malformed JSON, a skewed or mistyped field, a failed
#: domain check: a defective entry, never a fatal error.
DECODE_ERRORS = (ReproError, KeyError, TypeError, ValueError)


def load_decoded(
    store: ArtifactStore,
    key: StageKey,
    decode: Callable[[Mapping[str, str]], T],
) -> T | None:
    """The decoded value stored under ``key``, or ``None`` to recompute.

    A verified entry that ``decode`` rejects is as good as corrupt: it
    is logged and discarded, so the next publish can replace it.
    """
    payloads = store.load(key)
    if payloads is None:
        return None
    try:
        return decode(payloads)
    except DECODE_ERRORS as exc:
        log.warning(
            "discarding undecodable cache entry %s: %s", key.entry_id, exc
        )
        store.discard(key)
        return None


def load_or_compute(
    store: ArtifactStore | None,
    key: StageKey,
    compute: Callable[[], T],
    encode: Callable[[T], Mapping[str, str]],
    decode: Callable[[Mapping[str, str]], T],
    provenance: Mapping[str, Any] | None = None,
) -> tuple[T, bool]:
    """``(value, cached)``: a hit ``decode`` accepts, else ``compute()``.

    A miss, a corrupt or an undecodable entry is computed and published
    for every process sharing the store.  Without a store this just
    computes.
    """
    if store is not None:
        value = load_decoded(store, key, decode)
        if value is not None:
            return value, True
    value = compute()
    if store is not None:
        store.save(key, encode(value), provenance=provenance)
    return value, False


def json_payload(name: str, **fields: Any) -> dict[str, str]:
    """A one-member payload: ``fields`` as indented, key-sorted JSON."""
    return {name: json.dumps(fields, indent=2, sort_keys=True)}


def json_member(
    payloads: Mapping[str, str], name: str, **expected: Any
) -> dict[str, Any]:
    """The JSON object in member ``name``, checked against ``expected``.

    ``expected`` names the envelope fields — a format version and the
    identity of what was stored — that must match exactly.  Raises
    ``KeyError`` for a missing member and ``ValueError`` for text that
    is not a JSON object or a skewed field.
    """
    data = json.loads(payloads[name])
    if not isinstance(data, dict):
        raise ValueError(f"{name} is not a JSON object")
    for field_name, value in expected.items():
        if data.get(field_name) != value:
            raise ValueError(
                f"{name} has {field_name} {data.get(field_name)!r}, "
                f"expected {value!r}"
            )
    return data
