"""Artifact-store glue for calibrated backends.

Each calibrated backend persists as one flat, versioned artifact
(``backend.json``) in the pipeline
:class:`~repro.pipeline.store.ArtifactStore`, under stage
``backend-<backend_id>`` with the backend's code version as the stage
version and a fingerprint combining the sweep-config fingerprint with
the backend's own config (see
:meth:`~repro.backends.base.ModelBackend.fingerprint`).  A measurement
or backend change re-fingerprints, so a stale calibration can never be
served; a corrupt or version-mismatched artifact is logged, discarded
and recalibrated.
"""

from __future__ import annotations

import json
import logging
from typing import TYPE_CHECKING

from repro.backends.base import CalibratedBackend, ModelBackend
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.pipeline.stage import StageKey
    from repro.pipeline.store import ArtifactStore
    from repro.topology.platforms import Platform

__all__ = [
    "BACKEND_FORMAT_VERSION",
    "backend_key",
    "backend_stage",
    "load_backend",
    "load_or_calibrate",
    "store_backend",
]

log = logging.getLogger("repro.backends")

#: Bumped whenever the artifact layout changes; older artifacts are
#: discarded and recalibrated rather than misread.
BACKEND_FORMAT_VERSION = 1

_STATE_FILE = "backend.json"


def backend_stage(backend_id: str) -> str:
    """The artifact-store stage one backend's calibrations live under."""
    return f"backend-{backend_id}"


def backend_key(
    platform: str, backend: ModelBackend, fingerprint: str
) -> "StageKey":
    """The store address of one backend's calibration for one platform."""
    from repro.pipeline.stage import StageKey

    return StageKey(
        platform=platform,
        stage=backend_stage(backend.backend_id),
        version=str(backend.version),
        fingerprint=backend.fingerprint(fingerprint),
    )


def store_backend(
    store: "ArtifactStore",
    platform: str,
    fingerprint: str,
    backend: ModelBackend,
    calibrated: CalibratedBackend,
) -> None:
    """Persist one calibrated backend, content-addressed."""
    payload = {
        "format_version": BACKEND_FORMAT_VERSION,
        "backend_id": backend.backend_id,
        "backend_version": backend.version,
        "state": calibrated.state_dict(),
    }
    store.save(
        backend_key(platform, backend, fingerprint),
        {_STATE_FILE: json.dumps(payload, indent=2, sort_keys=True)},
        provenance={"platform": platform, "backend": backend.backend_id},
    )


def load_backend(
    store: "ArtifactStore",
    platform: str,
    fingerprint: str,
    backend: ModelBackend,
) -> CalibratedBackend | None:
    """Load + validate one calibration; ``None`` means recalibrate."""
    key = backend_key(platform, backend, fingerprint)
    payloads = store.load(key)
    if payloads is None:
        return None
    try:
        raw = payloads.get(_STATE_FILE)
        if not isinstance(raw, str):
            raise ModelError(
                f"backend artifact must carry text {_STATE_FILE!r}"
            )
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"backend artifact is not valid JSON ({exc})"
            ) from exc
        if not isinstance(data, dict):
            raise ModelError("backend artifact is not a JSON object")
        if data.get("format_version") != BACKEND_FORMAT_VERSION:
            raise ModelError(
                f"backend format version {data.get('format_version')!r} "
                f"!= {BACKEND_FORMAT_VERSION}"
            )
        if data.get("backend_id") != backend.backend_id:
            raise ModelError(
                f"backend artifact carries id {data.get('backend_id')!r}, "
                f"expected {backend.backend_id!r}"
            )
        if data.get("backend_version") != backend.version:
            raise ModelError(
                f"backend code version {data.get('backend_version')!r} "
                f"!= {backend.version}"
            )
        state = data.get("state")
        if not isinstance(state, dict):
            raise ModelError("backend artifact lacks a state object")
        return backend.from_state(state)
    except ModelError as exc:
        log.warning(
            "discarding invalid backend artifact %s: %s", key.entry_id, exc
        )
        store.discard(key)
        return None


def load_or_calibrate(
    store: "ArtifactStore | None",
    backend: ModelBackend,
    dataset: "PlatformDataset",
    platform: "Platform",
    fingerprint: str,
) -> tuple[CalibratedBackend, bool]:
    """The calibrate-on-miss entry point.

    Returns ``(calibrated, cached)``; with a store, a miss publishes
    the fresh calibration so every other worker sharing the store gets
    a hit.
    """
    if store is not None:
        cached = load_backend(store, platform.name, fingerprint, backend)
        if cached is not None:
            return cached, True
    calibrated = backend.calibrate(dataset, platform)
    if store is not None:
        store_backend(store, platform.name, fingerprint, backend, calibrated)
    return calibrated, False
