"""The pluggable model-backend protocol.

A *backend* is one analytic treatment of memory contention — the
paper's threshold model, a §II-D baseline, or a competing formulation
from the literature — packaged behind a uniform surface so everything
downstream (pipeline, tournament, service, advisor) can treat "which
model?" as a parameter.

Every backend has the paper's shape (§III-C): a *local* and a *remote*
instantiation, fitted on the two sample placements and combined per
placement by equations 6 and 7.  So every calibrated backend is a
:class:`~repro.core.placement.PlacementModel` over two *sides* of its
kind (:class:`~repro.core.placement.Side`), and answers every query
through that model's one table lookup.

:class:`SideBackend` is the family of one side class, uncalibrated: a
stable ``backend_id``, a code ``version`` (bumped whenever calibration
or prediction changes for identical inputs), an artifact
:meth:`~SideBackend.fingerprint`, ``calibrate(dataset, platform)``,
which fits both sample placements through
:func:`~repro.core.calibration.calibrate_placement_model`, and
``from_state``, which rebuilds a model from its ``state_dict``.

One calibration persists as one artifact (:func:`backend_key`,
:func:`encode_backend`, :func:`decode_backend`) served by the store's
shared cache policy; :func:`load_or_calibrate` is the calibrate-on-miss
entry point.  The threshold model is not stored this way: its
calibration is the pipeline's ``calibrate`` artifact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.calibration import calibrate_placement_model
from repro.core.placement import PlacementModel
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.pipeline.store import ArtifactStore, StageKey
    from repro.topology.platforms import Platform

__all__ = [
    "BACKEND_FORMAT_VERSION",
    "SideBackend",
    "backend_key",
    "decode_backend",
    "encode_backend",
    "fit_error",
    "load_or_calibrate",
]

#: Bumped whenever the ``backend.json`` layout changes; older artifacts
#: are discarded and recalibrated rather than misread.
BACKEND_FORMAT_VERSION = 1

_STATE_FILE = "backend.json"


def fit_error(
    what: str,
    platform: str | None,
    placement: "tuple[int, int] | None",
    reason: str,
) -> ModelError:
    """The error a side's ``fit`` raises: it names the platform and
    placement whose curves could not be fitted, so a broken curve in a
    grid can be found."""
    where = f"platform {platform!r}" if platform is not None else "platform ?"
    at = f" placement {placement}" if placement is not None else ""
    return ModelError(f"cannot {what} for {where}{at}: {reason}")


class SideBackend:
    """The backend of one side class: calibrated, it is a
    :class:`~repro.core.placement.PlacementModel` over two sides.

    Besides the :class:`~repro.core.placement.Side` members, ``side``
    provides ``fit(curves, *, platform, placement)``, which fits one
    sample placement's measured curves, and ``from_dict``, which
    rebuilds a side from ``to_dict`` output and raises
    :class:`ModelError` on any defect.
    """

    #: Bumped whenever calibration or prediction changes for identical
    #: inputs; part of the artifact stage version and of the
    #: tournament's roster fingerprint.
    version = 1

    def __init__(self, backend_id: str, side: type) -> None:
        #: Stable identifier — artifact keys and API selectors use it.
        self.backend_id = backend_id
        self._side = side

    def fingerprint(self, config_fp: str) -> str:
        """Artifact fingerprint: the sweep-config fingerprint.

        Backend id and version live in the stage name / stage version
        of the :class:`~repro.pipeline.store.StageKey`, so the
        fingerprint only has to capture what *else* influenced the
        calibration: the measurement config.  No backend has knobs of
        its own, so its ``backend_config`` is empty.
        """
        from repro.pipeline.fingerprint import fingerprint_mapping

        return fingerprint_mapping(
            {"config_fp": config_fp, "backend_config": {}}
        )

    def calibrate(
        self, dataset: "PlatformDataset", platform: "Platform"
    ) -> PlacementModel:
        """Calibrate from the two sample placements of a platform's
        measured curves (§IV-A2); the rest of the dataset is evaluation
        data and does not leak into calibration."""
        return calibrate_placement_model(dataset, platform, self._side)

    def from_state(self, state: Mapping[str, Any]) -> PlacementModel:
        """Rebuild a calibrated model from ``state_dict`` output; any
        defect raises :class:`ModelError`, so the store discards and
        recalibrates instead of serving a corrupt artifact."""
        try:
            return PlacementModel(
                self._side.from_dict(state["local"]),
                self._side.from_dict(state["remote"]),
                nodes_per_socket=int(state["nodes_per_socket"]),
                n_numa_nodes=int(state["n_numa_nodes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(
                f"{self.backend_id} backend state is malformed: {exc}"
            ) from exc


# ---- persistence ------------------------------------------------------------------


def backend_key(
    platform: str, backend: SideBackend, fingerprint: str
) -> "StageKey":
    """The store address of one backend's calibration for one platform:
    stage ``backend-<id>``, the code version as stage version, and
    :meth:`SideBackend.fingerprint` of the sweep-config fingerprint."""
    from repro.pipeline.store import StageKey

    return StageKey(
        platform=platform,
        stage=f"backend-{backend.backend_id}",
        version=str(backend.version),
        fingerprint=backend.fingerprint(fingerprint),
    )


def _envelope(backend: SideBackend) -> dict[str, Any]:
    return {
        "format_version": BACKEND_FORMAT_VERSION,
        "backend_id": backend.backend_id,
        "backend_version": backend.version,
    }


def encode_backend(
    backend: SideBackend, calibrated: PlacementModel
) -> dict[str, str]:
    """The ``backend.json`` payload of one calibration."""
    from repro.pipeline.store import json_payload

    return json_payload(
        _STATE_FILE, **_envelope(backend), state=calibrated.state_dict()
    )


def decode_backend(
    backend: SideBackend, payloads: Mapping[str, str]
) -> PlacementModel:
    """Rebuild the calibration :func:`encode_backend` stored for
    ``backend``; a skewed format version, id or code version raises."""
    from repro.pipeline.store import json_member

    data = json_member(payloads, _STATE_FILE, **_envelope(backend))
    return backend.from_state(data["state"])


def load_or_calibrate(
    store: "ArtifactStore | None",
    backend: SideBackend,
    dataset: "PlatformDataset",
    platform: "Platform",
    fingerprint: str,
) -> tuple[PlacementModel, bool]:
    """The calibrate-on-miss entry point: ``(calibrated, cached)``.

    With a store, a miss publishes the fresh calibration so every other
    worker sharing the store gets a hit.
    """
    from repro.pipeline.store import load_or_compute

    return load_or_compute(
        store,
        backend_key(platform.name, backend, fingerprint),
        compute=lambda: backend.calibrate(dataset, platform),
        encode=lambda calibrated: encode_backend(backend, calibrated),
        decode=lambda payloads: decode_backend(backend, payloads),
        provenance={"platform": platform.name, "backend": backend.backend_id},
    )
