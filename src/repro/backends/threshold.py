"""The paper's threshold model as the reference backend.

The threshold model needs no adapter: a calibrated
:class:`~repro.core.placement.PlacementModel` answers the whole query
surface the tournament, :class:`~repro.backends.tournament.TournamentRouter`,
:func:`~repro.evaluation.metrics.placement_errors` and the advisor use.
So the roster's ``threshold`` entry is the model the pipeline's
``calibrate`` stage already produced and stored, and that stage's
artifact is its one persisted form: there is no ``backend-threshold``
artifact.  This class keeps the id and code version that the
tournament's roster fingerprint covers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, NoReturn

from repro.backends.base import ModelBackend
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.core.placement import PlacementModel
    from repro.topology.platforms import Platform

__all__ = ["ThresholdBackend"]


class ThresholdBackend(ModelBackend):
    """The §III threshold model, calibrated per §IV-A2."""

    @property
    def backend_id(self) -> str:
        return "threshold"

    @property
    def version(self) -> int:
        return 1

    def calibrate(
        self, dataset: "PlatformDataset", platform: "Platform"
    ) -> "PlacementModel":
        from repro.core.calibration import calibrate_placement_model

        return calibrate_placement_model(dataset, platform)

    def from_state(self, state: Mapping[str, Any]) -> NoReturn:
        raise ModelError(
            "the threshold model has no backend state: it is stored as "
            "the pipeline's calibrate artifact"
        )
