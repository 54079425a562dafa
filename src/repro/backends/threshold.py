"""The paper's threshold model as the reference backend.

A thin shell around :func:`~repro.core.calibration.calibrate_placement_model`
and :class:`~repro.core.placement.PlacementModel`: every query method
delegates verbatim to the model's tables, so routing through the
backend protocol is *bit-identical* to calling the model (and
therefore to the scalar :class:`~repro.core.oracle.ScalarOracle`, which
``tests/backends`` re-proves through this indirection).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.backends.base import CalibratedBackend, ModelBackend
from repro.core.parameters import ModelParameters
from repro.core.placement import (
    PlacementModel,
    PlacementPrediction,
    PointPrediction,
)
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.topology.platforms import Platform

__all__ = ["CalibratedThreshold", "ThresholdBackend"]

THRESHOLD_BACKEND_ID = "threshold"


class CalibratedThreshold(CalibratedBackend):
    """A calibrated :class:`PlacementModel` behind the backend surface."""

    def __init__(self, model: PlacementModel) -> None:
        self._model = model

    @property
    def backend_id(self) -> str:
        return THRESHOLD_BACKEND_ID

    @property
    def model(self) -> PlacementModel:
        """The calibrated model this backend answers from."""
        return self._model

    # ---- topology --------------------------------------------------------------

    @property
    def nodes_per_socket(self) -> int:
        return self._model.nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._model.n_numa_nodes

    # ---- queries: verbatim delegation ------------------------------------------

    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        return self._model.comp_parallel(n, m_comp, m_comm)

    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        return self._model.comm_parallel(n, m_comp, m_comm)

    def comp_alone(self, n: int, m_comp: int) -> float:
        return self._model.comp_alone(n, m_comp)

    def comm_alone(self, m_comm: int) -> float:
        return self._model.comm_alone(m_comm)

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        return self._model.predict(core_counts, m_comp, m_comm)

    def predict_grid(
        self,
        core_counts: Sequence[int] | np.ndarray,
        placements: Iterable[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], PlacementPrediction]:
        return self._model.predict_grid(core_counts, placements)

    def predict_batch(
        self, queries: Sequence[tuple[int, int, int]]
    ) -> list[PointPrediction]:
        return self._model.predict_batch(queries)

    # ---- serialization ---------------------------------------------------------

    def state_dict(self) -> dict[str, Any]:
        return {
            "local": self._model.local.to_dict(),
            "remote": self._model.remote.to_dict(),
            "nodes_per_socket": self._model.nodes_per_socket,
            "n_numa_nodes": self._model.n_numa_nodes,
        }


class ThresholdBackend(ModelBackend):
    """The §III threshold model, calibrated per §IV-A2."""

    @property
    def backend_id(self) -> str:
        return THRESHOLD_BACKEND_ID

    @property
    def version(self) -> int:
        return 1

    def calibrate(
        self, dataset: "PlatformDataset", platform: "Platform"
    ) -> CalibratedThreshold:
        from repro.core.calibration import calibrate_placement_model

        return CalibratedThreshold(calibrate_placement_model(dataset, platform))

    def wrap(self, model: PlacementModel) -> CalibratedThreshold:
        """Adopt an already-calibrated model (the registry path: the
        pipeline calibrated once; re-wrapping must not re-measure)."""
        return CalibratedThreshold(model)

    def from_state(self, state: Mapping[str, Any]) -> CalibratedThreshold:
        try:
            model = PlacementModel(
                ModelParameters.from_dict(state["local"]),
                ModelParameters.from_dict(state["remote"]),
                nodes_per_socket=int(state["nodes_per_socket"]),
                n_numa_nodes=int(state["n_numa_nodes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"threshold backend state is malformed: {exc}") from exc
        return CalibratedThreshold(model)
