"""The four concrete stages of the §IV pipeline.

measure → calibrate → predict → score, with the same semantics as
:func:`repro.evaluation.experiments.run_platform_experiment` (which is
now a consumer of this module):

* **measure** — the full simulated placement-grid sweep.  Expensive,
  cacheable; persisted as full-precision CSV so a reload is bit-exact.
* **calibrate** — §IV-A2 parameter extraction from the two sample
  placements.  Cacheable; persisted as the parameter JSON round trip.
* **predict** — every placement through the calibrated model.  Pure
  lookups in the model's tables, so it is cheaper to recompute than to
  read from disk: ``cacheable = False``.
* **score** — the Table II error breakdown.  Also derived and cheap.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.bench.results import PlatformDataset
from repro.bench.sweep import run_placement_grid, sample_placements
from repro.core.calibration import calibrate_placement_model
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel
from repro.errors import PipelineError
from repro.evaluation.metrics import placement_errors
from repro.pipeline.stage import Artifact, PipelineContext, Stage
from repro.pipeline.store import json_member, json_payload

__all__ = [
    "MeasureStage",
    "CalibrateStage",
    "PredictStage",
    "ScoreStage",
    "PIPELINE_STAGES",
]


def _artifact_value(
    inputs: Mapping[str, Artifact], name: str, stage: str
) -> object:
    try:
        return inputs[name].value
    except KeyError:
        raise PipelineError(
            f"stage {stage!r} needs the {name!r} artifact; got {sorted(inputs)}"
        ) from None


class MeasureStage(Stage):
    """Run the full placement-grid sweep (the simulated testbed)."""

    name = "measure"
    version = "1"
    inputs = ()
    cacheable = True

    def compute(
        self, ctx: PipelineContext, inputs: Mapping[str, Artifact]
    ) -> PlatformDataset:
        return run_placement_grid(
            ctx.platform,
            config=ctx.config,
            jobs=ctx.grid_jobs,
            executor_mode=ctx.executor_mode,
        )

    def serialize(self, value: object) -> dict[str, str]:
        assert isinstance(value, PlatformDataset)
        return {
            "dataset.csv": value.to_csv(full_precision=True),
            # from_csv does not round-trip the provenance mapping, so
            # it rides along here.
            **json_payload(
                "dataset_meta.json",
                platform=value.platform_name,
                config=dict(value.config),
            ),
        }

    def deserialize(
        self, payloads: Mapping[str, str], ctx: PipelineContext
    ) -> PlatformDataset:
        meta = json_member(
            payloads, "dataset_meta.json", platform=ctx.platform.name
        )
        dataset = PlatformDataset.from_csv(payloads["dataset.csv"])
        if dataset.platform_name != ctx.platform.name:
            raise PipelineError(
                f"measure CSV is for {dataset.platform_name!r}, "
                f"not {ctx.platform.name!r}"
            )
        return replace(dataset, config=dict(meta.get("config", {})))


class CalibrateStage(Stage):
    """Extract the local/remote model parameters from the sample sweeps."""

    name = "calibrate"
    version = "1"
    inputs = ("measure",)
    cacheable = True

    def compute(
        self, ctx: PipelineContext, inputs: Mapping[str, Artifact]
    ) -> PlacementModel:
        dataset = _artifact_value(inputs, "measure", self.name)
        assert isinstance(dataset, PlatformDataset)
        return calibrate_placement_model(dataset, ctx.platform)

    def serialize(self, value: object) -> dict[str, str]:
        assert isinstance(value, PlacementModel)
        return {
            "model_local.json": value.local.to_json(),
            "model_remote.json": value.remote.to_json(),
            **json_payload(
                "model_meta.json",
                nodes_per_socket=value.nodes_per_socket,
                n_numa_nodes=value.n_numa_nodes,
            ),
        }

    def deserialize(
        self, payloads: Mapping[str, str], ctx: PipelineContext
    ) -> PlacementModel:
        # The stored topology must be the platform's.
        topology = {
            "nodes_per_socket": ctx.platform.nodes_per_socket,
            "n_numa_nodes": ctx.platform.machine.n_numa_nodes,
        }
        json_member(payloads, "model_meta.json", **topology)
        return PlacementModel(
            local=ModelParameters.from_json(payloads["model_local.json"]),
            remote=ModelParameters.from_json(payloads["model_remote.json"]),
            **topology,
        )


class PredictStage(Stage):
    """Predict every measured placement over the measured core counts.

    One batched pass over the model's tables — microseconds —
    so caching it would cost more than recomputing.
    """

    name = "predict"
    version = "1"
    inputs = ("measure", "calibrate")
    cacheable = False

    def compute(self, ctx: PipelineContext, inputs: Mapping[str, Artifact]):
        dataset = _artifact_value(inputs, "measure", self.name)
        model = _artifact_value(inputs, "calibrate", self.name)
        assert isinstance(dataset, PlatformDataset)
        assert isinstance(model, PlacementModel)
        first = next(iter(dataset.sweep))
        return model.predict_grid(
            dataset.sweep[first].core_counts, list(dataset.sweep)
        )


class ScoreStage(Stage):
    """The Table II error breakdown (derived, cheap, recomputed)."""

    name = "score"
    version = "1"
    inputs = ("measure", "calibrate")
    cacheable = False

    def compute(self, ctx: PipelineContext, inputs: Mapping[str, Artifact]):
        dataset = _artifact_value(inputs, "measure", self.name)
        model = _artifact_value(inputs, "calibrate", self.name)
        assert isinstance(dataset, PlatformDataset)
        assert isinstance(model, PlacementModel)
        return placement_errors(dataset, model, sample_placements(ctx.platform))


#: The §IV stage graph in topological order.
PIPELINE_STAGES: tuple[Stage, ...] = (
    MeasureStage(),
    CalibrateStage(),
    PredictStage(),
    ScoreStage(),
)
