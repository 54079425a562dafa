"""Experiment registry: one entry per paper artefact.

:func:`run_platform_experiment` is the full §IV pipeline for one
platform, four steps in order: measure every placement on the simulated
testbed (§IV-A1), calibrate the model from the two sample placements
only (§IV-A2), predict every placement, and score the predictions
(Table II).  With ``cache_dir`` or a ``store`` the measurement and the
calibration go through the artifact store
(:func:`~repro.pipeline.store.load_or_compute`), in the payloads of
:func:`encode_dataset` and :func:`encode_model`; ``jobs`` fans
independent work out across worker processes.  The :data:`EXPERIMENTS`
registry maps each figure/table of the paper to what regenerates it.
"""

from __future__ import annotations

import functools
import logging

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, TypeVar

from repro.bench.config import SweepConfig
from repro.bench.results import PlacementKey, PlatformDataset
from repro.bench.sweep import run_placement_grid, sample_placements
from repro.core.calibration import calibrate_placement_model
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel, PlacementPrediction
from repro.errors import PipelineError, ReproError
from repro.evaluation.metrics import ErrorBreakdown, placement_errors
from repro.obs import span
from repro.topology.platforms import Platform, get_platform, platform_names

log = logging.getLogger("repro.evaluation")

if TYPE_CHECKING:
    from repro.pipeline.store import ArtifactStore

__all__ = [
    "ExperimentResult",
    "PipelineStats",
    "StageOutcome",
    "decode_dataset",
    "decode_model",
    "encode_dataset",
    "encode_model",
    "run_platform_experiment",
    "run_all_experiments",
    "EXPERIMENTS",
]

T = TypeVar("T")


@dataclass(frozen=True)
class StageOutcome:
    """How one stage instance was satisfied."""

    stage: str
    #: "cached" (served from the store), "computed", or "derived"
    #: (non-cacheable stage, always recomputed).
    source: str


@dataclass(frozen=True)
class PipelineStats:
    """Per-stage provenance of one pipeline run — the skip-proof."""

    outcomes: tuple[StageOutcome, ...]

    def source_of(self, stage: str) -> str:
        for outcome in self.outcomes:
            if outcome.stage == stage:
                return outcome.source
        raise PipelineError(f"no outcome recorded for stage {stage!r}")

    @property
    def cached_stages(self) -> tuple[str, ...]:
        return tuple(o.stage for o in self.outcomes if o.source == "cached")

    @property
    def computed_stages(self) -> tuple[str, ...]:
        return tuple(o.stage for o in self.outcomes if o.source == "computed")


@dataclass(frozen=True)
class ExperimentResult:
    """Everything produced by one platform's evaluation run."""

    platform: Platform
    dataset: PlatformDataset
    model: PlacementModel
    predictions: Mapping[PlacementKey, PlacementPrediction]
    errors: ErrorBreakdown
    sample_keys: tuple[PlacementKey, PlacementKey]
    #: which steps the store served, which it computed
    stats: PipelineStats


# ---- the two stored kinds --------------------------------------------------------
#
# Each encoder writes UTF-8 text members that reload bit-identically;
# each decoder raises one of the store's DECODE_ERRORS on an entry that
# is not the platform's, so the store discards and recomputes it.


def encode_dataset(dataset: PlatformDataset) -> dict[str, str]:
    """The ``measure`` payloads: the full-precision CSV and its config."""
    # Store helpers are imported where they run, to keep boot time low.
    from repro.pipeline.store import json_payload

    return {
        "dataset.csv": dataset.to_csv(full_precision=True),
        # from_csv does not round-trip the provenance mapping, so it
        # rides along here.
        **json_payload(
            "dataset_meta.json",
            platform=dataset.platform_name,
            config=dict(dataset.config),
        ),
    }


def decode_dataset(
    payloads: Mapping[str, str], platform: Platform
) -> PlatformDataset:
    """The dataset :func:`encode_dataset` stored for ``platform``."""
    from repro.pipeline.store import json_member

    meta = json_member(payloads, "dataset_meta.json", platform=platform.name)
    dataset = PlatformDataset.from_csv(payloads["dataset.csv"])
    if dataset.platform_name != platform.name:
        raise PipelineError(
            f"measure CSV is for {dataset.platform_name!r}, "
            f"not {platform.name!r}"
        )
    return replace(dataset, config=dict(meta.get("config", {})))


def encode_model(model: PlacementModel) -> dict[str, str]:
    """The ``calibrate`` payloads: both instantiations and the topology."""
    from repro.pipeline.store import json_payload

    return {
        "model_local.json": model.local.to_json(),
        "model_remote.json": model.remote.to_json(),
        **json_payload(
            "model_meta.json",
            nodes_per_socket=model.nodes_per_socket,
            n_numa_nodes=model.n_numa_nodes,
        ),
    }


def decode_model(
    payloads: Mapping[str, str], platform: Platform
) -> PlacementModel:
    """The model :func:`encode_model` stored for ``platform``."""
    from repro.pipeline.store import json_member

    # The stored topology must be the platform's.
    topology = {
        "nodes_per_socket": platform.nodes_per_socket,
        "n_numa_nodes": platform.machine.n_numa_nodes,
    }
    json_member(payloads, "model_meta.json", **topology)
    return PlacementModel(
        local=ModelParameters.from_json(payloads["model_local.json"]),
        remote=ModelParameters.from_json(payloads["model_remote.json"]),
        **topology,
    )


# ---- the pipeline ----------------------------------------------------------------


def _resolve_store(
    store: "ArtifactStore | None", cache_dir: Path | str | None
) -> "ArtifactStore | None":
    if store is not None and cache_dir is not None:
        raise PipelineError("pass either store or cache_dir, not both")
    if cache_dir is None:
        return store
    from repro.pipeline.store import ArtifactStore

    return ArtifactStore(cache_dir)


def run_platform_experiment(
    platform: Platform | str,
    *,
    config: SweepConfig | None = None,
    cache_dir: Path | str | None = None,
    store: "ArtifactStore | None" = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run the full §IV pipeline for one platform.

    With ``cache_dir`` (or an explicit ``store``) the sweep and
    calibration artifacts are reused across runs — a warm run skips
    both and is bit-identical to a cold one; ``result.stats`` records
    which steps were served.  ``jobs > 1`` measures placements in
    worker processes.
    """
    # Imported here, not at module top: `import repro.cli` would pay
    # for the store and the fingerprint on every start.
    from repro.pipeline.fingerprint import config_fingerprint
    from repro.pipeline.store import StageKey, load_or_compute

    if isinstance(platform, str):
        platform = get_platform(platform)
    config = config or SweepConfig()
    store = _resolve_store(store, cache_dir)
    fingerprint = config_fingerprint(config)
    outcomes: list[StageOutcome] = []

    def stored(
        stage: str,
        compute: Callable[[], T],
        encode: Callable[[T], Mapping[str, str]],
        decode: Callable[[Mapping[str, str], Platform], T],
    ) -> T:
        """One step through the store: a verified hit, else computed."""
        with span(f"pipeline.{stage}", platform=platform.name) as step:
            value, cached = load_or_compute(
                store,
                StageKey(
                    platform=platform.name,
                    stage=stage,
                    version="1",
                    fingerprint=fingerprint,
                ),
                compute=compute,
                encode=encode,
                decode=lambda payloads: decode(payloads, platform),
                provenance={"sweep_config": config.to_dict()},
            )
            source = "cached" if cached else "computed"
            step.tag(source=source)
        outcomes.append(StageOutcome(stage=stage, source=source))
        return value

    samples = sample_placements(platform)
    with span(
        "pipeline.run",
        platform=platform.name,
        cached_store=store is not None,
        jobs=jobs,
    ):
        dataset = stored(
            "measure",
            lambda: run_placement_grid(platform, config=config, jobs=jobs),
            encode_dataset,
            decode_dataset,
        )
        model = stored(
            "calibrate",
            lambda: calibrate_placement_model(dataset, platform),
            encode_model,
            decode_model,
        )
        # Predicting and scoring are table lookups, cheaper to redo
        # than to read back: never stored.
        with span(
            "pipeline.predict", platform=platform.name, source="derived"
        ):
            first = next(iter(dataset.sweep))
            predictions = model.predict_grid(
                dataset.sweep[first].core_counts, list(dataset.sweep)
            )
        outcomes.append(StageOutcome(stage="predict", source="derived"))
        with span("pipeline.score", platform=platform.name, source="derived"):
            errors = placement_errors(dataset, model, samples)
        outcomes.append(StageOutcome(stage="score", source="derived"))

    return ExperimentResult(
        platform=platform,
        dataset=dataset,
        model=model,
        predictions=predictions,
        errors=errors,
        sample_keys=samples,
        stats=PipelineStats(tuple(outcomes)),
    )


def run_all_experiments(
    *,
    config: SweepConfig | None = None,
    cache_dir: Path | str | None = None,
    store: "ArtifactStore | None" = None,
    jobs: int = 1,
) -> dict[str, ExperimentResult]:
    """Run every testbed platform (the full Table II), in Table I order.

    ``jobs`` fans platforms out across worker processes, each platform's
    own sweep serial (no nested pools); the output is bit-identical to
    the serial path regardless of ``jobs``.
    """
    store = _resolve_store(store, cache_dir)
    names = platform_names()
    log.debug("running all platform experiments (jobs=%s)", jobs)
    if jobs == 1 or len(names) <= 1:
        return {
            name: run_platform_experiment(name, config=config, store=store)
            for name in names
        }
    # Imported here for boot time, like the store.
    from repro.pipeline.executor import parallel_map

    # Workers cannot share an in-process store handle: each opens the
    # store's root, and the store's atomic publish makes concurrent
    # writers safe.
    task = functools.partial(
        run_platform_experiment,
        config=config,
        cache_dir=store.root if store is not None else None,
    )
    return dict(zip(names, parallel_map(task, names, jobs=jobs)))


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry tying a paper artefact to its reproduction."""

    experiment_id: str
    paper_artefact: str
    platform_name: str | None  # None = all platforms
    description: str
    bench_target: str


#: Every table and figure of the paper's evaluation, with the benchmark
#: target that regenerates it (DESIGN.md §4).
EXPERIMENTS: dict[str, ExperimentSpec] = {
    "fig2": ExperimentSpec(
        "fig2",
        "Figure 2",
        "henri-subnuma",
        "Stacked memory bandwidth with the model's annotated points "
        "(the top-left subplot of Figure 4, stacked)",
        "benchmarks/bench_fig2_stacked.py",
    ),
    "fig3": ExperimentSpec(
        "fig3",
        "Figure 3",
        "henri",
        "Measured vs predicted bandwidths on henri (Intel, InfiniBand), "
        "4 placements",
        "benchmarks/bench_fig3_henri.py",
    ),
    "fig4": ExperimentSpec(
        "fig4",
        "Figure 4",
        "henri-subnuma",
        "Measured vs predicted bandwidths on henri-subnuma, 16 placements",
        "benchmarks/bench_fig4_henri_subnuma.py",
    ),
    "fig5": ExperimentSpec(
        "fig5",
        "Figure 5",
        "diablo",
        "Measured vs predicted bandwidths on diablo (AMD, locality-"
        "sensitive NIC)",
        "benchmarks/bench_fig5_diablo.py",
    ),
    "fig6": ExperimentSpec(
        "fig6",
        "Figure 6",
        "occigen",
        "Measured vs predicted bandwidths on occigen (old Intel, "
        "computations-only impact)",
        "benchmarks/bench_fig6_occigen.py",
    ),
    "fig7": ExperimentSpec(
        "fig7",
        "Figure 7",
        "pyxis",
        "Measured vs predicted bandwidths on pyxis (ARM, unstable network)",
        "benchmarks/bench_fig7_pyxis.py",
    ),
    "fig8": ExperimentSpec(
        "fig8",
        "Figure 8",
        "dahu",
        "Measured vs predicted bandwidths on dahu (Intel, Omni-Path)",
        "benchmarks/bench_fig8_dahu.py",
    ),
    "table1": ExperimentSpec(
        "table1",
        "Table I",
        None,
        "Characteristics of testbed platforms",
        "benchmarks/bench_table1_platforms.py",
    ),
    "table2": ExperimentSpec(
        "table2",
        "Table II",
        None,
        "Model prediction errors (MAPE) on all platforms, split by "
        "samples/non-samples and communications/computations",
        "benchmarks/bench_table2_errors.py",
    ),
}


def figure_platform(experiment_id: str) -> str:
    """Platform name of a figure experiment, validating the id."""
    try:
        spec = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(EXPERIMENTS)}"
        ) from None
    if spec.platform_name is None:
        raise ReproError(
            f"experiment {experiment_id!r} spans all platforms; "
            "use run_all_experiments()"
        )
    return spec.platform_name
