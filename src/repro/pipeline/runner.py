"""Composing, caching, and fanning out the pipeline stages.

:func:`run_platform_pipeline` executes the stage graph for one platform:
each cacheable stage goes through the store's one cache policy
(:func:`~repro.pipeline.store.load_or_compute`) when a store is
configured — a verified hit is deserialised instead of computed, a
corrupt or undeserialisable entry is discarded and recomputed, and
fresh results are persisted atomically.  The returned
:class:`PipelineRun` carries the familiar
:class:`~repro.evaluation.experiments.ExperimentResult` plus a
:class:`PipelineStats` record proving which stages were served from
cache — the evidence the warm-run tests and the CI smoke job assert on.

:func:`run_all_pipelines` fans independent platforms out across workers
(processes by default — the sweeps are Python-loop bound).  Measurement
noise is keyed by ``(seed, measurement key)``, never by call order, so
parallel output is bit-identical to the serial path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

from repro.bench.config import SweepConfig
from repro.bench.sweep import sample_placements
from repro.errors import PipelineError
from repro.evaluation.experiments import ExperimentResult
from repro.obs import span
from repro.pipeline.executor import parallel_map
from repro.pipeline.stage import Artifact, PipelineContext, Stage
from repro.pipeline.stages import PIPELINE_STAGES
from repro.pipeline.store import ArtifactStore, load_or_compute
from repro.topology.platforms import Platform, get_platform, platform_names

__all__ = [
    "PipelineRun",
    "PipelineStats",
    "StageOutcome",
    "run_all_pipelines",
    "run_platform_pipeline",
]


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
class PipelineRun:
    """An experiment result plus the provenance of how it was produced."""

    result: ExperimentResult
    stats: PipelineStats


def _resolve_store(
    store: ArtifactStore | None, cache_dir: Path | str | None
) -> ArtifactStore | None:
    if store is not None and cache_dir is not None:
        raise PipelineError("pass either store or cache_dir, not both")
    if store is not None:
        return store
    if cache_dir is not None:
        return ArtifactStore(cache_dir)
    return None


def _run_stage(
    stage: Stage,
    ctx: PipelineContext,
    store: ArtifactStore | None,
    artifacts: dict[str, Artifact],
) -> tuple[Artifact, str]:
    """Execute one stage: cache lookup, compute fallback, persist."""
    key = ctx.key_for(stage)
    inputs = {name: artifacts[name] for name in stage.inputs}
    with span(
        f"pipeline.{stage.name}", platform=ctx.platform.name
    ) as stage_span:
        if not stage.cacheable:
            stage_span.tag(source="derived")
            return (
                Artifact(key=key, value=stage.compute(ctx, inputs)),
                "derived",
            )
        value, cached = load_or_compute(
            store,
            key,
            compute=lambda: stage.compute(ctx, inputs),
            encode=stage.serialize,
            decode=lambda payloads: stage.deserialize(payloads, ctx),
            provenance={"sweep_config": ctx.config.to_dict()},
        )
        source = "cached" if cached else "computed"
        stage_span.tag(source=source)
        return Artifact(key=key, value=value, cached=cached), source


def run_platform_pipeline(
    platform: Platform | str,
    *,
    config: SweepConfig | None = None,
    store: ArtifactStore | None = None,
    cache_dir: Path | str | None = None,
    jobs: int = 1,
    executor_mode: str = "process",
) -> PipelineRun:
    """The full measure→calibrate→predict→score pipeline for one platform.

    ``jobs`` parallelises the placement sweep inside the measure stage;
    ``store``/``cache_dir`` (mutually exclusive) enable the artifact
    cache.  With a warm cache the sweep and calibration never execute:
    their artifacts are reloaded bit-identically and only the cheap
    derived stages run.
    """
    if isinstance(platform, str):
        platform = get_platform(platform)
    ctx = PipelineContext(
        platform=platform,
        config=config or SweepConfig(),
        grid_jobs=jobs,
        executor_mode=executor_mode,
    )
    resolved = _resolve_store(store, cache_dir)

    artifacts: dict[str, Artifact] = {}
    outcomes: list[StageOutcome] = []
    with span(
        "pipeline.run",
        platform=ctx.platform.name,
        cached_store=resolved is not None,
        jobs=jobs,
    ):
        for stage in PIPELINE_STAGES:
            artifact, source = _run_stage(stage, ctx, resolved, artifacts)
            artifacts[stage.name] = artifact
            outcomes.append(StageOutcome(stage=stage.name, source=source))

    result = ExperimentResult(
        platform=platform,
        dataset=artifacts["measure"].value,  # type: ignore[arg-type]
        model=artifacts["calibrate"].value,  # type: ignore[arg-type]
        predictions=artifacts["predict"].value,  # type: ignore[arg-type]
        errors=artifacts["score"].value,  # type: ignore[arg-type]
        sample_keys=sample_placements(platform),
    )
    return PipelineRun(result=result, stats=PipelineStats(tuple(outcomes)))


def _platform_task(
    config: SweepConfig | None,
    cache_dir: str | None,
    executor_mode: str,
    name: str,
) -> PipelineRun:
    """Top-level (hence picklable) per-platform unit for process pools.

    Workers share the cache through the filesystem, not through the
    parent's store handle: the store's atomic rename discipline makes
    concurrent writers safe.
    """
    return run_platform_pipeline(
        name, config=config, cache_dir=cache_dir, executor_mode=executor_mode
    )


def run_all_pipelines(
    *,
    config: SweepConfig | None = None,
    store: ArtifactStore | None = None,
    cache_dir: Path | str | None = None,
    jobs: int = 1,
    executor_mode: str = "process",
) -> dict[str, PipelineRun]:
    """Every testbed platform, fanned out ``jobs`` wide, in Table I order.

    ``jobs`` parallelises *across platforms* (each platform's own sweep
    stays serial — no nested pools); output is bit-identical to
    ``jobs=1``.
    """
    names = platform_names()
    if jobs == 1 or len(names) <= 1:
        resolved = _resolve_store(store, cache_dir)
        return {
            name: run_platform_pipeline(
                name, config=config, store=resolved,
                executor_mode=executor_mode,
            )
            for name in names
        }
    if store is not None and cache_dir is None:
        # Worker processes cannot share an in-process handle; hand them
        # the store's root instead.
        cache_dir = store.root
    task = functools.partial(
        _platform_task,
        config,
        str(cache_dir) if cache_dir is not None else None,
        executor_mode,
    )
    runs = parallel_map(task, names, jobs=jobs, mode=executor_mode)
    return dict(zip(names, runs))
