"""Typed stage/artifact abstraction for the §IV pipeline.

A :class:`Stage` is one deterministic step of the pipeline — measure,
calibrate, predict, score — with explicit, hashable inputs: the
platform, the full sweep configuration, and the stage's own code
version.  Running a stage yields an :class:`Artifact`: the in-memory
value plus the key under which it can be persisted and whether it was
served from the store.

Cacheable stages must implement a *bit-identical* text round trip
(``serialize``/``deserialize``): reloading their payloads reconstructs
the exact value a cold run computes.  Cheap derived stages (prediction,
scoring) set ``cacheable = False`` and are recomputed from upstream
artifacts instead of occupying disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.bench.config import SweepConfig
from repro.errors import PipelineError
from repro.pipeline.fingerprint import config_fingerprint

if TYPE_CHECKING:  # avoid a hard import cycle with repro.topology
    from repro.topology.platforms import Platform

__all__ = ["Artifact", "PipelineContext", "Stage", "StageKey"]


@dataclass(frozen=True)
class StageKey:
    """The full cache address of one stage instance.

    Two runs share a key iff nothing that can change the stage's output
    differs: same platform, same stage code version, same sweep-config
    fingerprint.
    """

    platform: str
    stage: str
    version: str
    fingerprint: str

    @property
    def entry_name(self) -> str:
        return f"{self.stage}-v{self.version}-{self.fingerprint}"

    @property
    def entry_id(self) -> str:
        """``<platform>/<stage>-v<version>-<fingerprint>`` — the id shown
        by ``repro cache ls`` and accepted by ``repro cache info``."""
        return f"{self.platform}/{self.entry_name}"


@dataclass(frozen=True)
class PipelineContext:
    """Everything a stage may depend on, fixed for one pipeline run."""

    platform: "Platform"
    config: SweepConfig
    #: Parallel workers for *intra*-stage fan-out (per-placement sweeps).
    grid_jobs: int = 1
    #: Executor flavour for that fan-out ("process" or "thread").
    executor_mode: str = "process"

    def key_for(self, stage: "Stage") -> StageKey:
        return StageKey(
            platform=self.platform.name,
            stage=stage.name,
            version=stage.version,
            fingerprint=config_fingerprint(self.config),
        )


@dataclass(frozen=True)
class Artifact:
    """One stage's output: the value, its address, and how it was obtained."""

    key: StageKey
    value: object
    #: True when served from the artifact store, False when computed.
    cached: bool = False


class Stage:
    """One composable pipeline step.

    Subclasses set ``name``/``version``/``inputs`` and implement
    :meth:`compute`; cacheable ones also implement the text round trip.
    ``version`` participates in the cache key: bump it whenever the
    stage's output changes for identical inputs, and stale entries
    invalidate themselves.
    """

    name: str = ""
    version: str = "1"
    #: Names of upstream stages whose artifacts ``compute`` receives.
    inputs: tuple[str, ...] = ()
    cacheable: bool = True

    def compute(
        self, ctx: PipelineContext, inputs: Mapping[str, Artifact]
    ) -> object:
        raise NotImplementedError

    def serialize(self, value: object) -> dict[str, str]:
        """Payload files (name → UTF-8 text) persisting ``value`` exactly."""
        raise PipelineError(f"stage {self.name!r} is not cacheable")

    def deserialize(
        self, payloads: Mapping[str, str], ctx: PipelineContext
    ) -> object:
        """Reconstruct the exact value :meth:`serialize` captured.

        Raise any of :data:`~repro.pipeline.store.DECODE_ERRORS` on an
        inconsistency; the runner treats that as a corrupt entry
        (discard + recompute), never as a fatal error.
        """
        raise PipelineError(f"stage {self.name!r} is not cacheable")
