"""Model registry: calibrate once per (platform, seed), share forever.

Calibration is the only expensive step of serving a query (tens of
milliseconds of simulated benchmarking + fitting); everything after it
is an O(1) lookup in the model's tables.  The registry
therefore keys calibrated :class:`~repro.core.placement.PlacementModel`
instances by ``(platform, seed)`` and

* serves repeat requests from an LRU-bounded cache,
* deduplicates concurrent first requests (*single-flight*): when N
  clients ask for an uncached platform at once, exactly one calibration
  runs and all N await its result,
* runs the calibration itself in the default executor so the event loop
  keeps serving cheap cached requests meanwhile.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from typing import TYPE_CHECKING, Mapping

from repro.bench.config import SweepConfig
from repro.core.placement import PlacementModel
from repro.errors import ServiceError
from repro.obs import span
from repro.service.metrics import ServiceMetrics
from repro.topology.platforms import Platform, get_platform, platform_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.tournament import TournamentRouter

__all__ = ["ModelKey", "ModelEntry", "ModelRegistry"]

log = logging.getLogger("repro.service")


@dataclass(frozen=True)
class ModelKey:
    """Cache key: a platform calibrated under one measurement seed."""

    platform: str
    seed: int


@dataclass(frozen=True)
class ModelEntry:
    """One calibrated model plus the platform it belongs to.

    ``backends`` holds every registered model backend calibrated for
    this platform (``backend=`` request selection; its ``threshold``
    entry is ``model`` itself) and ``tournament`` the per-regime winner
    router (``backend=tournament``); both are ``None`` for entries
    built by custom calibrators, in which case backend selection
    answers a structured 400.
    """

    key: ModelKey
    platform: Platform
    model: PlacementModel
    error_average_pct: float = field(default=float("nan"))
    backends: "Mapping[str, PlacementModel] | None" = field(default=None)
    tournament: "TournamentRouter | None" = field(default=None)


def _default_calibrator(
    key: ModelKey, cache_dir: Path | str | None = None
) -> ModelEntry:
    """The full §IV pipeline: sweep, calibrate, score, tournament.

    With ``cache_dir`` the pipeline's artifact store backs the run, so
    a service restart (or a sibling process) reuses the persisted sweep,
    calibration and backend calibrations instead of recomputing them.
    The tournament scores the pipeline's own model as ``threshold``.
    """
    # Imported lazily: evaluation pulls the whole bench stack.
    from repro.backends.tournament import (
        TournamentRouter,
        run_platform_tournament,
    )
    from repro.evaluation.experiments import run_platform_experiment
    from repro.pipeline.store import ArtifactStore

    config = SweepConfig(seed=key.seed)
    result = run_platform_experiment(
        key.platform, config=config, cache_dir=cache_dir
    )
    store = ArtifactStore(cache_dir) if cache_dir is not None else None
    # Every other registered backend, calibrated through the same store
    # (a warm worker loads them; a cold one publishes for the fleet),
    # and the per-regime tournament router on top.
    tournament_run = run_platform_tournament(
        result, config=config, store=store
    )
    return ModelEntry(
        key=key,
        platform=result.platform,
        model=result.model,
        error_average_pct=result.errors.average,
        backends=tournament_run.calibrated,
        tournament=TournamentRouter(
            tournament_run.tournament, tournament_run.calibrated
        ),
    )


class ModelRegistry:
    """LRU-bounded, single-flight cache of calibrated models."""

    def __init__(
        self,
        *,
        max_entries: int = 16,
        metrics: ServiceMetrics | None = None,
        calibrator: Callable[[ModelKey], ModelEntry] | None = None,
        cache_dir: Path | str | None = None,
    ) -> None:
        if max_entries < 1:
            raise ServiceError(f"max_entries must be >= 1, got {max_entries}")
        if calibrator is not None and cache_dir is not None:
            raise ServiceError("pass either calibrator or cache_dir, not both")
        self._max_entries = max_entries
        self._metrics = metrics or ServiceMetrics()
        self._calibrator = calibrator or functools.partial(
            _default_calibrator, cache_dir=cache_dir
        )
        self._entries: "OrderedDict[ModelKey, ModelEntry]" = OrderedDict()
        self._pending: dict[ModelKey, asyncio.Task] = {}

    # ---- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ModelKey) -> bool:
        return key in self._entries

    @property
    def metrics(self) -> ServiceMetrics:
        return self._metrics

    def cached(self, platform: str, seed: int = 0) -> bool:
        return ModelKey(platform, seed) in self._entries

    # ---- warm start ------------------------------------------------------------

    def preload(
        self, keys: "Iterable[ModelKey | tuple[str, int]]"
    ) -> list[ModelEntry]:
        """Hydrate entries synchronously, before any event loop exists.

        The worker warm-start path: a cluster worker calls this on the
        main thread *before* accepting traffic, so its first request is
        a registry hit.  With a ``cache_dir``-backed calibrator and a
        populated store, each key is a file read, not a re-calibration
        — a restarted worker comes back warm in milliseconds.

        Deliberately bypasses the asyncio single-flight machinery: no
        loop is running yet, and strict serial execution keeps startup
        deterministic.  Already-cached keys are skipped (and freshened
        in LRU order); returns the entries actually loaded.
        """
        loaded: list[ModelEntry] = []
        for raw in keys:
            key = (
                raw
                if isinstance(raw, ModelKey)
                else ModelKey(str(raw[0]), int(raw[1]))
            )
            if key.platform not in platform_names():
                get_platform(key.platform)  # raises TopologyError
            if key in self._entries:
                self._entries.move_to_end(key)
                continue
            entry = self._run_calibrator(key)
            self._metrics.calibrations_total += 1
            self._metrics.preloads_total += 1
            self._entries[key] = entry
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._metrics.registry_evictions += 1
            loaded.append(entry)
        return loaded

    # ---- the cache -------------------------------------------------------------

    async def get(self, platform: str, seed: int = 0) -> ModelEntry:
        """The calibrated model of ``(platform, seed)``, calibrating at
        most once no matter how many callers arrive concurrently."""
        # Validate the name up front so a typo cannot occupy the
        # single-flight slot with a doomed calibration.
        if platform not in platform_names():
            get_platform(platform)  # raises TopologyError listing valid names
        key = ModelKey(platform, seed)

        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._metrics.registry_lookup(hit=True)
            return entry

        task = self._pending.get(key)
        if task is not None:
            # Single-flight: join the calibration already in progress.
            # shield() so one cancelled waiter does not kill it for the
            # others.
            self._metrics.registry_lookup(hit=False, waited=True)
            return await asyncio.shield(task)

        self._metrics.registry_lookup(hit=False)
        task = asyncio.get_running_loop().create_task(self._calibrate(key))
        self._pending[key] = task
        try:
            return await asyncio.shield(task)
        finally:
            self._pending.pop(key, None)

    def _run_calibrator(self, key: ModelKey) -> ModelEntry:
        """The calibrator call as the executor thread runs it, spanned."""
        started = time.perf_counter()
        with span(
            "service.calibrate", platform=key.platform, seed=key.seed
        ):
            entry = self._calibrator(key)
        log.info(
            "calibrated %s (seed=%d) in %.0f ms",
            key.platform,
            key.seed,
            (time.perf_counter() - started) * 1e3,
        )
        return entry

    async def _calibrate(self, key: ModelKey) -> ModelEntry:
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(None, self._run_calibrator, key)
        self._metrics.calibrations_total += 1
        self._entries[key] = entry
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self._metrics.registry_evictions += 1
        return entry
