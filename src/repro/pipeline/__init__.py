"""Cached, parallel execution for the §IV evaluation.

:func:`repro.evaluation.experiments.run_platform_experiment` runs the
measure → calibrate → predict → score steps; this package holds what
they run on: the content-addressed artifact store
(:mod:`repro.pipeline.store`) that persists the measurement and the
calibration under a :class:`StageKey`, the config fingerprints that
address it (:mod:`repro.pipeline.fingerprint`), and the process fan-out
(:mod:`repro.pipeline.executor`).  See ``docs/PIPELINE.md``.
"""

from repro.pipeline.executor import parallel_map, resolve_jobs
from repro.pipeline.fingerprint import config_fingerprint, fingerprint_mapping
from repro.pipeline.store import ArtifactStore, EntryInfo, StageKey, StoreStats

__all__ = [
    "ArtifactStore",
    "EntryInfo",
    "StageKey",
    "StoreStats",
    "config_fingerprint",
    "fingerprint_mapping",
    "parallel_map",
    "resolve_jobs",
]
