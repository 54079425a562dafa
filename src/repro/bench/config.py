"""Benchmark sweep configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.errors import BenchmarkError
from repro.units import MB, MiB

__all__ = ["SweepConfig"]

#: Fields an earlier event-driven measurement mode read (message size,
#: per-core working set, and the switch that selected that mode), at
#: the only values any stored artifact was keyed with.  The steady-state
#: measurement depends on none of them, but :meth:`SweepConfig.to_dict`
#: still emits them so every store key and manifest stays the same.
_RETIRED_FIELDS: dict[str, Any] = {
    "message_bytes": 64 * MB,
    "bytes_per_core": 512 * MiB,
    "use_engine": False,
}


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one benchmark sweep.

    The paper receives 64 MB messages on one dedicated communication
    core while the computing cores, bound to physical cores, write a
    fixed working set each (weak scaling).  The sweep measures that
    setting in steady state, so neither size is a parameter: only the
    measurement noise and the repetitions are.
    """

    #: Measurement noise seed (see :class:`repro.memsim.NoiseModel`).
    seed: int = 0
    #: Disable measurement noise entirely (exact steady-state values).
    noiseless: bool = False
    #: Repetitions per measurement point (median is reported), mimicking
    #: the paper's repeated runs.  Only meaningful with noise enabled.
    repetitions: int = 1
    #: Extra metadata recorded alongside results.
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise BenchmarkError("repetitions must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        """Every field, JSON-serialisable, for cache fingerprinting.

        Any field change — including a label change — must change the
        returned mapping, because the pipeline's artifact keys are
        derived from it (:func:`repro.pipeline.fingerprint.config_fingerprint`).
        The retired fields are included at their fixed values.
        """
        data = {**_RETIRED_FIELDS, **asdict(self)}
        data["labels"] = {str(k): str(v) for k, v in self.labels.items()}
        return data
