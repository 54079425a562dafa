"""Exception hierarchy for :mod:`repro`.

Every error the library raises deliberately derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine Python bugs (``TypeError`` etc.).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "SimulationError",
    "ArbitrationError",
    "CalibrationError",
    "ModelError",
    "PlacementError",
    "BenchmarkError",
    "CommunicationError",
    "AdvisorError",
    "ServiceError",
    "ClusterError",
    "PipelineError",
    "ObsError",
    "BenchTrackError",
]


class ReproError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class TopologyError(ReproError):
    """Raised for invalid machine topology construction or queries."""


class SimulationError(ReproError):
    """Raised when the memory-system simulation cannot proceed."""


class ArbitrationError(SimulationError):
    """Raised when the bandwidth arbiter cannot find a feasible allocation."""


class CalibrationError(ReproError):
    """Raised when model parameters cannot be extracted from benchmark curves."""


class ModelError(ReproError):
    """Raised for invalid model parameters or evaluation requests."""


class PlacementError(ModelError):
    """Raised for invalid NUMA placement descriptions."""


class BenchmarkError(ReproError):
    """Raised when a benchmark sweep is misconfigured."""


class CommunicationError(ReproError):
    """Raised by the simulated network layer."""


class AdvisorError(ReproError):
    """Raised when the placement advisor cannot produce a recommendation."""


class ServiceError(ReproError):
    """Raised by the prediction service for malformed or unservable requests."""


class ClusterError(ReproError):
    """Raised by the scale-out serving tier (supervisor, router, loadgen).

    Covers cluster misconfiguration (a worker count or replication
    factor that cannot shard, an unusable port), a supervisor that
    cannot spawn or restart a worker, and a load-generator run that is
    impossible to execute.  Per-request unavailability never raises
    this inside the router — it is answered as a 503 JSON envelope."""


class PipelineError(ReproError):
    """Raised when the pipeline or its artifact store is misused.

    Cache *corruption* never raises: a corrupted, truncated, or
    version-mismatched entry is logged, discarded, and recomputed.  This
    error covers genuine misuse — an unusable store root, an invalid
    parallelism request, an unknown cache entry named on the CLI."""


class ObsError(ReproError):
    """Raised by the observability layer (tracing, exporters, log setup).

    Tracing *collection* never raises — a disabled tracer is a no-op
    and an enabled one only appends records.  This error covers misuse
    of the surrounding tooling: an unwritable or unparsable trace file,
    an unknown export format or log level."""


class BenchTrackError(ReproError):
    """Raised by the performance-trajectory harness (``repro bench``).

    Covers an unknown benchmark area, a malformed or hand-edited
    ``BENCH_*.json`` baseline, a misused recorder, and — the one the CI
    gate exists for — a fresh run that falls outside a committed
    baseline's noise band."""
