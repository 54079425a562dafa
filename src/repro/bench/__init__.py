"""The paper's benchmarking suite (§IV-A1), on the simulated testbed.

For every number of computing cores the suite measures:

1. computations alone,
2. communications alone,
3. both in parallel,

for a given placement of computation data (``m_comp``) and
communication data (``m_comm``) on NUMA nodes.  Computing cores perform
non-temporal memset streams (weak scaling); communications receive
64 MB messages on the NIC.

* :mod:`repro.bench.config` — sweep configuration;
* :mod:`repro.bench.results` — curve containers with CSV round-trip;
* :mod:`repro.bench.runner` — the steady-state runner;
* :mod:`repro.bench.sweep` — full placement-grid sweeps for a platform.
"""

from repro.bench.config import SweepConfig
from repro.bench.results import (
    ModeCurves,
    PlacementKey,
    PlacementSweep,
    PlatformDataset,
)
from repro.bench.message_size import effective_message_bandwidth, message_size_contention
from repro.bench.runner import measure_curves
from repro.bench.sampling import AdaptiveSweepResult, run_adaptive_calibration
from repro.bench.sweep import run_placement_grid, run_sample_sweeps

__all__ = [
    "ModeCurves",
    "PlacementKey",
    "PlacementSweep",
    "PlatformDataset",
    "SweepConfig",
    "AdaptiveSweepResult",
    "effective_message_bandwidth",
    "measure_curves",
    "message_size_contention",
    "run_adaptive_calibration",
    "run_placement_grid",
    "run_sample_sweeps",
]
