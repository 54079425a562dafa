"""repro — reproduction of *Modeling Memory Contention between
Communications and Computations in Distributed HPC Systems* (Denis,
Jeannot, Swartvagher, IPDPS Workshops 2022).

Quick start::

    from repro import get_platform, run_platform_experiment

    experiment = run_platform_experiment(get_platform("henri"))
    print(experiment.errors.average)  # mean prediction error, percent

Layers (bottom-up):

* :mod:`repro.topology` — hwloc-like machine descriptions (Table I);
* :mod:`repro.memsim` — the memory-system simulator standing in for
  the paper's hardware (DESIGN.md §2);
* :mod:`repro.net` — simulated fabrics, transfer protocols and
  two-machine clusters;
* :mod:`repro.kernels` — computation kernels and their stream demands;
* :mod:`repro.bench` — the paper's benchmarking suite (§IV-A);
* :mod:`repro.core` — the contention model itself (equations 1–8);
* :mod:`repro.evaluation` — tables, figures and error metrics (§IV-B);
* :mod:`repro.baselines` — comparison predictors (§II-D, §V);
* :mod:`repro.advisor` — placement recommendations (§VI future work).
"""

from repro.bench import SweepConfig, run_placement_grid, run_sample_sweeps
from repro.core import (
    ModelParameters,
    PlacementModel,
    calibrate,
    calibrate_placement_model,
    stacked_view,
)
from repro.errors import ReproError
from repro.evaluation import (
    run_all_experiments,
    run_platform_experiment,
)
from repro.topology import Machine, MachineBuilder, get_platform, platform_names

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "MachineBuilder",
    "ModelParameters",
    "PlacementModel",
    "ReproError",
    "SweepConfig",
    "__version__",
    "calibrate",
    "calibrate_placement_model",
    "get_platform",
    "platform_names",
    "run_all_experiments",
    "run_placement_grid",
    "run_platform_experiment",
    "run_sample_sweeps",
    "stacked_view",
]
