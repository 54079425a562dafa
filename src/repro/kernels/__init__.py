"""Computation-kernel substrate.

The paper's benchmark cores run non-temporal ``memset`` — a pure write
stream that bypasses the last-level cache (§II-C).  This package
describes such kernels abstractly (read/write stream decomposition,
arithmetic intensity) and turns them into per-core stream demands on a
machine:

* :mod:`repro.kernels.memops` — kernel definitions (memset, copy,
  triad, and a parameterisable custom kernel);
* :mod:`repro.kernels.intensity` — the roofline-style demand model
  turning arithmetic intensity into per-core bandwidth demand;
* :mod:`repro.kernels.sweep` — a kernel's benchmark scenario and the
  arithmetic-intensity sweep.

The last-level cache is not modelled here: the arbiter's LLC pre-pass
(:mod:`repro.memsim.llc`) water-fills each socket's cache across the
streams that declare a working set.
"""

from repro.kernels.intensity import demand_gbps
from repro.kernels.memops import (
    KERNELS,
    Kernel,
    copy_kernel,
    get_kernel,
    memset_nt,
    triad_kernel,
)
from repro.kernels.sweep import IntensityPoint, intensity_sweep, kernel_scenario

__all__ = [
    "IntensityPoint",
    "KERNELS",
    "Kernel",
    "copy_kernel",
    "demand_gbps",
    "get_kernel",
    "intensity_sweep",
    "kernel_scenario",
    "memset_nt",
    "triad_kernel",
]
