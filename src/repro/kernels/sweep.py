"""Arithmetic-intensity sweeps: contention versus kernel compute weight.

The paper's prior study ([1], recalled in §I and §IV-C1) found that
contention depends on the kernel's arithmetic intensity:
"Performances are the most reduced when computing kernels are
memory-intensive".  This module quantifies that on the simulated
testbed: for kernels of growing intensity (at a fixed per-core flop
rate), it measures the communication bandwidth surviving a fully
overlapped run and the computation slowdown.

The paper chose memset precisely to maximise contention; this sweep
shows the other end of the spectrum — its "other kernels ... should
produce less contention" expectation, made measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import logging
import numpy as np

from repro.errors import SimulationError
from repro.kernels.intensity import demand_gbps
from repro.kernels.memops import Kernel
from repro.memsim.scenario import Scenario, solve_scenario
from repro.topology.platforms import Platform

log = logging.getLogger("repro.kernels")

__all__ = ["IntensityPoint", "kernel_scenario", "intensity_sweep"]


def kernel_scenario(
    platform: Platform,
    kernel: Kernel,
    *,
    n_cores: int,
    m_comp: int,
    m_comm: int | None,
    core_gflops: float,
) -> Scenario:
    """Build a scenario whose per-core demand reflects ``kernel``.

    ``core_gflops`` is one core's peak flop rate: the roofline crossover
    between it and the kernel's arithmetic intensity decides how hard
    the core can press the memory system.
    """
    local = platform.machine.socket_of_numa(m_comp) == 0
    demand = demand_gbps(
        kernel,
        core_stream_gbps=platform.profile.core_stream_gbps(local=local),
        core_gflops=core_gflops,
    )
    issue = demand_gbps(
        kernel,
        core_stream_gbps=platform.profile.core_stream_local_gbps,
        core_gflops=core_gflops,
    )
    return Scenario(
        n_cores=n_cores,
        m_comp=m_comp,
        m_comm=m_comm,
        comp_demand_gbps=demand,
        comp_issue_gbps=issue,
    )


@dataclass(frozen=True)
class IntensityPoint:
    """Contention outcome for one arithmetic intensity."""

    intensity_flops_per_byte: float
    per_core_demand_gbps: float
    comp_parallel_gbps: float
    comp_alone_gbps: float
    comm_parallel_gbps: float
    comm_alone_gbps: float

    @property
    def comm_retained(self) -> float:
        """Fraction of nominal network bandwidth surviving the overlap."""
        return self.comm_parallel_gbps / self.comm_alone_gbps

    @property
    def comp_retained(self) -> float:
        """Fraction of solo computation bandwidth surviving the overlap."""
        if self.comp_alone_gbps == 0.0:
            return 1.0
        return self.comp_parallel_gbps / self.comp_alone_gbps


def intensity_sweep(
    platform: Platform,
    *,
    intensities: "np.ndarray | list[float]",
    n_cores: int,
    m_comp: int = 0,
    m_comm: int = 0,
    core_gflops: float = 20.0,
    element_bytes: int = 8,
) -> list[IntensityPoint]:
    """Measure contention across kernels of varying arithmetic intensity.

    Each intensity value (flops per byte) defines a synthetic kernel
    with that compute weight; all kernels move the same bytes per
    element, only the flop count varies.
    """
    values = np.asarray(intensities, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise SimulationError("intensities must be a non-empty 1-D sequence")
    if np.any(values < 0):
        raise SimulationError("arithmetic intensities must be non-negative")
    if core_gflops <= 0:
        raise SimulationError("core_gflops must be positive")

    # Communications alone do not depend on the kernel: solve them once.
    silent = solve_scenario(
        platform.machine,
        platform.profile,
        Scenario(0, None, m_comm),
    )
    points: list[IntensityPoint] = []
    for intensity in values:
        flops = int(round(intensity * 2 * element_bytes))
        kernel = Kernel(
            name=f"synthetic@{intensity:.3g}",
            bytes_read=element_bytes,
            bytes_written=element_bytes,
            flops=flops,
        )
        parallel = solve_scenario(
            platform.machine,
            platform.profile,
            kernel_scenario(
                platform,
                kernel,
                n_cores=n_cores,
                m_comp=m_comp,
                m_comm=m_comm,
                core_gflops=core_gflops,
            ),
        )
        alone = solve_scenario(
            platform.machine,
            platform.profile,
            kernel_scenario(
                platform,
                kernel,
                n_cores=n_cores,
                m_comp=m_comp,
                m_comm=None,
                core_gflops=core_gflops,
            ),
        )
        points.append(
            IntensityPoint(
                intensity_flops_per_byte=float(kernel.arithmetic_intensity),
                per_core_demand_gbps=float(
                    parallel.comp_per_core_gbps[0]
                    if parallel.comp_per_core_gbps
                    else 0.0
                ),
                comp_parallel_gbps=parallel.comp_total_gbps,
                comp_alone_gbps=alone.comp_total_gbps,
                comm_parallel_gbps=parallel.comm_gbps,
                comm_alone_gbps=silent.comm_gbps,
            )
        )
    return points
