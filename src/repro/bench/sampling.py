"""Adaptive calibration sweeps (the paper's footnote 2).

"This process can be optimized: once the maxima of bandwidth
T_par_max and T_seq_max are found, one can skip executions with number
of computing cores greater than N_seq_max, except the execution with
all cores of the first socket, required to compute δr."

:func:`run_adaptive_calibration` implements that optimisation: it
measures core counts incrementally, stops once both maxima have clearly
passed (``patience`` consecutive non-improving points on both curves),
then jumps straight to the full socket.  The resulting sparse curves
calibrate to (nearly) the same parameters as the full sweep at a
fraction of the measurements — the benchmark suite's analogue of
saving testbed hours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.config import SweepConfig
from repro.bench.results import ModeCurves
from repro.bench.runner import ModeSolver
from repro.errors import BenchmarkError
from repro.memsim.profile import ContentionProfile
from repro.topology.objects import Machine

__all__ = ["AdaptiveSweepResult", "run_adaptive_calibration"]


@dataclass(frozen=True)
class AdaptiveSweepResult:
    """Sparse calibration curves plus bookkeeping."""

    curves: ModeCurves
    measured_core_counts: tuple[int, ...]
    full_sweep_size: int

    @property
    def measurements_saved(self) -> int:
        return self.full_sweep_size - len(self.measured_core_counts)


def run_adaptive_calibration(
    machine: Machine,
    profile: ContentionProfile,
    *,
    m_comp: int,
    m_comm: int,
    config: SweepConfig | None = None,
    patience: int = 3,
    tolerance: float = 0.005,
) -> AdaptiveSweepResult:
    """Measure one placement adaptively.

    ``patience`` is how many consecutive core counts must fail to
    improve *both* the computation-alone maximum and the stacked
    parallel maximum (by more than ``tolerance`` relative) before the
    sweep stops and jumps to the full socket.
    """
    if patience < 1:
        raise BenchmarkError("patience must be >= 1")
    if tolerance < 0.0:
        raise BenchmarkError("tolerance must be non-negative")
    config = config or SweepConfig()
    max_cores = machine.cores_per_socket

    measured: list[int] = []
    points: list[ModeCurves] = []
    best_alone = 0.0
    best_stacked = 0.0
    stale = 0

    # One solver for every point: communications alone is solved once.
    solver = ModeSolver(machine, profile)

    def measure_one(n: int) -> ModeCurves:
        return solver.curves(
            m_comp=m_comp, m_comm=m_comm, config=config, core_counts=[n]
        )

    for n in range(1, max_cores + 1):
        point = measure_one(n)
        measured.append(n)
        points.append(point)
        alone = float(point.comp_alone[0])
        stacked = float(point.comp_parallel[0] + point.comm_parallel[0])
        improved = False
        if alone > best_alone * (1.0 + tolerance):
            best_alone = alone
            improved = True
        if stacked > best_stacked * (1.0 + tolerance):
            best_stacked = stacked
            improved = True
        stale = 0 if improved else stale + 1
        if stale >= patience and n < max_cores:
            break

    if measured[-1] != max_cores:
        # The paper's exception: the full-socket point is required to
        # compute delta_r.
        measured.append(max_cores)
        points.append(measure_one(max_cores))

    curves = ModeCurves(
        core_counts=np.array(measured),
        comp_alone=np.array([float(p.comp_alone[0]) for p in points]),
        comm_alone=np.array([float(p.comm_alone[0]) for p in points]),
        comp_parallel=np.array([float(p.comp_parallel[0]) for p in points]),
        comm_parallel=np.array([float(p.comm_parallel[0]) for p in points]),
    )
    return AdaptiveSweepResult(
        curves=curves,
        measured_core_counts=tuple(measured),
        full_sweep_size=max_cores,
    )
