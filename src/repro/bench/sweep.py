"""Full placement-grid sweeps for one platform.

The paper measures two placements to *calibrate* (local/local and
remote/remote on the first nodes of each socket) and all ``k × k``
placements to *evaluate*.  :func:`run_sample_sweeps` produces the
former, :func:`run_placement_grid` the latter.
"""

from __future__ import annotations

import functools
import logging
from typing import Sequence

import numpy as np

from repro.bench.config import SweepConfig
from repro.bench.results import ModeCurves, PlacementKey, PlacementSweep, PlatformDataset
from repro.bench.runner import ModeSolver, measure_curves
from repro.core.evaluation import as_core_counts
from repro.errors import BenchmarkError
from repro.obs import span
from repro.topology.platforms import Platform

__all__ = ["run_placement_grid", "run_sample_sweeps", "sample_placements"]

log = logging.getLogger("repro.bench")


def sample_placements(platform: Platform) -> tuple[PlacementKey, PlacementKey]:
    """The two calibration placements of §IV-A2.

    Local model: computation and communication data both on the first
    NUMA node of the first socket.  Remote model: both on the first
    NUMA node of the second socket.
    """
    local = platform.sample_local_node()
    remote = platform.sample_remote_node()
    return (local, local), (remote, remote)


def run_sample_sweeps(
    platform: Platform,
    *,
    config: SweepConfig | None = None,
    core_counts: Sequence[int] | None = None,
) -> PlatformDataset:
    """Measure only the two calibration placements."""
    config = config or SweepConfig()
    if core_counts is not None:
        # Validate once here instead of once per placement in the runner.
        core_counts = as_core_counts(core_counts, error=BenchmarkError)
    curves = {}
    for key in sample_placements(platform):
        curves[key] = measure_curves(
            platform.machine,
            platform.profile,
            m_comp=key[0],
            m_comm=key[1],
            config=config,
            core_counts=core_counts,
        )
    return PlatformDataset(
        platform_name=platform.name,
        sweep=PlacementSweep(curves=curves),
        config={"samples_only": True, **config.labels},
    )


def _measure_placements(
    platform: Platform,
    config: SweepConfig,
    core_counts: np.ndarray | None,
    solver: ModeSolver,
    keys: Sequence[PlacementKey],
) -> list[ModeCurves]:
    """Some placements' sweeps — top-level so process pools can pickle it."""
    measured = []
    for m_comp, m_comm in keys:
        with span(
            "sweep.placement",
            platform=platform.name,
            m_comp=m_comp,
            m_comm=m_comm,
        ):
            measured.append(
                solver.curves(
                    m_comp=m_comp,
                    m_comm=m_comm,
                    config=config,
                    core_counts=core_counts,
                )
            )
    return measured


def run_placement_grid(
    platform: Platform,
    *,
    config: SweepConfig | None = None,
    core_counts: Sequence[int] | None = None,
    jobs: int = 1,
) -> PlatformDataset:
    """Measure every ``(m_comp, m_comm)`` placement combination.

    ``jobs > 1`` measures placements in worker processes.  Measurement
    noise is keyed by the measurement itself, never by call order, so
    the parallel grid is bit-identical to the serial one.

    Each distinct scenario is solved once: computations alone once per
    ``(m_comp, n)``, communications alone once per ``m_comm``, and the
    parallel mode once per placement and ``n``.  In parallel, each
    worker measures every placement of one ``m_comp``, and the
    communications-alone answers are solved before the workers start.
    """
    config = config or SweepConfig()
    if core_counts is not None:
        core_counts = as_core_counts(core_counts, error=BenchmarkError)
    placements = list(platform.machine.placements())
    log.debug(
        "sweeping %d placements of %s (jobs=%s)",
        len(placements),
        platform.name,
        jobs,
    )
    rows: dict[int, list[PlacementKey]] = {}
    for key in placements:
        rows.setdefault(key[0], []).append(key)
    solver = ModeSolver(platform.machine, platform.profile)
    with span(
        "sweep.grid",
        platform=platform.name,
        placements=len(placements),
        jobs=jobs,
    ):
        if jobs != 1 and len(rows) > 1:
            # Imported here: the process pool costs boot time that a
            # serial sweep never needs.  Per-placement spans are
            # recorded inside the workers and lost with them; the
            # parent always observes this grid span.
            from repro.pipeline.executor import parallel_map

            # Every row needs the communications-alone answers: solve
            # them here, once, before the rows are handed out.
            for m_comm in dict.fromkeys(key[1] for key in placements):
                solver.comm_alone(m_comm)
            measured = parallel_map(
                functools.partial(
                    _measure_placements, platform, config, core_counts, solver
                ),
                list(rows.values()),
                jobs=jobs,
            )
            by_key = {
                key: curves
                for row, row_curves in zip(rows.values(), measured)
                for key, curves in zip(row, row_curves)
            }
            curves = {key: by_key[key] for key in placements}
        else:
            curves = dict(
                zip(
                    placements,
                    _measure_placements(
                        platform, config, core_counts, solver, placements
                    ),
                )
            )
    return PlatformDataset(
        platform_name=platform.name,
        sweep=PlacementSweep(curves=curves),
        config={"samples_only": False, **config.labels},
    )
