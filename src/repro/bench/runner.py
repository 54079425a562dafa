"""Benchmark runner: the paper's measurement loop, in steady state.

:func:`measure_curves` queries the arbiter's steady state directly for
each (mode, core count).  This is exact for the paper's setting, where
both activities run long enough to reach steady state; the paper's
duration-derived measurement agrees within edge effects, which the
tests check against a replay on an event-driven engine
(``tests/memsim/engine.py``).  A :class:`ModeSolver` measures a
placement's core-count sweep in one pass and solves each distinct
scenario once, so a placement grid shares the two modes that run alone.
The platform's seeded measurement noise is applied unless the
configuration disables it, drawn for the whole sweep in one batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.config import SweepConfig
from repro.bench.results import ModeCurves
from repro.core.evaluation import as_core_counts
from repro.errors import BenchmarkError, ReproError
from repro.memsim.arbiter import Arbiter
from repro.memsim.noise import NoiseModel
from repro.memsim.paths import build_resources
from repro.memsim.profile import ContentionProfile
from repro.memsim.scenario import Scenario, build_streams
from repro.memsim.stream import Stream
from repro.topology.objects import Machine

__all__ = ["ModeSolver", "measure_curves", "default_core_counts"]


def default_core_counts(machine: Machine) -> np.ndarray:
    """1..cores-per-socket, the sweep range of the paper's harness."""
    return np.arange(1, machine.cores_per_socket + 1)


#: The four measured curves of a sweep, in their noise keys' order.
_CURVES = ("comp_alone", "comm_alone", "comp_par", "comm_par")


def _noisy(
    noise: NoiseModel,
    sigmas: Sequence[float],
    rows: list[list[float]],
    keys: Sequence[tuple[object, ...]],
    repetitions: int,
) -> None:
    """Replace each measurement by the median of its noisy observations.

    ``rows[i][j]`` is curve ``_CURVES[j]`` at the core count keyed
    ``keys[i]``, and ``sigmas[j]`` that curve's noise.  A curve with no
    noise keeps its values untouched.  Every observation of the sweep is
    drawn in one batch.
    """
    reps = [()] if repetitions == 1 else [(rep,) for rep in range(repetitions)]
    noisy = [
        (i, j)
        for i in range(len(rows))
        for j, sigma in enumerate(sigmas)
        if sigma != 0.0
    ]
    samples = noise.perturbed(
        [rows[i][j] for i, j in noisy for _ in reps],
        [sigmas[j] for _, j in noisy for _ in reps],
        [(*keys[i], _CURVES[j], *rep) for i, j in noisy for rep in reps],
    )
    for k, (i, j) in enumerate(noisy):
        drawn = samples[k * repetitions : (k + 1) * repetitions]
        rows[i][j] = drawn[0] if repetitions == 1 else float(np.median(drawn))


class ModeSolver:
    """Steady-state bandwidths of the benchmark's three modes on one machine.

    A placement's sweep is measured in one pass.  Its streams are built
    once, for the largest core count, and each core count solves a
    prefix of them: the parallel mode at ``n`` is the first ``n`` core
    streams next to the communication stream.  Computations alone depend
    only on ``(m_comp, n)`` and communications alone only on ``m_comm``,
    so each is solved once and remembered: the placements measured
    through one solver share those solves.  Only the parallel mode is
    solved per placement.
    """

    def __init__(self, machine: Machine, profile: ContentionProfile) -> None:
        self.machine = machine
        self.profile = profile
        self._arbiter = Arbiter(build_resources(machine, profile), profile)
        self._comp_alone: dict[tuple[int, int], float] = {}
        self._comm_alone: dict[int, float] = {}

    def _solve(
        self, cpu: list[Stream], beside: list[Stream]
    ) -> tuple[float, float]:
        """Solve the core streams ``cpu`` next to the communication
        streams ``beside``: the core streams' summed rate, and the first
        communication stream's rate (0.0 with none)."""
        rates = self._arbiter.solve(cpu + beside).rates
        comp_total = sum((rates[s.stream_id] for s in cpu), 0.0)
        return comp_total, (rates[beside[0].stream_id] if beside else 0.0)

    def _sweep_streams(
        self, m_comp: int, m_comm: int, sweep: list[int]
    ) -> tuple[list[Stream], list[Stream]]:
        """The core streams of the sweep's largest core count, and the
        communication streams that run next to them.

        A sweep that cannot be built fails as solving it one core count
        at a time did: at the first core count whose streams cannot be
        built, with that core count's error.
        """
        top = max(sweep)
        try:
            streams = build_streams(
                self.machine, self.profile, Scenario(top, m_comp, m_comm)
            )
        except ReproError:
            for n in sweep:
                build_streams(
                    self.machine, self.profile, Scenario(n, m_comp, m_comm)
                )
            raise
        return streams[:top], streams[top:]

    def comm_alone(self, m_comm: int) -> float:
        """Bandwidth of the NIC receiving alone into ``m_comm``."""
        if m_comm not in self._comm_alone:
            streams = build_streams(
                self.machine, self.profile, Scenario(0, None, m_comm)
            )
            self._comm_alone[m_comm] = self._solve([], streams)[1]
        return self._comm_alone[m_comm]

    def curves(
        self,
        *,
        m_comp: int,
        m_comm: int,
        config: SweepConfig | None = None,
        core_counts: Sequence[int] | None = None,
    ) -> ModeCurves:
        """The four bandwidth curves of one placement, noise applied."""
        machine, profile = self.machine, self.profile
        config = config or SweepConfig()
        ns = (
            as_core_counts(core_counts, error=BenchmarkError)
            if core_counts is not None
            else default_core_counts(machine)
        )
        # Plain ints: they key the noise through their repr.
        sweep = [int(n) for n in ns]
        # The sweep's streams first: a core count that cannot be built
        # fails before anything is solved.
        cpu, beside = self._sweep_streams(m_comp, m_comm, sweep)
        comm_alone = self.comm_alone(m_comm)

        rows = []
        for n in sweep:
            comp_par, comm_par = self._solve(cpu[:n], beside)
            key = (m_comp, n)
            comp_alone = self._comp_alone.get(key)
            if comp_alone is None:
                comp_alone = self._comp_alone[key] = self._solve(
                    cpu[:n], []
                )[0]
            rows.append([comp_alone, comm_alone, comp_par, comm_par])

        if not config.noiseless:
            comp, comm = profile.comp_noise_sigma, profile.comm_noise_sigma
            _noisy(
                NoiseModel(config.seed),
                (comp, comm, comp, comm),
                rows,
                [(machine.name, m_comp, m_comm, n) for n in sweep],
                config.repetitions,
            )

        comp_alone, comm_alone, comp_par, comm_par = (
            np.array(curve, dtype=float) for curve in zip(*rows)
        )
        return ModeCurves(
            core_counts=ns,
            comp_alone=comp_alone,
            comm_alone=comm_alone,
            comp_parallel=comp_par,
            comm_parallel=comm_par,
        )


def measure_curves(
    machine: Machine,
    profile: ContentionProfile,
    *,
    m_comp: int,
    m_comm: int,
    config: SweepConfig | None = None,
    core_counts: Sequence[int] | None = None,
) -> ModeCurves:
    """Measure the four bandwidth curves for one placement (steady state)."""
    return ModeSolver(machine, profile).curves(
        m_comp=m_comp, m_comm=m_comm, config=config, core_counts=core_counts
    )

