"""Benchmark runner: the paper's measurement loop, in steady state.

:func:`measure_curves` queries the arbiter's steady state directly for
each (mode, core count).  This is exact for the paper's setting, where
both activities run long enough to reach steady state; the paper's
duration-derived measurement agrees within edge effects, which the
tests check against a replay on an event-driven engine
(``tests/memsim/engine.py``).  A :class:`ModeSolver` solves each
distinct scenario once, so a placement grid shares the two modes that
run alone.  The platform's seeded measurement noise is applied unless
the configuration disables it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.config import SweepConfig
from repro.bench.results import ModeCurves
from repro.core.evaluation import as_core_counts
from repro.errors import BenchmarkError
from repro.memsim.arbiter import Arbiter
from repro.memsim.noise import NoiseModel
from repro.memsim.paths import build_resources
from repro.memsim.profile import ContentionProfile
from repro.memsim.scenario import Scenario, ScenarioResult, solve_scenario
from repro.topology.objects import Machine

__all__ = ["ModeSolver", "measure_curves", "default_core_counts"]


def default_core_counts(machine: Machine) -> np.ndarray:
    """1..cores-per-socket, the sweep range of the paper's harness."""
    return np.arange(1, machine.cores_per_socket + 1)


def _noisy(
    noise: NoiseModel | None,
    sigma: float,
    value: float,
    key: tuple[object, ...],
    repetitions: int,
) -> float:
    """Median of ``repetitions`` noisy observations of ``value``."""
    if noise is None or sigma == 0.0:
        return value
    if repetitions == 1:
        return noise.perturb(value, sigma, *key)
    samples = [
        noise.perturb(value, sigma, *key, rep) for rep in range(repetitions)
    ]
    return float(np.median(samples))


class ModeSolver:
    """Steady-state bandwidths of the benchmark's three modes on one machine.

    Computations alone depend only on ``(m_comp, n)`` and communications
    alone only on ``m_comm``, so each is solved once and remembered: the
    placements measured through one solver share those solves.  Only
    the parallel mode is solved per placement.
    """

    def __init__(self, machine: Machine, profile: ContentionProfile) -> None:
        self.machine = machine
        self.profile = profile
        self._arbiter = Arbiter(build_resources(machine, profile), profile)
        self._comp_alone: dict[tuple[int, int], float] = {}
        self._comm_alone: dict[int, float] = {}

    def _solve(self, scenario: Scenario) -> ScenarioResult:
        return solve_scenario(
            self.machine, self.profile, scenario, arbiter=self._arbiter
        )

    def comp_alone(self, m_comp: int, n: int) -> float:
        """Aggregate bandwidth of ``n`` cores computing alone on ``m_comp``."""
        key = (m_comp, n)
        if key not in self._comp_alone:
            self._comp_alone[key] = self._solve(
                Scenario(n, m_comp, None)
            ).comp_total_gbps
        return self._comp_alone[key]

    def comm_alone(self, m_comm: int) -> float:
        """Bandwidth of the NIC receiving alone into ``m_comm``."""
        if m_comm not in self._comm_alone:
            self._comm_alone[m_comm] = self._solve(
                Scenario(0, None, m_comm)
            ).comm_gbps
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
        noise = None if config.noiseless else NoiseModel(config.seed)

        comp_alone = np.empty(ns.size)
        comm_alone = np.empty(ns.size)
        comp_par = np.empty(ns.size)
        comm_par = np.empty(ns.size)

        for i, n in enumerate(ns):
            n = int(n)
            par = self._solve(Scenario(n, m_comp, m_comm))
            base_key = (machine.name, m_comp, m_comm, n)
            comp_alone[i] = _noisy(
                noise, profile.comp_noise_sigma, self.comp_alone(m_comp, n),
                base_key + ("comp_alone",), config.repetitions,
            )
            comm_alone[i] = _noisy(
                noise, profile.comm_noise_sigma, self.comm_alone(m_comm),
                base_key + ("comm_alone",), config.repetitions,
            )
            comp_par[i] = _noisy(
                noise, profile.comp_noise_sigma, par.comp_total_gbps,
                base_key + ("comp_par",), config.repetitions,
            )
            comm_par[i] = _noisy(
                noise, profile.comm_noise_sigma, par.comm_gbps,
                base_key + ("comm_par",), config.repetitions,
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

