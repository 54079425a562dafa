"""Benchmark runners.

Two implementations of the paper's measurement loop:

* :func:`measure_curves` — fast path: queries the arbiter's steady
  state directly for each (mode, core count).  Exact for the paper's
  setting, where both activities run long enough to reach steady state.
  A :class:`ModeSolver` solves each distinct scenario once, so a
  placement grid shares the two modes that run alone.
* :func:`measure_curves_engine` — high-fidelity path: replays the
  paper's actual methodology on the fluid engine.  Each core writes its
  working set; the NIC receives back-to-back 64 MB messages until the
  computation finishes; bandwidths are derived from observed transfer
  durations ("Memory bandwidth for computations is computed from the
  duration of the memset instructions").  Includes the edge effects of
  flows not finishing simultaneously.

Both apply the platform's seeded measurement noise unless the
configuration disables it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.config import SweepConfig
from repro.bench.results import ModeCurves
from repro.core.evaluation import as_core_counts
from repro.errors import BenchmarkError
from repro.memsim.arbiter import Arbiter
from repro.memsim.engine import Engine
from repro.memsim.noise import NoiseModel
from repro.memsim.paths import build_resources
from repro.memsim.profile import ContentionProfile
from repro.memsim.scenario import (
    Scenario,
    ScenarioResult,
    build_streams,
    solve_scenario,
)
from repro.topology.objects import Machine

__all__ = [
    "ModeSolver",
    "measure_curves",
    "measure_curves_engine",
    "default_core_counts",
]


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


# ---- engine-based (duration-derived) measurement --------------------------------


def _engine_comp_alone(
    machine: Machine,
    profile: ContentionProfile,
    n: int,
    m_comp: int,
    config: SweepConfig,
) -> float:
    engine = Engine(machine, profile)
    streams = build_streams(machine, profile, Scenario(n, m_comp, None))
    flows = [engine.submit(s, config.bytes_per_core) for s in streams]
    engine.run()
    return sum(f.observed_gbps() for f in flows)


def _engine_comm_alone(
    machine: Machine,
    profile: ContentionProfile,
    m_comm: int,
    config: SweepConfig,
) -> float:
    engine = Engine(machine, profile)
    (nic_stream,) = build_streams(machine, profile, Scenario(0, None, m_comm))
    flow = engine.submit(nic_stream, config.message_bytes)
    engine.run()
    return flow.observed_gbps()


def _engine_parallel(
    machine: Machine,
    profile: ContentionProfile,
    n: int,
    m_comp: int,
    m_comm: int,
    config: SweepConfig,
) -> tuple[float, float]:
    """Computation and communication bandwidths measured in parallel.

    Back-to-back messages are received while the cores write their
    working sets; the communication bandwidth is averaged over the
    messages that completed during the overlap window, matching the
    paper's receive-side measurement.
    """
    engine = Engine(machine, profile)
    streams = build_streams(machine, profile, Scenario(n, m_comp, m_comm))
    cpu_streams = [s for s in streams if s.is_cpu]
    (nic_stream,) = [s for s in streams if s.is_dma]

    comp_flows = [engine.submit(s, config.bytes_per_core) for s in cpu_streams]
    message_flows = [engine.submit(nic_stream, config.message_bytes)]

    max_messages = 10_000
    while not all(f.done for f in comp_flows):
        completed = engine.step()
        if engine.active_count == 0 and not all(f.done for f in comp_flows):
            # The engine has nothing left to simulate (no active and no
            # pending flows) while a computation flow still holds bytes:
            # without this guard the loop would spin on no-op steps
            # forever.
            raise BenchmarkError(
                "engine went idle with unfinished computation flows "
                f"(n={n}, m_comp={m_comp}, m_comm={m_comm}); the "
                "simulation cannot make progress"
            )
        if any(f.stream.stream_id == "nic" and f.done for f in completed):
            if len(message_flows) >= max_messages:
                raise BenchmarkError(
                    "computation outlasted 10k messages; bytes_per_core is "
                    "implausibly large relative to message_bytes"
                )
            message_flows.append(engine.submit(nic_stream, config.message_bytes))
    engine.run()  # drain the trailing message

    comp_gbps = sum(f.observed_gbps() for f in comp_flows)
    comp_end = max(f.finished_at for f in comp_flows)
    overlapped = [
        f for f in message_flows if f.done and f.finished_at <= comp_end
    ]
    if overlapped:
        comm_gbps = float(np.mean([f.observed_gbps() for f in overlapped]))
    else:
        # The first message outlived the computation: report its average.
        engine_flow = message_flows[0]
        comm_gbps = engine_flow.observed_gbps()
    return comp_gbps, comm_gbps


def measure_curves_engine(
    machine: Machine,
    profile: ContentionProfile,
    *,
    m_comp: int,
    m_comm: int,
    config: SweepConfig | None = None,
    core_counts: Sequence[int] | None = None,
) -> ModeCurves:
    """Measure the four curves by replaying transfers on the fluid engine."""
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
        ca = _engine_comp_alone(machine, profile, n, m_comp, config)
        na = _engine_comm_alone(machine, profile, m_comm, config)
        cp, np_ = _engine_parallel(machine, profile, n, m_comp, m_comm, config)
        base_key = (machine.name, m_comp, m_comm, n, "engine")
        comp_alone[i] = _noisy(
            noise, profile.comp_noise_sigma, ca, base_key + ("comp_alone",),
            config.repetitions,
        )
        comm_alone[i] = _noisy(
            noise, profile.comm_noise_sigma, na, base_key + ("comm_alone",),
            config.repetitions,
        )
        comp_par[i] = _noisy(
            noise, profile.comp_noise_sigma, cp, base_key + ("comp_par",),
            config.repetitions,
        )
        comm_par[i] = _noisy(
            noise, profile.comm_noise_sigma, np_, base_key + ("comm_par",),
            config.repetitions,
        )

    return ModeCurves(
        core_counts=ns,
        comp_alone=comp_alone,
        comm_alone=comm_alone,
        comp_parallel=comp_par,
        comm_parallel=comm_par,
    )
