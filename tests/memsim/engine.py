"""The paper's duration-derived measurement, kept as a reference.

The arbiter answers "what rates do these streams get *right now*";
:class:`Engine` advances time: flows carry a byte budget, rates stay
constant between events (a flow finishing or being injected), and the
engine re-solves the steady state at every event.  This is the classic
fluid approximation of network simulation, applied to the memory
system.

:func:`measure_curves_engine` replays the paper's methodology on it.
Each core writes its working set; the NIC receives back-to-back
messages until the computation finishes; bandwidths are derived from
observed transfer durations ("Memory bandwidth for computations is
computed from the duration of the memset instructions").  It includes
the edge effects of flows not finishing simultaneously.

``repro`` measures the steady state only
(:class:`repro.bench.runner.ModeSolver`).  The tests hold it to this
reference within edge-effect tolerances:
``tests/integration/test_pipeline.py`` and ``tests/bench/test_runner.py``.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bench.results import ModeCurves
from repro.core.evaluation import as_core_counts
from repro.errors import BenchmarkError, SimulationError
from repro.memsim.arbiter import Arbiter
from repro.memsim.paths import ResourceMap, build_resources
from repro.memsim.profile import ContentionProfile
from repro.memsim.scenario import Scenario, build_streams
from repro.memsim.stream import Stream
from repro.topology.objects import Machine
from repro.units import MB, MiB, gb_to_bytes

log = logging.getLogger("repro.memsim")

__all__ = ["FlowProgress", "Engine", "measure_curves_engine"]

_EPS_BYTES = 1e-3
_EPS_TIME = 1e-12


@dataclass
class FlowProgress:
    """Lifecycle record of one flow."""

    stream: Stream
    total_bytes: float
    submitted_at: float
    started_at: float | None = None
    finished_at: float | None = None
    transferred_bytes: float = 0.0

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def remaining_bytes(self) -> float:
        return max(0.0, self.total_bytes - self.transferred_bytes)

    def observed_gbps(self) -> float:
        """Average bandwidth over the flow's lifetime (GB/s)."""
        if self.finished_at is None or self.started_at is None:
            raise SimulationError(
                f"flow {self.stream.stream_id!r} has not finished"
            )
        elapsed = self.finished_at - self.started_at
        if elapsed <= 0.0:
            raise SimulationError(
                f"flow {self.stream.stream_id!r} finished in zero time"
            )
        return self.transferred_bytes / gb_to_bytes(1.0) / elapsed


class Engine:
    """Event-driven fluid simulation of flows over one machine."""

    def __init__(
        self,
        machine: Machine,
        profile: ContentionProfile,
        *,
        resource_map: ResourceMap | None = None,
    ) -> None:
        self._machine = machine
        self._profile = profile
        if resource_map is None:
            resource_map = build_resources(machine, profile)
        self._arbiter = Arbiter(resource_map, profile)
        self._now = 0.0
        self._active: dict[str, FlowProgress] = {}
        self._pending: list[tuple[float, int, FlowProgress]] = []  # heap by start time
        self._finished: list[FlowProgress] = []
        self._tiebreak = itertools.count()

    # ---- public API ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def active_count(self) -> int:
        return len(self._active)

    def submit(
        self, stream: Stream, total_bytes: float, *, at: float | None = None
    ) -> FlowProgress:
        """Schedule ``total_bytes`` on ``stream``, starting at ``at`` (or now)."""
        if total_bytes <= 0.0:
            raise SimulationError(
                f"flow on {stream.stream_id!r} must carry a positive byte count"
            )
        start = self._now if at is None else float(at)
        if start < self._now - _EPS_TIME:
            raise SimulationError(
                f"cannot schedule flow in the past (t={start}, now={self._now})"
            )
        if stream.stream_id in self._active or any(
            p.stream.stream_id == stream.stream_id for _, _, p in self._pending
        ):
            raise SimulationError(
                f"a flow with id {stream.stream_id!r} is already in flight"
            )
        progress = FlowProgress(
            stream=stream, total_bytes=float(total_bytes), submitted_at=start
        )
        heapq.heappush(self._pending, (start, next(self._tiebreak), progress))
        return progress

    def run(self, *, until: float | None = None, max_events: int = 1_000_000) -> float:
        """Advance the simulation until all flows finish (or ``until``).

        Returns the simulation time reached.
        """
        for _ in range(max_events):
            if not self._active and not self._pending:
                if until is not None and self._now < until:
                    self._now = until
                return self._now
            self.step(until=until)
            if until is not None and self._now >= until - _EPS_TIME:
                return self._now
        log.error(
            "engine stalled after %d events at t=%.6f (%d active, %d pending)",
            max_events,
            self._now,
            len(self._active),
            len(self._pending),
        )
        raise SimulationError(
            f"engine exceeded {max_events} events; "
            "a flow is probably starved (zero rate with bytes remaining)"
        )

    def step(self, *, until: float | None = None) -> tuple[FlowProgress, ...]:
        """Advance to the next event; return flows completed by it.

        Returns an empty tuple when nothing remains to simulate (which
        is falsy — ``while engine.step(): ...`` drains the engine).  A
        step that merely admits a pending flow or hits ``until`` also
        returns an empty tuple, so callers must check
        :attr:`active_count` to distinguish "idle" from "between
        events"; :meth:`run` does.
        """
        self._admit_pending()
        if not self._active:
            if self._pending:
                next_start = self._pending[0][0]
                if until is not None and next_start > until:
                    self._now = until
                    return ()
                self._now = next_start
                self._admit_pending()
            else:
                if until is not None and self._now < until:
                    self._now = until
                return ()
        if not self._active:
            return ()

        rates = self._arbiter.solve(
            [p.stream for p in self._active.values()]
        ).rates
        horizon = self._next_event_horizon(rates, until)
        before = len(self._finished)
        self._advance(rates, horizon)
        return tuple(self._finished[before:])

    def finished_flows(self) -> tuple[FlowProgress, ...]:
        return tuple(self._finished)

    # ---- internals -----------------------------------------------------------

    def _admit_pending(self) -> None:
        while self._pending and self._pending[0][0] <= self._now + _EPS_TIME:
            _, _, progress = heapq.heappop(self._pending)
            progress.started_at = self._now
            self._active[progress.stream.stream_id] = progress

    def _next_event_horizon(
        self, rates: dict[str, float], until: float | None
    ) -> float:
        """Earliest time at which the rate vector must be recomputed."""
        horizon = float("inf")
        for sid, progress in self._active.items():
            rate = rates.get(sid, 0.0)
            if rate <= 0.0:
                continue
            dt = progress.remaining_bytes / gb_to_bytes(rate)
            horizon = min(horizon, self._now + dt)
        if self._pending:
            horizon = min(horizon, self._pending[0][0])
        if until is not None:
            horizon = min(horizon, until)
        if horizon == float("inf"):
            raise SimulationError(
                "no active flow can make progress: all rates are zero"
            )
        return max(horizon, self._now + _EPS_TIME)

    def _advance(self, rates: dict[str, float], horizon: float) -> None:
        dt = horizon - self._now
        self._now = horizon
        done: list[str] = []
        for sid, progress in self._active.items():
            rate = rates.get(sid, 0.0)
            progress.transferred_bytes = min(
                progress.total_bytes,
                progress.transferred_bytes + gb_to_bytes(rate) * dt,
            )
            if progress.remaining_bytes <= _EPS_BYTES:
                progress.transferred_bytes = progress.total_bytes
                progress.finished_at = self._now
                done.append(sid)
        for sid in done:
            self._finished.append(self._active.pop(sid))


# ---- duration-derived measurement ------------------------------------------------


def _engine_comp_alone(
    machine: Machine,
    profile: ContentionProfile,
    n: int,
    m_comp: int,
    bytes_per_core: int,
) -> float:
    engine = Engine(machine, profile)
    streams = build_streams(machine, profile, Scenario(n, m_comp, None))
    flows = [engine.submit(s, bytes_per_core) for s in streams]
    engine.run()
    return sum(f.observed_gbps() for f in flows)


def _engine_comm_alone(
    machine: Machine,
    profile: ContentionProfile,
    m_comm: int,
    message_bytes: int,
) -> float:
    engine = Engine(machine, profile)
    (nic_stream,) = build_streams(machine, profile, Scenario(0, None, m_comm))
    flow = engine.submit(nic_stream, message_bytes)
    engine.run()
    return flow.observed_gbps()


def _engine_parallel(
    machine: Machine,
    profile: ContentionProfile,
    n: int,
    m_comp: int,
    m_comm: int,
    bytes_per_core: int,
    message_bytes: int,
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

    comp_flows = [engine.submit(s, bytes_per_core) for s in cpu_streams]
    message_flows = [engine.submit(nic_stream, message_bytes)]

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
        if any(f.stream.stream_id == "job/nic" and f.done for f in completed):
            if len(message_flows) >= max_messages:
                raise BenchmarkError(
                    "computation outlasted 10k messages; bytes_per_core is "
                    "implausibly large relative to message_bytes"
                )
            message_flows.append(engine.submit(nic_stream, message_bytes))
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
    core_counts: Sequence[int],
    bytes_per_core: int = 512 * MiB,
    message_bytes: int = 64 * MB,
) -> ModeCurves:
    """Measure the four curves, noiseless, by replaying transfers on the engine.

    ``bytes_per_core`` is the working set each computing core writes
    (weak scaling, 512 MiB by default); ``message_bytes`` the size of
    each received message (the paper's 64 MB by default).
    """
    ns = as_core_counts(core_counts, error=BenchmarkError)
    comp_alone = np.empty(ns.size)
    comm_alone = np.empty(ns.size)
    comp_par = np.empty(ns.size)
    comm_par = np.empty(ns.size)

    for i, n in enumerate(ns):
        n = int(n)
        comp_alone[i] = _engine_comp_alone(
            machine, profile, n, m_comp, bytes_per_core
        )
        comm_alone[i] = _engine_comm_alone(machine, profile, m_comm, message_bytes)
        comp_par[i], comm_par[i] = _engine_parallel(
            machine, profile, n, m_comp, m_comm, bytes_per_core, message_bytes
        )

    return ModeCurves(
        core_counts=ns,
        comp_alone=comp_alone,
        comm_alone=comm_alone,
        comp_parallel=comp_par,
        comm_parallel=comm_par,
    )
