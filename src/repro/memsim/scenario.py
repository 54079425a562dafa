"""Benchmark scenarios: the three execution modes of the paper's suite.

The paper's benchmarking program (§IV-A1) runs, for every core count:

1. computations alone,
2. communications alone,
3. both in parallel.

A :class:`Scenario` describes one such execution point — how many cores
compute, where computation data lives (``m_comp``), and where
communication data lives (``m_comm``); ``None`` disables the
corresponding activity.  It is the one-tenant case of the tenant layer:
:func:`solve_scenario` solves it as tenant ``job``, alone on the machine
at full load, with streams ``job/core{i}``, ``job/nic`` and
``job/nic-tx``.

The **tenant layer** composes several independent jobs sharing one
machine: each :class:`Tenant` has its own kernel mix (demand/issue
overrides and temporal working set), core count, data placement and a
time-varying :class:`LoadEnvelope`; :func:`solve_tenant_scenario` merges
them into one stream set per load segment and attributes the solved
bandwidth back per tenant.  Within one call it solves each distinct
vector of levels once, and builds each tenant's streams once per level
and number of communicating tenants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, MutableMapping

from repro.errors import SimulationError
from repro.memsim.arbiter import Allocation, Arbiter
from repro.memsim.paths import build_resources, stream_path
from repro.memsim.profile import ContentionProfile
from repro.memsim.stream import Stream, StreamKind
from repro.topology.objects import Machine

__all__ = [
    "Scenario",
    "ScenarioResult",
    "build_streams",
    "solve_scenario",
    "LoadPhase",
    "LoadEnvelope",
    "Tenant",
    "TenantScenario",
    "TenantBandwidth",
    "PhaseResult",
    "TenantScenarioResult",
    "build_tenant_streams",
    "solve_tenant_scenario",
]

#: Socket the computing cores are bound to, matching the paper's
#: benchmarks ("cores of only one socket are computing", §II-B).
COMPUTE_SOCKET = 0


class _Job:
    """What a :class:`Scenario` and a :class:`Tenant` share: the checks
    of one job's cores and overrides, and its two activities.

    It declares no field; both subclasses have ``n_cores``, ``m_comp``,
    ``m_comm`` and the three overrides.
    """

    def _check_job(self, who: str) -> None:
        """Reject a core count that is not a non-negative integer, cores
        without a data node, and overrides that are not positive finite
        numbers; ``who`` prefixes every message."""
        # ``Integral`` takes numpy integers too, and a bool is an int
        # but never a core count.  An exact int skips the ABC check,
        # which costs about 0.5 us.
        n_cores = self.n_cores
        if type(n_cores) is not int and (
            isinstance(n_cores, bool)
            or not isinstance(n_cores, numbers.Integral)
        ):
            raise SimulationError(
                f"{who}n_cores must be an integer, got {n_cores!r}"
            )
        if self.n_cores < 0:
            raise SimulationError(
                f"{who}n_cores must be >= 0, got {self.n_cores}"
            )
        if self.n_cores > 0 and self.m_comp is None:
            raise SimulationError(
                f"{who}computing cores need a data node (m_comp)"
            )
        # ``NaN <= 0`` is false, so a plain sign check waves NaN through
        # and the solver later produces NaN rates instead of a diagnosis.
        for name in (
            "comp_demand_gbps", "comp_issue_gbps", "comm_demand_gbps"
        ):
            value = getattr(self, name)
            if value is not None and (not math.isfinite(value) or value <= 0):
                raise SimulationError(
                    f"{who}{name} override must be a positive finite "
                    f"number, got {value!r}"
                )

    @property
    def computing(self) -> bool:
        return self.n_cores > 0 and self.m_comp is not None

    @property
    def communicating(self) -> bool:
        return self.m_comm is not None


@dataclass(frozen=True)
class Scenario(_Job):
    """One execution point of the benchmarking suite.

    ``comp_demand_gbps``/``comp_issue_gbps`` optionally override the
    per-core stream demand and mesh issue pressure — used by the
    kernel-aware sweeps (:mod:`repro.kernels.sweep`) to model kernels
    with higher arithmetic intensity than the paper's pure memset
    (compute-bound kernels press the memory system less, so contention
    shrinks; §IV-C1).
    """

    n_cores: int
    m_comp: int | None
    m_comm: int | None
    comp_demand_gbps: float | None = None
    comp_issue_gbps: float | None = None
    #: Optional cap on the NIC's demand (GB/s) — used by the
    #: message-size study: small messages cannot sustain the line rate
    #: (per-message latency and handshakes dominate), so they press the
    #: memory system less.  Capped by the locality nominal.
    comm_demand_gbps: float | None = None
    #: Bidirectional communications ("ping-pongs instead of only
    #: pongs", §VI future work): adds an outbound DMA read stream next
    #: to the inbound one.
    bidirectional: bool = False

    def __post_init__(self) -> None:
        self._check_job("")

    def tenant(self) -> Tenant:
        """This job as tenant ``job``, computing on the paper's socket."""
        return Tenant(
            name="job",
            n_cores=self.n_cores,
            m_comp=self.m_comp,
            m_comm=self.m_comm,
            comp_demand_gbps=self.comp_demand_gbps,
            comp_issue_gbps=self.comp_issue_gbps,
            comm_demand_gbps=self.comm_demand_gbps,
            bidirectional=self.bidirectional,
        )


@dataclass(frozen=True)
class ScenarioResult:
    """Steady-state bandwidths of one scenario."""

    scenario: Scenario
    #: Aggregate memory bandwidth of all computing cores (GB/s).
    comp_total_gbps: float
    #: Per-core bandwidths, in core order (empty when not computing).
    comp_per_core_gbps: tuple[float, ...]
    #: Inbound communication (network/DMA) bandwidth (GB/s); 0 when silent.
    comm_gbps: float
    #: Full arbiter output, for diagnostics.
    allocation: Allocation
    #: The solved streams (paths included), for bottleneck analysis.
    streams: tuple[Stream, ...] = ()
    #: Outbound (transmit) communication bandwidth (GB/s); nonzero only
    #: for bidirectional scenarios.
    comm_tx_gbps: float = 0.0

    @property
    def total_gbps(self) -> float:
        """Stacked total — the quantity plotted in the paper's Figure 2.

        Bidirectional scenarios count both directions: the transmit
        stream moves real bytes through the memory system too.
        """
        return self.comp_total_gbps + self.comm_gbps + self.comm_tx_gbps


def build_streams(
    machine: Machine, profile: ContentionProfile, scenario: Scenario
) -> list[Stream]:
    """The streams of ``scenario`` on ``machine``: its core streams in
    core order, then its DMA streams, those of tenant ``job`` alone."""
    return build_tenant_streams(
        machine, profile, TenantScenario((scenario.tenant(),))
    )


def solve_scenario(
    machine: Machine,
    profile: ContentionProfile,
    scenario: Scenario,
    *,
    arbiter: Arbiter | None = None,
) -> ScenarioResult:
    """Solve ``scenario`` to steady state, as tenant ``job`` alone.

    ``arbiter`` can be passed in to amortise construction over many
    solves.
    """
    if arbiter is None:
        arbiter = Arbiter(build_resources(machine, profile), profile)

    tenant = scenario.tenant()
    alone = TenantScenario((tenant,))
    streams = build_tenant_streams(machine, profile, alone)
    allocation = arbiter.solve(streams)
    bandwidth = _attribute(alone, {tenant.name: 1.0}, allocation)[tenant.name]
    return ScenarioResult(
        scenario=scenario,
        comp_total_gbps=bandwidth.comp_dram_gbps,
        comp_per_core_gbps=tuple(
            allocation.rates[s.stream_id] for s in streams if s.is_cpu
        ),
        comm_gbps=bandwidth.comm_gbps,
        comm_tx_gbps=bandwidth.comm_tx_gbps,
        allocation=allocation,
        streams=tuple(streams),
    )


# ---------------------------------------------------------------------------
# Multi-tenant scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadPhase:
    """One constant-level span of a tenant's load envelope.

    ``level`` multiplies the tenant's demand and issue rates for
    ``duration_s`` seconds; 0 means idle.
    """

    duration_s: float
    level: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise SimulationError(
                f"phase duration must be a positive finite number of "
                f"seconds, got {self.duration_s!r}"
            )
        if not math.isfinite(self.level) or self.level < 0:
            raise SimulationError(
                f"phase level must be a finite number >= 0, got {self.level!r}"
            )


@dataclass(frozen=True)
class LoadEnvelope:
    """Piecewise-constant load profile of one tenant.

    The steady-state solver is memoryless, so any time-varying load
    reduces to a sequence of constant segments; the envelope is the
    tenant's own phase list, and :func:`solve_tenant_scenario` solves at
    the union of all tenants' phase boundaries.  A tenant whose envelope
    is shorter than the scenario horizon holds its last level.
    """

    phases: tuple[LoadPhase, ...] = (LoadPhase(1.0, 1.0),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise SimulationError("a load envelope needs at least one phase")

    @classmethod
    def steady(cls, level: float = 1.0, *, duration_s: float = 1.0) -> LoadEnvelope:
        """Constant load — the paper's always-on benchmark behaviour."""
        return cls((LoadPhase(duration_s, level),))

    @classmethod
    def bursty(
        cls,
        *,
        period_s: float = 1.0,
        duty: float = 0.5,
        high: float = 1.0,
        low: float = 0.0,
        cycles: int = 4,
    ) -> LoadEnvelope:
        """On/off square wave: ``duty`` of each period at ``high``."""
        if not 0.0 < duty < 1.0:
            raise SimulationError(f"duty cycle must be in (0, 1), got {duty!r}")
        if cycles < 1:
            raise SimulationError(f"cycles must be >= 1, got {cycles!r}")
        phases: list[LoadPhase] = []
        for _ in range(cycles):
            phases.append(LoadPhase(duty * period_s, high))
            phases.append(LoadPhase((1.0 - duty) * period_s, low))
        return cls(tuple(phases))

    @classmethod
    def diurnal(
        cls,
        *,
        day_s: float = 24.0,
        samples: int = 12,
        low: float = 0.2,
        high: float = 1.0,
    ) -> LoadEnvelope:
        """One day-night cycle: a raised cosine sampled into steps."""
        if samples < 2:
            raise SimulationError(f"samples must be >= 2, got {samples!r}")
        if not 0.0 <= low <= high:
            raise SimulationError(
                f"need 0 <= low <= high, got low={low!r} high={high!r}"
            )
        step = day_s / samples
        phases = tuple(
            LoadPhase(
                step,
                low
                + (high - low)
                * 0.5
                * (1.0 - math.cos(2.0 * math.pi * (i + 0.5) / samples)),
            )
            for i in range(samples)
        )
        return cls(phases)

    @property
    def duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    def boundaries(self) -> tuple[float, ...]:
        """Cumulative phase end times, last one equal to the duration."""
        out: list[float] = []
        t = 0.0
        for p in self.phases:
            t += p.duration_s
            out.append(t)
        return tuple(out)

    def level_at(self, t: float) -> float:
        """Load level at time ``t``; holds the last level past the end."""
        if t < 0.0:
            raise SimulationError(f"time must be >= 0, got {t!r}")
        end = 0.0
        for p in self.phases:
            end += p.duration_s
            if t < end:
                return p.level
        return self.phases[-1].level


@dataclass(frozen=True)
class Tenant(_Job):
    """One independent job sharing the machine with other tenants.

    A tenant is a :class:`Scenario`'s job plus a name, a socket binding,
    an optional temporal working set (per core; ``None`` keeps the
    paper's non-temporal stores) and a load envelope.  Demands are raw
    GB/s.
    """

    name: str
    n_cores: int = 0
    m_comp: int | None = None
    m_comm: int | None = None
    socket: int = COMPUTE_SOCKET
    comp_demand_gbps: float | None = None
    comp_issue_gbps: float | None = None
    comm_demand_gbps: float | None = None
    #: Per-core temporal working set (bytes).  ``None`` = non-temporal
    #: stores (LLC bypass); positive = the cores' traffic competes for
    #: the socket's LLC and only the non-resident share reaches DRAM.
    working_set_bytes: int | None = None
    bidirectional: bool = False
    envelope: LoadEnvelope = field(default_factory=LoadEnvelope)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise SimulationError(
                f"tenant name must be non-empty and slash-free, got {self.name!r}"
            )
        self._check_job(f"tenant {self.name!r}: ")
        if self.socket < 0:
            raise SimulationError(
                f"tenant {self.name!r}: socket must be >= 0, got {self.socket}"
            )
        # Written so that NaN fails it too.
        size = self.working_set_bytes
        if size is not None and not 0 < size < math.inf:
            raise SimulationError(
                f"tenant {self.name!r}: working set must be positive and "
                f"finite when given, got {size!r}"
            )


@dataclass(frozen=True)
class TenantScenario:
    """N tenants sharing one machine for one scheduling horizon."""

    tenants: tuple[Tenant, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise SimulationError("a tenant scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate tenant names: {names}")

    @property
    def horizon_s(self) -> float:
        """Scheduling horizon: the longest tenant envelope."""
        return max(t.envelope.duration_s for t in self.tenants)


@dataclass(frozen=True)
class TenantBandwidth:
    """One tenant's bandwidth during one segment (or its time average)."""

    #: Processed computation bandwidth (GB/s) — cache hits included, i.e.
    #: the DRAM rate divided by the LLC traffic factor.
    comp_gbps: float
    #: DRAM-side computation bandwidth actually drawn (GB/s).
    comp_dram_gbps: float
    #: Inbound communication bandwidth (GB/s).
    comm_gbps: float
    #: Outbound communication bandwidth (GB/s, bidirectional tenants).
    comm_tx_gbps: float

    @property
    def total_gbps(self) -> float:
        return self.comp_gbps + self.comm_gbps + self.comm_tx_gbps


_IDLE_BANDWIDTH = TenantBandwidth(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PhaseResult:
    """Steady-state solve of one constant-load segment."""

    start_s: float
    end_s: float
    #: Each tenant's envelope level during the segment.
    levels: Mapping[str, float]
    per_tenant: Mapping[str, TenantBandwidth]
    allocation: Allocation

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class TenantScenarioResult:
    """Per-segment solves plus time-weighted per-tenant averages."""

    scenario: TenantScenario
    horizon_s: float
    phases: tuple[PhaseResult, ...]
    #: Time-weighted average bandwidth over the horizon, per tenant.
    per_tenant: Mapping[str, TenantBandwidth]

    def tenant(self, name: str) -> TenantBandwidth:
        try:
            return self.per_tenant[name]
        except KeyError:
            raise SimulationError(
                f"no tenant {name!r}; known: {sorted(self.per_tenant)}"
            ) from None


def _tenant_active(tenant: Tenant, level: float) -> bool:
    return level > 0.0 and (tenant.computing or tenant.communicating)


def _tenant_streams(
    machine: Machine,
    profile: ContentionProfile,
    tenant: Tenant,
    level: float,
    n_comm: int,
) -> tuple[Stream, ...]:
    """One active tenant's streams at load ``level``.

    First one CPU stream per computing core, ids ``{name}/core{i}``,
    then the DMA stream ``{name}/nic`` and, when bidirectional,
    ``{name}/nic-tx``.  ``level`` scales demand and issue pressure.
    ``n_comm`` active tenants communicate and split the hardware's
    anti-starvation floor: the guarantee protects the port, not each
    job.
    """
    prefix = f"{tenant.name}/"
    socket = tenant.socket
    streams: list[Stream] = []
    if tenant.computing:
        m_comp = tenant.m_comp
        assert m_comp is not None
        local = machine.socket_of_numa(m_comp) == socket
        demand = profile.core_stream_gbps(local=local)
        if tenant.comp_demand_gbps is not None:
            demand = min(demand, tenant.comp_demand_gbps)
        # Mesh occupancy follows the core's issue rate, which is its
        # local-target store rate regardless of where the data actually
        # lands (bounded by the kernel's own issue rate when an override
        # is given).
        issue = profile.core_stream_local_gbps
        if tenant.comp_issue_gbps is not None:
            issue = min(issue, tenant.comp_issue_gbps)
        path = stream_path(
            machine, StreamKind.CPU, origin_socket=socket, target_numa=m_comp
        )
        streams.extend(
            Stream(
                stream_id=f"{prefix}core{i}",
                kind=StreamKind.CPU,
                demand_gbps=demand * level,
                path=path,
                target_numa=m_comp,
                origin_socket=socket,
                issue_gbps=issue * level,
                working_set_bytes=tenant.working_set_bytes,
            )
            for i in range(tenant.n_cores)
        )
    if tenant.communicating:
        m_comm = tenant.m_comm
        assert m_comm is not None
        nic = machine.nic
        nominal = profile.nic_nominal_gbps(m_comm, nic.line_rate_gbps)
        # Platform quirk (pyxis): computations on a *different* node
        # than the communication data still shave NIC bandwidth — an
        # effect outside the paper's locality-only model.
        if (
            tenant.computing
            and tenant.m_comp != m_comm
            and profile.nic_cross_penalty > 0.0
        ):
            nominal *= 1.0 - profile.nic_cross_penalty
        # The demand may be capped (message-size study) but the
        # hardware's anti-starvation floor is defined against the
        # platform nominal: a NIC asking for less than the guaranteed
        # bandwidth simply gets everything it asks for.
        demand = nominal
        if tenant.comm_demand_gbps is not None:
            demand = min(demand, tenant.comm_demand_gbps)
        demand = demand * level
        streams.append(
            Stream(
                stream_id=f"{prefix}nic",
                kind=StreamKind.DMA,
                demand_gbps=demand,
                path=stream_path(
                    machine, StreamKind.DMA, origin_socket=nic.socket,
                    target_numa=m_comm,
                ),
                target_numa=m_comm,
                origin_socket=nic.socket,
                min_guarantee_gbps=min(
                    demand, profile.nic_min_fraction * nominal / n_comm
                ),
            )
        )
        if tenant.bidirectional:
            # The outbound (send) direction: payload read from the same
            # node toward the NIC, through the full-duplex port's
            # transmit side; only the memory path (mesh, link,
            # controller) is shared with the inbound stream.  The two
            # directions split the hardware's guaranteed floor.
            streams.append(
                Stream(
                    stream_id=f"{prefix}nic-tx",
                    kind=StreamKind.DMA,
                    demand_gbps=nominal * level,
                    path=stream_path(
                        machine,
                        StreamKind.DMA,
                        origin_socket=nic.socket,
                        target_numa=m_comm,
                        transmit=True,
                    ),
                    target_numa=m_comm,
                    origin_socket=nic.socket,
                    min_guarantee_gbps=(
                        0.5 * profile.nic_min_fraction * nominal / n_comm
                    ),
                )
            )
    return tuple(streams)


def build_tenant_streams(
    machine: Machine,
    profile: ContentionProfile,
    scenario: TenantScenario,
    *,
    levels: Mapping[str, float] | None = None,
    reuse: MutableMapping[tuple[str, float, int], tuple[Stream, ...]]
    | None = None,
) -> list[Stream]:
    """Merged stream set of all active tenants at the given load levels.

    Stream ids are namespaced ``{tenant}/core{i}``, ``{tenant}/nic``,
    ``{tenant}/nic-tx``, in tenant order.  Tenants at level 0 (or with
    no activity) contribute no streams at all, so a solve with an idle
    tenant is bit-identical to the same solve without it.

    A tenant's streams depend only on its level and, through the split
    DMA floor, on how many active tenants communicate.  ``reuse`` maps
    ``(tenant name, level, communicating tenants)`` to a tenant's
    streams, with 0 for the count when the tenant does not communicate;
    a key found there is not built again.  The caller owns the map and
    keeps it to one machine, profile and scenario.  Streams are frozen,
    so stream sets may share them.
    """
    if levels is None:
        levels = {t.name: 1.0 for t in scenario.tenants}
    cores_used: dict[int, int] = {}
    for t in scenario.tenants:
        if t.socket >= machine.n_sockets:
            raise SimulationError(
                f"tenant {t.name!r}: socket {t.socket} out of range on "
                f"{machine.name!r} ({machine.n_sockets} sockets)"
            )
        cores_used[t.socket] = cores_used.get(t.socket, 0) + t.n_cores
    for socket, used in cores_used.items():
        if used > machine.cores_per_socket:
            raise SimulationError(
                f"{used} computing cores requested but socket {socket} "
                f"has only {machine.cores_per_socket}"
            )

    active = [
        t for t in scenario.tenants
        if _tenant_active(t, levels.get(t.name, 1.0))
    ]
    n_comm = sum(1 for t in active if t.communicating)

    if reuse is None:
        reuse = {}
    streams: list[Stream] = []
    for t in active:
        level = levels.get(t.name, 1.0)
        key = (t.name, level, n_comm if t.communicating else 0)
        built = reuse.get(key)
        if built is None:
            built = reuse[key] = _tenant_streams(
                machine, profile, t, level, n_comm
            )
        streams.extend(built)
    return streams


def _attribute(
    scenario: TenantScenario,
    levels: Mapping[str, float],
    allocation: Allocation,
) -> dict[str, TenantBandwidth]:
    """Split one allocation's rates back per tenant."""
    out: dict[str, TenantBandwidth] = {}
    for t in scenario.tenants:
        if not _tenant_active(t, levels.get(t.name, 1.0)):
            out[t.name] = _IDLE_BANDWIDTH
            continue
        comp = dram = 0.0
        if t.computing:
            for i in range(t.n_cores):
                sid = f"{t.name}/core{i}"
                rate = allocation.rate(sid)
                dram += rate
                # Processed bandwidth includes cache hits: DRAM rate
                # divided by the LLC traffic factor (1.0 when the
                # stream bypassed the cache).
                comp += rate / allocation.llc_factors.get(sid, 1.0)
        comm = allocation.rate(f"{t.name}/nic") if t.communicating else 0.0
        comm_tx = (
            allocation.rate(f"{t.name}/nic-tx")
            if t.communicating and t.bidirectional
            else 0.0
        )
        out[t.name] = TenantBandwidth(
            comp_gbps=comp,
            comp_dram_gbps=dram,
            comm_gbps=comm,
            comm_tx_gbps=comm_tx,
        )
    return out


def _segment_boundaries(scenario: TenantScenario) -> list[float]:
    """Union of all tenants' phase boundaries, clipped to the horizon."""
    horizon = scenario.horizon_s
    cuts = {0.0, horizon}
    for t in scenario.tenants:
        for b in t.envelope.boundaries():
            if b < horizon:
                cuts.add(b)
    return sorted(cuts)


def solve_tenant_scenario(
    machine: Machine,
    profile: ContentionProfile,
    scenario: TenantScenario,
    *,
    arbiter: Arbiter | None = None,
) -> TenantScenarioResult:
    """Solve a multi-tenant scenario over its scheduling horizon.

    The load envelopes are piecewise constant, so the horizon splits at
    the union of all tenants' phase boundaries into segments; the
    reported per-tenant averages are time-weighted over the segments.
    The steady-state solve depends only on the tenants' levels, so each
    distinct level vector is solved once per call: segments with equal
    levels share one :class:`Allocation`, and each segment gets its own
    copy of the per-tenant attribution.  The level vectors of one call
    build each tenant's streams once per level and number of
    communicating tenants (:func:`build_tenant_streams`' ``reuse``).
    """
    if arbiter is None:
        arbiter = Arbiter(build_resources(machine, profile), profile)

    cuts = _segment_boundaries(scenario)
    # (tenant, level, communicating tenants) -> that tenant's streams.
    reuse: dict[tuple[str, float, int], tuple[Stream, ...]] = {}
    phases: list[PhaseResult] = []
    sums: dict[str, list[float]] = {
        t.name: [0.0, 0.0, 0.0, 0.0] for t in scenario.tenants
    }
    # Level vector, in tenant order -> its solve and attribution.
    solved: dict[
        tuple[float, ...], tuple[Allocation, dict[str, TenantBandwidth]]
    ] = {}
    for start, end in zip(cuts, cuts[1:]):
        mid = 0.5 * (start + end)
        levels = {t.name: t.envelope.level_at(mid) for t in scenario.tenants}
        key = tuple(levels.values())
        known = solved.get(key)
        if known is None:
            streams = build_tenant_streams(
                machine, profile, scenario, levels=levels, reuse=reuse
            )
            allocation = arbiter.solve(streams)
            per_tenant = _attribute(scenario, levels, allocation)
            solved[key] = allocation, per_tenant
        else:
            allocation, per_tenant = known[0], dict(known[1])
        phases.append(
            PhaseResult(
                start_s=start,
                end_s=end,
                levels=levels,
                per_tenant=per_tenant,
                allocation=allocation,
            )
        )
        span = end - start
        for name, bw in per_tenant.items():
            acc = sums[name]
            acc[0] += bw.comp_gbps * span
            acc[1] += bw.comp_dram_gbps * span
            acc[2] += bw.comm_gbps * span
            acc[3] += bw.comm_tx_gbps * span

    horizon = scenario.horizon_s
    averages = {
        name: TenantBandwidth(
            comp_gbps=acc[0] / horizon,
            comp_dram_gbps=acc[1] / horizon,
            comm_gbps=acc[2] / horizon,
            comm_tx_gbps=acc[3] / horizon,
        )
        for name, acc in sums.items()
    }
    return TenantScenarioResult(
        scenario=scenario,
        horizon_s=horizon,
        phases=tuple(phases),
        per_tenant=averages,
    )
