"""The simulator as it was before it ran on plain floats, kept as a reference.

:class:`Arbiter` here builds one :class:`Offer` per stream per pass and
asks :class:`ArbitrationPolicy` for each resource's shares; its LLC
pre-pass, :func:`filter_dram_demand`, builds a replacement
:class:`~repro.memsim.stream.Stream` for every cached stream.
:func:`solve_tenant_scenario` builds and solves every load segment of a
tenant scenario, on this :class:`Arbiter`.  ``repro.memsim`` must give
exactly the same numbers: ``tests/memsim/test_reference.py`` compares
the two bit for bit.  :class:`NoiseModel` draws each key's noise from a
``numpy.random.default_rng`` of its own, as the product did before it
seeded a batch of keys at once; ``tests/memsim/test_noise_batch.py``
holds the two equal.  Only the stream builders, the per-tenant
attribution, the LLC's share and factor maths and the result types are
shared with the product; everything else is the older code, unchanged,
the water-fill's ``numpy.argsort`` included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ArbitrationError, SimulationError
from repro.memsim.arbiter import Allocation
from repro.memsim.llc import dram_factor, llc_by_socket, occupancy_shares
from repro.memsim.paths import ResourceMap, build_resources
from repro.memsim.profile import ContentionProfile
from repro.memsim.resource import Resource
from repro.memsim.scenario import (
    PhaseResult,
    TenantBandwidth,
    TenantScenario,
    TenantScenarioResult,
    _attribute,
    _segment_boundaries,
    build_tenant_streams,
)
from repro.memsim.stream import Stream
from repro.topology.objects import Machine

__all__ = [
    "Arbiter",
    "ArbitrationPolicy",
    "NoiseModel",
    "Offer",
    "filter_dram_demand",
    "smooth_min",
    "solve_tenant_scenario",
    "waterfill",
]

_EPS = 1e-9
_DMA_MAX_FRACTION = 0.92


@dataclass(frozen=True)
class Offer:
    """A stream's offered load at one resource.

    ``gbps`` is the real arriving load (demand after upstream limits and
    destination back-pressure).  ``pressure_gbps`` is the *occupancy*
    pressure the stream exerts there — meaningful only at socket meshes,
    where a core occupies mesh slots at its issue rate regardless of how
    fast the destination drains; 0 means "same as gbps".
    """

    stream: Stream
    gbps: float
    pressure_gbps: float = 0.0

    def __post_init__(self) -> None:
        if self.gbps < 0.0:
            raise ArbitrationError(
                f"offer for {self.stream.stream_id!r} must be non-negative"
            )
        if self.pressure_gbps < 0.0:
            raise ArbitrationError(
                f"pressure for {self.stream.stream_id!r} must be non-negative"
            )

    @property
    def pressure(self) -> float:
        return self.pressure_gbps if self.pressure_gbps > 0.0 else self.gbps


def smooth_min(a: float, b: float, width: float) -> float:
    """Smooth minimum with a quadratic blend of half-width ``width``.

    Equals ``min(a, b)`` whenever ``|a - b| >= width``; otherwise dips
    below it by at most ``width / 4`` (at ``a == b``).  This is the
    classic polynomial smooth-min; the dip is the "soft knee" real
    saturation curves exhibit.
    """
    if width <= 0.0:
        return min(a, b)
    h = max(width - abs(a - b), 0.0) / width
    return min(a, b) - h * h * width * 0.25


def waterfill(offers: Sequence[float], budget: float) -> list[float]:
    """Egalitarian water-filling: equal shares, capped at each offer.

    Implements the paper's uniform degradation between computing cores.
    Returns one share per offer; shares sum to ``min(sum(offers),
    budget)`` up to floating-point error.
    """
    n = len(offers)
    if n == 0:
        return []
    if budget <= 0.0:
        return [0.0] * n
    remaining = float(budget)
    shares = [0.0] * n
    # Fill the smallest offers first; whoever needs less than the equal
    # share keeps its demand, the rest split what remains.
    order = np.argsort(np.asarray(offers, dtype=float))
    unsatisfied = n
    for idx in order:
        fair = remaining / unsatisfied
        take = min(offers[idx], fair)
        shares[idx] = take
        remaining -= take
        unsatisfied -= 1
    return shares


class ArbitrationPolicy:
    """Allocates one resource's bandwidth among offered streams."""

    def __init__(self, profile: ContentionProfile) -> None:
        self._profile = profile

    # ---- capacity ---------------------------------------------------------

    def effective_capacity(self, resource: Resource, offers: Sequence[Offer]) -> float:
        """Capacity of ``resource`` under the offered traffic mix.

        Links, PCIe and NIC ports are plain pipes.  Memory controllers
        apply, in order: the local/remote capacity blend, the DMA
        concurrency bonus, and the interference slopes that the paper's
        ``δl``/``δr`` parameters capture.
        """
        profile = self._profile
        total = sum(o.gbps for o in offers)
        if total <= _EPS:
            return resource.capacity_gbps

        if resource.remote_capacity_gbps is not None and resource.socket is not None:
            remote = sum(
                o.gbps for o in offers if o.stream.origin_socket != resource.socket
            )
            base = resource.base_capacity(remote / total)
        else:
            base = resource.capacity_gbps

        if not resource.is_controller:
            return base

        cpu_offers = [o.gbps for o in offers if o.stream.is_cpu]
        dma_total = sum(o.gbps for o in offers if o.stream.is_dma)
        n_cpu = len(cpu_offers)
        if n_cpu == 0:
            return base  # pure DMA traffic: no inter-core interference

        per_core = sum(cpu_offers) / n_cpu
        if dma_total > _EPS:
            boosted = base * (1.0 + profile.dma_concurrency_bonus)
            # Knee where CPU + DMA demand together fill the controller.
            par_knee = max(0.0, boosted - dma_total) / per_core
            # Knee where CPU demand alone would fill it.
            seq_knee = base / per_core
            mixed_units = float(
                np.clip(n_cpu - par_knee, 0.0, max(0.0, seq_knee - par_knee))
            )
            core_units = max(0.0, n_cpu - seq_knee)
            capacity = (
                boosted
                - profile.interference_mixed_gbps * mixed_units
                - profile.interference_core_gbps * core_units
            )
        else:
            seq_knee = base / per_core
            capacity = base - profile.interference_core_gbps * max(
                0.0, n_cpu - seq_knee
            )
        # Interference can never destroy more than most of the capacity.
        return max(capacity, 0.2 * base)

    # ---- allocation --------------------------------------------------------

    def allocate(
        self, resource: Resource, offers: Sequence[Offer]
    ) -> Mapping[str, float]:
        """Split ``resource``'s effective capacity among ``offers``.

        Returns per-stream shares, each ``<=`` its offer, summing to at
        most the effective capacity.
        """
        live = [o for o in offers if o.gbps > _EPS]
        shares: dict[str, float] = {
            o.stream.stream_id: 0.0 for o in offers if o.gbps <= _EPS
        }
        if not live:
            return shares

        if resource.is_mesh:
            shares.update(self._allocate_mesh(resource, live))
            return shares

        capacity = self.effective_capacity(resource, live)
        total = sum(o.gbps for o in live)
        width = (
            capacity / self._profile.saturation_sharpness
            if resource.is_controller
            else 0.0
        )
        usable = smooth_min(total, capacity, width)

        if usable >= total - _EPS:
            for o in live:
                shares[o.stream.stream_id] = o.gbps
            return shares

        cpu = [o for o in live if o.stream.is_cpu]
        dma = [o for o in live if o.stream.is_dma]

        if not dma or not self._profile.cpu_priority:
            # Either no DMA traffic, or the (ablation) no-priority mode:
            # proportional sharing of the usable bandwidth.
            scale = usable / total
            for o in live:
                shares[o.stream.stream_id] = o.gbps * scale
            return shares

        # Controllers, links and PCIe fully protect the (already
        # mesh-throttled) DMA traffic: the NIC pays its contention tax
        # once, at the socket mesh, where core issue pressure competes
        # with inbound PCIe writes.  Double-taxing it here would make
        # the communication curve depend on which controller the
        # computation hammers — contradicting the placement behaviour
        # the paper observes (communication impact is socket-wide, not
        # per-controller).
        dma_offer = sum(o.gbps for o in dma)
        dma_protected = min(dma_offer, usable)
        if cpu:
            # CPU priority: waiting cores always claim a share of the
            # slots, capping how much a (possibly very fast) NIC holds.
            dma_protected = min(dma_protected, _DMA_MAX_FRACTION * usable)

        cpu_budget = max(0.0, usable - dma_protected)
        cpu_shares = waterfill([o.gbps for o in cpu], cpu_budget)
        leftover = usable - sum(cpu_shares)
        dma_total_share = min(dma_offer, max(leftover, 0.0))

        for o, share in zip(cpu, cpu_shares):
            shares[o.stream.stream_id] = share
        if dma_offer > _EPS:
            for o in dma:
                shares[o.stream.stream_id] = dma_total_share * o.gbps / dma_offer
        return shares

    def _allocate_mesh(
        self, resource: Resource, live: Sequence[Offer]
    ) -> Mapping[str, float]:
        """Socket-mesh allocation: occupancy-pressure-based NIC throttling.

        Core streams occupy the mesh at their *issue* rate even when the
        destination drains slowly, so the utilisation driving the NIC
        sag is computed from pressures, not from arriving bytes.  The
        NIC's sagged share is *not* topped up from leftover byte
        capacity: the leftover is phantom (occupied slots, not free
        bandwidth).  CPU streams are only cut if their real arriving
        load exceeds the byte capacity left next to the NIC share —
        which the memory controllers' back-pressure makes rare.
        """
        capacity = resource.capacity_gbps
        cpu = [o for o in live if o.stream.is_cpu]
        dma = [o for o in live if o.stream.is_dma]
        shares: dict[str, float] = {}

        dma_offer = sum(o.gbps for o in dma)
        if not dma or not self._profile.cpu_priority:
            # No NIC traffic (or the ablation no-priority mode): the mesh
            # is a plain pipe for real bytes.
            total = sum(o.gbps for o in live)
            if total <= capacity + _EPS:
                return {o.stream.stream_id: o.gbps for o in live}
            scale = capacity / total
            return {o.stream.stream_id: o.gbps * scale for o in live}

        pressure = sum(o.pressure for o in live)
        rho = pressure / capacity if capacity > _EPS else float("inf")
        dma_floor = sum(min(o.gbps, o.stream.min_guarantee_gbps) for o in dma)
        dma_share = min(
            self._sagged_dma_share(dma_offer, dma_floor, rho), dma_offer
        )

        cpu_budget = max(0.0, capacity - dma_share)
        cpu_shares = waterfill([o.gbps for o in cpu], cpu_budget)
        for o, share in zip(cpu, cpu_shares):
            shares[o.stream.stream_id] = share
        if dma_offer > _EPS:
            for o in dma:
                shares[o.stream.stream_id] = dma_share * o.gbps / dma_offer
        return shares

    def _sagged_dma_share(
        self, dma_offer: float, dma_floor: float, rho: float
    ) -> float:
        """DMA bandwidth protected by the hardware at utilisation ``rho``.

        Descends smoothly (smoothstep) from the full offer at
        ``sag_onset`` to the guaranteed floor at ``sag_onset +
        sag_span`` — the gradual communication throttling observed on
        real machines.
        """
        onset = self._profile.sag_onset
        span = self._profile.sag_span
        if rho <= onset:
            return dma_offer
        t = float(np.clip((rho - onset) / span, 0.0, 1.0))
        step = t * t * (3.0 - 2.0 * t)
        return dma_offer - (dma_offer - min(dma_floor, dma_offer)) * step


def filter_dram_demand(
    llc: Mapping[int, Resource], streams: Sequence[Stream]
) -> tuple[Sequence[Stream], dict[str, float]]:
    """Apply LLC filtering to ``streams`` before bandwidth arbitration.

    Streams that declare a ``working_set_bytes`` share their origin
    socket's LLC (water-fill occupancy) and have both their DRAM demand
    and their mesh issue pressure scaled by the resulting
    :func:`dram_factor`.  Streams without a working set — the paper's
    non-temporal setting, and all DMA traffic — are returned untouched;
    when *no* stream declares one, the input sequence itself is
    returned, keeping the pre-existing single-tenant path bit-identical.

    Returns ``(filtered_streams, factors)`` with ``factors`` keyed by
    stream id (only filtered streams appear).
    """
    cached = [s for s in streams if s.working_set_bytes is not None]
    if not cached:
        return streams, {}

    factors: dict[str, float] = {}
    by_socket: dict[int, list[Stream]] = {}
    for stream in cached:
        by_socket.setdefault(stream.origin_socket, []).append(stream)
    for socket, members in by_socket.items():
        resource = llc.get(socket)
        if resource is None:
            raise SimulationError(
                f"stream {members[0].stream_id!r} declares a working set "
                f"but socket {socket} has no LLC resource (the machine "
                "declares no cache levels)"
            )
        assert resource.size_bytes is not None
        shares = occupancy_shares(
            resource.size_bytes,
            [s.working_set_bytes for s in members],  # type: ignore[misc]
        )
        for stream, share in zip(members, shares):
            assert stream.working_set_bytes is not None
            factors[stream.stream_id] = dram_factor(
                stream.working_set_bytes, share
            )

    filtered = [
        s
        if s.stream_id not in factors
        else dataclasses.replace(
            s,
            demand_gbps=s.demand_gbps * factors[s.stream_id],
            # The issue pressure follows the *emitted* DRAM traffic:
            # stores served by the cache never enter the mesh queues.
            issue_gbps=s.pressure_gbps * factors[s.stream_id],
            working_set_bytes=None,
        )
        for s in streams
    ]
    return filtered, factors


class Arbiter:
    """Solves steady-state bandwidth sharing for one machine."""

    def __init__(
        self,
        resource_map: ResourceMap,
        profile: ContentionProfile,
    ) -> None:
        self._resources = resource_map
        self._policy = ArbitrationPolicy(profile)
        self._llc = llc_by_socket(resource_map.resources)

    def solve(self, streams: Sequence[Stream]) -> Allocation:
        """Compute the steady-state rates of ``streams``."""
        if not streams:
            return Allocation(
                rates={}, resource_usage={}, effective_capacity={}
            )
        ids = [s.stream_id for s in streams]
        if len(set(ids)) != len(ids):
            raise ArbitrationError(f"duplicate stream ids: {ids}")
        for s in streams:
            for rid in s.path:
                if rid not in self._resources:
                    raise ArbitrationError(
                        f"stream {s.stream_id!r} references unknown resource {rid!r}"
                    )

        # ---- pass 0: LLC capacity filter ------------------------------------
        # Temporal streams compete for their socket's LLC *capacity*;
        # only the non-resident share of their traffic presses the
        # bandwidth resources below.  Streams without a working set —
        # every pre-existing caller — pass through untouched.
        streams, llc_factors = filter_dram_demand(self._llc, streams)

        touched: dict[str, list[Stream]] = {}
        for s in streams:
            for rid in s.path:
                touched.setdefault(rid, []).append(s)
        controller_ids = [
            rid for rid in touched if self._resources[rid].is_controller
        ]
        pipe_ids = [rid for rid in touched if not self._resources[rid].is_controller]

        # ---- pass 1: controllers under raw demand pressure -----------------
        ctrl_share: dict[str, float] = {s.stream_id: s.demand_gbps for s in streams}
        for rid in controller_ids:
            members = touched[rid]
            offers = [Offer(stream=s, gbps=s.demand_gbps) for s in members]
            shares = self._policy.allocate(self._resources[rid], offers)
            for s in members:
                ctrl_share[s.stream_id] = min(
                    ctrl_share[s.stream_id], shares[s.stream_id]
                )

        # ---- pass 2: pipes, upstream -> downstream, back-pressured ----------
        pipe_share: dict[str, dict[str, float]] = {rid: {} for rid in pipe_ids}

        def pipe_offer(s: Stream, rid_here: str) -> float:
            """Load arriving at ``rid_here``: demand after back-pressure
            from the destination controller and cuts by earlier pipes."""
            offered = min(s.demand_gbps, ctrl_share[s.stream_id])
            for rid in s.path:
                if rid == rid_here:
                    break
                if rid in pipe_share and s.stream_id in pipe_share[rid]:
                    offered = min(offered, pipe_share[rid][s.stream_id])
            return offered

        # Process pipes in path order: a pipe is solved only after every
        # pipe that precedes it on some stream's path.  Path position of
        # a pipe is identical for all streams crossing it (NIC port,
        # then PCIe, then link), so sorting by earliest position works.
        def pipe_position(rid: str) -> int:
            return min(s.path.index(rid) for s in touched[rid])

        # Genuine pipe cuts: share strictly below the offered load.  A
        # share equal to the offer merely echoes an upstream/downstream
        # limit and must not constrain the final rates.
        _CUT_EPS = 1e-9
        pipe_cut: dict[str, dict[str, float]] = {rid: {} for rid in pipe_ids}

        # Offers used in each resource's *final* allocation pass, kept so
        # the reported effective capacities match what was allocated
        # against (re-deriving them from final rates would shift the
        # local/remote traffic blend and misreport the capacity).
        final_offers: dict[str, list[Offer]] = {}

        for rid in sorted(pipe_ids, key=pipe_position):
            members = touched[rid]
            is_mesh = self._resources[rid].is_mesh
            offers = [
                Offer(
                    stream=s,
                    gbps=pipe_offer(s, rid),
                    # Mesh occupancy pressure is the issue rate, never
                    # reduced by back-pressure.
                    pressure_gbps=s.pressure_gbps if is_mesh else 0.0,
                )
                for s in members
            ]
            final_offers[rid] = offers
            shares = self._policy.allocate(self._resources[rid], offers)
            pipe_share[rid] = dict(shares)
            for offer in offers:
                sid = offer.stream.stream_id
                if shares[sid] < offer.gbps - _CUT_EPS:
                    pipe_cut[rid][sid] = shares[sid]

        def pipes_min(s: Stream) -> float:
            """Demand limited by genuine pipe cuts only."""
            r = s.demand_gbps
            for rid in s.path:
                if rid in pipe_cut and s.stream_id in pipe_cut[rid]:
                    r = min(r, pipe_cut[rid][s.stream_id])
            return r

        # ---- pass 3: controllers under pipe-limited pressure ----------------
        final_ctrl: dict[str, float] = {s.stream_id: s.demand_gbps for s in streams}
        for rid in controller_ids:
            members = touched[rid]
            offers = [Offer(stream=s, gbps=pipes_min(s)) for s in members]
            final_offers[rid] = offers
            shares = self._policy.allocate(self._resources[rid], offers)
            for s in members:
                final_ctrl[s.stream_id] = min(
                    final_ctrl[s.stream_id], shares[s.stream_id]
                )

        rates = {
            s.stream_id: min(s.demand_gbps, pipes_min(s), final_ctrl[s.stream_id])
            for s in streams
        }

        # Safety clamp: in the narrow window where the probe under-cut a
        # stream and the final controller pass restored it above a
        # pipe's byte capacity, re-run that pipe's policy on the final
        # rates so conservation holds — via the policy, not proportional
        # scaling, so the DMA minimum guarantee survives the clamp.
        for rid in pipe_ids:
            members = touched[rid]
            through = sum(rates[s.stream_id] for s in members)
            resource = self._resources[rid]
            if through > resource.capacity_gbps:
                offers = [
                    Offer(
                        stream=s,
                        gbps=rates[s.stream_id],
                        pressure_gbps=s.pressure_gbps if resource.is_mesh else 0.0,
                    )
                    for s in members
                ]
                shares = self._policy.allocate(resource, offers)
                for s in members:
                    rates[s.stream_id] = min(
                        rates[s.stream_id], shares[s.stream_id]
                    )

        usage: dict[str, float] = {}
        capacity: dict[str, float] = {}
        for rid, members in touched.items():
            usage[rid] = sum(rates[s.stream_id] for s in members)
            capacity[rid] = self._policy.effective_capacity(
                self._resources[rid],
                [o for o in final_offers[rid] if o.gbps > 0.0],
            )
        return Allocation(
            rates=rates,
            resource_usage=usage,
            effective_capacity=capacity,
            llc_factors=llc_factors,
        )


def solve_tenant_scenario(
    machine: Machine,
    profile: ContentionProfile,
    scenario: TenantScenario,
    *,
    resource_map: ResourceMap | None = None,
    arbiter: Arbiter | None = None,
) -> TenantScenarioResult:
    """Solve a multi-tenant scenario over its scheduling horizon.

    The load envelopes are piecewise constant, so the horizon splits at
    the union of all tenants' phase boundaries into segments with one
    steady-state solve each; the reported per-tenant averages are
    time-weighted over the segments.
    """
    if arbiter is None:
        if resource_map is None:
            resource_map = build_resources(machine, profile)
        arbiter = Arbiter(resource_map, profile)

    cuts = _segment_boundaries(scenario)
    phases: list[PhaseResult] = []
    sums: dict[str, list[float]] = {
        t.name: [0.0, 0.0, 0.0, 0.0] for t in scenario.tenants
    }
    for start, end in zip(cuts, cuts[1:]):
        mid = 0.5 * (start + end)
        levels = {t.name: t.envelope.level_at(mid) for t in scenario.tenants}
        streams = build_tenant_streams(
            machine, profile, scenario, levels=levels
        )
        allocation = arbiter.solve(streams)
        per_tenant = _attribute(scenario, levels, allocation)
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


class NoiseModel:
    """Deterministic keyed multiplicative noise, one generator per key."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    def factor(self, sigma: float, *key: object) -> float:
        """Multiplicative noise factor ``exp(sigma * z)`` for this key.

        ``z`` is a standard normal drawn from a generator seeded by a
        stable hash of ``(seed, *key)``.  ``sigma == 0`` returns exactly
        1.0.
        """
        if sigma < 0.0:
            raise SimulationError(f"sigma must be non-negative, got {sigma}")
        if sigma == 0.0:
            return 1.0
        digest = hashlib.blake2b(
            repr((self._seed, *key)).encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        z = rng.standard_normal()
        # Subtract sigma^2/2 so the factor has unit mean (log-normal).
        return math.exp(sigma * z - 0.5 * sigma * sigma)

    def perturb(self, value: float, sigma: float, *key: object) -> float:
        """Return ``value`` perturbed by this key's noise factor."""
        if value < 0.0:
            raise SimulationError(f"cannot perturb negative measurement {value}")
        return value * self.factor(sigma, *key)
