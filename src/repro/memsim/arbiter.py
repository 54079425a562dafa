"""Steady-state bandwidth arbiter.

Given a set of streams and the machine's resources, the arbiter finds
the steady-state rate of every stream: each resource's arbitration
policy is applied to the traffic that actually arrives there, and every
stream runs at the minimum of its per-resource shares (its bottleneck).

Algorithm — a deterministic three-pass cascade that models write-stream
back-pressure without fixed-point iteration:

1. **Controller probe.**  Memory controllers are the terminal resource
   of every path and the place the paper locates the contention.  They
   are solved first with raw demands as offered loads, purely to give
   the pipe pass a back-pressure estimate.
2. **Pipe pass.**  Socket meshes, links, PCIe and NIC ports are solved
   in upstream→downstream path order.  Each stream offers its demand
   limited by the probe's controller share and by earlier pipes: in
   steady state a write stream only pushes through a pipe what its
   destination drains (back-pressure), so a pipe must not see phantom
   byte pressure from traffic the controller already refused.  Without
   this, a shared inter-socket link would appear contended whenever two
   streams target *different* remote NUMA nodes — the exact situation
   the paper shows to be contention-free (henri-subnuma, §IV-C2).
   Mesh *occupancy* pressure, in contrast, is taken from issue rates —
   never back-pressured.
3. **Controller pass (final).**  Controllers are re-solved with offers
   limited by the *genuine* pipe cuts, so their utilisation reflects
   what actually arrives (e.g. the mesh-throttled NIC rate, not the NIC
   line rate).

A stream's rate is the minimum of its demand, its **genuine** pipe cuts
and its final controller share.  A pipe share that merely equals the
(temporarily low) offered load is an echo of someone else's limit, not
a constraint, and must not bind — otherwise a transient probe cut would
persist after the real constraint relaxed.  Genuine cuts are those
strictly below the offered load.  Every pass allocates at most each
resource's effective capacity, so conservation (Σ rates through a
resource ≤ its effective capacity under the final mix) holds by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ArbitrationError
from repro.memsim.llc import filter_dram_demand, llc_by_socket
from repro.memsim.paths import ResourceMap
from repro.memsim.policies import ArbitrationPolicy, Offer
from repro.memsim.profile import ContentionProfile
from repro.memsim.stream import Stream

__all__ = ["Allocation", "Arbiter"]


@dataclass(frozen=True)
class Allocation:
    """Result of one steady-state solve."""

    #: Steady-state rate of each stream (GB/s), keyed by stream id.
    rates: Mapping[str, float]
    #: Total traffic through each resource (GB/s).
    resource_usage: Mapping[str, float]
    #: Effective capacity of each resource under the final traffic mix.
    effective_capacity: Mapping[str, float]
    #: DRAM traffic factor applied by the LLC pre-pass, keyed by stream
    #: id — only streams that declared a working set appear.  The
    #: stream's *processed* rate (cache hits included) is its arbitrated
    #: DRAM rate divided by this factor.
    llc_factors: Mapping[str, float] = field(default_factory=dict)

    def rate(self, stream_id: str) -> float:
        try:
            return self.rates[stream_id]
        except KeyError:
            raise ArbitrationError(
                f"no stream {stream_id!r} in allocation; "
                f"known: {sorted(self.rates)}"
            ) from None

    def total_rate(self) -> float:
        return sum(self.rates.values())


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
