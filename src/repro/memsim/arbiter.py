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

A solve reads each stream's numbers into flat lists once, applies the
LLC factors to those lists, and runs the passes on plain floats, with
streams named by their index.  The LLC factors depend only on the
cached streams' ids, sockets and working sets, so an arbiter keeps the
last ones it worked out: a solve whose cached streams are the same, in
the same order, reuses them (a tenant scenario's segments mostly change
levels, not working sets).  The per-resource diagnostics of an
:class:`Allocation` are worked out when first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import ArbitrationError
from repro.memsim.llc import filter_dram_demand, llc_by_socket
from repro.memsim.paths import ResourceMap
from repro.memsim.policies import Crossing, ResourceRule
from repro.memsim.profile import ContentionProfile
from repro.memsim.stream import Stream, StreamKind

__all__ = ["Allocation", "Arbiter"]

#: A pipe share counts as a genuine cut only this far below the offered
#: load; a share equal to the offer merely echoes an upstream or
#: downstream limit and must not constrain the final rates.
_CUT_EPS = 1e-9


class _OnRead(Mapping[str, float]):
    """A per-resource map computed on first read.

    Pickles, copies and compares as the plain dict it stands for.
    """

    __slots__ = ("_compute", "_values")

    def __init__(self, compute: Callable[[], dict[str, float]]) -> None:
        self._compute = compute
        self._values: dict[str, float] | None = None

    def _dict(self) -> dict[str, float]:
        if self._values is None:
            self._values = self._compute()
        return self._values

    def __getitem__(self, key: str) -> float:
        return self._dict()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self._dict())

    def __eq__(self, other: object) -> bool:
        return self._dict() == other

    def __repr__(self) -> str:
        return repr(self._dict())

    def __reduce__(self) -> tuple[type, tuple[dict[str, float]]]:
        return dict, (self._dict(),)


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


def _gather(values: list, members: list[int]) -> list:
    """``[values[i] for i in members]``; members are ascending."""
    first = members[0]
    if members[-1] - first + 1 == len(members):
        return values[first : first + len(members)]
    return [values[i] for i in members]


def _lower(values: list[float], members: list[int], shares: list[float]) -> None:
    """``values[i] = min(values[i], share)`` for each member's share."""
    first = members[0]
    if members[-1] - first + 1 == len(members):
        end = first + len(members)
        values[first:end] = map(min, values[first:end], shares)
    else:
        for i, share in zip(members, shares):
            values[i] = min(values[i], share)


def _require_non_negative(
    offers: list[float], members: list[int], ids: list[str]
) -> None:
    if min(offers) < 0.0:
        i = next(i for i, offer in zip(members, offers) if offer < 0.0)
        raise ArbitrationError(f"offer for {ids[i]!r} must be non-negative")


class _Path:
    """What the arbiter needs to know of one validated stream path."""

    __slots__ = ("position", "pipes_before")

    def __init__(
        self, path: tuple[str, ...], rules: Mapping[str, ResourceRule]
    ) -> None:
        #: Each resource's position on the path.
        self.position = {rid: j for j, rid in enumerate(path)}
        pipes = [rid for rid in path if not rules[rid].is_controller]
        #: For each pipe on the path, the pipes that come before it.
        self.pipes_before = {rid: tuple(pipes[:k]) for k, rid in enumerate(pipes)}


class Arbiter:
    """Solves steady-state bandwidth sharing for one machine."""

    def __init__(
        self,
        resource_map: ResourceMap,
        profile: ContentionProfile,
    ) -> None:
        self._rules = {
            rid: ResourceRule(resource, profile)
            for rid, resource in resource_map.resources.items()
        }
        self._llc = llc_by_socket(resource_map.resources)
        self._paths: dict[tuple[str, ...], _Path] = {}
        #: The working-set key and the LLC factors of the last solve
        #: that had one, as one tuple so that threads read a matching
        #: pair.
        self._last_llc: tuple[tuple, dict[str, float]] = ((), {})

    def _path(self, stream: Stream) -> _Path:
        known = self._paths.get(stream.path)
        if known is None:
            for rid in stream.path:
                if rid not in self._rules:
                    raise ArbitrationError(
                        f"stream {stream.stream_id!r} references unknown "
                        f"resource {rid!r}"
                    )
            known = self._paths[stream.path] = _Path(stream.path, self._rules)
        return known

    def solve(self, streams: Sequence[Stream]) -> Allocation:
        """Compute the steady-state rates of ``streams``."""
        if not streams:
            return Allocation(
                rates={}, resource_usage={}, effective_capacity={}
            )
        ids = [s.stream_id for s in streams]
        if len(set(ids)) != len(ids):
            raise ArbitrationError(f"duplicate stream ids: {ids}")
        # Streams next to each other often share one path (a job's
        # cores): take such a run as one.
        runs: list[tuple[int, int, _Path]] = []
        start, n = 0, len(streams)
        while start < n:
            path = streams[start].path
            end = start + 1
            while end < n and streams[end].path == path:
                end += 1
            runs.append((start, end, self._path(streams[start])))
            start = end

        demand = [s.demand_gbps for s in streams]
        cpu = [s.kind is StreamKind.CPU for s in streams]
        origin = [s.origin_socket for s in streams]
        pressure = [
            s.issue_gbps if s.issue_gbps > 0.0 else s.demand_gbps
            for s in streams
        ]
        floor = [s.min_guarantee_gbps for s in streams]

        # ---- pass 0: LLC capacity filter ------------------------------------
        # Temporal streams compete for their socket's LLC *capacity*;
        # only the non-resident share of their traffic presses the
        # bandwidth resources below, and stores served by the cache
        # never enter the mesh queues either.  Streams without a
        # working set — every pre-existing caller — pass through
        # untouched.  The factors depend only on each cached stream's
        # id, socket and working set, in input order, so a solve whose
        # cached streams match the last ones reuses their factors.
        cached = tuple(
            [
                (s.stream_id, s.origin_socket, s.working_set_bytes)
                for s in streams
                if s.working_set_bytes is not None
            ]
        )
        last_cached, last_factors = self._last_llc
        if cached and cached == last_cached:
            llc_factors = dict(last_factors)
        else:
            llc_factors = filter_dram_demand(self._llc, streams)
            if cached:
                self._last_llc = (cached, dict(llc_factors))
        if llc_factors:
            for i, sid in enumerate(ids):
                factor = llc_factors.get(sid)
                if factor is not None:
                    demand[i] *= factor
                    pressure[i] *= factor
        path_of: list[_Path] = []

        # Each resource's streams, ascending, and the earliest position
        # it takes on any of their paths.
        touched: dict[str, list[int]] = {}
        position: dict[str, int] = {}
        for start, end, path in runs:
            path_of.extend([path] * (end - start))
            for rid, j in path.position.items():
                members = touched.get(rid)
                if members is None:
                    touched[rid] = list(range(start, end))
                    position[rid] = j
                else:
                    members.extend(range(start, end))
                    position[rid] = min(position[rid], j)
        rules = self._rules
        crossings = {
            rid: Crossing(
                _gather(cpu, members),
                _gather(origin, members),
                _gather(pressure, members),
                _gather(floor, members),
            )
            for rid, members in touched.items()
        }
        controller_ids = [rid for rid in touched if rules[rid].is_controller]
        pipe_ids = [rid for rid in touched if not rules[rid].is_controller]

        # ---- pass 1: controllers under raw demand pressure -----------------
        ctrl_share = list(demand)
        for rid in controller_ids:
            members = touched[rid]
            shares = rules[rid].allocate(_gather(demand, members), crossings[rid])
            _lower(ctrl_share, members, shares)

        # ---- pass 2: pipes, upstream -> downstream, back-pressured ----------
        # A pipe is solved in order of the earliest position it takes on
        # a path, ties in first-touch order.  The load a stream offers
        # is its demand after back-pressure from its destination
        # controller and cuts by the pipes before this one on its path
        # that are solved already.
        pipe_share: dict[str, dict[int, float]] = {}
        pipe_cut: dict[str, dict[int, float]] = {}
        # Offers used in each resource's *final* allocation pass, kept so
        # the reported effective capacities match what was allocated
        # against (re-deriving them from final rates would shift the
        # local/remote traffic blend and misreport the capacity).
        final_offers: dict[str, list[float]] = {}

        for rid in sorted(pipe_ids, key=position.__getitem__):
            members = touched[rid]
            offers = list(
                map(min, _gather(demand, members), _gather(ctrl_share, members))
            )
            for k, i in enumerate(members):
                before = path_of[i].pipes_before[rid]
                if not before:
                    continue
                for earlier in before:
                    solved = pipe_share.get(earlier)
                    if solved is not None:
                        offers[k] = min(offers[k], solved[i])
            _require_non_negative(offers, members, ids)
            final_offers[rid] = offers
            shares = rules[rid].allocate(offers, crossings[rid])
            pipe_share[rid] = dict(zip(members, shares))
            # Genuine cuts: a share strictly below the offered load.
            cut = {
                i: share
                for i, share, offer in zip(members, shares, offers)
                if share < offer - _CUT_EPS
            }
            if cut:
                pipe_cut[rid] = cut

        # Demand limited by genuine pipe cuts only.
        limited = list(demand)
        for i in sorted({i for cut in pipe_cut.values() for i in cut}):
            for rid in streams[i].path:
                cut = pipe_cut.get(rid)
                if cut is not None and i in cut:
                    limited[i] = min(limited[i], cut[i])

        # ---- pass 3: controllers under pipe-limited pressure ----------------
        final_ctrl = list(demand)
        for rid in controller_ids:
            members = touched[rid]
            offers = _gather(limited, members)
            _require_non_negative(offers, members, ids)
            final_offers[rid] = offers
            _lower(final_ctrl, members, rules[rid].allocate(offers, crossings[rid]))

        rates = list(map(min, demand, limited, final_ctrl))

        # Safety clamp: in the narrow window where the probe under-cut a
        # stream and the final controller pass restored it above a
        # pipe's byte capacity, re-run that pipe's policy on the final
        # rates so conservation holds — via the policy, not proportional
        # scaling, so the DMA minimum guarantee survives the clamp.
        for rid in pipe_ids:
            members = touched[rid]
            rule = rules[rid]
            through = _gather(rates, members)
            if sum(through) > rule.capacity:
                _require_non_negative(through, members, ids)
                _lower(rates, members, rule.allocate(through, crossings[rid]))

        return Allocation(
            rates=dict(zip(ids, rates)),
            resource_usage=_OnRead(functools.partial(_usage, touched, rates)),
            effective_capacity=_OnRead(
                functools.partial(
                    _capacities, rules, touched, crossings, final_offers
                )
            ),
            llc_factors=llc_factors,
        )


def _usage(
    touched: dict[str, list[int]], rates: list[float]
) -> dict[str, float]:
    """Total traffic through each resource."""
    return {
        rid: sum([rates[i] for i in members])
        for rid, members in touched.items()
    }


def _capacities(
    rules: Mapping[str, ResourceRule],
    touched: dict[str, list[int]],
    crossings: Mapping[str, Crossing],
    final_offers: Mapping[str, list[float]],
) -> dict[str, float]:
    """Each resource's effective capacity under its final offers."""
    capacity: dict[str, float] = {}
    for rid in touched:
        offers = final_offers[rid]
        live = [k for k, g in enumerate(offers) if g > 0.0]
        capacity[rid] = rules[rid].effective_capacity(
            [offers[k] for k in live], crossings[rid].only(live)
        )
    return capacity
