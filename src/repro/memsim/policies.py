"""Resource arbitration policies.

This module encodes the paper's §II-A hypotheses about how the memory
system shares a saturated resource:

1. *"Memory buses have a finite bandwidth"* — each resource exposes an
   effective capacity, degraded by inter-stream interference
   (:meth:`ResourceRule.effective_capacity`).
2. *"Memory requests issued by CPU cores may have a different (often
   higher) priority than requests coming from PCIe devices"* — once a
   controller saturates, CPU streams are served first
   (:attr:`ContentionProfile.cpu_priority`).
3. *"a minimal memory bandwidth will always be available for
   communications, to prevent starvations"* — DMA streams carry a
   guaranteed floor the arbiter never cuts into.
4. *"the performance of computations decreases uniformly between
   computing cores"* — the CPU share is split by an egalitarian
   water-fill.

On top of the paper's hypotheses, the simulated hardware throttles the
NIC *smoothly* as utilisation rises (``sag_onset``/``sag_span``) instead
of at a sharp threshold, and bends the saturation knee
(``saturation_sharpness``).  Real machines do this too — it is exactly
why the paper's piecewise-linear model "reflects the correct impact on
communications too late" on henri (§IV-B a).

The rules run on plain floats: a resource's offers arrive as a list in
stream order, next to a :class:`Crossing` that says which of those
streams are CPU streams, where they come from, how hard they press a
mesh and what floor they are owed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.memsim.profile import ContentionProfile
from repro.memsim.resource import Resource

__all__ = ["Crossing", "ResourceRule", "waterfill", "smooth_min"]

#: Numerical slack used throughout the solver (GB/s).
_EPS = 1e-9

#: Ceiling on the fraction of a saturated resource's bandwidth that DMA
#: traffic may hold while CPU streams are waiting.  CPU requests have
#: priority (§II-A): however fast the NIC, the cores always win some
#: controller slots — without this, a NIC faster than a remote
#: controller would starve the computation outright, which real
#: hardware never does.
_DMA_MAX_FRACTION = 0.92


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
    # share keeps its demand, the rest split what remains.  Equal offers
    # take their shares in argsort's order, and those shares differ in
    # the last bit, so the sort kind is part of the results.
    order = np.argsort(np.asarray(offers, dtype=float))
    unsatisfied = n
    for idx in order:
        fair = remaining / unsatisfied
        take = min(offers[idx], fair)
        shares[idx] = take
        remaining -= take
        unsatisfied -= 1
    return shares


class Crossing:
    """The streams crossing one resource in one solve, in stream order.

    ``cpu[k]`` is whether stream ``k`` is a CPU stream (it is a DMA
    stream otherwise), ``origin[k]`` the socket its requests come from,
    ``pressure[k]`` its mesh occupancy pressure and ``floor[k]`` its
    minimum guarantee.
    """

    __slots__ = ("cpu", "origin", "pressure", "floor")

    def __init__(
        self,
        cpu: Sequence[bool],
        origin: Sequence[int],
        pressure: Sequence[float],
        floor: Sequence[float],
    ) -> None:
        self.cpu = cpu
        self.origin = origin
        self.pressure = pressure
        self.floor = floor

    def only(self, keep: Sequence[int]) -> Crossing:
        """The streams at positions ``keep``."""
        return Crossing(
            [self.cpu[k] for k in keep],
            [self.origin[k] for k in keep],
            [self.pressure[k] for k in keep],
            [self.floor[k] for k in keep],
        )


class ResourceRule:
    """How one resource shares its bandwidth under one profile.

    Built once per arbiter; every method takes the offers (GB/s) of the
    streams crossing the resource, in stream order, and the matching
    :class:`Crossing`.
    """

    __slots__ = (
        "capacity",
        "is_controller",
        "is_mesh",
        "_resource",
        "_blends",
        "_socket",
        "_cpu_priority",
        "_sharpness",
        "_bonus",
        "_mixed_slope",
        "_core_slope",
        "_sag_onset",
        "_sag_span",
    )

    def __init__(self, resource: Resource, profile: ContentionProfile) -> None:
        self._resource = resource
        self.capacity = resource.capacity_gbps
        self.is_controller = resource.is_controller
        self.is_mesh = resource.is_mesh
        self._blends = (
            resource.remote_capacity_gbps is not None
            and resource.socket is not None
        )
        self._socket = resource.socket
        self._cpu_priority = profile.cpu_priority
        self._sharpness = profile.saturation_sharpness
        self._bonus = profile.dma_concurrency_bonus
        self._mixed_slope = profile.interference_mixed_gbps
        self._core_slope = profile.interference_core_gbps
        self._sag_onset = profile.sag_onset
        self._sag_span = profile.sag_span

    # ---- capacity ---------------------------------------------------------

    def effective_capacity(
        self, offers: Sequence[float], crossing: Crossing
    ) -> float:
        """Capacity of the resource under the offered traffic mix.

        Links, PCIe and NIC ports are plain pipes.  Memory controllers
        apply, in order: the local/remote capacity blend, the DMA
        concurrency bonus, and the interference slopes that the paper's
        ``δl``/``δr`` parameters capture.
        """
        total = sum(offers)
        if total <= _EPS:
            return self.capacity

        if self._blends:
            socket = self._socket
            remote = sum(
                [g for g, o in zip(offers, crossing.origin) if o != socket]
            )
            base = self._resource.base_capacity(remote / total)
        else:
            base = self.capacity

        if not self.is_controller:
            return base

        cpu = crossing.cpu
        if all(cpu):
            cpu_offers, dma_total = offers, 0
        else:
            cpu_offers = [g for g, c in zip(offers, cpu) if c]
            if not cpu_offers:
                return base  # pure DMA traffic: no inter-core interference
            dma_total = sum([g for g, c in zip(offers, cpu) if not c])
        n_cpu = len(cpu_offers)

        per_core = sum(cpu_offers) / n_cpu
        if dma_total > _EPS:
            boosted = base * (1.0 + self._bonus)
            # Knee where CPU + DMA demand together fill the controller.
            par_knee = max(0.0, boosted - dma_total) / per_core
            # Knee where CPU demand alone would fill it.
            seq_knee = base / per_core
            mixed_units = min(
                max(n_cpu - par_knee, 0.0), max(0.0, seq_knee - par_knee)
            )
            core_units = max(0.0, n_cpu - seq_knee)
            capacity = (
                boosted
                - self._mixed_slope * mixed_units
                - self._core_slope * core_units
            )
        else:
            seq_knee = base / per_core
            capacity = base - self._core_slope * max(0.0, n_cpu - seq_knee)
        # Interference can never destroy more than most of the capacity.
        return max(capacity, 0.2 * base)

    # ---- allocation --------------------------------------------------------

    def allocate(self, offers: Sequence[float], crossing: Crossing) -> list[float]:
        """Split the resource's effective capacity among ``offers``.

        Returns one share per offer, each ``<=`` its offer, summing to
        at most the effective capacity.  Offers of at most 1e-9 GB/s
        get nothing.
        """
        if offers and min(offers) > _EPS:
            return self._allocate_live(offers, crossing)
        live = [k for k, g in enumerate(offers) if g > _EPS]
        shares = [0.0] * len(offers)
        if live:
            live_shares = self._allocate_live(
                [offers[k] for k in live], crossing.only(live)
            )
            for k, share in zip(live, live_shares):
                shares[k] = share
        return shares

    def _allocate_live(
        self, offers: Sequence[float], crossing: Crossing
    ) -> list[float]:
        if self.is_mesh:
            return self._allocate_mesh(offers, crossing)

        capacity = self.effective_capacity(offers, crossing)
        total = sum(offers)
        width = capacity / self._sharpness if self.is_controller else 0.0
        usable = smooth_min(total, capacity, width)

        if usable >= total - _EPS:
            return list(offers)

        cpu = crossing.cpu
        if all(cpu) or not self._cpu_priority:
            # Either no DMA traffic, or the (ablation) no-priority mode:
            # proportional sharing of the usable bandwidth.
            scale = usable / total
            return [g * scale for g in offers]

        # Controllers, links and PCIe fully protect the (already
        # mesh-throttled) DMA traffic: the NIC pays its contention tax
        # once, at the socket mesh, where core issue pressure competes
        # with inbound PCIe writes.  Double-taxing it here would make
        # the communication curve depend on which controller the
        # computation hammers — contradicting the placement behaviour
        # the paper observes (communication impact is socket-wide, not
        # per-controller).
        cpu_offers = [g for g, c in zip(offers, cpu) if c]
        dma_offer = sum([g for g, c in zip(offers, cpu) if not c])
        dma_protected = min(dma_offer, usable)
        if cpu_offers:
            # CPU priority: waiting cores always claim a share of the
            # slots, capping how much a (possibly very fast) NIC holds.
            dma_protected = min(dma_protected, _DMA_MAX_FRACTION * usable)

        cpu_budget = max(0.0, usable - dma_protected)
        cpu_shares = waterfill(cpu_offers, cpu_budget)
        leftover = usable - sum(cpu_shares)
        dma_total_share = min(dma_offer, max(leftover, 0.0))
        return self._merge(offers, cpu, cpu_shares, dma_total_share, dma_offer)

    def _allocate_mesh(
        self, offers: Sequence[float], crossing: Crossing
    ) -> list[float]:
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
        capacity = self.capacity
        cpu = crossing.cpu
        if all(cpu) or not self._cpu_priority:
            # No NIC traffic (or the ablation no-priority mode): the mesh
            # is a plain pipe for real bytes.
            total = sum(offers)
            if total <= capacity + _EPS:
                return list(offers)
            scale = capacity / total
            return [g * scale for g in offers]

        dma_offer = sum([g for g, c in zip(offers, cpu) if not c])
        pressure = sum(crossing.pressure)
        rho = pressure / capacity if capacity > _EPS else float("inf")
        dma_floor = sum(
            [
                min(g, floor)
                for g, c, floor in zip(offers, cpu, crossing.floor)
                if not c
            ]
        )
        dma_share = min(
            self._sagged_dma_share(dma_offer, dma_floor, rho), dma_offer
        )

        cpu_budget = max(0.0, capacity - dma_share)
        cpu_shares = waterfill([g for g, c in zip(offers, cpu) if c], cpu_budget)
        return self._merge(offers, cpu, cpu_shares, dma_share, dma_offer)

    @staticmethod
    def _merge(
        offers: Sequence[float],
        cpu: Sequence[bool],
        cpu_shares: Sequence[float],
        dma_share: float,
        dma_offer: float,
    ) -> list[float]:
        """CPU shares in order; the DMA share split by offer."""
        cpu_iter = iter(cpu_shares)
        return [
            next(cpu_iter) if c else dma_share * g / dma_offer
            for g, c in zip(offers, cpu)
        ]

    def _sagged_dma_share(
        self, dma_offer: float, dma_floor: float, rho: float
    ) -> float:
        """DMA bandwidth protected by the hardware at utilisation ``rho``.

        Descends smoothly (smoothstep) from the full offer at
        ``sag_onset`` to the guaranteed floor at ``sag_onset +
        sag_span`` — the gradual communication throttling observed on
        real machines.
        """
        onset = self._sag_onset
        if rho <= onset:
            return dma_offer
        t = min(max((rho - onset) / self._sag_span, 0.0), 1.0)
        step = t * t * (3.0 - 2.0 * t)
        return dma_offer - (dma_offer - min(dma_floor, dma_offer)) * step
