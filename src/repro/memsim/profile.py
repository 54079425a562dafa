"""Per-platform hardware contention behaviour.

A :class:`ContentionProfile` collects the knobs that differentiate the
testbed platforms of the paper's Table I.  On real hardware these
behaviours are undocumented ("behaviours of processors and memory
controllers regarding contention are not publicly documented by
processor manufacturers", §II); the paper infers them from benchmarks.
Our simulator makes them explicit so that the analytical model can be
validated against a ground truth that actually implements them.

The knobs map one-to-one onto the paper's hypotheses:

======================  =====================================================
knob                     paper hypothesis (§II-A / §IV-C)
======================  =====================================================
``cpu_priority``         "Memory requests issued by CPU cores may have a
                          different (often higher) priority than requests
                          coming from PCIe devices"
``nic_min_fraction``     "a minimal memory bandwidth will always be
                          available for communications, to prevent
                          starvations"
``sag_onset`` /           communications start to be throttled *before* the
``sag_span``              bus is fully saturated (observed on henri's
                          local/local placement — the model's known flaw)
``interference_*``        "the contention between the computing cores can
                          already create contention penalizing computation
                          performances too" — the δl/δr slopes
``nic_locality_gbps``     network performance "very sensible to the locality
                          of exchanged data" (diablo, pyxis)
``comm_noise_sigma``      "unstable input data" / unstable network
                          performance (pyxis)
======================  =====================================================
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.errors import SimulationError

__all__ = ["ContentionProfile"]


@dataclass(frozen=True)
class ContentionProfile:
    """Hardware behaviour knobs of one platform.

    Bandwidths are in GB/s.  ``core_stream_local_gbps`` and
    ``core_stream_remote_gbps`` are the per-core non-temporal-store
    stream rates for local and remote NUMA targets — what the paper's
    ``B_comp_seq`` parameter measures for each model instantiation.
    """

    # ---- per-core stream demand --------------------------------------------
    core_stream_local_gbps: float
    core_stream_remote_gbps: float

    # ---- arbitration policy ------------------------------------------------
    #: CPU requests beat PCIe requests once a resource saturates.
    cpu_priority: bool = True
    #: Fraction of the NIC's nominal bandwidth that is always guaranteed
    #: (the hardware's anti-starvation floor; the model's α emerges from it).
    nic_min_fraction: float = 0.35
    #: Utilisation ratio (total offered demand / effective capacity) at
    #: which the NIC starts being throttled.  Below 1.0 means the NIC
    #: sags *before* full saturation, as observed on henri.
    sag_onset: float = 0.92
    #: Width of the utilisation band over which the NIC share descends
    #: from nominal to the guaranteed floor.
    sag_span: float = 0.55

    # ---- inter-stream interference -----------------------------------------
    #: Capacity (GB/s) lost per core stream beyond the pure-compute
    #: saturation point — the hardware origin of the model's δr.
    interference_core_gbps: float = 0.45
    #: Extra capacity (GB/s) lost per core stream while the NIC is being
    #: squeezed (mixed CPU/DMA traffic degrades controller efficiency
    #: more) — the hardware origin of the model's δl.
    interference_mixed_gbps: float = 0.9
    #: Multiplicative capacity bonus when a DMA stream is active (DMA
    #: bursts are long and sequential, slightly raising achievable
    #: controller throughput alongside scattered core traffic).
    dma_concurrency_bonus: float = 0.03
    #: Sharpness of the saturation knee.  A saturating controller's
    #: usable bandwidth is a quadratic smooth minimum of its offered
    #: load and its capacity, of half-width ``capacity /
    #: saturation_sharpness`` (:func:`~repro.memsim.policies.smooth_min`).
    #: Large values give the crisp piecewise knee the model assumes;
    #: small values (pyxis) bend the computation-alone curve well before
    #: the threshold, which the model "does not catch" (§IV-B e).
    saturation_sharpness: float = 24.0

    # ---- socket mesh / uncore ------------------------------------------------
    #: Capacity of each socket's mesh/uncore (GB/s) — the fabric that
    #: both core store traffic and inbound PCIe (NIC) traffic cross on
    #: their way to memory controllers or the inter-socket link.  Core
    #: *issue* pressure on the mesh depends on how fast cores emit
    #: stores, not on how fast the destination drains them, which is why
    #: communications sag even when computation data lives on a
    #: different NUMA node (the behaviour equation 6 leans on).
    #: ``None`` derives ``MESH_HEADROOM`` (1.08) × the controller
    #: bandwidth of the socket's first NUMA node, plus the NIC line rate
    #: (:func:`~repro.memsim.paths.build_resources`).
    mesh_gbps: float | None = None

    # ---- NUMA remote-access behaviour --------------------------------------
    #: Fraction of a memory controller's capacity achievable when all
    #: requests arrive from the other socket (latency-limited
    #: concurrency over UPI/IF).
    remote_capacity_fraction: float = 0.45

    # ---- NIC locality quirks ------------------------------------------------
    #: Optional override of the NIC's achievable nominal bandwidth per
    #: destination NUMA node, e.g. diablo's 12.1 GB/s (node 0) versus
    #: 22.4 GB/s (node 1, where the NIC is plugged).  Nodes not listed
    #: use the NIC line rate.
    nic_locality_gbps: Mapping[int, float] = field(default_factory=dict)
    #: Fractional NIC bandwidth loss when computations run against a
    #: *different* NUMA node than the communication data (SoC mesh
    #: interference that plain data locality cannot explain — pyxis,
    #: §IV-B e).  The paper's model has no term for this, which is what
    #: produces its double-digit communication error on pyxis'
    #: non-sample placements.
    nic_cross_penalty: float = 0.0

    # ---- measurement noise ---------------------------------------------------
    #: Relative run-to-run variability of computation measurements.
    comp_noise_sigma: float = 0.004
    #: Relative run-to-run variability of communication measurements.
    comm_noise_sigma: float = 0.008

    def __post_init__(self) -> None:
        # NaN fails no ``<= 0`` test, and an infinite knob is no
        # hardware: every number must be finite before the range checks.
        for knob in fields(self):
            value = getattr(self, knob.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise SimulationError(
                    f"{knob.name} must be a finite number, got {value!r}"
                )
        if self.core_stream_local_gbps <= 0 or self.core_stream_remote_gbps <= 0:
            raise SimulationError("per-core stream bandwidths must be positive")
        if not 0.0 < self.nic_min_fraction <= 1.0:
            raise SimulationError(
                f"nic_min_fraction must be in (0, 1], got {self.nic_min_fraction}"
            )
        if self.sag_onset <= 0.0:
            raise SimulationError("sag_onset must be positive")
        if self.sag_span <= 0.0:
            raise SimulationError("sag_span must be positive")
        if self.interference_core_gbps < 0 or self.interference_mixed_gbps < 0:
            raise SimulationError("interference slopes must be non-negative")
        if not 0.0 < self.remote_capacity_fraction <= 1.0:
            raise SimulationError(
                "remote_capacity_fraction must be in (0, 1], "
                f"got {self.remote_capacity_fraction}"
            )
        if self.comp_noise_sigma < 0 or self.comm_noise_sigma < 0:
            raise SimulationError("noise sigmas must be non-negative")
        if self.saturation_sharpness <= 0:
            raise SimulationError("saturation_sharpness must be positive")
        if self.mesh_gbps is not None and self.mesh_gbps <= 0:
            raise SimulationError("mesh_gbps must be positive when given")
        if not 0.0 <= self.nic_cross_penalty < 1.0:
            raise SimulationError(
                f"nic_cross_penalty must be in [0, 1), got {self.nic_cross_penalty}"
            )
        for node, gbps in self.nic_locality_gbps.items():
            if not math.isfinite(gbps) or gbps <= 0:
                raise SimulationError(
                    f"NIC locality override for node {node} must be positive "
                    f"and finite, got {gbps!r}"
                )

    def core_stream_gbps(self, *, local: bool) -> float:
        """Per-core stream demand for a local or remote NUMA target."""
        return self.core_stream_local_gbps if local else self.core_stream_remote_gbps

    def nic_nominal_gbps(self, numa_index: int, line_rate_gbps: float) -> float:
        """Achievable NIC bandwidth toward ``numa_index``.

        Returns the locality override when one exists, otherwise the NIC
        line rate.  The result is the *hardware ceiling*; actual
        steady-state bandwidth also passes through PCIe and controller
        capacities in the arbiter.
        """
        return float(self.nic_locality_gbps.get(numa_index, line_rate_gbps))

    def with_overrides(self, **changes: object) -> "ContentionProfile":
        """Return a copy with some knobs replaced (ablation helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]
