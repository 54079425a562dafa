"""Data streams flowing through the memory system.

A :class:`Stream` is one unidirectional flow of bytes with a *demand*
(the rate its source would sustain if nothing limited it) and a *path*
(the ordered resources it crosses).  The paper's §IV-A1 benchmark maps
onto exactly two stream families:

* one **CPU stream** per computing core — non-temporal stores moving
  data from the core to its target NUMA node, bypassing the LLC
  (§II-C);
* one **DMA stream** for the NIC — received message payloads written
  from the NIC, through PCIe (and possibly the inter-socket link), into
  the communication buffer's NUMA node.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["StreamKind", "Stream"]


class StreamKind(enum.Enum):
    """Origin class of a stream; drives arbitration priority."""

    CPU = "cpu"
    DMA = "dma"


@dataclass(frozen=True)
class Stream:
    """One unidirectional data flow through a sequence of resources.

    Parameters
    ----------
    stream_id:
        Unique identifier within a scenario (e.g. ``"job/core3"``,
        ``"job/nic"``).
    kind:
        :class:`StreamKind` — CPU streams get priority at saturated
        resources; DMA streams are protected by the minimum-guarantee
        floor.
    demand_gbps:
        Unconstrained source rate.
    path:
        Resource ids the stream crosses, in flow order.  Must be
        non-empty and duplicate-free.
    target_numa:
        Global index of the NUMA node the data lands on.
    origin_socket:
        Socket the requests originate from (the computing socket for CPU
        streams, the NIC's socket for DMA).  Memory controllers use it
        to distinguish local from cross-socket request mixes.
    min_guarantee_gbps:
        Hardware anti-starvation floor (only meaningful for DMA
        streams); the arbiter never pushes a DMA stream below
        ``min(demand, floor)``.
    issue_gbps:
        Occupancy pressure the stream exerts on its origin socket's
        mesh.  For CPU streams this is the core's *issue* rate — how
        fast it emits stores into the mesh, independent of how fast the
        destination drains them (a core writing to a slow remote node
        still occupies mesh slots at its local issue rate).  Defaults to
        ``demand_gbps`` when 0.
    working_set_bytes:
        Per-stream temporal working set.  ``None`` (the default, and
        the paper's non-temporal setting) bypasses the LLC entirely; a
        positive value makes the stream compete for its origin socket's
        LLC capacity, and only the non-resident share of its traffic
        reaches DRAM (:mod:`repro.memsim.llc`).  CPU streams only.
    """

    stream_id: str
    kind: StreamKind
    demand_gbps: float
    path: tuple[str, ...]
    target_numa: int
    origin_socket: int
    min_guarantee_gbps: float = 0.0
    issue_gbps: float = 0.0
    working_set_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.stream_id:
            raise SimulationError("stream_id must be non-empty")
        # NaN passes every sign check below, and the arbiter would turn
        # it into NaN rates instead of a diagnosis.
        for name in ("demand_gbps", "issue_gbps", "min_guarantee_gbps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SimulationError(
                    f"stream {self.stream_id!r}: {name} must be finite, "
                    f"got {value!r}"
                )
        if self.demand_gbps <= 0.0:
            raise SimulationError(
                f"stream {self.stream_id!r}: demand must be positive, "
                f"got {self.demand_gbps}"
            )
        if not self.path:
            raise SimulationError(f"stream {self.stream_id!r}: empty resource path")
        if len(set(self.path)) != len(self.path):
            raise SimulationError(
                f"stream {self.stream_id!r}: path visits a resource twice: {self.path}"
            )
        if self.min_guarantee_gbps < 0.0:
            raise SimulationError(
                f"stream {self.stream_id!r}: min guarantee must be non-negative"
            )
        if self.issue_gbps < 0.0:
            raise SimulationError(
                f"stream {self.stream_id!r}: issue pressure must be non-negative"
            )
        if self.kind is StreamKind.CPU and self.min_guarantee_gbps > 0.0:
            raise SimulationError(
                f"stream {self.stream_id!r}: only DMA streams carry a minimum "
                "bandwidth guarantee (the paper's anti-starvation floor is a "
                "property of PCIe traffic)"
            )
        if self.working_set_bytes is not None:
            # Written so that NaN fails it too.
            if not 0 < self.working_set_bytes < math.inf:
                raise SimulationError(
                    f"stream {self.stream_id!r}: working set must be positive "
                    f"and finite when given, got {self.working_set_bytes!r}"
                )
            if self.kind is not StreamKind.CPU:
                raise SimulationError(
                    f"stream {self.stream_id!r}: only CPU streams are "
                    "filtered by the LLC (DMA writes bypass it)"
                )

    @property
    def pressure_gbps(self) -> float:
        """Mesh occupancy pressure: ``issue_gbps`` or the demand."""
        return self.issue_gbps if self.issue_gbps > 0.0 else self.demand_gbps

    @property
    def is_dma(self) -> bool:
        return self.kind is StreamKind.DMA

    @property
    def is_cpu(self) -> bool:
        return self.kind is StreamKind.CPU
