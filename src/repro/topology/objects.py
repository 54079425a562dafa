"""Topology object tree.

The object model mirrors what `hwloc` exposes on the paper's testbed
machines (Figure 1 of the paper): two sockets, each with a set of cores
and one or two NUMA nodes (sub-NUMA clustering), an inter-socket link
(UPI on Intel, Infinity Fabric on AMD), and a NIC attached through PCIe
to one of the sockets.

Unlike `hwloc`, each hardware object also carries the *bandwidth
capacities* that the memory-system simulator (:mod:`repro.memsim`)
uses as resource limits.  On real machines these numbers are what the
paper's calibration benchmarks observe; here they define the synthetic
testbed (see the substitution ledger in DESIGN.md §6).

Index conventions (used consistently across the library):

* cores are numbered globally, socket-major: core ``c`` lives on socket
  ``c // cores_per_socket``;
* NUMA nodes are numbered globally, socket-major: node ``m`` lives on
  socket ``m // nodes_per_socket``.  With ``#m`` nodes per socket, a
  node index ``m < #m`` is *local* to socket 0 — exactly the convention
  of equations 6 and 7 in the paper (computing cores are always bound
  to socket 0, as in the paper's benchmarks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import TopologyError

__all__ = [
    "Cache",
    "Core",
    "NumaNode",
    "Socket",
    "Link",
    "Nic",
    "Machine",
]


def _positive_finite(value: float) -> bool:
    """``value > 0`` and finite: ``NaN <= 0`` is false, so a plain sign
    check would wave NaN through."""
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class Cache:
    """A cache level, kept for topology completeness.

    The paper's model deliberately bypasses the last-level cache with
    non-temporal stores (§II-C); the simulator therefore never routes
    modelled streams through caches.  They are still part of the tree so
    that rendering and validation look like a real machine.
    """

    level: int
    size_bytes: int
    shared_by: int  # number of cores sharing this cache

    def __post_init__(self) -> None:
        if self.level < 1:
            raise TopologyError(f"cache level must be >= 1, got {self.level}")
        if self.size_bytes <= 0:
            raise TopologyError("cache size must be positive")
        if self.shared_by < 1:
            raise TopologyError("cache must be shared by at least one core")


@dataclass(frozen=True)
class Core:
    """A physical core (the paper binds threads to physical cores only)."""

    index: int  # global core index
    socket: int  # owning socket index

    def __post_init__(self) -> None:
        if self.index < 0 or self.socket < 0:
            raise TopologyError("core and socket indices must be non-negative")


@dataclass(frozen=True)
class NumaNode:
    """A NUMA node: one memory bank behind one memory controller.

    ``controller_gbps`` is the peak bandwidth of the node's memory
    controller — the capacity of the resource where the paper locates
    most of the contention ("the place where the most contention occurs
    is memory controller", §IV-C2).
    """

    index: int  # global NUMA node index
    socket: int  # owning socket index
    memory_bytes: int
    controller_gbps: float

    def __post_init__(self) -> None:
        if self.index < 0 or self.socket < 0:
            raise TopologyError("NUMA node and socket indices must be non-negative")
        if self.memory_bytes <= 0:
            raise TopologyError("NUMA node memory must be positive")
        if not _positive_finite(self.controller_gbps):
            raise TopologyError(
                "memory controller bandwidth must be positive and finite"
            )


@dataclass(frozen=True)
class Socket:
    """A processor socket with its cores and NUMA nodes."""

    index: int
    name: str
    cores: tuple[Core, ...]
    numa_nodes: tuple[NumaNode, ...]
    caches: tuple[Cache, ...] = ()

    def __post_init__(self) -> None:
        if not self.cores:
            raise TopologyError(f"socket {self.index} has no cores")
        if not self.numa_nodes:
            raise TopologyError(f"socket {self.index} has no NUMA node")
        for core in self.cores:
            if core.socket != self.index:
                raise TopologyError(
                    f"core {core.index} claims socket {core.socket}, "
                    f"but is attached to socket {self.index}"
                )
        for node in self.numa_nodes:
            if node.socket != self.index:
                raise TopologyError(
                    f"NUMA node {node.index} claims socket {node.socket}, "
                    f"but is attached to socket {self.index}"
                )

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def n_numa_nodes(self) -> int:
        return len(self.numa_nodes)


@dataclass(frozen=True)
class Link:
    """An inter-socket link (UPI on Intel, Infinity Fabric on AMD, CCPI on ARM).

    ``gbps`` is the per-direction bandwidth capacity.
    """

    socket_a: int
    socket_b: int
    gbps: float
    name: str = "UPI"

    def __post_init__(self) -> None:
        if self.socket_a == self.socket_b:
            raise TopologyError("a link must connect two distinct sockets")
        if not _positive_finite(self.gbps):
            raise TopologyError("link bandwidth must be positive and finite")

    @property
    def endpoints(self) -> frozenset[int]:
        return frozenset((self.socket_a, self.socket_b))

    def connects(self, socket_x: int, socket_y: int) -> bool:
        return {socket_x, socket_y} == set(self.endpoints)


@dataclass(frozen=True)
class Nic:
    """A network interface, attached through PCIe to one socket.

    ``line_rate_gbps`` is the nominal network bandwidth (what the paper
    calls the network's nominal performance), ``pcie_gbps`` the capacity
    of the PCIe path between the NIC and its socket, and ``numa``
    the NUMA node the NIC is closest to (the node "the NIC is actually
    plugged to" in the paper's diablo discussion).
    """

    name: str
    socket: int
    numa: int
    line_rate_gbps: float
    pcie_gbps: float

    def __post_init__(self) -> None:
        if not (
            _positive_finite(self.line_rate_gbps)
            and _positive_finite(self.pcie_gbps)
        ):
            raise TopologyError("NIC bandwidths must be positive and finite")
        if self.socket < 0 or self.numa < 0:
            raise TopologyError("NIC attachment indices must be non-negative")


@dataclass(frozen=True)
class Machine:
    """A complete machine: the unit the model is instantiated for.

    ``metadata`` carries the Table I descriptive fields (processor
    model, memory size, network technology) so the evaluation layer can
    regenerate the platform table verbatim.
    """

    name: str
    sockets: tuple[Socket, ...]
    links: tuple[Link, ...]
    nic: Nic
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.sockets:
            raise TopologyError("a machine needs at least one socket")
        per_socket_nodes = {s.n_numa_nodes for s in self.sockets}
        if len(per_socket_nodes) != 1:
            raise TopologyError(
                "all sockets must have the same number of NUMA nodes, "
                f"got {sorted(per_socket_nodes)}"
            )
        per_socket_cores = {s.n_cores for s in self.sockets}
        if len(per_socket_cores) != 1:
            raise TopologyError(
                "all sockets must have the same number of cores, "
                f"got {sorted(per_socket_cores)}"
            )
        # NUMA nodes by global index, the first one wins as in a walk.
        # Not a field: equality, repr and serialisation ignore it.
        nodes: dict[int, NumaNode] = {}
        for node in self.iter_numa_nodes():
            nodes.setdefault(node.index, node)
        object.__setattr__(self, "_numa_by_index", nodes)

    # ---- structural queries -------------------------------------------------

    @property
    def n_sockets(self) -> int:
        return len(self.sockets)

    @property
    def cores_per_socket(self) -> int:
        return self.sockets[0].n_cores

    @property
    def nodes_per_socket(self) -> int:
        """The paper's ``#m`` parameter (equations 6 and 7)."""
        return self.sockets[0].n_numa_nodes

    @property
    def n_numa_nodes(self) -> int:
        return self.n_sockets * self.nodes_per_socket

    @property
    def n_cores(self) -> int:
        return self.n_sockets * self.cores_per_socket

    def iter_cores(self) -> Iterator[Core]:
        for socket in self.sockets:
            yield from socket.cores

    def iter_numa_nodes(self) -> Iterator[NumaNode]:
        for socket in self.sockets:
            yield from socket.numa_nodes

    def numa_node(self, index: int) -> NumaNode:
        """Return the NUMA node with global index ``index``."""
        try:
            return self._numa_by_index[index]
        except (KeyError, TypeError):
            raise TopologyError(
                f"machine {self.name!r} has no NUMA node {index} "
                f"(valid: 0..{self.n_numa_nodes - 1})"
            ) from None

    def core(self, index: int) -> Core:
        """Return the core with global index ``index``."""
        for core in self.iter_cores():
            if core.index == index:
                return core
        raise TopologyError(
            f"machine {self.name!r} has no core {index} "
            f"(valid: 0..{self.n_cores - 1})"
        )

    def socket_of_numa(self, numa_index: int) -> int:
        return self.numa_node(numa_index).socket

    def socket_of_core(self, core_index: int) -> int:
        return self.core(core_index).socket

    def link_between(self, socket_x: int, socket_y: int) -> Link:
        """Return the inter-socket link between two sockets."""
        for link in self.links:
            if link.connects(socket_x, socket_y):
                return link
        raise TopologyError(
            f"machine {self.name!r} has no link between sockets "
            f"{socket_x} and {socket_y}"
        )

    def is_local_access(self, core_index: int, numa_index: int) -> bool:
        """True when ``core_index`` accessing ``numa_index`` stays on-socket."""
        return self.socket_of_core(core_index) == self.socket_of_numa(numa_index)

    def local_nodes(self, socket: int = 0) -> tuple[int, ...]:
        """Global indices of the NUMA nodes on ``socket``."""
        return tuple(n.index for n in self.sockets[socket].numa_nodes)

    def remote_nodes(self, socket: int = 0) -> tuple[int, ...]:
        """Global indices of all NUMA nodes *not* on ``socket``."""
        return tuple(
            n.index for n in self.iter_numa_nodes() if n.socket != socket
        )

    def placements(self) -> Sequence[tuple[int, int]]:
        """All ``(m_comp, m_comm)`` placement combinations.

        On a machine with ``k`` NUMA nodes this yields ``k * k`` pairs —
        the full grid of subplots in the paper's figures 3–8.
        """
        nodes = [n.index for n in self.iter_numa_nodes()]
        return [(mc, mm) for mm in nodes for mc in nodes]

    def total_memory_bytes(self) -> int:
        return sum(n.memory_bytes for n in self.iter_numa_nodes())
