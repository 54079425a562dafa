"""Graph view of the machine's memory system (networkx): the tests'
reference for the simulator's stream paths.

The resource paths used by the simulator (`memsim/paths.py`) are
hand-derived from Figure 1's structure.  This module builds the same
machine as an explicit directed graph — agents (cores, the NIC) and
resources as nodes, adjacency as edges — and derives stream paths by
shortest path instead.  ``test_graph.py`` cross-validates the two
derivations: a disagreement means either the figure or the path
builder is wrong.

The graph is also a convenient analysis artefact: degree counts reveal
the shared components (the mesh touches everything on its socket), and
cut edges identify single points of contention.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import TopologyError
from repro.memsim.ids import (
    CTRL_FMT,
    LINK_FMT,
    MESH_FMT,
    NIC_FMT,
    NIC_TX_FMT,
    PCIE_FMT,
    PCIE_TX_FMT,
)
from repro.memsim.stream import StreamKind
from repro.topology.objects import Machine

__all__ = ["memory_system_graph", "graph_stream_path", "shared_resources"]


def memory_system_graph(machine: Machine) -> "nx.DiGraph":
    """The machine's memory system as a directed graph.

    Node kinds (attribute ``kind``): ``core``, ``nic-agent``, and the
    simulator's resource kinds.  Edges follow the write direction: from
    the agent toward memory.
    """
    graph = nx.DiGraph()

    for socket in machine.sockets:
        mesh = MESH_FMT.format(socket=socket.index)
        graph.add_node(mesh, kind="mesh", socket=socket.index)
        for core in socket.cores:
            agent = f"core-agent:{core.index}"
            graph.add_node(agent, kind="core", socket=socket.index)
            graph.add_edge(agent, mesh)
        for node in socket.numa_nodes:
            ctrl = CTRL_FMT.format(numa=node.index)
            graph.add_node(ctrl, kind="controller", socket=socket.index)
            graph.add_edge(mesh, ctrl)

    for link in machine.links:
        for src, dst in (
            (link.socket_a, link.socket_b),
            (link.socket_b, link.socket_a),
        ):
            rid = LINK_FMT.format(src=src, dst=dst)
            graph.add_node(rid, kind="link")
            graph.add_edge(MESH_FMT.format(socket=src), rid)
            graph.add_edge(rid, MESH_FMT.format(socket=dst))

    nic = machine.nic
    agent = "nic-agent"
    graph.add_node(agent, kind="nic-agent", socket=nic.socket)
    for nic_fmt, pcie_fmt in ((NIC_FMT, PCIE_FMT), (NIC_TX_FMT, PCIE_TX_FMT)):
        port = nic_fmt.format(socket=nic.socket)
        pcie = pcie_fmt.format(socket=nic.socket)
        graph.add_node(port, kind="nic-port", socket=nic.socket)
        graph.add_node(pcie, kind="pcie", socket=nic.socket)
        graph.add_edge(agent, port)
        graph.add_edge(port, pcie)
        graph.add_edge(pcie, MESH_FMT.format(socket=nic.socket))

    return graph


def graph_stream_path(
    machine: Machine,
    kind: StreamKind,
    *,
    origin_socket: int,
    target_numa: int,
) -> tuple[str, ...]:
    """Derive a stream's resource path by shortest path over the graph.

    Returns resource ids only (agent nodes stripped), in flow order —
    directly comparable with :func:`repro.memsim.paths.stream_path` for
    the receive direction.
    """
    graph = memory_system_graph(machine)
    if kind is StreamKind.CPU:
        cores = [
            c.index
            for c in machine.iter_cores()
            if c.socket == origin_socket
        ]
        if not cores:
            raise TopologyError(f"socket {origin_socket} has no cores")
        source = f"core-agent:{cores[0]}"
    else:
        if origin_socket != machine.nic.socket:
            raise TopologyError(
                f"the NIC lives on socket {machine.nic.socket}, "
                f"not {origin_socket}"
            )
        source = "nic-agent"
    target = CTRL_FMT.format(numa=target_numa)
    try:
        nodes = nx.shortest_path(graph, source, target)
    except nx.NetworkXNoPath as exc:  # pragma: no cover - connected by build
        raise TopologyError(f"no path from {source} to {target}") from exc
    path = [n for n in nodes if not n.endswith("-agent") and ":" in n]
    # Drop agent nodes (core-agent:<i> carries a colon too).
    path = [n for n in path if not n.startswith("core-agent")]
    # The graph routes via the link through *mesh* hops on both sockets;
    # the simulator charges only the origin-socket mesh (the remote
    # mesh is traversed on its express path, uncontended).  Keep the
    # first mesh, drop later ones, matching the simulator's model.
    seen_mesh = False
    filtered: list[str] = []
    for rid in path:
        if rid.startswith("mesh:"):
            if seen_mesh:
                continue
            seen_mesh = True
        filtered.append(rid)
    return tuple(filtered)


def shared_resources(machine: Machine) -> dict[str, int]:
    """How many distinct agents can reach each resource.

    The resources reachable by *both* the NIC and every core of socket
    0 are exactly where communications and computations can contend —
    the quantitative version of the paper's Figure 1.
    """
    graph = memory_system_graph(machine)
    counts: dict[str, int] = {}
    agents = [n for n, d in graph.nodes(data=True) if d["kind"] in ("core", "nic-agent")]
    for resource, data in graph.nodes(data=True):
        if data["kind"] in ("core", "nic-agent"):
            continue
        counts[resource] = sum(
            1 for agent in agents if nx.has_path(graph, agent, resource)
        )
    return counts
