"""Graph view tests: cross-validation against the simulator's paths."""

import pytest

from repro.errors import TopologyError
from repro.memsim import StreamKind, stream_path
from repro.topology import get_platform, platform_names
from tests.topology.graph import (
    graph_stream_path,
    memory_system_graph,
    shared_resources,
)


class TestGraphStructure:
    def test_henri_node_kinds(self, henri):
        graph = memory_system_graph(henri.machine)
        kinds = {d["kind"] for _, d in graph.nodes(data=True)}
        assert kinds == {
            "core",
            "nic-agent",
            "mesh",
            "controller",
            "link",
            "nic-port",
            "pcie",
        }

    def test_core_count(self, henri):
        graph = memory_system_graph(henri.machine)
        cores = [n for n, d in graph.nodes(data=True) if d["kind"] == "core"]
        assert len(cores) == 36

    def test_every_controller_reachable_from_every_core(self, henri_subnuma):
        import networkx as nx

        graph = memory_system_graph(henri_subnuma.machine)
        for node in range(4):
            assert nx.has_path(graph, "core-agent:0", f"ctrl:{node}")
            assert nx.has_path(graph, "nic-agent", f"ctrl:{node}")


class TestCrossValidation:
    """The hand-built simulator paths equal the graph-derived ones."""

    @pytest.mark.parametrize("name", list(platform_names()))
    def test_cpu_paths_agree(self, name):
        platform = get_platform(name)
        machine = platform.machine
        for target in range(machine.n_numa_nodes):
            hand = stream_path(
                machine, StreamKind.CPU, origin_socket=0, target_numa=target
            )
            derived = graph_stream_path(
                machine, StreamKind.CPU, origin_socket=0, target_numa=target
            )
            assert hand == derived, f"{name}: node {target}"

    @pytest.mark.parametrize("name", list(platform_names()))
    def test_dma_paths_agree(self, name):
        platform = get_platform(name)
        machine = platform.machine
        for target in range(machine.n_numa_nodes):
            hand = stream_path(
                machine,
                StreamKind.DMA,
                origin_socket=machine.nic.socket,
                target_numa=target,
            )
            derived = graph_stream_path(
                machine,
                StreamKind.DMA,
                origin_socket=machine.nic.socket,
                target_numa=target,
            )
            assert hand == derived, f"{name}: node {target}"

    def test_dma_from_wrong_socket(self, henri):
        with pytest.raises(TopologyError, match="NIC"):
            graph_stream_path(
                henri.machine, StreamKind.DMA, origin_socket=1, target_numa=0
            )


class TestSharedResources:
    def test_mesh_is_the_universal_meeting_point(self, henri):
        """Figure 1 quantified: the socket-0 mesh is reachable by every
        agent of the machine (both sockets' cores can cross the link)."""
        counts = shared_resources(henri.machine)
        n_agents = henri.machine.n_cores + 1
        assert counts["mesh:0"] == n_agents
        assert counts["ctrl:0"] == n_agents

    def test_tx_port_only_reached_by_nic(self, henri):
        counts = shared_resources(henri.machine)
        assert counts["nic-tx:0"] == 1
