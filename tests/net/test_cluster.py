"""Two-machine cluster substrate tests."""

import pytest

from repro.errors import CommunicationError, SimulationError
from repro.memsim import Arbiter
from repro.net import FABRICS
from repro.net.cluster import (
    WIRE_ID,
    Cluster,
    build_cluster_resources,
    compute_streams,
    transfer_stream,
)
from repro.units import MB
from tests.memsim.engine import Engine


@pytest.fixture(scope="module")
def cluster(henri):
    from repro.topology import get_platform

    return Cluster(
        node0=get_platform("henri"),
        node1=get_platform("henri"),
        fabric=FABRICS["infiniband-edr"],
    )


@pytest.fixture(scope="module")
def arbiter(cluster):
    return Arbiter(build_cluster_resources(cluster), cluster.node0.profile)


class TestResources:
    def test_both_machines_prefixed(self, cluster):
        rmap = build_cluster_resources(cluster)
        assert "m0:ctrl:0" in rmap and "m1:ctrl:0" in rmap
        assert "m0:mesh:1" in rmap and "m1:nic-tx:0" in rmap
        assert WIRE_ID in rmap

    def test_wire_capacity(self, cluster):
        rmap = build_cluster_resources(cluster)
        assert rmap[WIRE_ID].capacity_gbps == pytest.approx(12.5)


class TestTransferStream:
    def test_path_spans_both_machines(self, cluster):
        stream = transfer_stream(
            cluster, stream_id="msg", src_rank=0, src_node=0, dst_node=0
        )
        assert stream.path[0] == "m0:ctrl:0"  # read from the source buffer
        assert WIRE_ID in stream.path
        assert stream.path[-1] == "m1:ctrl:0"  # write into the dest buffer
        # Transmit side uses the tx port; receive side the rx port.
        assert "m0:nic-tx:0" in stream.path
        assert "m1:nic:0" in stream.path

    def test_reverse_direction(self, cluster):
        stream = transfer_stream(
            cluster, stream_id="msg", src_rank=1, src_node=1, dst_node=0
        )
        assert stream.path[0] == "m1:ctrl:1"
        assert stream.path[-1] == "m0:ctrl:0"

    def test_invalid_rank(self, cluster):
        with pytest.raises(CommunicationError):
            transfer_stream(
                cluster, stream_id="m", src_rank=2, src_node=0, dst_node=0
            )

    def test_ceiling_respects_fabric(self, cluster):
        stream = transfer_stream(
            cluster, stream_id="msg", src_rank=0, src_node=0, dst_node=0
        )
        assert stream.demand_gbps <= cluster.fabric.line_rate_gbps


class TestEndToEnd:
    def test_idle_cluster_runs_at_nominal(self, cluster, arbiter):
        stream = transfer_stream(
            cluster, stream_id="msg", src_rank=0, src_node=0, dst_node=0
        )
        allocation = arbiter.solve([stream])
        assert allocation.rate("msg") == pytest.approx(
            stream.demand_gbps, rel=1e-6
        )

    def test_receiver_contention_throttles(self, cluster, arbiter):
        streams = [
            transfer_stream(
                cluster, stream_id="msg", src_rank=0, src_node=0, dst_node=0
            )
        ]
        streams += compute_streams(cluster, rank=1, n_cores=18, data_node=0)
        allocation = arbiter.solve(streams)
        assert allocation.rate("msg") < 0.6 * streams[0].demand_gbps

    def test_sender_contention_also_throttles(self, cluster, arbiter):
        """The experiment the paper's independence assumption excludes:
        computations on the SENDER squeeze the outgoing message too."""
        streams = [
            transfer_stream(
                cluster, stream_id="msg", src_rank=0, src_node=0, dst_node=0
            )
        ]
        streams += compute_streams(cluster, rank=0, n_cores=18, data_node=0)
        allocation = arbiter.solve(streams)
        assert allocation.rate("msg") < 0.6 * streams[0].demand_gbps

    def test_disjoint_machines_do_not_interact(self, cluster, arbiter):
        """Computation on node 1's socket does not slow computation on
        node 0: the machines only share the wire."""
        solo = arbiter.solve(
            compute_streams(cluster, rank=0, n_cores=12, data_node=0)
        )
        both = arbiter.solve(
            compute_streams(cluster, rank=0, n_cores=12, data_node=0)
            + compute_streams(cluster, rank=1, n_cores=18, data_node=0)
        )
        total_solo = sum(
            v for k, v in solo.rates.items() if k.startswith("m0core")
        )
        total_both = sum(
            v for k, v in both.rates.items() if k.startswith("m0core")
        )
        assert total_both == pytest.approx(total_solo, rel=1e-9)

    def test_engine_transfer(self, cluster):
        engine = Engine(
            cluster.node0.machine,
            cluster.node0.profile,
            resource_map=build_cluster_resources(cluster),
        )
        stream = transfer_stream(
            cluster, stream_id="msg", src_rank=0, src_node=0, dst_node=0
        )
        flow = engine.submit(stream, 64 * MB)
        engine.run()
        assert flow.observed_gbps() == pytest.approx(12.3, rel=0.02)

    def test_compute_streams_validation(self, cluster):
        with pytest.raises(SimulationError):
            compute_streams(cluster, rank=0, n_cores=0, data_node=0)
        with pytest.raises(CommunicationError):
            compute_streams(cluster, rank=3, n_cores=2, data_node=0)
