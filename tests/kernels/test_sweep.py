"""Arithmetic-intensity sweeps and kernel-aware scenarios."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.kernels import intensity_sweep, kernel_scenario, memset_nt
from repro.kernels.memops import Kernel
from repro.memsim import solve_scenario


class TestKernelScenario:
    def test_memset_matches_default_demand(self, henri):
        scenario = kernel_scenario(
            henri, memset_nt(), n_cores=4, m_comp=0, m_comm=0, core_gflops=20.0
        )
        assert scenario.comp_demand_gbps == pytest.approx(6.8)
        assert scenario.comp_issue_gbps == pytest.approx(6.8)

    def test_compute_heavy_kernel_demands_less(self, henri):
        heavy = Kernel(name="h", bytes_read=8, bytes_written=8, flops=800)
        scenario = kernel_scenario(
            henri, heavy, n_cores=4, m_comp=0, m_comm=0, core_gflops=20.0
        )
        # intensity 50 flop/B, 20 GFLOP/s -> 0.4 GB/s per core.
        assert scenario.comp_demand_gbps == pytest.approx(0.4)

    def test_remote_target_uses_remote_stream(self, henri):
        scenario = kernel_scenario(
            henri, memset_nt(), n_cores=4, m_comp=1, m_comm=None, core_gflops=20.0
        )
        assert scenario.comp_demand_gbps == pytest.approx(2.7)
        # Issue pressure still keyed to the local rate.
        assert scenario.comp_issue_gbps == pytest.approx(6.8)

    def test_scenario_overrides_respected_by_solver(self, henri):
        heavy = Kernel(name="h", bytes_read=8, bytes_written=8, flops=1600)
        scenario = kernel_scenario(
            henri, heavy, n_cores=18, m_comp=0, m_comm=0, core_gflops=20.0
        )
        result = solve_scenario(henri.machine, henri.profile, scenario)
        # 18 cores at 0.2 GB/s = 3.6 GB/s: far from saturation, so the
        # NIC keeps its nominal bandwidth.
        assert result.comp_total_gbps == pytest.approx(3.6, rel=1e-6)
        assert result.comm_gbps == pytest.approx(12.3, rel=1e-6)


class TestIntensitySweep:
    def test_contention_shrinks_with_intensity(self, henri):
        points = intensity_sweep(
            henri,
            intensities=[0.0, 0.5, 2.0, 8.0, 32.0],
            n_cores=henri.cores_per_socket,
            core_gflops=20.0,
        )
        retained = [p.comm_retained for p in points]
        # Memory-bound end: communications heavily throttled.
        assert retained[0] < 0.6
        # Compute-bound end: communications at (nearly) full speed.
        assert retained[-1] > 0.95
        # Monotone easing in between.
        assert retained == sorted(retained)

    def test_per_core_demand_declines(self, henri):
        points = intensity_sweep(
            henri,
            intensities=[0.0, 4.0, 64.0],
            n_cores=4,
            core_gflops=10.0,
        )
        demands = [p.per_core_demand_gbps for p in points]
        assert demands[0] > demands[-1]

    def test_comp_retained_improves(self, henri):
        points = intensity_sweep(
            henri,
            intensities=[0.0, 32.0],
            n_cores=henri.cores_per_socket,
            core_gflops=20.0,
        )
        assert points[-1].comp_retained >= points[0].comp_retained - 1e-9

    def test_validation(self, henri):
        with pytest.raises(SimulationError):
            intensity_sweep(henri, intensities=[], n_cores=4)
        with pytest.raises(SimulationError):
            intensity_sweep(henri, intensities=[-1.0], n_cores=4)
        with pytest.raises(SimulationError):
            intensity_sweep(henri, intensities=[1.0], n_cores=4, core_gflops=0.0)


class TestBidirectionalScenario:
    """§VI future work: ping-pongs instead of only pongs."""

    def test_both_directions_flow(self, henri):
        from repro.memsim import Scenario

        result = solve_scenario(
            henri.machine,
            henri.profile,
            Scenario(0, None, 0, bidirectional=True),
        )
        rx = result.allocation.rate("job/nic")
        tx = result.allocation.rate("job/nic-tx")
        # Full-duplex ports: without computation both run at nominal
        # until the shared memory path caps them.
        assert rx > 0.7 * 12.3 and tx > 0.7 * 12.3

    def test_bidirectional_contends_more(self, henri):
        from repro.memsim import Scenario

        n = henri.cores_per_socket
        pong = solve_scenario(
            henri.machine, henri.profile, Scenario(n, 0, 0)
        )
        pingpong = solve_scenario(
            henri.machine, henri.profile, Scenario(n, 0, 0, bidirectional=True)
        )
        # The receive direction gets less than in the pong-only run.
        assert pingpong.allocation.rate("job/nic") <= pong.comm_gbps + 1e-9
        # Aggregate network traffic is higher though.
        total_net = pingpong.allocation.rate(
            "job/nic"
        ) + pingpong.allocation.rate("job/nic-tx")
        assert total_net > pong.comm_gbps
