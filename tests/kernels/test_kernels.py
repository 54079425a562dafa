"""Kernels: memory decomposition and roofline demand."""

import pytest

from repro.errors import SimulationError
from repro.kernels import (
    Kernel,
    copy_kernel,
    demand_gbps,
    get_kernel,
    memset_nt,
    triad_kernel,
)


class TestKernelDefinitions:
    def test_memset_is_pure_writes(self):
        k = memset_nt()
        assert k.bytes_read == 0
        assert k.bytes_written == 8
        assert k.write_fraction == 1.0
        assert k.arithmetic_intensity == 0.0
        assert k.non_temporal

    def test_copy_reads_and_writes(self):
        k = copy_kernel()
        assert k.bytes_read == k.bytes_written == 8
        assert k.write_fraction == 0.5

    def test_triad_shape(self):
        k = triad_kernel()
        assert k.bytes_per_element == 24
        assert k.flops == 2
        assert k.arithmetic_intensity == pytest.approx(2 / 24)

    def test_traffic_bytes(self):
        assert memset_nt().traffic_bytes(1000) == 8000
        assert copy_kernel().traffic_bytes(1000) == 16000

    def test_duration(self):
        k = memset_nt()
        # 8 GB at 8 GB/s = 1 s.
        assert k.duration_seconds(10**9, 8.0) == pytest.approx(1.0)

    def test_zero_traffic_kernel_rejected(self):
        with pytest.raises(SimulationError, match="memory"):
            Kernel(name="alu", bytes_read=0, bytes_written=0, flops=8)

    def test_lookup(self):
        assert get_kernel("memset_nt").name == "memset_nt"
        with pytest.raises(SimulationError, match="built-ins"):
            get_kernel("nope")


class TestRooflineDemand:
    def test_memory_bound_gets_full_stream(self):
        assert demand_gbps(memset_nt(), core_stream_gbps=6.8) == 6.8

    def test_zero_flops_ignores_flop_rate(self):
        assert demand_gbps(memset_nt(), core_stream_gbps=6.8, core_gflops=50.0) == 6.8

    def test_compute_bound_kernel_demands_less(self):
        heavy = Kernel(name="heavy", bytes_read=8, bytes_written=8, flops=512)
        # intensity 32 flop/B; 16 GFLOP/s -> 0.5 GB/s demand.
        assert demand_gbps(heavy, core_stream_gbps=6.8, core_gflops=16.0) == pytest.approx(0.5)

    def test_roofline_crossover(self):
        triad = triad_kernel()  # intensity 1/12
        # flop-limited bandwidth = 12 * gflops; crossover at gflops ~ 0.57.
        assert demand_gbps(triad, core_stream_gbps=6.8, core_gflops=10.0) == 6.8
        assert demand_gbps(triad, core_stream_gbps=6.8, core_gflops=0.2) == pytest.approx(2.4)

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            demand_gbps(memset_nt(), core_stream_gbps=0.0)
        with pytest.raises(SimulationError):
            demand_gbps(memset_nt(), core_stream_gbps=5.0, core_gflops=-1.0)
