"""Future-work experiments from the paper's §VI (DESIGN.md abl4).

* **ping-pong**: "communications with bidirectional data movements
  (i.e. ping-pongs instead of only pongs)" — a send and a receive in
  flight simultaneously while cores compute;
* **copy kernel**: "copying an array into another instead of just
  initializing an array with a single value" — twice the memory
  traffic per element, so saturation arrives at half the core count.

Both are steady-state tenant scenarios: ping-pong is a bidirectional
communicating tenant, the copy kernel a full-socket tenant whose
per-core demand comes from the kernel.
"""

import pytest

from repro.kernels import copy_kernel, kernel_scenario, memset_nt
from repro.memsim import Tenant, TenantScenario, solve_tenant_scenario
from repro.topology import get_platform
from repro.units import MiB


def _solve(platform, tenant: Tenant):
    result = solve_tenant_scenario(
        platform.machine, platform.profile, TenantScenario((tenant,))
    )
    return result.tenant(tenant.name)


def run_pingpong(n_threads: int, *, bidirectional: bool = True):
    """Overlap compute with a receive, and a send when ``bidirectional``."""
    platform = get_platform("henri")
    job = _solve(
        platform,
        Tenant(
            "job",
            n_cores=n_threads,
            m_comp=0,
            m_comm=0,
            bidirectional=bidirectional,
        ),
    )
    return job.comm_gbps, job.comm_tx_gbps


def test_future_work_pingpong(benchmark):
    rx_gbps, tx_gbps = benchmark.pedantic(
        run_pingpong, args=(14,), rounds=1, iterations=1
    )
    # Both directions make progress under contention...
    assert rx_gbps > 1.0 and tx_gbps > 1.0
    # ...but the receive direction is slower than a pong-only run at the
    # same core count (two DMA streams share the guaranteed bandwidth).
    rx_only, _ = run_pingpong(14, bidirectional=False)
    assert rx_gbps <= rx_only + 1e-9
    benchmark.extra_info["pingpong_gbps"] = {
        "recv": round(rx_gbps, 2),
        "send": round(tx_gbps, 2),
        "pong_only_recv": round(rx_only, 2),
    }


def run_kernel_comparison(elements_per_thread: int = 4 * MiB):
    """Aggregate bandwidth and makespan of memset vs copy at full socket."""
    platform = get_platform("henri")
    n_threads = platform.cores_per_socket
    out = {}
    for kernel in (memset_nt(), copy_kernel()):
        scenario = kernel_scenario(
            platform,
            kernel,
            n_cores=n_threads,
            m_comp=0,
            m_comm=None,
            core_gflops=0.0,
        )
        bandwidth = _solve(
            platform,
            Tenant(
                kernel.name,
                n_cores=n_threads,
                m_comp=0,
                comp_demand_gbps=scenario.comp_demand_gbps,
                comp_issue_gbps=scenario.comp_issue_gbps,
            ),
        ).comp_gbps
        # Weak scaling: the team moves every thread's elements at the
        # aggregate bandwidth.
        makespan = kernel.duration_seconds(
            n_threads * elements_per_thread, bandwidth
        )
        out[kernel.name] = (bandwidth, makespan)
    return out


def test_future_work_copy_kernel(benchmark):
    results = benchmark.pedantic(run_kernel_comparison, rounds=1, iterations=1)
    memset_bw, memset_t = results["memset_nt"]
    copy_bw, copy_t = results["copy"]
    # Both kernels saturate the same controller: similar aggregate GB/s.
    assert copy_bw == pytest.approx(memset_bw, rel=0.1)
    # But copy moves 2x the bytes per element: ~2x the makespan.
    assert copy_t > 1.7 * memset_t
    benchmark.extra_info["full_socket"] = {
        "memset_gbps": round(memset_bw, 1),
        "copy_gbps": round(copy_bw, 1),
        "copy_slowdown": round(copy_t / memset_t, 2),
    }
