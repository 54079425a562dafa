"""Golden single-job scenarios: every solved number of ``solve_scenario``,
pinned by digest.

Per platform, one SHA-256 covers the paper's three modes (computations
alone, communications alone, both) at every placement and at 1, half
and all of a socket's cores, plus one kernel with demand and issue
overrides, one capped NIC demand and one bidirectional NIC.  For each
solve it hashes the ``repr`` of the totals, the per-core rates, the
allocation's rates in stream order, its resource usage and effective
capacities, each stream's binding resource and the bottleneck report.
Rates and binding resources are hashed as values only, so the digests
hold whatever the streams are named.  One more digest covers henri's
arithmetic-intensity and message-size sweeps, which solve single jobs
too.  ``repr`` keeps every bit of a float, so a change to any stream,
any solve or the order of any sum moves a digest.  A moved digest is a
changed answer, never a test to re-record.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.message_size import message_size_contention
from repro.kernels.sweep import intensity_sweep
from repro.memsim import (
    Scenario,
    binding_resources,
    bottleneck_report,
    solve_scenario,
)
from repro.topology import get_platform, platform_names
from tests.tie_order import digest_hint

#: ``platform -> sha256`` over its single-job solves.
GOLDEN = {
    "henri": (
        "2aa820c9ee0e91244d83786d6bfaf9a617ce1136fccff048b84a792cdf3e7a54"
    ),
    "henri-subnuma": (
        "40e208c7aba0d8d6d92f249259b73791665706472f00a5bc1dfb5fbeeb8eda72"
    ),
    "dahu": (
        "ad66e07ffca199c9305f52f3d3835690a4acc20d5928e543541adba814499ca5"
    ),
    "diablo": (
        "3c69e28fd40614e7a2258f4af08d6279aa8250c5e03580f6d6a2794d27ad87ea"
    ),
    "pyxis": (
        "b7e0d6dc72862f59fda2edc5ee3a2520bac0cc5beef15e93424a7290715925fa"
    ),
    "occigen": (
        "76bd1b0d519f36d652e5ad3cc80d6ac51a8b0c2b25fb06101e23beb0fa2c5253"
    ),
}

#: sha256 over henri's intensity and message-size sweep points.
GOLDEN_SWEEPS = (
    "bcad5bcffb9330e0bd46f0cb48eb9f6680b65fd01e01e603ea1d6060ba03ccf1"
)


def scenarios(machine) -> list[Scenario]:
    full = machine.cores_per_socket
    far = machine.n_numa_nodes - 1
    out = []
    for m_comp, m_comm in machine.placements():
        for n in (1, full // 2, full):
            out += [
                Scenario(n, m_comp, None),
                Scenario(0, None, m_comm),
                Scenario(n, m_comp, m_comm),
            ]
    return out + [
        Scenario(full, 0, far, comp_demand_gbps=2.5, comp_issue_gbps=4.0),
        Scenario(full, 0, 0, comm_demand_gbps=3.0),
        Scenario(full // 2, far, 0, bidirectional=True),
    ]


def platform_digest(name: str) -> str:
    platform = get_platform(name)
    h = hashlib.sha256()

    def add(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\n")

    for scenario in scenarios(platform.machine):
        result = solve_scenario(platform.machine, platform.profile, scenario)
        add(
            (
                result.comp_total_gbps,
                result.comm_gbps,
                result.comm_tx_gbps,
                result.total_gbps,
            )
        )
        add(result.comp_per_core_gbps)
        allocation = result.allocation
        add(list(allocation.rates.values()))
        add(list(allocation.resource_usage.items()))
        add(list(allocation.effective_capacity.items()))
        add(list(binding_resources(result).values()))
        add(bottleneck_report(result))
    return h.hexdigest()


def sweeps_digest() -> str:
    henri = get_platform("henri")
    full = henri.machine.cores_per_socket
    h = hashlib.sha256()
    for n_cores, m_comm in ((full, 0), (full // 2, 1), (0, 0)):
        for point in intensity_sweep(
            henri,
            intensities=[0.0, 0.25, 1.0, 4.0, 16.0],
            n_cores=n_cores,
            m_comm=m_comm,
        ):
            h.update(repr(point).encode())
        for point in message_size_contention(
            henri,
            sizes=[64, 4096, 65536, 1 << 20, 1 << 24],
            n_cores=n_cores,
            m_comm=m_comm,
        ):
            h.update(repr(point).encode())
    return h.hexdigest()


def test_every_platform_is_pinned():
    assert set(GOLDEN) == set(platform_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_single_job_answers_are_unchanged(name):
    assert platform_digest(name) == GOLDEN[name], digest_hint()


def test_henri_sweeps_are_unchanged():
    assert sweeps_digest() == GOLDEN_SWEEPS, digest_hint()
