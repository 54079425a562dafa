"""Golden tenant scenarios: every solved number of the tenant layer, pinned
by digest.

Each platform gets a fixed batch of seeded multi-tenant scenarios, drawn
like the benchmark's ``tenants`` workload: 2-6 tenants, steady, bursty
and day-night envelopes, LLC working sets from a quarter to 16 times a
core's share of the cache, and bidirectional NICs.  One SHA-256 per
platform covers the ``repr`` of every phase's bounds and levels, its
per-tenant bandwidths, its allocation's rates, LLC factors, resource
usage and effective capacities, the time-weighted averages, and the
platform's victim-placement ranking.  ``repr`` keeps every bit of a
float, so a change to any stream, any solve, the order of any sum or
the memo of any step moves a digest.  A moved digest is a changed
answer, never a test to re-record.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.advisor import advise_victim_placement
from repro.memsim import (
    LoadEnvelope,
    Tenant,
    TenantScenario,
    solve_tenant_scenario,
)
from repro.topology import get_platform, platform_names
from tests.tie_order import digest_hint

#: Scenarios drawn per platform.
SCENARIOS = 24

#: ``platform -> sha256`` over its scenarios and its victim ranking.
GOLDEN = {
    "henri": (
        "8752d69c0755fee3ddc41ac42c2b4eac95f04a39c0be2fdb561b854e9cfa5c25"
    ),
    "henri-subnuma": (
        "b547136cc40af41b6bd2541d5f8afde36518f19746923dfa02d8f5e1882cd8c8"
    ),
    "dahu": (
        "7a99a88c65665e863d133cdd6d86b4486cdf4208ca550cfed8d697e535eeb2dc"
    ),
    "diablo": (
        "401a483aca07df3e36faa19f526194648f73a599d94003add440e2b684667c56"
    ),
    "pyxis": (
        "ff750130a7865e834e9dfbccc7bf1ebb76e16af8203d5ca214c9c283091052a0"
    ),
    "occigen": (
        "146312aae7269cfe436603c5e83aaa0a4935f1ecc20b42a86969ce6626a95188"
    ),
}


def envelope(rng: random.Random) -> LoadEnvelope:
    kind = rng.choice(("steady", "bursty", "diurnal"))
    if kind == "steady":
        return LoadEnvelope.steady(rng.uniform(0.25, 1.0))
    if kind == "bursty":
        return LoadEnvelope.bursty(
            period_s=rng.uniform(0.5, 2.0),
            duty=rng.uniform(0.2, 0.8),
            low=rng.choice((0.0, 0.2)),
            cycles=rng.randint(1, 4),
        )
    return LoadEnvelope.diurnal(
        day_s=rng.uniform(4.0, 24.0), samples=rng.randint(4, 12)
    )


def tenant_scenario(rng: random.Random, machine) -> TenantScenario:
    """One seeded scenario of 2-6 tenants that fits ``machine``."""
    llc = max(machine.sockets[0].caches, key=lambda c: c.level)
    share = llc.size_bytes // machine.cores_per_socket
    free = [machine.cores_per_socket] * machine.n_sockets
    tenants = []
    for i in range(rng.randint(2, 6)):
        socket = rng.randrange(machine.n_sockets)
        n_cores = rng.randint(0, free[socket] // 2)
        free[socket] -= n_cores
        communicating = n_cores == 0 or rng.random() < 0.3
        working_set = rng.choice((None, 0.25, 1, 4, 16))
        tenants.append(
            Tenant(
                name=f"t{i}",
                n_cores=n_cores,
                m_comp=rng.randrange(machine.n_numa_nodes) if n_cores else None,
                m_comm=(
                    rng.randrange(machine.n_numa_nodes)
                    if communicating
                    else None
                ),
                socket=socket,
                working_set_bytes=(
                    int(working_set * share)
                    if working_set is not None and n_cores
                    else None
                ),
                bidirectional=communicating and rng.random() < 0.5,
                envelope=envelope(rng),
            )
        )
    return TenantScenario(tuple(tenants))


def platform_digest(name: str) -> str:
    platform = get_platform(name)
    machine, profile = platform.machine, platform.profile
    rng = random.Random(f"golden-tenants-{name}")
    h = hashlib.sha256()

    def add(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\n")

    for _ in range(SCENARIOS):
        result = solve_tenant_scenario(
            machine, profile, tenant_scenario(rng, machine)
        )
        for phase in result.phases:
            add((phase.start_s, phase.end_s, list(phase.levels.items())))
            add(list(phase.per_tenant.items()))
            allocation = phase.allocation
            add(list(allocation.rates.items()))
            add(list(allocation.llc_factors.items()))
            add(list(allocation.resource_usage.items()))
            add(list(allocation.effective_capacity.items()))
        add(list(result.per_tenant.items()))
    for placement in advise_victim_placement(machine, profile):
        add(placement)
    return h.hexdigest()


def test_every_platform_is_pinned():
    assert set(GOLDEN) == set(platform_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tenant_answers_are_unchanged(name):
    assert platform_digest(name) == GOLDEN[name], digest_hint()
