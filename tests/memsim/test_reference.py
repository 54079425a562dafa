"""The arbiter and the tenant solver give exactly the reference's numbers.

``tests/memsim/reference.py`` keeps the arbiter as it was when every
pass built an :class:`~tests.memsim.reference.Offer` per stream and the
LLC pre-pass built a replacement stream per cached stream, and the
tenant solver as it was when it solved every load segment.  Here both
solve the same inputs, and every rate, resource usage, effective
capacity and LLC factor must be equal, with no tolerance: measurement
artifacts, Table II and the golden store depend on those bytes.  Three
families of stream sets:

* the benchmark's scenarios on random machines and profiles;
* seeded multi-tenant sets on the six platforms: tied offers, binding
  budgets, LLC working sets, bidirectional NICs and idle tenants, plus
  one fixed set whose shares hang on the water-fill's tie order;
* two-machine clusters, whose paths cross two controllers and many
  pipes.

Whole tenant scenarios, whose load levels repeat across segments, are
compared phase by phase and in their time-weighted averages.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArbitrationError
from repro.memsim import (
    Arbiter,
    LoadEnvelope,
    Scenario,
    Tenant,
    TenantBandwidth,
    TenantScenario,
    build_resources,
    build_tenant_streams,
    solve_tenant_scenario,
)
from repro.memsim.scenario import build_streams
from repro.net import FABRICS
from repro.net.cluster import (
    Cluster,
    build_cluster_resources,
    compute_streams,
    transfer_stream,
)
from repro.topology import get_platform, platform_names
from tests.memsim import reference
from tests.memsim.test_properties import machine_and_profile

PLATFORMS = tuple(get_platform(name) for name in platform_names())
FIELDS = ("rates", "resource_usage", "effective_capacity", "llc_factors")


def assert_same_solve(resource_map, profile, streams):
    """Both arbiters solve ``streams`` to the same bits, or both refuse."""
    try:
        expected = reference.Arbiter(resource_map, profile).solve(streams)
    except ArbitrationError as exc:
        with pytest.raises(ArbitrationError) as raised:
            Arbiter(resource_map, profile).solve(streams)
        assert str(raised.value) == str(exc)
        return
    got = Arbiter(resource_map, profile).solve(streams)
    for name in FIELDS:
        # Same keys in the same order, and == on every float.
        assert list(getattr(got, name).items()) == list(
            getattr(expected, name).items()
        ), name
    assert got == expected
    assert pickle.loads(pickle.dumps(got)) == expected


@settings(max_examples=120, deadline=None)
@given(
    params=machine_and_profile(),
    mode=st.sampled_from(("parallel", "comp", "comm")),
    bidirectional=st.booleans(),
    comp_demand=st.none() | st.floats(0.1, 10.0),
    comm_demand=st.none() | st.floats(0.5, 30.0),
)
def test_scenarios_on_random_machines(
    params, mode, bidirectional, comp_demand, comm_demand
):
    machine, profile, n, m_comp, m_comm = params
    scenario = Scenario(
        n_cores=0 if mode == "comm" else n,
        m_comp=None if mode == "comm" else m_comp,
        m_comm=None if mode == "comp" else m_comm,
        comp_demand_gbps=comp_demand,
        comm_demand_gbps=comm_demand,
        bidirectional=bidirectional and mode != "comp",
    )
    assert_same_solve(
        build_resources(machine, profile),
        profile,
        build_streams(machine, profile, scenario),
    )


@st.composite
def tenant_stream_sets(draw):
    """A seeded multi-tenant stream set on one of the six platforms."""
    platform = draw(st.sampled_from(PLATFORMS))
    machine, profile = platform.machine, platform.profile
    if draw(st.booleans()):
        profile = profile.with_overrides(
            cpu_priority=draw(st.booleans()),
            saturation_sharpness=draw(st.floats(2.0, 60.0)),
        )
    llc = max(machine.sockets[0].caches, key=lambda c: c.level)
    share = llc.size_bytes // machine.cores_per_socket
    # One demand override shared by several tenants ties their offers.
    shared_demand = draw(st.sampled_from((1.0, 2.5, 4.0)))
    free = [machine.cores_per_socket] * machine.n_sockets
    nodes = st.integers(0, machine.n_numa_nodes - 1)
    tenants, levels = [], {}
    for i in range(draw(st.integers(1, 6))):
        socket = draw(st.integers(0, machine.n_sockets - 1))
        n_cores = draw(st.integers(0, free[socket]))
        free[socket] -= n_cores
        communicating = n_cores == 0 or draw(st.booleans())
        working_set = draw(st.sampled_from((None, 0.25, 1, 4, 16)))
        tenants.append(
            Tenant(
                name=f"t{i}",
                n_cores=n_cores,
                m_comp=draw(nodes) if n_cores else None,
                m_comm=draw(nodes) if communicating else None,
                socket=socket,
                comp_demand_gbps=shared_demand if draw(st.booleans()) else None,
                working_set_bytes=(
                    int(working_set * share)
                    if working_set is not None and n_cores
                    else None
                ),
                bidirectional=communicating and draw(st.booleans()),
            )
        )
        # Level 0 leaves the tenant idle: it contributes no streams.
        levels[f"t{i}"] = draw(st.sampled_from((0.0, 0.3, 1.0)))
    streams = build_tenant_streams(
        machine, profile, TenantScenario(tuple(tenants)), levels=levels
    )
    return build_resources(machine, profile), profile, streams


@settings(max_examples=150, deadline=None)
@given(case=tenant_stream_sets())
def test_tenant_stream_sets(case):
    assert_same_solve(*case)


@pytest.mark.parametrize("name", ["henri", "pyxis"])
def test_tied_offers_keep_the_water_fill_order(name):
    """Two groups of tied offers, the larger first, under a binding
    budget: which stream takes which share is argsort's tie order."""
    platform = get_platform(name)
    machine, profile = platform.machine, platform.profile
    half = machine.cores_per_socket // 2
    scenario = TenantScenario(
        (
            Tenant("fast", n_cores=machine.cores_per_socket - half, m_comp=0),
            Tenant("slow", n_cores=half, m_comp=0, comp_demand_gbps=2.5),
            Tenant("net", m_comm=0),
        )
    )
    streams = build_tenant_streams(machine, profile, scenario)
    assert_same_solve(build_resources(machine, profile), profile, streams)


def envelopes():
    """Load envelopes whose levels come back: square waves of 2-4
    cycles, day-night cycles, steady and idle loads."""
    bursty = st.builds(
        LoadEnvelope.bursty,
        period_s=st.sampled_from((0.5, 1.0, 2.0)),
        duty=st.sampled_from((0.25, 0.5, 0.75)),
        low=st.sampled_from((0.0, 0.2)),
        cycles=st.integers(2, 4),
    )
    diurnal = st.builds(
        LoadEnvelope.diurnal,
        day_s=st.sampled_from((4.0, 8.0)),
        samples=st.integers(4, 12),
    )
    steady = st.builds(LoadEnvelope.steady, st.sampled_from((0.0, 0.3, 1.0)))
    return bursty | diurnal | steady


@st.composite
def tenant_scenarios(draw):
    """A seeded multi-tenant scenario on one of the six platforms."""
    platform = draw(st.sampled_from(PLATFORMS))
    machine, profile = platform.machine, platform.profile
    if draw(st.booleans()):
        profile = profile.with_overrides(
            cpu_priority=draw(st.booleans()),
            saturation_sharpness=draw(st.floats(2.0, 60.0)),
        )
    llc = max(machine.sockets[0].caches, key=lambda c: c.level)
    share = llc.size_bytes // machine.cores_per_socket
    free = [machine.cores_per_socket] * machine.n_sockets
    nodes = st.integers(0, machine.n_numa_nodes - 1)
    tenants = []
    for i in range(draw(st.integers(1, 5))):
        socket = draw(st.integers(0, machine.n_sockets - 1))
        n_cores = draw(st.integers(0, free[socket]))
        free[socket] -= n_cores
        communicating = n_cores == 0 or draw(st.booleans())
        working_set = draw(st.sampled_from((None, 0.25, 1, 4, 16)))
        tenants.append(
            Tenant(
                name=f"t{i}",
                n_cores=n_cores,
                m_comp=draw(nodes) if n_cores else None,
                m_comm=draw(nodes) if communicating else None,
                socket=socket,
                working_set_bytes=(
                    int(working_set * share)
                    if working_set is not None and n_cores
                    else None
                ),
                bidirectional=communicating and draw(st.booleans()),
                envelope=draw(envelopes()),
            )
        )
    return machine, profile, TenantScenario(tuple(tenants))


def items(mapping):
    return list(mapping.items())


@settings(max_examples=80, deadline=None)
@given(case=tenant_scenarios())
def test_tenant_scenarios(case):
    """Every phase and every average, keys in order, equal to the
    reference that solves each segment on its own."""
    expected = reference.solve_tenant_scenario(*case)
    got = solve_tenant_scenario(*case)
    assert got.horizon_s == expected.horizon_s
    assert len(got.phases) == len(expected.phases)
    for phase, want in zip(got.phases, expected.phases):
        assert (phase.start_s, phase.end_s) == (want.start_s, want.end_s)
        assert items(phase.levels) == items(want.levels)
        assert items(phase.per_tenant) == items(want.per_tenant)
        for name in FIELDS:
            assert items(getattr(phase.allocation, name)) == items(
                getattr(want.allocation, name)
            ), name
    assert items(got.per_tenant) == items(expected.per_tenant)


def test_phases_with_equal_levels_own_their_attribution():
    """Two cycles of a square wave solve once per level, but changing
    one phase's per-tenant map leaves the later one as it was."""
    platform = get_platform("henri")
    scenario = TenantScenario(
        (
            Tenant(
                "app", n_cores=4, m_comp=0,
                envelope=LoadEnvelope.bursty(low=0.2, cycles=2),
            ),
            Tenant("net", m_comm=0),
        )
    )
    result = solve_tenant_scenario(platform.machine, platform.profile, scenario)
    first, later = result.phases[0], result.phases[2]
    assert later.levels == first.levels
    assert later.allocation is first.allocation
    kept = items(later.per_tenant)
    first.per_tenant["app"] = TenantBandwidth(0.0, 0.0, 0.0, 0.0)
    del first.per_tenant["net"]
    assert items(later.per_tenant) == kept


@st.composite
def cluster_stream_sets(draw):
    """Computations on both machines of a cluster, messages both ways."""
    cluster = Cluster(
        node0=draw(st.sampled_from(PLATFORMS)),
        node1=draw(st.sampled_from(PLATFORMS)),
        fabric=FABRICS[draw(st.sampled_from(sorted(FABRICS)))],
    )

    def node(rank):
        return st.integers(0, cluster.machine(rank).n_numa_nodes - 1)

    streams = []
    for rank in (0, 1):
        n_cores = draw(st.integers(0, cluster.machine(rank).cores_per_socket))
        if n_cores:
            streams += compute_streams(
                cluster,
                rank=rank,
                n_cores=n_cores,
                data_node=draw(node(rank)),
                id_prefix=f"r{rank}core",
            )
    for j in range(draw(st.integers(1, 3))):
        src = draw(st.integers(0, 1))
        streams.append(
            transfer_stream(
                cluster,
                stream_id=f"msg{j}",
                src_rank=src,
                src_node=draw(node(src)),
                dst_node=draw(node(1 - src)),
                nominal_gbps=draw(st.none() | st.floats(1.0, 20.0)),
            )
        )
    return build_cluster_resources(cluster), cluster.node0.profile, streams


@settings(max_examples=100, deadline=None)
@given(case=cluster_stream_sets())
def test_cluster_stream_sets(case):
    assert_same_solve(*case)
