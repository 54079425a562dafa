"""The LLC capacity resource: unit maths, stream filtering, solver laws.

Three properties anchor the model (and the paper's §VI deferral):

* cache-resident working sets press DRAM only through the compulsory
  floor — a victim sharing the node keeps its bandwidth;
* overflowing working sets converge back to the paper's non-temporal
  behaviour, so the LLC pass is a refinement, not a fork;
* streams that declare no working set pass through bit-identically
  (the arbiter's pre-existing single-tenant path is untouched).
"""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.memsim import (
    Arbiter,
    Scenario,
    Tenant,
    TenantScenario,
    build_resources,
    build_tenant_streams,
    solve_tenant_scenario,
)
from repro.memsim.scenario import build_streams
from repro.memsim.llc import (
    COMPULSORY_FLOOR,
    dram_factor,
    filter_dram_demand,
    llc_by_socket,
    occupancy_shares,
)
from repro.memsim.resource import Resource, ResourceKind
from repro.topology import get_platform
from repro.units import MiB

HENRI = get_platform("henri")


def henri_llc_share():
    """One core's fair share of henri's socket-0 LLC, in bytes."""
    llc = max(HENRI.machine.sockets[0].caches, key=lambda c: c.level)
    return llc.size_bytes // HENRI.machine.cores_per_socket


# ---- dram_factor -------------------------------------------------------------


class TestDramFactor:
    def test_fully_resident_hits_the_floor(self):
        assert dram_factor(1000, 1000.0) == COMPULSORY_FLOOR
        assert dram_factor(1000, 5000.0) == COMPULSORY_FLOOR

    def test_no_share_means_full_traffic(self):
        assert dram_factor(1000, 0.0) == 1.0

    def test_half_resident(self):
        assert dram_factor(1000, 500.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(SimulationError, match="working_set_bytes"):
            dram_factor(0, 10.0)
        with pytest.raises(SimulationError, match="share_bytes"):
            dram_factor(10, -1.0)
        with pytest.raises(SimulationError, match="floor"):
            dram_factor(10, 5.0, floor=0.0)
        with pytest.raises(SimulationError, match="floor"):
            dram_factor(10, 5.0, floor=1.5)

    @given(
        ws=st.integers(1, 10**12),
        share=st.floats(0.0, 1e12),
    )
    def test_bounded_and_monotone(self, ws, share):
        factor = dram_factor(ws, share)
        assert COMPULSORY_FLOOR <= factor <= 1.0
        # More cache can only reduce the DRAM traffic.
        assert dram_factor(ws, share * 2.0) <= factor


# ---- occupancy_shares --------------------------------------------------------


class TestOccupancyShares:
    def test_everything_fits(self):
        assert occupancy_shares(100, [10, 20, 30]) == [10.0, 20.0, 30.0]

    def test_uniform_overflow_is_egalitarian(self):
        assert occupancy_shares(90, [100, 100, 100]) == [30.0, 30.0, 30.0]

    def test_small_set_frees_capacity_for_the_rest(self):
        shares = occupancy_shares(100, [10, 1000])
        assert shares[0] == 10.0
        assert shares[1] == pytest.approx(90.0)

    def test_empty(self):
        assert occupancy_shares(100, []) == []

    def test_validation(self):
        with pytest.raises(SimulationError, match="llc_size_bytes"):
            occupancy_shares(0, [10])
        with pytest.raises(SimulationError, match="working sets"):
            occupancy_shares(100, [10, 0])

    @given(
        size=st.integers(1, 10**9),
        sets=st.lists(st.integers(1, 10**9), min_size=1, max_size=12),
    )
    def test_conserves_capacity_and_caps_at_working_set(self, size, sets):
        shares = occupancy_shares(size, sets)
        assert len(shares) == len(sets)
        for share, ws in zip(shares, sets):
            assert 0.0 <= share <= ws + 1e-6
        assert sum(shares) <= size + 1e-6


# ---- llc_by_socket -----------------------------------------------------------


class TestLlcBySocket:
    def test_archived_platform_declares_one_llc_per_socket(self):
        resources = build_resources(HENRI.machine, HENRI.profile)
        llc = llc_by_socket(resources.resources)
        assert sorted(llc) == list(range(HENRI.machine.n_sockets))
        for socket, resource in llc.items():
            assert resource.kind is ResourceKind.LLC
            assert resource.socket == socket
            assert resource.size_bytes and resource.size_bytes > 0

    def test_empty_map(self):
        assert llc_by_socket({}) == {}

    def test_llc_resource_validation(self):
        with pytest.raises(SimulationError, match="size_bytes"):
            Resource(
                resource_id="llc:0", kind=ResourceKind.LLC,
                capacity_gbps=math.inf, socket=0,
            )
        with pytest.raises(SimulationError, match="socket"):
            Resource(
                resource_id="llc:0", kind=ResourceKind.LLC,
                capacity_gbps=math.inf, size_bytes=1024,
            )
        with pytest.raises(SimulationError, match="only LLC"):
            Resource(
                resource_id="ctrl:0", kind=ResourceKind.MEMORY_CONTROLLER,
                capacity_gbps=10.0, socket=0, size_bytes=1024,
            )


# ---- Stream.working_set_bytes validation -------------------------------------


class TestStreamWorkingSet:
    def test_non_positive_rejected(self):
        scenario = Scenario(n_cores=1, m_comp=0, m_comm=None)
        core = build_streams(HENRI.machine, HENRI.profile, scenario)[0]
        with pytest.raises(SimulationError, match="working set"):
            dataclasses.replace(core, working_set_bytes=0)

    def test_dma_streams_cannot_declare_one(self):
        scenario = Scenario(n_cores=0, m_comp=None, m_comm=0)
        nic = build_streams(HENRI.machine, HENRI.profile, scenario)[0]
        with pytest.raises(SimulationError, match="CPU"):
            dataclasses.replace(nic, working_set_bytes=64 * MiB)


# ---- filter_dram_demand ------------------------------------------------------


class TestFilterDramDemand:
    def test_no_working_sets_is_the_identity(self):
        """The paper's setting gets no factor at all."""
        scenario = Scenario(n_cores=4, m_comp=0, m_comm=1)
        streams = build_streams(HENRI.machine, HENRI.profile, scenario)
        resources = build_resources(HENRI.machine, HENRI.profile)
        factors = filter_dram_demand(
            llc_by_socket(resources.resources), streams
        )
        assert factors == {}

    def test_resident_stream_scales_to_the_floor(self):
        tenant = Tenant(
            name="app", n_cores=2, m_comp=0,
            working_set_bytes=henri_llc_share() // 4,
        )
        streams = build_tenant_streams(
            HENRI.machine, HENRI.profile, TenantScenario((tenant,))
        )
        resources = build_resources(HENRI.machine, HENRI.profile)
        factors = filter_dram_demand(
            llc_by_socket(resources.resources), streams
        )
        assert list(factors) == [s.stream_id for s in streams]
        # Two resident cores press nothing: each solves to its demand
        # scaled by the factor, the product the arbiter applies.
        allocation = Arbiter(resources, HENRI.profile).solve(streams)
        assert allocation.llc_factors == factors
        for stream in streams:
            factor = factors[stream.stream_id]
            assert factor == COMPULSORY_FLOOR
            assert allocation.rate(stream.stream_id) == (
                stream.demand_gbps * factor
            )

    def test_missing_llc_resource_is_an_error(self):
        tenant = Tenant(
            name="app", n_cores=1, m_comp=0, working_set_bytes=1024,
        )
        streams = build_tenant_streams(
            HENRI.machine, HENRI.profile, TenantScenario((tenant,))
        )
        with pytest.raises(SimulationError, match="no LLC resource"):
            filter_dram_demand({}, streams)


# ---- solver-level properties -------------------------------------------------


def solve_pair(working_set_bytes):
    """App (temporal cores) + victim (comm) on henri's node 0."""
    n = HENRI.machine.cores_per_socket
    scenario = TenantScenario(
        (
            Tenant(
                name="app", n_cores=n, m_comp=0,
                working_set_bytes=working_set_bytes,
            ),
            Tenant(name="victim", m_comm=0),
        )
    )
    result = solve_tenant_scenario(HENRI.machine, HENRI.profile, scenario)
    return result.tenant("app"), result.tenant("victim")


class TestSolverProperties:
    def test_cache_resident_app_draws_no_dram_and_spares_the_victim(self):
        app, victim = solve_pair(henri_llc_share() // 4)
        nt_app, nt_victim = solve_pair(None)
        assert app.comp_dram_gbps < 0.05 * nt_app.comp_dram_gbps
        # The victim keeps (almost) its uncontended NIC bandwidth.
        baseline = solve_tenant_scenario(
            HENRI.machine,
            HENRI.profile,
            TenantScenario((Tenant(name="victim", m_comm=0),)),
        ).tenant("victim").comm_gbps
        assert victim.comm_gbps > 0.97 * baseline
        assert nt_victim.comm_gbps < 0.6 * baseline

    def test_overflowing_working_set_converges_to_non_temporal(self):
        app, victim = solve_pair(1024 * MiB)
        nt_app, nt_victim = solve_pair(None)
        assert victim.comm_gbps == pytest.approx(nt_victim.comm_gbps, rel=1e-3)
        assert app.comp_dram_gbps == pytest.approx(
            nt_app.comp_dram_gbps, rel=5e-3
        )

    def test_processed_rate_scales_dram_rate_by_the_factor(self):
        app, _ = solve_pair(henri_llc_share() // 4)
        assert app.comp_gbps == pytest.approx(
            app.comp_dram_gbps / COMPULSORY_FLOOR
        )

    def test_idle_tenant_is_bit_identical_to_absence(self):
        """N tenants with one idle solve exactly like the N-1 others."""
        from repro.memsim import LoadEnvelope

        app = Tenant(
            name="app", n_cores=4, m_comp=0,
            working_set_bytes=4 * henri_llc_share(),
        )
        victim = Tenant(name="victim", m_comm=0)
        idle = Tenant(
            name="idle", n_cores=8, m_comp=1, socket=1,
            envelope=LoadEnvelope.steady(0.0),
        )
        with_idle = solve_tenant_scenario(
            HENRI.machine, HENRI.profile,
            TenantScenario((app, victim, idle)),
        )
        without = solve_tenant_scenario(
            HENRI.machine, HENRI.profile, TenantScenario((app, victim))
        )
        assert with_idle.tenant("app") == without.tenant("app")
        assert with_idle.tenant("victim") == without.tenant("victim")
        assert with_idle.tenant("idle").total_gbps == 0.0
        for i in range(app.n_cores):
            sid = f"app/core{i}"
            assert with_idle.phases[0].allocation.rate(sid) == (
                without.phases[0].allocation.rate(sid)
            )


@given(ws_quarter_shares=st.integers(1, 64))
def test_filtering_helps_the_victim_and_processed_dominates_dram(
    ws_quarter_shares,
):
    """Across working-set sizes: the processed rate is never below the
    DRAM rate (cache hits only add), and a temporal neighbour never
    hurts the victim more than the paper's non-temporal one (the
    arbitrated DRAM rate itself is *not* pointwise monotone — contention
    feedback — so the invariant lives on the victim side)."""
    ws = max(1, ws_quarter_shares * henri_llc_share() // 4)
    app, victim = solve_pair(ws)
    _, nt_victim = solve_pair(None)
    assert app.comp_gbps >= app.comp_dram_gbps - 1e-9
    assert victim.comm_gbps >= nt_victim.comm_gbps - 1e-6
