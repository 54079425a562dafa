"""Arbiter cascade tests: end-to-end rates on real platforms."""

import pickle

import pytest

from repro.errors import ArbitrationError
from repro.memsim import (
    Arbiter,
    Scenario,
    Stream,
    StreamKind,
    Tenant,
    TenantScenario,
    build_resources,
    solve_scenario,
    solve_tenant_scenario,
)


def arbiter_for(platform):
    return Arbiter(
        build_resources(platform.machine, platform.profile), platform.profile
    )


class TestBasics:
    def test_empty_streams(self, henri):
        allocation = arbiter_for(henri).solve([])
        assert allocation.rates == {}
        assert allocation.total_rate() == 0.0

    def test_duplicate_ids_rejected(self, henri):
        arb = arbiter_for(henri)
        s = Stream(
            stream_id="x",
            kind=StreamKind.CPU,
            demand_gbps=1.0,
            path=("mesh:0", "ctrl:0"),
            target_numa=0,
            origin_socket=0,
        )
        with pytest.raises(ArbitrationError, match="duplicate"):
            arb.solve([s, s])

    def test_unknown_resource_rejected(self, henri):
        arb = arbiter_for(henri)
        s = Stream(
            stream_id="x",
            kind=StreamKind.CPU,
            demand_gbps=1.0,
            path=("nowhere",),
            target_numa=0,
            origin_socket=0,
        )
        with pytest.raises(ArbitrationError, match="unknown resource"):
            arb.solve([s])

    def test_rate_lookup_error(self, henri):
        allocation = arbiter_for(henri).solve([])
        with pytest.raises(ArbitrationError, match="no stream"):
            allocation.rate("ghost")

    def test_single_stream_gets_demand(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(1, 0, None))
        assert result.comp_total_gbps == pytest.approx(
            henri.profile.core_stream_local_gbps
        )


class TestConservation:
    """Sum of rates through any resource never exceeds its capacity."""

    @pytest.mark.parametrize(
        "name,m_comp,m_comm",
        [
            ("henri", 0, 0),
            ("henri", 1, 1),
            ("henri", 0, 1),
            ("henri", 1, 0),
            ("henri-subnuma", 2, 2),
            ("henri-subnuma", 0, 3),
            ("diablo", 0, 0),
            ("diablo", 1, 1),
            ("pyxis", 0, 1),
            ("occigen", 1, 1),
        ],
    )
    def test_conservation_all_core_counts(self, name, m_comp, m_comm, request):
        platform = request.getfixturevalue(name.replace("-", "_"))
        arb = arbiter_for(platform)
        for n in range(1, platform.cores_per_socket + 1):
            result = solve_scenario(
                platform.machine,
                platform.profile,
                Scenario(n, m_comp, m_comm),
                arbiter=arb,
            )
            allocation = result.allocation
            for rid, usage in allocation.resource_usage.items():
                assert usage <= allocation.effective_capacity[rid] + 1e-6, (
                    f"{name} n={n} ({m_comp},{m_comm}): {rid} carries "
                    f"{usage:.3f} > {allocation.effective_capacity[rid]:.3f}"
                )

    def test_rates_never_exceed_demand(self, henri):
        arb = arbiter_for(henri)
        for n in (1, 8, 14, 18):
            result = solve_scenario(
                henri.machine, henri.profile, Scenario(n, 0, 0), arbiter=arb
            )
            for rate in result.comp_per_core_gbps:
                assert rate <= henri.profile.core_stream_local_gbps + 1e-9
            assert result.comm_gbps <= henri.machine.nic.line_rate_gbps + 1e-9


class TestPaperBehaviours:
    def test_comm_floor_respected(self, henri):
        """The anti-starvation minimum: comm never below alpha * nominal."""
        arb = arbiter_for(henri)
        floor = henri.profile.nic_min_fraction * henri.machine.nic.line_rate_gbps
        for n in range(1, 19):
            result = solve_scenario(
                henri.machine, henri.profile, Scenario(n, 0, 0), arbiter=arb
            )
            assert result.comm_gbps >= floor - 1e-6

    def test_comm_monotone_decreasing_with_cores(self, henri):
        arb = arbiter_for(henri)
        comms = [
            solve_scenario(
                henri.machine, henri.profile, Scenario(n, 0, 0), arbiter=arb
            ).comm_gbps
            for n in range(1, 19)
        ]
        for a, b in zip(comms, comms[1:]):
            assert b <= a + 1e-9

    def test_cross_placement_comp_unaffected(self, henri):
        """Eq. 7's premise: comp only contends when sharing the node."""
        arb = arbiter_for(henri)
        for n in (4, 10, 14, 18):
            alone = solve_scenario(
                henri.machine, henri.profile, Scenario(n, 0, None), arbiter=arb
            )
            cross = solve_scenario(
                henri.machine, henri.profile, Scenario(n, 0, 1), arbiter=arb
            )
            assert cross.comp_total_gbps == pytest.approx(
                alone.comp_total_gbps, rel=1e-6
            )

    def test_subnuma_off_diagonal_remote_contention_free(self, henri_subnuma):
        """§IV-C2: different remote nodes -> no contention -> the
        bottleneck is the controller, not the inter-socket link."""
        arb = arbiter_for(henri_subnuma)
        p = henri_subnuma
        for n in (6, 12, 18):
            alone = solve_scenario(
                p.machine, p.profile, Scenario(n, 2, None), arbiter=arb
            )
            par = solve_scenario(
                p.machine, p.profile, Scenario(n, 2, 3), arbiter=arb
            )
            assert par.comp_total_gbps == pytest.approx(
                alone.comp_total_gbps, rel=1e-6
            )

    def test_subnuma_diagonal_remote_contends(self, henri_subnuma):
        p = henri_subnuma
        arb = arbiter_for(p)
        n = 12
        alone = solve_scenario(p.machine, p.profile, Scenario(n, 2, None), arbiter=arb)
        par = solve_scenario(p.machine, p.profile, Scenario(n, 2, 2), arbiter=arb)
        assert par.comp_total_gbps < 0.95 * alone.comp_total_gbps

    def test_occigen_comm_never_impacted(self, occigen):
        """§IV-B d: occigen communications keep nominal bandwidth."""
        arb = arbiter_for(occigen)
        nominal = solve_scenario(
            occigen.machine, occigen.profile, Scenario(0, None, 1), arbiter=arb
        ).comm_gbps
        for n in (4, 10, 14):
            par = solve_scenario(
                occigen.machine, occigen.profile, Scenario(n, 1, 1), arbiter=arb
            )
            assert par.comm_gbps == pytest.approx(nominal, rel=1e-6)

    def test_occigen_remote_comp_impacted(self, occigen):
        arb = arbiter_for(occigen)
        n = occigen.cores_per_socket
        alone = solve_scenario(
            occigen.machine, occigen.profile, Scenario(n, 1, None), arbiter=arb
        )
        par = solve_scenario(
            occigen.machine, occigen.profile, Scenario(n, 1, 1), arbiter=arb
        )
        assert par.comp_total_gbps < alone.comp_total_gbps

    def test_diablo_nearly_contention_free(self, diablo):
        """§IV-B c: almost no contention on diablo."""
        arb = arbiter_for(diablo)
        for n in (8, 16, 24, 32):
            alone = solve_scenario(
                diablo.machine, diablo.profile, Scenario(n, 0, None), arbiter=arb
            )
            par = solve_scenario(
                diablo.machine, diablo.profile, Scenario(n, 0, 0), arbiter=arb
            )
            assert par.comp_total_gbps >= 0.93 * alone.comp_total_gbps
            assert par.comm_gbps >= 0.93 * 12.1

    def test_total_bandwidth_saturates(self, henri):
        """Stacked total flattens near the bus capacity, then declines."""
        arb = arbiter_for(henri)
        totals = [
            solve_scenario(
                henri.machine, henri.profile, Scenario(n, 0, 0), arbiter=arb
            ).total_gbps
            for n in range(1, 19)
        ]
        peak = max(totals)
        peak_at = totals.index(peak) + 1
        assert 10 <= peak_at <= 15
        assert totals[-1] < peak  # delta-r decline


class TestOverlap:
    """The benchmark's parallel mode on henri: cores compute while the
    NIC receives."""

    def test_overlap_contention(self, henri):
        """Same node: communications are clearly throttled."""
        result = solve_scenario(henri.machine, henri.profile, Scenario(16, 0, 0))
        assert result.comm_gbps < 12.3 * 0.9

    def test_overlap_cross_placement_still_throttles_comm(self, henri):
        """A different NUMA node does NOT shield communications: the NIC
        shares the socket mesh with the cores' issue pressure (the
        behaviour behind equation 6's local-model-everywhere rule)."""
        result = solve_scenario(henri.machine, henri.profile, Scenario(16, 0, 1))
        assert result.comm_gbps < 0.9 * 12.3

    def test_overlap_few_cores_no_contention(self, henri):
        """Below the mesh sag onset everyone runs at nominal speed."""
        result = solve_scenario(henri.machine, henri.profile, Scenario(6, 0, 1))
        assert result.comm_gbps == pytest.approx(12.3, rel=0.05)
        assert result.comp_total_gbps == pytest.approx(6 * 6.8, rel=0.02)


class TestAllocationIsAValue:
    """A solve's result pickles, and equal scenarios give equal results."""

    def test_scenario_result(self, henri):
        scenario = Scenario(12, 0, 1, bidirectional=True)
        result = solve_scenario(henri.machine, henri.profile, scenario)
        assert pickle.loads(pickle.dumps(result)) == result
        assert solve_scenario(henri.machine, henri.profile, scenario) == result

    def test_tenant_result_with_an_llc_tenant(self, henri):
        llc = max(henri.machine.sockets[0].caches, key=lambda c: c.level)
        scenario = TenantScenario(
            (
                Tenant(
                    "cached",
                    n_cores=8,
                    m_comp=0,
                    working_set_bytes=llc.size_bytes // 4,
                ),
                Tenant("streaming", n_cores=6, m_comp=1),
                Tenant("net", m_comm=0, bidirectional=True),
            )
        )
        result = solve_tenant_scenario(henri.machine, henri.profile, scenario)
        assert result.phases[0].allocation.llc_factors
        assert pickle.loads(pickle.dumps(result)) == result
        again = solve_tenant_scenario(henri.machine, henri.profile, scenario)
        assert again == result
