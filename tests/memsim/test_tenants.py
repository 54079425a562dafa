"""The tenant layer: envelopes, composition, attribution — and the PR's
central regression: a single steady tenant must reproduce the paper's
single-job :func:`solve_scenario` *bit for bit* on every archived
platform, placement and core count."""

import math
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.memsim import arbiter as arbiter_module
from repro.memsim import scenario as scenario_module
from repro.memsim import (
    Arbiter,
    LoadEnvelope,
    LoadPhase,
    Scenario,
    Tenant,
    TenantScenario,
    build_resources,
    build_tenant_streams,
    solve_scenario,
    solve_tenant_scenario,
)
from repro.topology import get_platform, platform_names

HENRI = get_platform("henri")


# ---- Scenario override validation (the NaN/inf bugfix) ------------------------


class TestScenarioOverrideValidation:
    @pytest.mark.parametrize(
        "fieldname",
        ["comp_demand_gbps", "comp_issue_gbps", "comm_demand_gbps"],
    )
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 0.0, -5.0]
    )
    def test_non_finite_or_non_positive_overrides_rejected(
        self, fieldname, bad
    ):
        """NaN used to sail through the ``<= 0`` check and poison the
        solver with NaN rates; now every bad override names its field."""
        kwargs = {fieldname: bad}
        with pytest.raises(SimulationError, match=fieldname):
            Scenario(n_cores=2, m_comp=0, m_comm=0, **kwargs)

    def test_valid_overrides_still_accepted(self):
        scenario = Scenario(
            n_cores=2, m_comp=0, m_comm=0,
            comp_demand_gbps=5.0, comp_issue_gbps=7.0, comm_demand_gbps=3.0,
        )
        assert scenario.comp_demand_gbps == 5.0

    @pytest.mark.parametrize(
        "fieldname",
        ["comp_demand_gbps", "comp_issue_gbps", "comm_demand_gbps"],
    )
    def test_tenant_overrides_validated_too(self, fieldname):
        with pytest.raises(SimulationError) as excinfo:
            Tenant(name="job", n_cores=1, m_comp=0, m_comm=0,
                   **{fieldname: float("nan")})
        assert fieldname in str(excinfo.value)
        assert "'job'" in str(excinfo.value)


# ---- solved transmit bandwidth (bidirectional) --------------------------------


class TestCommTx:
    def test_unidirectional_reports_zero(self):
        result = solve_scenario(
            HENRI.machine, HENRI.profile,
            Scenario(n_cores=0, m_comp=None, m_comm=0),
        )
        assert result.comm_tx_gbps == 0.0

    def test_bidirectional_tx_is_solved_not_assumed(self):
        result = solve_scenario(
            HENRI.machine, HENRI.profile,
            Scenario(n_cores=0, m_comp=None, m_comm=0, bidirectional=True),
        )
        assert result.comm_tx_gbps > 0.0
        assert result.comm_tx_gbps == result.allocation.rate("job/nic-tx")

    def test_tx_respects_its_anti_starvation_floor_under_load(self):
        machine, profile = HENRI.machine, HENRI.profile
        n = machine.cores_per_socket
        result = solve_scenario(
            machine, profile,
            Scenario(n_cores=n, m_comp=0, m_comm=0, bidirectional=True),
        )
        nominal = profile.nic_nominal_gbps(0, machine.nic.line_rate_gbps)
        assert result.comm_tx_gbps >= 0.5 * profile.nic_min_fraction * nominal - 1e-9
        # Full-socket computation load: the transmit side is contended.
        assert result.comm_tx_gbps < nominal

    def test_total_includes_both_directions(self):
        result = solve_scenario(
            HENRI.machine, HENRI.profile,
            Scenario(n_cores=4, m_comp=0, m_comm=0, bidirectional=True),
        )
        assert result.total_gbps == (
            result.comp_total_gbps + result.comm_gbps + result.comm_tx_gbps
        )


# ---- load envelopes ------------------------------------------------------------


class TestLoadEnvelope:
    def test_phase_validation(self):
        with pytest.raises(SimulationError, match="duration"):
            LoadPhase(0.0, 1.0)
        with pytest.raises(SimulationError, match="duration"):
            LoadPhase(float("nan"), 1.0)
        with pytest.raises(SimulationError, match="level"):
            LoadPhase(1.0, -0.1)
        with pytest.raises(SimulationError, match="level"):
            LoadPhase(1.0, float("inf"))

    def test_envelope_needs_a_phase(self):
        with pytest.raises(SimulationError, match="at least one phase"):
            LoadEnvelope(())

    def test_default_is_steady_full_load(self):
        env = LoadEnvelope()
        assert env.duration_s == 1.0
        assert env.level_at(0.5) == 1.0

    def test_steady(self):
        env = LoadEnvelope.steady(0.25, duration_s=3.0)
        assert env.duration_s == 3.0
        assert env.level_at(2.9) == 0.25

    def test_bursty_square_wave(self):
        env = LoadEnvelope.bursty(period_s=2.0, duty=0.25, cycles=3)
        assert env.duration_s == pytest.approx(6.0)
        assert env.level_at(0.1) == 1.0
        assert env.level_at(1.0) == 0.0
        assert env.boundaries() == pytest.approx(
            (0.5, 2.0, 2.5, 4.0, 4.5, 6.0)
        )

    def test_bursty_validation(self):
        with pytest.raises(SimulationError, match="duty"):
            LoadEnvelope.bursty(duty=0.0)
        with pytest.raises(SimulationError, match="duty"):
            LoadEnvelope.bursty(duty=1.0)
        with pytest.raises(SimulationError, match="cycles"):
            LoadEnvelope.bursty(cycles=0)

    def test_diurnal_stays_within_bounds_and_peaks_mid_cycle(self):
        env = LoadEnvelope.diurnal(day_s=24.0, samples=8, low=0.2, high=1.0)
        levels = [p.level for p in env.phases]
        assert all(0.2 <= lv <= 1.0 for lv in levels)
        assert max(levels) > 0.9 and min(levels) < 0.3
        # Raised cosine: the trough sits at the cycle edges.
        assert levels[0] == min(levels)

    def test_diurnal_validation(self):
        with pytest.raises(SimulationError, match="samples"):
            LoadEnvelope.diurnal(samples=1)
        with pytest.raises(SimulationError, match="low"):
            LoadEnvelope.diurnal(low=0.9, high=0.5)

    def test_level_at_holds_last_level_past_the_end(self):
        env = LoadEnvelope((LoadPhase(1.0, 0.8), LoadPhase(1.0, 0.3)))
        assert env.level_at(0.5) == 0.8
        assert env.level_at(1.5) == 0.3
        assert env.level_at(99.0) == 0.3
        with pytest.raises(SimulationError, match=">= 0"):
            env.level_at(-1.0)


# ---- tenant and scenario validation --------------------------------------------


class TestTenantValidation:
    def test_name_must_be_non_empty_and_slash_free(self):
        with pytest.raises(SimulationError, match="slash-free"):
            Tenant(name="")
        with pytest.raises(SimulationError, match="slash-free"):
            Tenant(name="a/b", m_comm=0)

    def test_computing_needs_a_data_node(self):
        with pytest.raises(SimulationError, match="m_comp"):
            Tenant(name="job", n_cores=2)

    def test_negative_cores_and_socket_rejected(self):
        with pytest.raises(SimulationError, match="n_cores"):
            Tenant(name="job", n_cores=-1, m_comp=0)
        with pytest.raises(SimulationError, match="socket"):
            Tenant(name="job", m_comm=0, socket=-1)

    def test_working_set_must_be_positive(self):
        with pytest.raises(SimulationError, match="working set"):
            Tenant(name="job", n_cores=1, m_comp=0, working_set_bytes=0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf, 0, -1])
    def test_working_set_must_be_finite_too(self, size):
        """A NaN working set used to solve as a quarter of a core's LLC
        share: a DRAM traffic factor of 0.02."""
        with pytest.raises(SimulationError, match="'job': working set"):
            Tenant(name="job", n_cores=4, m_comp=0, working_set_bytes=size)

    def test_scenario_needs_tenants_with_unique_names(self):
        with pytest.raises(SimulationError, match="at least one tenant"):
            TenantScenario(())
        with pytest.raises(SimulationError, match="duplicate"):
            TenantScenario(
                (Tenant(name="a", m_comm=0), Tenant(name="a", m_comm=1))
            )

    def test_horizon_is_the_longest_envelope(self):
        scenario = TenantScenario(
            (
                Tenant(name="a", m_comm=0,
                       envelope=LoadEnvelope.steady(1.0, duration_s=2.0)),
                Tenant(name="b", m_comm=1,
                       envelope=LoadEnvelope.steady(1.0, duration_s=5.0)),
            )
        )
        assert scenario.horizon_s == 5.0

    def test_socket_out_of_range(self):
        scenario = TenantScenario(
            (Tenant(name="a", n_cores=1, m_comp=0, socket=7),)
        )
        with pytest.raises(SimulationError, match="out of range"):
            build_tenant_streams(HENRI.machine, HENRI.profile, scenario)

    def test_core_budget_is_per_socket(self):
        n = HENRI.machine.cores_per_socket
        scenario = TenantScenario(
            (
                Tenant(name="a", n_cores=n, m_comp=0),
                Tenant(name="b", n_cores=1, m_comp=0),
            )
        )
        with pytest.raises(SimulationError, match="only"):
            build_tenant_streams(HENRI.machine, HENRI.profile, scenario)
        # The same total spread over both sockets fits.
        ok = TenantScenario(
            (
                Tenant(name="a", n_cores=n, m_comp=0),
                Tenant(name="b", n_cores=1, m_comp=1, socket=1),
            )
        )
        streams = build_tenant_streams(HENRI.machine, HENRI.profile, ok)
        assert len(streams) == n + 1

    def test_stream_ids_are_namespaced(self):
        scenario = TenantScenario(
            (Tenant(name="web", n_cores=2, m_comp=0, m_comm=1,
                    bidirectional=True),)
        )
        streams = build_tenant_streams(HENRI.machine, HENRI.profile, scenario)
        assert sorted(s.stream_id for s in streams) == [
            "web/core0", "web/core1", "web/nic", "web/nic-tx",
        ]

    def test_unknown_tenant_lookup_names_the_known_ones(self):
        result = solve_tenant_scenario(
            HENRI.machine, HENRI.profile,
            TenantScenario((Tenant(name="a", m_comm=0),)),
        )
        with pytest.raises(SimulationError, match="'a'"):
            result.tenant("nope")


#: The one-job scenario of each job class, with ``n`` computing cores.
_ONE_JOB = {
    "Scenario": lambda n: (solve_scenario, Scenario(n, 0, 0)),
    "Tenant": lambda n: (
        solve_tenant_scenario,
        TenantScenario((Tenant(name="job", n_cores=n, m_comp=0, m_comm=0),)),
    ),
}


class TestCoreCountValidation:
    @pytest.mark.parametrize("n_cores", [2.5, 2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("job", _ONE_JOB)
    def test_non_integer_core_count_rejected(self, job, n_cores):
        """2.5 used to fail in the stream builder with a TypeError, and
        True to solve as one core."""
        with pytest.raises(
            SimulationError, match="n_cores must be an integer"
        ):
            _ONE_JOB[job](n_cores)

    @pytest.mark.parametrize("job", _ONE_JOB)
    def test_numpy_integer_solves_as_its_int(self, job):
        solve, scenario = _ONE_JOB[job](np.int64(4))
        _, as_int = _ONE_JOB[job](4)
        assert solve(HENRI.machine, HENRI.profile, scenario) == solve(
            HENRI.machine, HENRI.profile, as_int
        )


# ---- the acceptance-criterion regression ---------------------------------------


@pytest.mark.parametrize("platform_name", platform_names())
def test_single_tenant_is_bit_identical_to_solve_scenario(platform_name):
    """One steady tenant == the paper's single-job solver, exactly.

    Float-exact equality (no tolerance) over every archived platform,
    every placement of its NUMA grid, and three core counts — the
    tenant layer must be a pure superset, not a reimplementation that
    drifts by an ulp.
    """
    spec = get_platform(platform_name)
    machine, profile = spec.machine, spec.profile
    n_max = machine.cores_per_socket
    for m_comp, m_comm in machine.placements():
        for n in (1, n_max // 2, n_max):
            single = solve_scenario(
                machine, profile, Scenario(n_cores=n, m_comp=m_comp,
                                           m_comm=m_comm)
            )
            tenant = Tenant(name="job", n_cores=n, m_comp=m_comp,
                            m_comm=m_comm)
            multi = solve_tenant_scenario(
                machine, profile, TenantScenario((tenant,))
            )
            bw = multi.tenant("job")
            assert bw.comp_gbps == single.comp_total_gbps
            assert bw.comp_dram_gbps == single.comp_total_gbps
            assert bw.comm_gbps == single.comm_gbps
            assert bw.comm_tx_gbps == single.comm_tx_gbps == 0.0
            allocation = multi.phases[0].allocation
            for i, rate in enumerate(single.comp_per_core_gbps):
                assert allocation.rate(f"job/core{i}") == rate
            assert allocation.rate("job/nic") == single.comm_gbps


def test_single_bidirectional_tenant_matches_too():
    single = solve_scenario(
        HENRI.machine, HENRI.profile,
        Scenario(n_cores=4, m_comp=0, m_comm=1, bidirectional=True),
    )
    multi = solve_tenant_scenario(
        HENRI.machine, HENRI.profile,
        TenantScenario(
            (Tenant(name="job", n_cores=4, m_comp=0, m_comm=1,
                    bidirectional=True),)
        ),
    )
    bw = multi.tenant("job")
    assert bw.comm_gbps == single.comm_gbps
    assert bw.comm_tx_gbps == single.comm_tx_gbps > 0.0


# ---- multi-tenant behaviour -----------------------------------------------------


class TestMultiTenant:
    def test_attacker_degrades_the_victims_bandwidth(self):
        """The PR's end-to-end criterion: measurable comm degradation."""
        machine, profile = HENRI.machine, HENRI.profile
        baseline = solve_tenant_scenario(
            machine, profile,
            TenantScenario((Tenant(name="victim", m_comm=0),)),
        ).tenant("victim").comm_gbps
        contended = solve_tenant_scenario(
            machine, profile,
            TenantScenario(
                (
                    Tenant(name="attacker",
                           n_cores=machine.cores_per_socket, m_comp=0),
                    Tenant(name="victim", m_comm=0),
                )
            ),
        ).tenant("victim").comm_gbps
        assert contended < 0.7 * baseline
        assert contended > 0.0

    def test_comm_floor_is_split_among_communicating_tenants(self):
        """Two NIC tenants cannot both claim the full hardware floor."""
        machine, profile = HENRI.machine, HENRI.profile
        n = machine.cores_per_socket
        nominal = profile.nic_nominal_gbps(0, machine.nic.line_rate_gbps)
        floor = profile.nic_min_fraction * nominal
        result = solve_tenant_scenario(
            machine, profile,
            TenantScenario(
                (
                    Tenant(name="hog", n_cores=n, m_comp=0),
                    Tenant(name="a", m_comm=0),
                    Tenant(name="b", m_comm=0),
                )
            ),
        )
        a = result.tenant("a").comm_gbps
        b = result.tenant("b").comm_gbps
        assert a == b  # symmetric tenants, symmetric split
        assert a >= floor / 2 - 1e-9
        assert a + b <= nominal + 1e-9

    def test_bursty_tenant_averages_by_time(self):
        """duty=0.5 alone on the machine ⇒ exactly half the steady rate."""
        machine, profile = HENRI.machine, HENRI.profile
        steady = solve_tenant_scenario(
            machine, profile,
            TenantScenario((Tenant(name="job", m_comm=0),)),
        ).tenant("job").comm_gbps
        bursty = solve_tenant_scenario(
            machine, profile,
            TenantScenario(
                (
                    Tenant(
                        name="job", m_comm=0,
                        envelope=LoadEnvelope.bursty(
                            period_s=1.0, duty=0.5, cycles=2
                        ),
                    ),
                )
            ),
        )
        assert bursty.tenant("job").comm_gbps == pytest.approx(0.5 * steady)
        # Off phases contribute zero-rate segments, not missing ones.
        assert bursty.horizon_s == pytest.approx(2.0)
        assert len(bursty.phases) == 4

    def test_segments_cut_at_the_union_of_phase_boundaries(self):
        machine, profile = HENRI.machine, HENRI.profile
        scenario = TenantScenario(
            (
                Tenant(name="a", m_comm=0,
                       envelope=LoadEnvelope.steady(1.0, duration_s=2.0)),
                Tenant(
                    name="b", m_comm=1,
                    envelope=LoadEnvelope(
                        (LoadPhase(0.5, 1.0), LoadPhase(0.5, 0.25))
                    ),
                ),
            )
        )
        result = solve_tenant_scenario(machine, profile, scenario)
        cuts = [(p.start_s, p.end_s) for p in result.phases]
        assert cuts == [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0)]
        # B's envelope ends at 1s: it holds its last level (0.25) after.
        assert result.phases[2].levels["b"] == 0.25

    def test_diurnal_average_sits_between_trough_and_peak(self):
        machine, profile = HENRI.machine, HENRI.profile
        lo, hi = 0.2, 1.0
        steady = solve_tenant_scenario(
            machine, profile,
            TenantScenario((Tenant(name="job", m_comm=0),)),
        ).tenant("job").comm_gbps
        diurnal = solve_tenant_scenario(
            machine, profile,
            TenantScenario(
                (
                    Tenant(
                        name="job", m_comm=0,
                        envelope=LoadEnvelope.diurnal(low=lo, high=hi),
                    ),
                )
            ),
        ).tenant("job").comm_gbps
        assert lo * steady < diurnal < hi * steady


# ---- Streams and LLC factors built once per call ------------------------------


def _reuse_scenario(machine) -> TenantScenario:
    """Bursty, day-night and steady tenants, cached and not, two of
    them communicating so that the split DMA floor changes with time."""
    llc = max(machine.sockets[0].caches, key=lambda c: c.level)
    share = llc.size_bytes // machine.cores_per_socket
    return TenantScenario(
        (
            Tenant(
                name="cached", n_cores=4, m_comp=0, m_comm=1,
                working_set_bytes=2 * share,
            ),
            Tenant(
                name="burst", n_cores=2, m_comp=1,
                working_set_bytes=share // 4,
                envelope=LoadEnvelope.bursty(period_s=2.0, low=0.2, cycles=3),
            ),
            Tenant(
                name="net", m_comm=0, bidirectional=True,
                envelope=LoadEnvelope.bursty(period_s=1.5, cycles=4),
            ),
            Tenant(
                name="day", n_cores=3, m_comp=1,
                envelope=LoadEnvelope.diurnal(day_s=6.0, samples=6),
            ),
        )
    )


def _tenant_keys(scenario, result):
    """Every ``(tenant, level, communicating tenants)`` a solve needs."""
    keys = set()
    for phase in result.phases:
        active = [t for t in scenario.tenants if phase.levels[t.name] > 0.0]
        n_comm = sum(t.communicating for t in active)
        for t in active:
            keys.add(
                (t.name, phase.levels[t.name], n_comm if t.communicating else 0)
            )
    return keys


class TestReuse:
    def test_each_tenant_is_built_once_per_level_and_floor_split(
        self, monkeypatch
    ):
        machine, profile = HENRI.machine, HENRI.profile
        scenario = _reuse_scenario(machine)
        calls, builds = [], []
        tenant_streams = scenario_module._tenant_streams
        build = scenario_module.build_tenant_streams

        def counted_tenant(machine, profile, tenant, level, n_comm):
            calls.append(
                (tenant.name, level, n_comm if tenant.communicating else 0)
            )
            return tenant_streams(machine, profile, tenant, level, n_comm)

        def counted_build(*args, **kwargs):
            builds.append(tuple(kwargs["levels"].values()))
            return build(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "_tenant_streams", counted_tenant)
        monkeypatch.setattr(
            scenario_module, "build_tenant_streams", counted_build
        )
        result = solve_tenant_scenario(machine, profile, scenario)

        assert Counter(calls) == Counter(_tenant_keys(scenario, result))
        # The solve still builds each distinct level vector's set once,
        # from fewer tenant builds than one per active tenant per set.
        levels = [tuple(p.levels.values()) for p in result.phases]
        assert builds == list(dict.fromkeys(levels))
        per_build = sum(
            t.computing or t.communicating
            for vector in builds
            for t, level in zip(scenario.tenants, vector)
            if level > 0.0
        )
        assert len(calls) < per_build

    def test_a_reuse_map_changes_no_stream(self):
        machine, profile = HENRI.machine, HENRI.profile
        scenario = _reuse_scenario(machine)
        reuse = {}
        vectors = [
            {"cached": 1.0, "burst": 1.0, "net": 1.0, "day": 0.5},
            {"cached": 1.0, "burst": 0.2, "net": 0.0, "day": 0.5},
            {"cached": 1.0, "burst": 1.0, "net": 0.0, "day": 0.7},
            {"cached": 1.0, "burst": 1.0, "net": 1.0, "day": 0.5},
        ]
        shared = [
            build_tenant_streams(
                machine, profile, scenario, levels=levels, reuse=reuse
            )
            for levels in vectors
        ]
        for levels, streams in zip(vectors, shared):
            assert streams == build_tenant_streams(
                machine, profile, scenario, levels=levels
            )
        # Same level and floor split: the very same stream objects.
        assert shared[0][0] is shared[3][0]
        assert shared[1][0] is shared[2][0]
        # A different floor split rebuilds the communicating tenant.
        assert shared[0][0] is not shared[1][0]

    def test_checks_run_on_every_call_despite_the_map(self):
        machine, profile = HENRI.machine, HENRI.profile
        scenario = TenantScenario(
            (Tenant(name="a", n_cores=machine.cores_per_socket + 1, m_comp=0),)
        )
        reuse = {}
        for _ in range(2):
            with pytest.raises(
                SimulationError, match="cores requested but socket 0 has only"
            ):
                build_tenant_streams(
                    machine, profile, scenario, reuse=reuse
                )
        assert reuse == {}

    def test_llc_factors_once_per_working_set_key(self, monkeypatch):
        calls = []
        filter_dram_demand = arbiter_module.filter_dram_demand

        def counted(llc, streams):
            calls.append(
                tuple(
                    s.stream_id for s in streams
                    if s.working_set_bytes is not None
                )
            )
            return filter_dram_demand(llc, streams)

        monkeypatch.setattr(arbiter_module, "filter_dram_demand", counted)
        machine, profile = HENRI.machine, HENRI.profile
        result = solve_tenant_scenario(
            machine, profile, _reuse_scenario(machine)
        )
        assert len({id(p.allocation) for p in result.phases}) > 1
        # Every segment has the same cached streams: one pre-pass.
        assert len(calls) == 1 and calls[0]

        # A cached tenant that goes idle: its stream set has no working
        # set then, and such a set always runs the (empty) pre-pass.
        calls.clear()
        idle = TenantScenario(
            (
                Tenant(
                    name="burst", n_cores=2, m_comp=0, working_set_bytes=1 << 20,
                    envelope=LoadEnvelope.bursty(cycles=3),
                ),
                Tenant(
                    name="day", m_comm=0,
                    envelope=LoadEnvelope.diurnal(day_s=3.0, samples=6),
                ),
            )
        )
        result = solve_tenant_scenario(machine, profile, idle)
        cached = [key for key in calls if key]
        assert cached == [("burst/core0", "burst/core1")]
        assert len(calls) - len(cached) == len(
            {
                id(p.allocation)
                for p in result.phases
                if p.levels["burst"] == 0.0
            }
        )

    def test_each_allocation_owns_its_llc_factors(self):
        """Every segment has the same cached streams, so every solve
        after the first reuses the first one's factors: changing one
        allocation's map leaves every other one, and the next solve, as
        they were."""
        machine, profile = HENRI.machine, HENRI.profile
        arbiter = Arbiter(build_resources(machine, profile), profile)
        scenario = _reuse_scenario(machine)
        result = solve_tenant_scenario(
            machine, profile, scenario, arbiter=arbiter
        )
        # Segments with equal levels share one Allocation (one solve).
        allocations = list(
            {id(p.allocation): p.allocation for p in result.phases}.values()
        )
        assert len(allocations) > 2
        kept = [list(a.llc_factors.items()) for a in allocations]
        assert kept[0] and all(factors == kept[0] for factors in kept)
        changed = set()
        for j in (1, 0):
            allocations[j].llc_factors["cached/core0"] = 0.5
            allocations[j].llc_factors["extra"] = 1.0
            changed.add(j)
            for k, allocation in enumerate(allocations):
                if k not in changed:
                    assert list(allocation.llc_factors.items()) == kept[k]
        again = solve_tenant_scenario(
            machine, profile, scenario, arbiter=arbiter
        )
        assert all(
            list(p.allocation.llc_factors.items()) == kept[0]
            for p in again.phases
        )

    def test_a_shared_arbiter_gives_a_fresh_ones_answers(self):
        machine, profile = HENRI.machine, HENRI.profile
        arbiter = Arbiter(build_resources(machine, profile), profile)
        base = _reuse_scenario(machine)
        # Shuffled tenant orders: same cached streams in another order.
        scenarios = [base, TenantScenario(base.tenants[::-1]), base]
        for scenario in scenarios:
            shared = solve_tenant_scenario(
                machine, profile, scenario, arbiter=arbiter
            )
            fresh = solve_tenant_scenario(machine, profile, scenario)
            for got, want in zip(shared.phases, fresh.phases):
                for name in ("rates", "llc_factors", "resource_usage",
                             "effective_capacity"):
                    assert list(getattr(got.allocation, name).items()) == list(
                        getattr(want.allocation, name).items()
                    ), name
            assert list(shared.per_tenant.items()) == list(
                fresh.per_tenant.items()
            )

    def test_threads_sharing_an_arbiter_get_matching_factors(self):
        """The last factors are kept as one (key, factors) pair, so a
        thread never reads one solve's key with another's factors."""
        machine, profile = HENRI.machine, HENRI.profile
        llc = max(machine.sockets[0].caches, key=lambda c: c.level)
        share = llc.size_bytes // machine.cores_per_socket
        stream_sets = [
            build_tenant_streams(
                machine,
                profile,
                TenantScenario(
                    (
                        Tenant(
                            name=f"w{k}", n_cores=2 + k, m_comp=k % 2,
                            working_set_bytes=(k + 1) * share,
                        ),
                        Tenant(name="net", m_comm=0),
                    )
                ),
            )
            for k in range(4)
        ]
        resources = build_resources(machine, profile)
        want = [
            list(Arbiter(resources, profile).solve(s).llc_factors.items())
            for s in stream_sets
        ]
        shared = Arbiter(resources, profile)
        wrong = []

        def work(k):
            for j in range(60):
                which = (k + j // 3) % len(stream_sets)
                got = shared.solve(stream_sets[which]).llc_factors
                if list(got.items()) != want[which]:
                    wrong.append((k, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
