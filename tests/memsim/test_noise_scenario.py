"""Noise model and scenario construction tests."""

import math

import pytest

from repro.errors import SimulationError
from repro.memsim import NoiseModel, Scenario
from repro.memsim.scenario import build_streams, solve_scenario


class TestNoise:
    def test_deterministic_per_key(self):
        noise = NoiseModel(seed=7)
        assert noise.factor(0.05, "a", 1) == noise.factor(0.05, "a", 1)

    def test_different_keys_decorrelate(self):
        noise = NoiseModel(seed=7)
        assert noise.factor(0.05, "a", 1) != noise.factor(0.05, "a", 2)

    def test_different_seeds_differ(self):
        assert NoiseModel(1).factor(0.05, "k") != NoiseModel(2).factor(0.05, "k")

    def test_zero_sigma_exact(self):
        assert NoiseModel(0).factor(0.0, "k") == 1.0
        assert NoiseModel(0).perturb(42.0, 0.0, "k") == 42.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(SimulationError):
            NoiseModel(0).factor(-0.1, "k")

    def test_negative_value_rejected(self):
        with pytest.raises(SimulationError):
            NoiseModel(0).perturb(-1.0, 0.1, "k")

    def test_factor_is_lognormal_unit_mean(self):
        noise = NoiseModel(seed=3)
        sigma = 0.05
        samples = [noise.factor(sigma, "k", i) for i in range(4000)]
        mean = sum(samples) / len(samples)
        assert math.isclose(mean, 1.0, rel_tol=0.01)

    def test_small_sigma_small_perturbation(self):
        noise = NoiseModel(seed=9)
        for i in range(100):
            assert abs(noise.factor(0.01, i) - 1.0) < 0.06


class TestScenario:
    def test_negative_cores_rejected(self):
        with pytest.raises(SimulationError):
            Scenario(-1, 0, 0)

    def test_computing_needs_node(self):
        with pytest.raises(SimulationError, match="m_comp"):
            Scenario(2, None, 0)

    def test_flags(self):
        assert Scenario(2, 0, None).computing
        assert not Scenario(2, 0, None).communicating
        assert Scenario(0, None, 1).communicating

    def test_build_streams_counts(self, henri):
        streams = build_streams(henri.machine, henri.profile, Scenario(3, 0, 1))
        assert len(streams) == 4
        assert sum(s.is_dma for s in streams) == 1

    def test_too_many_cores_rejected(self, henri):
        with pytest.raises(SimulationError, match="only"):
            build_streams(henri.machine, henri.profile, Scenario(19, 0, None))

    def test_remote_demand_lower(self, henri):
        local = build_streams(henri.machine, henri.profile, Scenario(1, 0, None))
        remote = build_streams(henri.machine, henri.profile, Scenario(1, 1, None))
        assert remote[0].demand_gbps < local[0].demand_gbps
        # Issue pressure stays at the local rate regardless of target.
        assert remote[0].issue_gbps == local[0].demand_gbps

    def test_nic_floor_set_from_profile(self, henri):
        streams = build_streams(henri.machine, henri.profile, Scenario(0, None, 0))
        (nic,) = streams
        assert nic.min_guarantee_gbps == pytest.approx(
            henri.profile.nic_min_fraction * nic.demand_gbps
        )

    def test_pyxis_cross_penalty_applied(self, pyxis):
        same = build_streams(pyxis.machine, pyxis.profile, Scenario(4, 0, 0))
        cross = build_streams(pyxis.machine, pyxis.profile, Scenario(4, 1, 0))
        nic_same = next(s for s in same if s.is_dma)
        nic_cross = next(s for s in cross if s.is_dma)
        assert nic_cross.demand_gbps == pytest.approx(
            nic_same.demand_gbps * (1.0 - pyxis.profile.nic_cross_penalty)
        )

    def test_cross_penalty_not_applied_without_computation(self, pyxis):
        silent = build_streams(pyxis.machine, pyxis.profile, Scenario(0, None, 0))
        (nic,) = silent
        assert nic.demand_gbps == pytest.approx(
            pyxis.profile.nic_nominal_gbps(0, pyxis.machine.nic.line_rate_gbps)
        )

    def test_solve_scenario_total(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(2, 0, 0))
        assert result.total_gbps == pytest.approx(
            result.comp_total_gbps + result.comm_gbps
        )
        assert len(result.comp_per_core_gbps) == 2

    @pytest.mark.parametrize("m_comm", [0, None], ids=["comm-only", "idle"])
    def test_comp_total_is_a_float_when_no_core_computes(self, henri, m_comm):
        result = solve_scenario(
            henri.machine, henri.profile, Scenario(0, None, m_comm)
        )
        assert type(result.comp_total_gbps) is float
        assert result.comp_total_gbps == 0.0
