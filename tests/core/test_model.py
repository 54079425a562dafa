"""ScalarOracle: equations 1–5 and 8, evaluated literally."""

import numpy as np
import pytest

from repro.core import ModelParameters, ScalarOracle
from repro.errors import ModelError


def params(**overrides):
    base = dict(
        n_par_max=8,
        t_par_max=60.0,
        n_seq_max=12,
        t_seq_max=58.0,
        t_par_max2=56.0,
        delta_l=1.0,
        delta_r=0.5,
        b_comp_seq=5.0,
        b_comm_seq=10.0,
        alpha=0.4,
    )
    base.update(overrides)
    return ModelParameters(**base)


@pytest.fixture
def model():
    return ScalarOracle(params())


class TestEquation1:
    def test_flat_region(self, model):
        for n in (0, 1, 4, 8):
            assert model.total_bandwidth(n) == 60.0

    def test_delta_l_region(self, model):
        assert model.total_bandwidth(9) == pytest.approx(59.0)
        assert model.total_bandwidth(12) == pytest.approx(56.0)

    def test_delta_r_region(self, model):
        assert model.total_bandwidth(13) == pytest.approx(56.0 - 0.5)
        assert model.total_bandwidth(20) == pytest.approx(56.0 - 0.5 * 8)

    def test_continuity_at_n_seq_max(self, model):
        """T_par_max2 is defined to be T at N_seq_max: both branches agree."""
        left = 60.0 - 1.0 * (12 - 8)
        assert model.total_bandwidth(12) == pytest.approx(left)

    def test_negative_n_rejected(self, model):
        with pytest.raises(ModelError):
            model.total_bandwidth(-1)

    def test_non_integer_rejected(self, model):
        with pytest.raises(ModelError):
            model.total_bandwidth(2.5)


class TestEquation2:
    def test_requested(self, model):
        assert model.requested_bandwidth(3) == pytest.approx(3 * 5.0 + 0.4 * 10.0)

    def test_saturation_boundary(self, model):
        # R(n) = 5n + 4; T = 60 for n <= 8: saturated from n = 12? No:
        # R(11) = 59 >= T(11) = 57 -> saturated; R(10) = 54 < T(10) = 58.
        assert not model.saturated(10)
        assert model.saturated(11)


class TestEquations3and4:
    def test_unsaturated_split(self, model):
        # n=4: comp gets its demand, comm fills to nominal.
        assert model.comp_parallel(4) == pytest.approx(20.0)
        assert model.comm_parallel(4) == pytest.approx(10.0)

    def test_unsaturated_comm_clipped_by_leftover(self, model):
        # n=10: T=58, comp demand 50, leftover 8 < Bcomm 10.
        assert model.comp_parallel(10) == pytest.approx(50.0)
        assert model.comm_parallel(10) == pytest.approx(8.0)

    def test_saturated_comm_at_interpolated_alpha(self, model):
        # n=11 saturated; i = 10 (last with R < T).
        # ratio_10 = comm(10)/Bcomm = 0.8; interpolate to alpha at n=12.
        expected_ratio = 0.8 - (0.8 - 0.4) / (12 - 10) * (11 - 10)
        assert model.comm_parallel(11) == pytest.approx(expected_ratio * 10.0)

    def test_saturated_comp_gets_rest(self, model):
        n = 11
        assert model.comp_parallel(n) == pytest.approx(
            model.total_bandwidth(n) - model.comm_parallel(n)
        )

    def test_beyond_n_seq_comm_at_alpha(self, model):
        for n in (12, 15, 20):
            assert model.comm_parallel(n) == pytest.approx(0.4 * 10.0)

    def test_zero_cores(self, model):
        assert model.comp_parallel(0) == 0.0
        assert model.comm_parallel(0) == 10.0

    def test_split_sums_to_total_when_saturated(self, model):
        for n in (11, 12, 14, 18):
            assert model.comp_parallel(n) + model.comm_parallel(n) == pytest.approx(
                model.total_bandwidth(n)
            )


class TestEquation5:
    def test_alpha_factor_is_alpha_at_and_past_n_seq(self, model):
        assert model.alpha_factor(12) == 0.4
        assert model.alpha_factor(15) == 0.4

    def test_alpha_factor_interpolates(self, model):
        assert 0.4 < model.alpha_factor(11) < 1.0

    def test_narrow_gap_skips_interpolation(self):
        # n_seq - n_par = 1: the paper's condition fails -> plain alpha.
        m = ScalarOracle(params(n_par_max=11, t_par_max2=59.0))
        assert m.alpha_factor(11) == 0.4

    def test_always_saturated_falls_back_to_alpha(self):
        # Tiny bus: R(n) >= T(n) from n = 1.
        m = ScalarOracle(
            params(
                t_par_max=8.0,
                t_seq_max=7.0,
                t_par_max2=7.0,
                delta_l=0.25,
                delta_r=0.1,
            )
        )
        assert m.saturated(1)
        # i = 0 -> ratio 1.0 at 0 cores, interpolated toward alpha.
        assert 0.4 <= m.alpha_factor(9) <= 1.0


class TestEquation8:
    def test_perfect_scaling_region(self, model):
        assert model.comp_alone(3) == pytest.approx(15.0)

    def test_capped_by_t_seq_max(self, model):
        assert model.comp_alone(12) == pytest.approx(56.0)  # min(60, T(12)=56, 58)

    def test_capped_by_total_curve(self, model):
        assert model.comp_alone(14) == pytest.approx(model.total_bandwidth(14))

    def test_zero_cores(self, model):
        assert model.comp_alone(0) == 0.0

    def test_comm_alone_is_parameter(self, model):
        assert model.comm_alone() == 10.0


class TestSweep:
    def test_sweep_shapes(self, model):
        curves = model.sweep(np.arange(1, 16))
        assert set(curves) == {"total", "comp_par", "comm_par", "comp_alone"}
        assert all(len(v) == 15 for v in curves.values())

    def test_sweep_matches_pointwise(self, model):
        curves = model.sweep([5, 11])
        assert curves["comm_par"][0] == model.comm_parallel(5)
        assert curves["comp_par"][1] == model.comp_parallel(11)

    def test_empty_sweep_rejected(self, model):
        with pytest.raises(ModelError):
            model.sweep([])
