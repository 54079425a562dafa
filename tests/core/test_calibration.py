"""Calibration: parameter extraction from curves (§IV-A2)."""

import numpy as np
import pytest

from repro.bench import ModeCurves
from repro.bench.runner import measure_curves
from repro.bench.sweep import run_sample_sweeps
from repro.core import ModelParameters, ScalarOracle, calibrate
from repro.core.calibration import calibrate_placement_model
from repro.core.evaluation import sweep_curves
from repro.errors import CalibrationError


def synthetic_curves(params: ModelParameters, max_cores: int = 18) -> ModeCurves:
    """Generate exact curves *from* a model instance."""
    ns = np.arange(1, max_cores + 1)
    curves = sweep_curves(params, ns)
    return ModeCurves(
        core_counts=ns,
        comp_alone=curves["comp_alone"],
        comm_alone=np.full(ns.shape, params.b_comm_seq),
        comp_parallel=curves["comp_par"],
        comm_parallel=curves["comm_par"],
    )


# Internally consistent reference: t_seq_max is actually attained at
# n_seq_max (Eq. 8 caps comp_alone by T(n), so t_seq_max <= t_par_max2).
REFERENCE = ModelParameters(
    n_par_max=8,
    t_par_max=60.0,
    n_seq_max=12,
    t_seq_max=58.0,
    t_par_max2=58.0,
    delta_l=0.5,
    delta_r=0.5,
    b_comp_seq=5.0,
    b_comm_seq=10.0,
    alpha=0.4,
)


class TestRoundTrip:
    """Curves generated from a model re-calibrate to the same parameters."""

    def test_recovers_bandwidth_parameters(self):
        fitted = calibrate(synthetic_curves(REFERENCE))
        assert fitted.b_comp_seq == pytest.approx(REFERENCE.b_comp_seq)
        assert fitted.b_comm_seq == pytest.approx(REFERENCE.b_comm_seq)
        assert fitted.alpha == pytest.approx(REFERENCE.alpha)
        assert fitted.t_seq_max == pytest.approx(REFERENCE.t_seq_max)

    def test_recovers_structure(self):
        """Structural parameters are recovered from the *observable*
        curves.  ``t_par_max`` is only identifiable up to the stacked
        curve's actual maximum (the model's capacity ceiling is not
        observable where demand never fills it), so the assertion
        targets the observable quantity."""
        curves = synthetic_curves(REFERENCE)
        fitted = calibrate(curves)
        assert fitted.n_seq_max == REFERENCE.n_seq_max
        assert fitted.t_par_max == pytest.approx(curves.total_parallel().max())
        assert fitted.t_par_max2 == pytest.approx(
            float(curves.total_parallel()[REFERENCE.n_seq_max - 1])
        )
        assert fitted.delta_r == pytest.approx(REFERENCE.delta_r)

    def test_functional_roundtrip(self):
        """The refit model reproduces the observable curves themselves."""
        curves = synthetic_curves(REFERENCE)
        refit = ScalarOracle(calibrate(curves))
        for i, n in enumerate(curves.core_counts):
            n = int(n)
            assert refit.comm_parallel(n) == pytest.approx(
                float(curves.comm_parallel[i]), abs=0.3
            )
            assert refit.comp_parallel(n) == pytest.approx(
                float(curves.comp_parallel[i]), abs=0.6
            )
            assert refit.comp_alone(n) == pytest.approx(
                float(curves.comp_alone[i]), abs=0.6
            )

    def test_recovered_model_predicts_identically_past_peak(self):
        fitted = calibrate(synthetic_curves(REFERENCE))
        original = ScalarOracle(REFERENCE)
        refit = ScalarOracle(fitted)
        for n in range(REFERENCE.n_seq_max, 19):
            assert refit.comm_parallel(n) == pytest.approx(
                original.comm_parallel(n), rel=1e-6
            )
            assert refit.total_bandwidth(n) == pytest.approx(
                original.total_bandwidth(n), rel=1e-6
            )


class TestRobustness:
    def test_too_few_points_rejected(self):
        curves = synthetic_curves(REFERENCE)
        tiny = ModeCurves(
            core_counts=curves.core_counts[:2],
            comp_alone=curves.comp_alone[:2],
            comm_alone=curves.comm_alone[:2],
            comp_parallel=curves.comp_parallel[:2],
            comm_parallel=curves.comm_parallel[:2],
        )
        with pytest.raises(CalibrationError, match="at least 3"):
            calibrate(tiny)

    def test_noise_inversion_of_maxima_handled(self):
        """If noise puts the parallel peak after the alone peak, the
        calibrator reconciles instead of emitting invalid parameters."""
        curves = synthetic_curves(REFERENCE)
        comp_alone = curves.comp_alone.copy()
        comp_alone[5] = comp_alone.max() + 5.0  # alone peak at n=6
        shifted = ModeCurves(
            core_counts=curves.core_counts,
            comp_alone=comp_alone,
            comm_alone=curves.comm_alone,
            comp_parallel=curves.comp_parallel,
            comm_parallel=curves.comm_parallel,
        )
        fitted = calibrate(shifted)  # must not raise
        assert fitted.n_par_max <= fitted.n_seq_max

    def test_alpha_clipped_to_one(self):
        curves = synthetic_curves(REFERENCE)
        inflated = ModeCurves(
            core_counts=curves.core_counts,
            comp_alone=curves.comp_alone,
            comm_alone=curves.comm_alone * 0.5,  # comm_par / comm_alone > 1
            comp_parallel=curves.comp_parallel,
            comm_parallel=curves.comm_parallel,
        )
        assert calibrate(inflated).alpha <= 1.0

    def test_no_contention_curve(self, diablo):
        """diablo-style: contention barely occurs; calibration still works."""
        curves = measure_curves(
            diablo.machine,
            diablo.profile,
            m_comp=0,
            m_comm=0,
            config=None,
        )
        fitted = calibrate(curves)
        assert fitted.alpha > 0.8  # nearly unimpacted communications


class TestPlacementCalibration:
    def test_needs_sample_placements(self, henri, noiseless_config):
        dataset = run_sample_sweeps(henri, config=noiseless_config)
        model = calibrate_placement_model(dataset, henri)
        assert model.local.b_comp_seq > model.remote.b_comp_seq

    def test_missing_sample_raises(self, henri, noiseless_config):
        from repro.bench.results import PlacementSweep, PlatformDataset

        dataset = run_sample_sweeps(henri, config=noiseless_config)
        only_local = PlatformDataset(
            platform_name=dataset.platform_name,
            sweep=PlacementSweep(curves={(0, 0): dataset.sweep[(0, 0)]}),
        )
        with pytest.raises(CalibrationError, match="sample"):
            calibrate_placement_model(only_local, henri)
