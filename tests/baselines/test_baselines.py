"""Baseline sides and their calibration."""

import numpy as np
import pytest

from repro.backends.baseline import (
    BaselineInputs,
    LangguthSide,
    NaiveSide,
    QueueingSide,
)
from repro.bench.runner import measure_curves
from repro.errors import ModelError
from repro.evaluation import mape


@pytest.fixture(scope="module")
def inputs():
    return BaselineInputs(
        bus_capacity_gbps=60.0,
        b_comp_seq=5.0,
        b_comm_seq=10.0,
        t_seq_max=55.0,
    )


class At:
    """One baseline side's three curves at single core counts."""

    def __init__(self, side_cls, inputs: BaselineInputs) -> None:
        self._side = side_cls(**inputs.to_dict())

    def _curve(self, name: str, n: int) -> float:
        return float(self._side.curves(np.array([n]))[name][0])

    def comp_parallel(self, n: int) -> float:
        return self._curve("comp_par", n)

    def comm_parallel(self, n: int) -> float:
        return self._curve("comm_par", n)

    def comp_alone(self, n: int) -> float:
        return self._curve("comp_alone", n)


class TestInputs:
    def test_positive_required(self):
        with pytest.raises(ModelError):
            BaselineInputs(
                bus_capacity_gbps=0.0, b_comp_seq=5.0, b_comm_seq=10.0, t_seq_max=55.0
            )

    def test_calibrate_from_curves(self, henri, noiseless_config):
        curves = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0, config=noiseless_config
        )
        inputs = BaselineInputs.fit(curves)
        assert inputs.b_comp_seq == pytest.approx(6.8)
        assert inputs.b_comm_seq == pytest.approx(12.3)
        assert inputs.bus_capacity_gbps > inputs.t_seq_max > 0


class TestNaive:
    def test_never_predicts_contention(self, inputs):
        model = At(NaiveSide, inputs)
        assert model.comm_parallel(50) == 10.0
        assert model.comp_parallel(8) == model.comp_alone(8)

    def test_comp_alone_capped(self, inputs):
        assert At(NaiveSide, inputs).comp_alone(20) == 55.0


class TestQueueing:
    def test_no_contention_below_capacity(self, inputs):
        model = At(QueueingSide, inputs)
        assert model.comp_parallel(4) == 20.0
        assert model.comm_parallel(4) == 10.0

    def test_proportional_sharing_when_saturated(self, inputs):
        model = At(QueueingSide, inputs)
        # demand: comp 50, comm 10, total 60 == capacity -> boundary.
        # n=12: comp demand capped at t_seq 55, comm 10, total 65 > 60.
        comp, comm = model.comp_parallel(12), model.comm_parallel(12)
        assert comp + comm == pytest.approx(60.0)
        assert comp / comm == pytest.approx(55.0 / 10.0)

    def test_no_minimum_guarantee(self, inputs):
        """Unlike the paper's model, comm can fall below any alpha floor."""
        squeezed = BaselineInputs(
            bus_capacity_gbps=20.0, b_comp_seq=5.0, b_comm_seq=10.0, t_seq_max=100.0
        )
        model = At(QueueingSide, squeezed)
        assert model.comm_parallel(20) == pytest.approx(20.0 * 10.0 / 110.0)


class TestLangguth:
    def test_thread_fair_split(self, inputs):
        model = At(LangguthSide, inputs)
        # 11 compute threads + 1 comm thread over 60: fair slice 5 each;
        # comm wants 10, gets 5 -> comp gets 55.
        assert model.comm_parallel(11) == pytest.approx(5.0)
        assert model.comp_parallel(11) == pytest.approx(55.0)

    def test_unsaturated_full_demand(self, inputs):
        model = At(LangguthSide, inputs)
        assert model.comm_parallel(2) == 10.0
        assert model.comp_parallel(2) == 10.0


class TestPaperModelBeatsBaselines:
    """The ablation claim: the paper's model predicts communications
    better than every baseline on a contended platform."""

    @pytest.mark.parametrize("side_cls", [NaiveSide, QueueingSide, LangguthSide])
    def test_comm_error_ordering(self, henri_experiment, side_cls):
        curves = henri_experiment.dataset.sweep[(0, 0)]
        baseline = side_cls.fit(curves)
        swept = baseline.curves(curves.core_counts)
        baseline_err = mape(curves.comm_parallel, swept["comm_par"])
        paper_pred = henri_experiment.predictions[(0, 0)]
        paper_err = mape(curves.comm_parallel, paper_pred.comm_parallel)
        assert paper_err < baseline_err


class TestDegenerateCalibration:
    """A degenerate curve must be reported naming the platform and
    placement it came from, not as a bare BaselineInputs complaint."""

    @staticmethod
    def _curves(comm_alone_gbps: float) -> "ModeCurves":
        import numpy as np

        from repro.bench.results import ModeCurves

        ns = np.array([1, 2, 4])
        return ModeCurves(
            core_counts=ns,
            comp_alone=ns * 6.0,
            comm_alone=np.full(3, comm_alone_gbps),
            comp_parallel=ns * 5.0,
            comm_parallel=np.full(3, 8.0),
        )

    def test_error_names_platform_placement_and_parameter(self):
        with pytest.raises(ModelError) as err:
            BaselineInputs.fit(
                self._curves(0.0), platform="henri", placement=(0, 1)
            )
        message = str(err.value)
        assert "'henri'" in message
        assert "(0, 1)" in message
        assert "b_comm_seq" in message
        # The offending sweep is described well enough to find it.
        assert "[1, 2, 4]" in message

    def test_error_without_provenance_still_diagnoses(self):
        with pytest.raises(ModelError, match="platform \\?"):
            BaselineInputs.fit(self._curves(0.0))

    def test_healthy_curves_still_calibrate(self):
        inputs = BaselineInputs.fit(
            self._curves(9.0), platform="henri", placement=(0, 1)
        )
        assert inputs.b_comm_seq == pytest.approx(9.0)
