"""Integration: the full pipeline, persistence, and cross-validation."""

import numpy as np
import pytest

from repro.bench import PlatformDataset, SweepConfig
from repro.bench.runner import measure_curves
from repro.core import calibrate_placement_model
from repro.evaluation import placement_errors
from repro.evaluation.report import generate_experiments_report
from repro.bench.sweep import sample_placements
from repro.units import MB, MiB
from tests.memsim.engine import measure_curves_engine


class TestPersistenceRoundTrip:
    def test_calibrate_from_archived_csv(self, henri_experiment, tmp_path):
        """Archive the dataset, reload it, recalibrate: same model."""
        path = tmp_path / "henri.csv"
        path.write_text(henri_experiment.dataset.to_csv())
        restored = PlatformDataset.from_csv(path.read_text())
        model = calibrate_placement_model(restored, henri_experiment.platform)
        assert model.local.summary() == henri_experiment.model.local.summary()

    def test_errors_recomputable_from_archive(self, henri_experiment, tmp_path):
        path = tmp_path / "henri.csv"
        path.write_text(henri_experiment.dataset.to_csv())
        restored = PlatformDataset.from_csv(path.read_text())
        model = calibrate_placement_model(restored, henri_experiment.platform)
        errors = placement_errors(
            restored, model, sample_placements(henri_experiment.platform)
        )
        assert errors.average == pytest.approx(
            henri_experiment.errors.average, abs=1e-6
        )

    def test_report_writes_and_mentions_errors(self, all_experiments, tmp_path):
        report = generate_experiments_report(all_experiments)
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text(report)
        text = target.read_text()
        for name in all_experiments:
            assert name in text


class TestEngineCrossValidation:
    """The two measurement methodologies agree: the event-driven engine
    (duration-derived, the paper's method) matches the steady-state
    arbiter within edge-effect tolerance, on multiple platforms."""

    @pytest.mark.parametrize(
        "name,placement",
        [
            ("henri", (0, 0)),
            ("henri", (1, 0)),
            ("occigen", (1, 1)),
            ("diablo", (0, 0)),
        ],
    )
    def test_engine_vs_steady(self, request, name, placement):
        platform = request.getfixturevalue(name)
        ns = [2, platform.cores_per_socket // 2, platform.cores_per_socket]
        steady = measure_curves(
            platform.machine,
            platform.profile,
            m_comp=placement[0],
            m_comm=placement[1],
            config=SweepConfig(noiseless=True),
            core_counts=ns,
        )
        engine = measure_curves_engine(
            platform.machine,
            platform.profile,
            m_comp=placement[0],
            m_comm=placement[1],
            core_counts=ns,
            bytes_per_core=128 * MiB,
            message_bytes=16 * MB,
        )
        assert np.allclose(engine.comp_alone, steady.comp_alone, rtol=0.03)
        assert np.allclose(engine.comm_alone, steady.comm_alone, rtol=0.03)
        assert np.allclose(engine.comp_parallel, steady.comp_parallel, rtol=0.10)
        assert np.allclose(engine.comm_parallel, steady.comm_parallel, rtol=0.20)


class TestCustomMachinePipeline:
    """The library is not hardwired to the six testbed platforms."""

    def test_user_defined_platform_end_to_end(self):
        from repro.memsim import ContentionProfile
        from repro.topology import MachineBuilder, validate_machine
        from repro.topology.platforms import Platform
        from repro.bench.sweep import run_placement_grid
        from repro.units import GiB

        machine = validate_machine(
            MachineBuilder("custom")
            .processor("Custom CPU", cores_per_socket=10, sockets=2)
            .numa(nodes_per_socket=1, memory_bytes=32 * GiB, controller_gbps=60.0)
            .interconnect(gbps=30.0)
            .network("custom-nic", line_rate_gbps=10.0, pcie_gbps=11.0)
            .build()
        )
        profile = ContentionProfile(
            core_stream_local_gbps=5.5,
            core_stream_remote_gbps=2.2,
        )
        platform = Platform(machine=machine, profile=profile)
        dataset = run_placement_grid(platform, config=SweepConfig(seed=2))
        model = calibrate_placement_model(dataset, platform)
        errors = placement_errors(dataset, model, sample_placements(platform))
        assert errors.average < 8.0
        assert model.local.b_comp_seq == pytest.approx(5.5, rel=0.02)
