"""Benchmark runner: steady-state measurement, held to the engine reference."""

import numpy as np
import pytest

import tests.memsim.engine as engine_module
from repro.bench import SweepConfig, measure_curves
from repro.bench.runner import default_core_counts
from repro.errors import BenchmarkError
from repro.units import MB, MiB
from tests.memsim.engine import measure_curves_engine


class TestConfig:
    def test_defaults_match_paper(self):
        config = SweepConfig()
        assert config.repetitions == 1

    def test_invalid_values(self):
        with pytest.raises(BenchmarkError):
            SweepConfig(repetitions=0)


class TestSteadyState:
    def test_default_core_counts(self, henri):
        assert np.array_equal(default_core_counts(henri.machine), np.arange(1, 19))

    def test_curve_shapes(self, henri, noiseless_config):
        curves = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0, config=noiseless_config
        )
        assert curves.n_points == 18
        # Perfect scaling at the start.
        assert curves.comp_alone[0] == pytest.approx(6.8)
        assert curves.comp_alone[3] == pytest.approx(4 * 6.8)
        # Communication starts at nominal, ends at the floor.
        assert curves.comm_parallel[0] == pytest.approx(12.3)
        assert curves.comm_parallel[-1] == pytest.approx(
            henri.profile.nic_min_fraction * 12.3, rel=0.02
        )

    def test_subset_core_counts(self, henri, noiseless_config):
        curves = measure_curves(
            henri.machine,
            henri.profile,
            m_comp=0,
            m_comm=0,
            config=noiseless_config,
            core_counts=[2, 6, 10],
        )
        assert list(curves.core_counts) == [2, 6, 10]

    def test_empty_core_counts_rejected(self, henri, noiseless_config):
        with pytest.raises(BenchmarkError, match="non-empty"):
            measure_curves(
                henri.machine,
                henri.profile,
                m_comp=0,
                m_comm=0,
                config=noiseless_config,
                core_counts=[],
            )

    def test_fractional_core_counts_rejected(self, henri, noiseless_config):
        # Regression: these used to be silently truncated (2.7 -> 2).
        with pytest.raises(BenchmarkError, match="integral"):
            measure_curves(
                henri.machine,
                henri.profile,
                m_comp=0,
                m_comm=0,
                config=noiseless_config,
                core_counts=[1, 2.7],
            )

    def test_noise_is_seeded(self, henri):
        a = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=SweepConfig(seed=3), core_counts=[4, 8],
        )
        b = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=SweepConfig(seed=3), core_counts=[4, 8],
        )
        c = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=SweepConfig(seed=4), core_counts=[4, 8],
        )
        assert np.array_equal(a.comp_parallel, b.comp_parallel)
        assert not np.array_equal(a.comp_parallel, c.comp_parallel)

    def test_noise_small_relative_to_signal(self, henri, noiseless_config):
        noisy = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=SweepConfig(seed=5), core_counts=[8],
        )
        clean = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=noiseless_config, core_counts=[8],
        )
        assert noisy.comp_parallel[0] == pytest.approx(
            clean.comp_parallel[0], rel=0.05
        )

    def test_repetitions_median_tightens_noise(self, pyxis):
        single = measure_curves(
            pyxis.machine, pyxis.profile, m_comp=0, m_comm=0,
            config=SweepConfig(seed=6, repetitions=1), core_counts=[16],
        )
        many = measure_curves(
            pyxis.machine, pyxis.profile, m_comp=0, m_comm=0,
            config=SweepConfig(seed=6, repetitions=9), core_counts=[16],
        )
        clean = measure_curves(
            pyxis.machine, pyxis.profile, m_comp=0, m_comm=0,
            config=SweepConfig(noiseless=True), core_counts=[16],
        )
        err_single = abs(single.comm_parallel[0] - clean.comm_parallel[0])
        err_many = abs(many.comm_parallel[0] - clean.comm_parallel[0])
        # The median of several noisy runs is (statistically) closer;
        # with fixed seeds this is deterministic.
        assert err_many <= err_single + 0.05


class TestEngineRunner:
    """The duration-derived measurement agrees with the steady state."""

    def test_engine_matches_steady_state(self, henri, noiseless_config):
        ns = [1, 8, 13, 18]
        steady = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=noiseless_config, core_counts=ns,
        )
        # Small working set keeps the test fast; messages still repeat.
        engine = measure_curves_engine(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            core_counts=ns, bytes_per_core=192 * MiB, message_bytes=16 * MB,
        )
        assert np.allclose(engine.comp_alone, steady.comp_alone, rtol=0.02)
        assert np.allclose(engine.comm_alone, steady.comm_alone, rtol=0.02)
        # Parallel curves include realistic edge effects (the last
        # message outliving the computation): looser tolerance.
        assert np.allclose(engine.comp_parallel, steady.comp_parallel, rtol=0.08)
        assert np.allclose(engine.comm_parallel, steady.comm_parallel, rtol=0.15)

    def test_engine_runner_cross_placement(self, henri):
        curves = measure_curves_engine(
            henri.machine, henri.profile, m_comp=0, m_comm=1,
            core_counts=[4, 12], bytes_per_core=96 * MiB, message_bytes=16 * MB,
        )
        # Computations on node 0, messages to node 1: no comp impact.
        assert curves.comp_parallel[0] == pytest.approx(
            curves.comp_alone[0], rel=0.02
        )

    def test_idle_engine_raises_instead_of_spinning(self, henri, monkeypatch):
        """Regression: the message loop used a break condition that was
        always false, so an engine going idle with unfinished computation
        flows spun forever.  It must raise instead."""

        class _StuckFlow:
            def __init__(self, stream):
                self.stream = stream
                self.done = False
                self.finished_at = None

        class _IdleEngine:
            def __init__(self, machine, profile, **kwargs):
                self.active_count = 0

            def submit(self, stream, total_bytes):
                return _StuckFlow(stream)

            def step(self):
                return ()

        monkeypatch.setattr(engine_module, "Engine", _IdleEngine)
        with pytest.raises(BenchmarkError, match="idle"):
            engine_module._engine_parallel(
                henri.machine, henri.profile, 4, 0, 0, 512 * MiB, 64 * MB
            )
