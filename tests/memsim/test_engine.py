"""The reference fluid engine's own behaviour."""

import pytest

from repro.errors import SimulationError
from repro.memsim import Scenario
from repro.memsim.scenario import build_streams
from repro.units import GB, MB
from tests.memsim.engine import Engine


def cpu_streams(platform, n, node=0):
    return [
        s
        for s in build_streams(platform.machine, platform.profile, Scenario(n, node, None))
    ]


def nic_stream(platform, node=0):
    (s,) = build_streams(platform.machine, platform.profile, Scenario(0, None, node))
    return s


class TestSingleFlow:
    def test_transfer_time_matches_rate(self, henri):
        engine = Engine(henri.machine, henri.profile)
        (stream,) = cpu_streams(henri, 1)
        flow = engine.submit(stream, 1 * GB)
        engine.run()
        assert flow.done
        # 1 GB at 6.8 GB/s.
        assert flow.finished_at == pytest.approx(1.0 / 6.8, rel=1e-6)
        assert flow.observed_gbps() == pytest.approx(6.8, rel=1e-6)

    def test_zero_bytes_rejected(self, henri):
        engine = Engine(henri.machine, henri.profile)
        (stream,) = cpu_streams(henri, 1)
        with pytest.raises(SimulationError, match="positive"):
            engine.submit(stream, 0)

    def test_duplicate_inflight_id_rejected(self, henri):
        engine = Engine(henri.machine, henri.profile)
        (stream,) = cpu_streams(henri, 1)
        engine.submit(stream, MB)
        with pytest.raises(SimulationError, match="already in flight"):
            engine.submit(stream, MB)

    def test_past_scheduling_rejected(self, henri):
        engine = Engine(henri.machine, henri.profile)
        (stream,) = cpu_streams(henri, 1)
        engine.submit(stream, MB)
        engine.run()
        with pytest.raises(SimulationError, match="past"):
            engine.submit(stream, MB, at=-1.0)

    def test_unfinished_flow_refuses_bandwidth(self, henri):
        engine = Engine(henri.machine, henri.profile)
        (stream,) = cpu_streams(henri, 1)
        flow = engine.submit(stream, GB)
        with pytest.raises(SimulationError, match="not finished"):
            flow.observed_gbps()


class TestConcurrentFlows:
    def test_equal_flows_finish_together(self, henri):
        engine = Engine(henri.machine, henri.profile)
        flows = [engine.submit(s, 100 * MB) for s in cpu_streams(henri, 4)]
        engine.run()
        ends = {round(f.finished_at, 12) for f in flows}
        assert len(ends) == 1

    def test_contended_flows_slower_than_alone(self, henri):
        engine = Engine(henri.machine, henri.profile)
        flows = [engine.submit(s, 100 * MB) for s in cpu_streams(henri, 18)]
        engine.run()
        per_core = flows[0].observed_gbps()
        assert per_core < henri.profile.core_stream_local_gbps

    def test_staggered_start(self, henri):
        engine = Engine(henri.machine, henri.profile)
        streams = cpu_streams(henri, 2)
        first = engine.submit(streams[0], 100 * MB)
        second = engine.submit(streams[1], 100 * MB, at=0.005)
        engine.run()
        assert first.started_at == 0.0
        assert second.started_at == pytest.approx(0.005)
        assert first.finished_at < second.finished_at

    def test_run_until_freezes_time(self, henri):
        engine = Engine(henri.machine, henri.profile)
        (stream,) = cpu_streams(henri, 1)
        flow = engine.submit(stream, GB)
        t = engine.run(until=0.01)
        assert t == pytest.approx(0.01)
        assert not flow.done
        engine.run()
        assert flow.done

    def test_step_returns_completions(self, henri):
        engine = Engine(henri.machine, henri.profile)
        streams = cpu_streams(henri, 2)
        engine.submit(streams[0], 10 * MB)
        engine.submit(streams[1], 20 * MB)
        completed = engine.step()
        assert [f.stream.stream_id for f in completed] == ["job/core0"]
        completed = engine.step()
        assert [f.stream.stream_id for f in completed] == ["job/core1"]
        assert engine.step() == ()


class TestOverlap:
    def test_message_slowed_by_computation(self, henri):
        # Communication alone.
        engine = Engine(henri.machine, henri.profile)
        flow = engine.submit(nic_stream(henri), 64 * MB)
        engine.run()
        alone_gbps = flow.observed_gbps()

        # Communication against 18 computing cores on the same node.
        engine = Engine(henri.machine, henri.profile)
        for s in cpu_streams(henri, 18):
            engine.submit(s, GB)
        msg = engine.submit(nic_stream(henri), 64 * MB)
        engine.run()
        assert msg.observed_gbps() < 0.6 * alone_gbps

    def test_computation_recovers_after_message(self, henri):
        """Fluid rates change at events: after the message finishes the
        cores speed back up, so their average exceeds the contended rate."""
        engine = Engine(henri.machine, henri.profile)
        comp_flows = [engine.submit(s, GB) for s in cpu_streams(henri, 14)]
        engine.submit(nic_stream(henri), 64 * MB)
        engine.run()
        contended_total = 14 * 6.8  # demand; actual is bounded by capacity
        assert sum(f.observed_gbps() for f in comp_flows) <= contended_total
