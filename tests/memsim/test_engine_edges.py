"""Reference engine edge cases: pending flows, horizons, bookkeeping."""

import pytest

from repro.errors import SimulationError
from repro.memsim import Scenario
from repro.memsim.scenario import build_streams
from repro.units import MB
from tests.memsim.engine import Engine


def one_stream(platform, node=0):
    (stream,) = build_streams(
        platform.machine, platform.profile, Scenario(1, node, None)
    )
    return stream


class TestPendingFlows:
    def test_until_before_pending_start(self, henri):
        engine = Engine(henri.machine, henri.profile)
        engine.submit(one_stream(henri), MB, at=1.0)
        t = engine.run(until=0.5)
        assert t == pytest.approx(0.5)
        assert engine.active_count == 0

    def test_pending_admitted_after_gap(self, henri):
        engine = Engine(henri.machine, henri.profile)
        flow = engine.submit(one_stream(henri), MB, at=2.0)
        engine.run()
        assert flow.started_at == pytest.approx(2.0)
        assert flow.done

    def test_idle_run_until_advances_clock(self, henri):
        engine = Engine(henri.machine, henri.profile)
        assert engine.run(until=3.0) == pytest.approx(3.0)
        assert engine.now == pytest.approx(3.0)

    def test_submit_defaults_to_now(self, henri):
        engine = Engine(henri.machine, henri.profile)
        engine.run(until=1.0)
        flow = engine.submit(one_stream(henri), MB)
        engine.run()
        assert flow.submitted_at == pytest.approx(1.0)


class TestBookkeeping:
    def test_finished_flows_accumulate(self, henri):
        engine = Engine(henri.machine, henri.profile)
        streams = build_streams(
            henri.machine, henri.profile, Scenario(3, 0, None)
        )
        for s in streams:
            engine.submit(s, MB)
        engine.run()
        assert len(engine.finished_flows()) == 3
        assert all(f.done for f in engine.finished_flows())

    def test_remaining_bytes_clamped(self, henri):
        engine = Engine(henri.machine, henri.profile)
        flow = engine.submit(one_stream(henri), MB)
        engine.run()
        assert flow.remaining_bytes == 0.0
        assert flow.transferred_bytes == MB

    def test_max_events_guard(self, henri):
        engine = Engine(henri.machine, henri.profile)
        streams = build_streams(
            henri.machine, henri.profile, Scenario(2, 0, None)
        )
        for s in streams:
            engine.submit(s, 100 * MB)
        with pytest.raises(SimulationError, match="events"):
            engine.run(max_events=1)

    def test_reuse_stream_id_after_completion(self, henri):
        engine = Engine(henri.machine, henri.profile)
        stream = one_stream(henri)
        first = engine.submit(stream, MB)
        engine.run()
        second = engine.submit(stream, MB)
        engine.run()
        assert first.done and second.done
        assert second.started_at >= first.finished_at
