"""Stream and Resource invariants."""

import math

import pytest

from repro.errors import SimulationError
from repro.memsim import Resource, ResourceKind, Stream, StreamKind


def make_stream(**overrides):
    base = dict(
        stream_id="s",
        kind=StreamKind.CPU,
        demand_gbps=5.0,
        path=("mesh:0", "ctrl:0"),
        target_numa=0,
        origin_socket=0,
    )
    base.update(overrides)
    return Stream(**base)


class TestStream:
    def test_valid_stream(self):
        s = make_stream()
        assert s.is_cpu and not s.is_dma

    def test_empty_id_rejected(self):
        with pytest.raises(SimulationError):
            make_stream(stream_id="")

    def test_zero_demand_rejected(self):
        with pytest.raises(SimulationError, match="demand"):
            make_stream(demand_gbps=0.0)

    def test_empty_path_rejected(self):
        with pytest.raises(SimulationError, match="path"):
            make_stream(path=())

    def test_duplicate_path_rejected(self):
        with pytest.raises(SimulationError, match="twice"):
            make_stream(path=("ctrl:0", "ctrl:0"))

    def test_cpu_stream_cannot_carry_guarantee(self):
        with pytest.raises(SimulationError, match="DMA"):
            make_stream(min_guarantee_gbps=1.0)

    def test_dma_stream_carries_guarantee(self):
        s = make_stream(kind=StreamKind.DMA, min_guarantee_gbps=2.0)
        assert s.min_guarantee_gbps == 2.0

    def test_pressure_defaults_to_demand(self):
        assert make_stream().pressure_gbps == 5.0

    def test_pressure_uses_issue_rate(self):
        assert make_stream(issue_gbps=7.0).pressure_gbps == 7.0

    def test_negative_issue_rejected(self):
        with pytest.raises(SimulationError, match="issue"):
            make_stream(issue_gbps=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["demand_gbps", "issue_gbps", "min_guarantee_gbps"]
    )
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(
            SimulationError, match=f"'s': {name} must be finite"
        ):
            make_stream(kind=StreamKind.DMA, **{name: value})

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf, 0, -1])
    def test_working_set_must_be_positive_and_finite(self, size):
        """NaN passes a ``<= 0`` check, and the LLC pre-pass used to
        turn it into a traffic factor."""
        with pytest.raises(SimulationError, match="'s': working set"):
            make_stream(working_set_bytes=size)


class TestResource:
    def test_valid_controller(self):
        r = Resource(
            resource_id="ctrl:0",
            kind=ResourceKind.MEMORY_CONTROLLER,
            capacity_gbps=80.0,
            remote_capacity_gbps=40.0,
            socket=0,
        )
        assert r.is_controller and not r.is_mesh

    def test_controller_requires_socket(self):
        with pytest.raises(SimulationError, match="socket"):
            Resource(
                resource_id="ctrl:0",
                kind=ResourceKind.MEMORY_CONTROLLER,
                capacity_gbps=80.0,
            )

    def test_remote_capacity_cannot_exceed_local(self):
        with pytest.raises(SimulationError, match="exceed"):
            Resource(
                resource_id="ctrl:0",
                kind=ResourceKind.MEMORY_CONTROLLER,
                capacity_gbps=80.0,
                remote_capacity_gbps=90.0,
                socket=0,
            )

    def test_base_capacity_blends_linearly(self):
        r = Resource(
            resource_id="ctrl:0",
            kind=ResourceKind.MEMORY_CONTROLLER,
            capacity_gbps=80.0,
            remote_capacity_gbps=40.0,
            socket=0,
        )
        assert r.base_capacity(0.0) == 80.0
        assert r.base_capacity(1.0) == 40.0
        assert r.base_capacity(0.5) == pytest.approx(60.0)

    def test_base_capacity_without_remote_ignores_mix(self):
        r = Resource(
            resource_id="link",
            kind=ResourceKind.SOCKET_LINK,
            capacity_gbps=42.0,
        )
        assert r.base_capacity(0.7) == 42.0

    def test_base_capacity_rejects_bad_fraction(self):
        r = Resource(
            resource_id="ctrl:0",
            kind=ResourceKind.MEMORY_CONTROLLER,
            capacity_gbps=80.0,
            remote_capacity_gbps=40.0,
            socket=0,
        )
        with pytest.raises(SimulationError):
            r.base_capacity(1.5)

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(
                resource_id="x",
                kind=ResourceKind.PCIE,
                capacity_gbps=0.0,
            )
