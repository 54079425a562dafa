"""Bottleneck analysis (memsim.trace)."""

import dataclasses
import re

import pytest

from repro.errors import SimulationError
from repro.memsim import (
    Scenario,
    binding_resources,
    bottleneck_report,
    most_contended,
    resource_loads,
    solve_scenario,
)
from repro.memsim.trace import ResourceLoad


class TestResourceLoads:
    def test_loads_cover_touched_resources(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(4, 0, 0))
        loads = resource_loads(result)
        assert {"mesh:0", "ctrl:0", "nic:0", "pcie:0"} <= set(loads)

    def test_utilisation_math(self):
        load = ResourceLoad(resource_id="x", usage_gbps=49.0, capacity_gbps=50.0)
        assert load.utilisation == pytest.approx(0.98)
        assert load.saturated

    def test_zero_capacity_rejected(self):
        load = ResourceLoad(resource_id="x", usage_gbps=1.0, capacity_gbps=0.0)
        with pytest.raises(SimulationError):
            load.utilisation


class TestMostContended:
    def test_unsaturated_scenario_returns_none(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(2, 0, 0))
        assert most_contended(result) is None

    def test_local_contention_is_at_the_controller_or_mesh(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(16, 0, 0))
        top = most_contended(result)
        assert top is not None
        assert top.resource_id in ("ctrl:0", "mesh:0")

    def test_remote_contention_at_remote_controller(self, henri_subnuma):
        p = henri_subnuma
        result = solve_scenario(p.machine, p.profile, Scenario(14, 2, 2))
        top = most_contended(result)
        assert top is not None
        assert top.resource_id == "ctrl:2"

    def test_a_tie_names_the_resource_listed_first(self, henri):
        """Both ports of a bidirectional NIC saturate equally; which one
        is named used to follow the hash seed's set order."""
        result = solve_scenario(
            henri.machine, henri.profile,
            Scenario(9, 1, 0, bidirectional=True),
        )
        loads = resource_loads(result)
        assert loads["nic:0"].utilisation == loads["nic-tx:0"].utilisation
        assert most_contended(result).resource_id == "nic:0"
        assert "bottleneck: nic:0 (I/O path)" in bottleneck_report(result)


class TestBindingResources:
    def test_demand_bound_streams_map_to_none(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(2, 0, 1))
        bindings = binding_resources(result)
        assert bindings["job/core0"] is None
        assert bindings["job/nic"] is None

    def test_contended_cores_bound_by_their_controller(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(16, 0, None))
        bindings = binding_resources(result)
        assert bindings["job/core0"] == "ctrl:0"

    def test_nic_binding_differs_from_cores_in_cross_placement(self, henri):
        """Comp saturates ctrl:0; the NIC (writing to node 1) is sagged
        at the mesh — different bottlenecks for different streams."""
        result = solve_scenario(henri.machine, henri.profile, Scenario(16, 0, 1))
        bindings = binding_resources(result)
        assert bindings["job/core0"] == "ctrl:0"
        assert bindings["job/nic"] in ("mesh:0", None)

    def test_requires_streams(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(4, 0, 0))
        stripped = dataclasses.replace(result, streams=())
        with pytest.raises(SimulationError, match="streams"):
            binding_resources(stripped)


class TestReport:
    def test_report_mentions_everything(self, henri):
        result = solve_scenario(henri.machine, henri.profile, Scenario(16, 0, 0))
        text = bottleneck_report(result)
        assert "n=16" in text
        assert "resource utilisation" in text
        assert "bottleneck:" in text
        assert "saturated" in text

    def test_contention_free_report(self, diablo):
        result = solve_scenario(diablo.machine, diablo.profile, Scenario(4, 0, 1))
        text = bottleneck_report(result)
        assert "contention-free" in text

    def test_printed_parts_add_up_to_the_stacked_total(self, henri):
        """A bidirectional NIC's transmit stream is part of the stacked
        total, so the report prints it beside the other two parts."""
        result = solve_scenario(
            henri.machine, henri.profile, Scenario(9, 1, 0, bidirectional=True)
        )
        assert result.comm_tx_gbps > 0.0
        line = bottleneck_report(result).splitlines()[1]
        *parts, stacked = map(float, re.findall(r"(\d+\.\d+) GB/s", line))
        assert len(parts) == 3
        assert sum(parts) == pytest.approx(stacked, abs=0.015)
