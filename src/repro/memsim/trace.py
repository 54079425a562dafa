"""Allocation diagnostics: where is the bottleneck?

The paper's central diagnostic question — *"locations of bottleneck in
the memory system"* (abstract) — answered programmatically for any
solved scenario: per-resource utilisation, the binding resource of each
stream, and a human-readable contention report.

Example
-------
>>> from repro.topology import get_platform
>>> from repro.memsim import Scenario, solve_scenario
>>> from repro.memsim.trace import bottleneck_report
>>> p = get_platform("henri")
>>> result = solve_scenario(p.machine, p.profile, Scenario(14, 0, 0))
>>> print(bottleneck_report(result))  # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import SimulationError
from repro.memsim.scenario import ScenarioResult

__all__ = [
    "ResourceLoad",
    "resource_loads",
    "binding_resources",
    "most_contended",
    "bottleneck_report",
]

#: Utilisation above which a resource counts as saturated.
SATURATION_THRESHOLD = 0.98


@dataclass(frozen=True)
class ResourceLoad:
    """Utilisation snapshot of one resource."""

    resource_id: str
    usage_gbps: float
    capacity_gbps: float

    @property
    def utilisation(self) -> float:
        if self.capacity_gbps <= 0.0:
            raise SimulationError(
                f"resource {self.resource_id!r} reports non-positive capacity"
            )
        return self.usage_gbps / self.capacity_gbps

    @property
    def saturated(self) -> bool:
        return self.utilisation >= SATURATION_THRESHOLD


def resource_loads(result: ScenarioResult) -> dict[str, ResourceLoad]:
    """Per-resource utilisation of a solved scenario."""
    allocation = result.allocation
    return {
        rid: ResourceLoad(
            resource_id=rid,
            usage_gbps=allocation.resource_usage[rid],
            capacity_gbps=allocation.effective_capacity[rid],
        )
        for rid in allocation.resource_usage
    }


def _require_streams(result: ScenarioResult) -> None:
    if not result.streams:
        raise SimulationError(
            "scenario result carries no streams; solve it with "
            "solve_scenario() to enable bottleneck analysis"
        )


def _contended_ids(result: ScenarioResult) -> list[str]:
    """Resources that are saturated *and* actually cut someone, in the
    allocation's resource order.

    A NIC port carrying one stream at exactly its line rate is 100 %
    utilised but contention-free: the stream is demand-bound.  A
    resource only counts as contended when a stream crossing it runs
    strictly below its demand.  The order is fixed so that a tie, such
    as both ports of a bidirectional NIC, always names the same one.
    """
    loads = resource_loads(result)
    throttled_paths: list[tuple[str, ...]] = [
        s.path
        for s in result.streams
        if result.allocation.rates[s.stream_id] < s.demand_gbps - 1e-9
    ]
    return [
        rid
        for rid, load in loads.items()
        if load.saturated and any(rid in path for path in throttled_paths)
    ]


def binding_resources(result: ScenarioResult) -> Mapping[str, str | None]:
    """The bottleneck of each stream.

    A stream is *contention-bound* when some contended resource sits on
    its own path; its binding resource is then the most utilised one of
    those.  Otherwise it is *demand-bound* (it runs at its source rate)
    and maps to ``None``.
    """
    _require_streams(result)
    loads = resource_loads(result)
    contended = _contended_ids(result)
    out: dict[str, str | None] = {}
    for stream in result.streams:
        throttled = (
            result.allocation.rates[stream.stream_id]
            < stream.demand_gbps - 1e-9
        )
        candidates = [
            loads[rid] for rid in stream.path if rid in contended
        ]
        if not throttled or not candidates:
            out[stream.stream_id] = None
        else:
            out[stream.stream_id] = max(
                candidates, key=lambda l: l.utilisation
            ).resource_id
    return out


def most_contended(result: ScenarioResult) -> ResourceLoad | None:
    """The most utilised *contended* resource, or None when the
    scenario is contention-free (everyone runs at demand)."""
    _require_streams(result)
    loads = resource_loads(result)
    contended = [loads[rid] for rid in _contended_ids(result)]
    if not contended:
        return None
    return max(contended, key=lambda l: l.utilisation)


def bottleneck_report(result: ScenarioResult) -> str:
    """Human-readable contention report for one scenario."""
    scenario = result.scenario
    # The stacked total counts the transmit stream, so print it too.
    transmit = (
        f", transmit {result.comm_tx_gbps:6.2f} GB/s"
        if result.comm_tx_gbps
        else ""
    )
    lines = [
        f"scenario: n={scenario.n_cores} cores, "
        f"comp data on {scenario.m_comp}, comm data on {scenario.m_comm}",
        f"  computation {result.comp_total_gbps:7.2f} GB/s, "
        f"communication {result.comm_gbps:6.2f} GB/s{transmit} "
        f"(stacked {result.total_gbps:7.2f} GB/s)",
        "  resource utilisation:",
    ]
    for rid, load in sorted(
        resource_loads(result).items(), key=lambda kv: -kv[1].utilisation
    ):
        flag = "  <-- saturated" if load.saturated else ""
        lines.append(
            f"    {rid:<12} {load.usage_gbps:7.2f} / "
            f"{load.capacity_gbps:7.2f} GB/s "
            f"({load.utilisation * 100:5.1f} %){flag}"
        )
    top = most_contended(result)
    if top is None:
        lines.append("  no saturated resource: contention-free")
    else:
        kind = "memory controller" if top.resource_id.startswith("ctrl") else (
            "socket mesh" if top.resource_id.startswith("mesh") else
            "inter-socket link" if top.resource_id.startswith("link") else
            "I/O path"
        )
        lines.append(f"  bottleneck: {top.resource_id} ({kind})")
    return "\n".join(lines)
