"""Memory-system simulator (the hardware substitute).

The paper measures contention on real memory systems; this package is
the synthetic stand-in (DESIGN.md §2): a fluid-flow bandwidth-sharing
simulator over the machine topology.  It implements the contention
hypotheses of the paper's §II-A as explicit arbitration policies:

* finite per-resource capacities (memory controllers, inter-socket
  links, PCIe);
* CPU requests prioritised over PCIe (NIC) requests once a resource
  saturates;
* a minimum bandwidth always guaranteed to the NIC (anti-starvation);
* inter-core interference degrading aggregate throughput past the
  saturation point (the source of the model's ``δl``/``δr`` slopes);
* smooth (not piecewise-linear) onset of NIC throttling, which is what
  makes the paper's model err on e.g. henri's local/local placement.

Public surface:

* :class:`~repro.memsim.profile.ContentionProfile` — per-platform
  hardware behaviour knobs;
* :class:`~repro.memsim.stream.Stream` — a unidirectional data stream
  with a demand and a resource path;
* :class:`~repro.memsim.resource.Resource` — a bandwidth-limited
  component;
* :func:`~repro.memsim.paths.build_resources` /
  :func:`~repro.memsim.paths.stream_path` — topology→resource mapping;
* :class:`~repro.memsim.arbiter.Arbiter` — the steady-state solver;
* :func:`~repro.memsim.scenario.solve_scenario` /
  :func:`~repro.memsim.scenario.solve_tenant_scenario` — one benchmark
  point, or tenants sharing the machine over a horizon of
  piecewise-constant load;
* :class:`~repro.memsim.noise.NoiseModel` — seeded run-to-run
  variability.
"""

from repro.memsim.arbiter import Arbiter, Allocation
from repro.memsim.noise import NoiseModel
from repro.memsim.paths import ResourceMap, build_resources, stream_path
from repro.memsim.profile import ContentionProfile
from repro.memsim.resource import Resource, ResourceKind
from repro.memsim.scenario import (
    LoadEnvelope,
    LoadPhase,
    PhaseResult,
    Scenario,
    Tenant,
    TenantBandwidth,
    TenantScenario,
    TenantScenarioResult,
    build_tenant_streams,
    solve_scenario,
    solve_tenant_scenario,
)
from repro.memsim.trace import (
    ResourceLoad,
    binding_resources,
    bottleneck_report,
    most_contended,
    resource_loads,
)
from repro.memsim.stream import Stream, StreamKind

__all__ = [
    "Allocation",
    "Arbiter",
    "ContentionProfile",
    "LoadEnvelope",
    "LoadPhase",
    "NoiseModel",
    "PhaseResult",
    "Resource",
    "ResourceKind",
    "ResourceLoad",
    "ResourceMap",
    "Scenario",
    "Stream",
    "StreamKind",
    "Tenant",
    "TenantBandwidth",
    "TenantScenario",
    "TenantScenarioResult",
    "build_resources",
    "build_tenant_streams",
    "solve_scenario",
    "solve_tenant_scenario",
    "stream_path",
    "binding_resources",
    "bottleneck_report",
    "most_contended",
    "resource_loads",
]
