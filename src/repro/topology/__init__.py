"""Machine topology substrate (hwloc-like).

The paper uses `hwloc` to discover machine topology, bind threads and
memory, and reason about NUMA locality.  This package provides the
equivalent substrate for the simulated testbed:

* :mod:`repro.topology.objects` — the object tree (:class:`Machine`,
  :class:`Socket`, :class:`NumaNode`, :class:`Core`, :class:`Nic`,
  :class:`Link`) with the bandwidth capacities the memory-system
  simulator consumes;
* :mod:`repro.topology.builder` — a fluent :class:`MachineBuilder` for
  assembling valid machines;
* :mod:`repro.topology.distances` — NUMA distance matrices (the
  ACPI SLIT-style view);
* :mod:`repro.topology.render` — ``lstopo``-style text rendering;
* :mod:`repro.topology.platforms` — factories for the six testbed
  platforms of Table I (henri, henri-subnuma, dahu, diablo, pyxis,
  occigen);
* :mod:`repro.topology.validate` — structural invariant checks.
"""

from repro.topology.objects import (
    Cache,
    Core,
    Link,
    Machine,
    Nic,
    NumaNode,
    Socket,
)
from repro.topology.builder import MachineBuilder
from repro.topology.distances import distance_matrix
from repro.topology.platforms import (
    PLATFORMS,
    dahu,
    diablo,
    get_platform,
    henri,
    henri_subnuma,
    occigen,
    platform_names,
    pyxis,
)
from repro.topology.render import render_text
from repro.topology.serialize import (
    platform_from_dict,
    platform_from_json,
    platform_to_dict,
    platform_to_json,
)
from repro.topology.validate import validate_machine

__all__ = [
    "Cache",
    "Core",
    "Link",
    "Machine",
    "MachineBuilder",
    "Nic",
    "NumaNode",
    "Socket",
    "PLATFORMS",
    "dahu",
    "diablo",
    "distance_matrix",
    "get_platform",
    "henri",
    "henri_subnuma",
    "occigen",
    "platform_names",
    "pyxis",
    "platform_from_dict",
    "platform_from_json",
    "platform_to_dict",
    "platform_to_json",
    "render_text",
    "validate_machine",
]
