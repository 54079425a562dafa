"""Last-level-cache contention resource (the paper's §VI future work).

The paper's benchmark bypasses the LLC with non-temporal stores so the
model only ever sees true memory traffic (§II-C) and defers cache
contention to future work.  Multi-tenant scenarios cannot keep that
simplification: independent workloads sharing one socket compete for
LLC *capacity*, and how much of each tenant's traffic reaches DRAM
depends on how much of its working set the neighbours leave cached.

This module models the LLC as a capacity resource (bytes, not GB/s):

* :func:`occupancy_shares` splits one socket's LLC among the temporal
  streams resident there by an egalitarian water-fill in bytes — a
  stream whose working set is smaller than the fair share keeps it all
  cached and leaves the remainder to the others, which is how
  LRU-managed caches converge for concurrently streaming tenants;
* :func:`dram_factor` converts a stream's cached share into the
  fraction of its nominal traffic that still reaches DRAM (the classic
  working-set model with a compulsory-miss floor);
* :func:`filter_dram_demand` works those factors out for a stream set
  before bandwidth arbitration, and the arbiter scales each cached
  stream's demand and mesh pressure by its factor: data served from
  cache presses neither the mesh nor the memory controllers.

Streams opt in by declaring :attr:`~repro.memsim.stream.Stream.
working_set_bytes`; non-temporal streams (the paper's setting) declare
none and pass through bit-identically.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SimulationError
from repro.memsim.resource import Resource, ResourceKind
from repro.memsim.stream import Stream

__all__ = [
    "COMPULSORY_FLOOR",
    "dram_factor",
    "filter_dram_demand",
    "llc_by_socket",
    "occupancy_shares",
]

#: Fraction of the traffic that always reaches DRAM even for a fully
#: cache-resident working set (compulsory misses, streaming read-ahead
#: spill) — keeps the model from predicting literally zero traffic.
COMPULSORY_FLOOR = 0.02


def dram_factor(
    working_set_bytes: int,
    share_bytes: float,
    *,
    floor: float = COMPULSORY_FLOOR,
) -> float:
    """Fraction of a stream's nominal traffic that reaches DRAM.

    ``share_bytes`` is the LLC capacity the stream actually occupies.
    The hit fraction is ``min(1, share / working_set)`` and the DRAM
    factor is ``max(1 - hit, floor)``.
    """
    if working_set_bytes <= 0:
        raise SimulationError("working_set_bytes must be positive")
    if share_bytes < 0:
        raise SimulationError("share_bytes must be non-negative")
    if not 0.0 < floor <= 1.0:
        raise SimulationError(f"compulsory floor must be in (0, 1], got {floor}")
    hit_fraction = min(1.0, share_bytes / working_set_bytes)
    return max(1.0 - hit_fraction, floor)


def occupancy_shares(
    llc_size_bytes: int, working_sets: Sequence[int]
) -> list[float]:
    """Split one LLC's capacity among concurrently resident working sets.

    Egalitarian water-fill in bytes: equal shares, capped at each
    stream's own working set, with the freed capacity redistributed.
    Everything fits ⇒ everyone is fully resident; uniform overflow ⇒
    everyone holds ``size / n``.
    """
    if llc_size_bytes <= 0:
        raise SimulationError("llc_size_bytes must be positive")
    n = len(working_sets)
    if n == 0:
        return []
    for ws in working_sets:
        if ws <= 0:
            raise SimulationError("working sets must be positive")
    # Local import: policies imports profile/resource/stream only, so
    # this stays cycle-free, but llc is imported by arbiter which
    # policies' callers already sit below.
    from repro.memsim.policies import waterfill

    return waterfill([float(ws) for ws in working_sets], float(llc_size_bytes))


def llc_by_socket(resources: Mapping[str, Resource]) -> dict[int, Resource]:
    """Index the LLC resources of a resource map by socket."""
    found: dict[int, Resource] = {}
    for resource in resources.values():
        if resource.kind is not ResourceKind.LLC:
            continue
        if resource.socket is None or resource.size_bytes is None:
            raise SimulationError(
                f"LLC resource {resource.resource_id!r} must declare "
                "both its socket and its size"
            )
        found[resource.socket] = resource
    return found


def filter_dram_demand(
    llc: Mapping[int, Resource], streams: Sequence[Stream]
) -> dict[str, float]:
    """The LLC pre-pass of bandwidth arbitration: each stream's DRAM factor.

    Streams that declare a ``working_set_bytes`` share their origin
    socket's LLC (water-fill occupancy); each one's factor is the
    resulting :func:`dram_factor`.  The arbiter scales both the
    stream's DRAM demand and its mesh issue pressure by it.  Streams
    without a working set — the paper's non-temporal setting, and all
    DMA traffic — get no factor and pass through untouched, so when no
    stream declares one the result is empty.

    Returns the factors keyed by stream id, sockets in order of their
    first cached stream and streams in input order within a socket.
    """
    factors: dict[str, float] = {}
    by_socket: dict[int, list[Stream]] = {}
    for stream in streams:
        if stream.working_set_bytes is not None:
            by_socket.setdefault(stream.origin_socket, []).append(stream)
    for socket, members in by_socket.items():
        resource = llc.get(socket)
        if resource is None:
            raise SimulationError(
                f"stream {members[0].stream_id!r} declares a working set "
                f"but socket {socket} has no LLC resource (the machine "
                "declares no cache levels)"
            )
        assert resource.size_bytes is not None
        shares = occupancy_shares(
            resource.size_bytes,
            [s.working_set_bytes for s in members],  # type: ignore[misc]
        )
        for stream, share in zip(members, shares):
            assert stream.working_set_bytes is not None
            factors[stream.stream_id] = dram_factor(
                stream.working_set_bytes, share
            )
    return factors
