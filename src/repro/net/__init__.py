"""Simulated network substrate.

The paper measures the receive side of MPI transfers over InfiniBand /
Omni-Path fabrics.  On one machine a reception is the NIC's DMA stream
(:mod:`repro.memsim.scenario`); this package adds what lies beyond it:

* :mod:`repro.net.fabric` — the wire: latency + line rate;
* :mod:`repro.net.protocol` — eager vs rendezvous transfer protocols
  (the message-size study, :mod:`repro.bench.message_size`);
* :mod:`repro.net.cluster` — two machines joined by one wire, as one
  resource graph for the steady-state arbiter.
"""

from repro.net.cluster import Cluster, build_cluster_resources, compute_streams, transfer_stream
from repro.net.fabric import FABRICS, Fabric, fabric_for
from repro.net.protocol import Protocol, RendezvousConfig, select_protocol

__all__ = [
    "Cluster",
    "FABRICS",
    "Fabric",
    "Protocol",
    "RendezvousConfig",
    "build_cluster_resources",
    "compute_streams",
    "fabric_for",
    "transfer_stream",
    "select_protocol",
]
