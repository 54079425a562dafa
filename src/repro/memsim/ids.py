"""Resource-id formats, shared by the path builder and the graph view.

Kept dependency-free so both :mod:`repro.memsim.paths` and the tests'
graph view of the machine (``tests/topology/graph.py``) can use them
without import cycles.
"""

CTRL_FMT = "ctrl:{numa}"
MESH_FMT = "mesh:{socket}"
LINK_FMT = "link:{src}->{dst}"
PCIE_FMT = "pcie:{socket}"
NIC_FMT = "nic:{socket}"
# Outbound (transmit) direction: PCIe and NIC ports are full duplex, so
# the send path gets its own port resources and only shares the memory
# system (mesh, link, controller) with the receive path.
PCIE_TX_FMT = "pcie-tx:{socket}"
NIC_TX_FMT = "nic-tx:{socket}"
# A socket's last-level cache: a capacity resource (bytes) that filters
# temporal streams' DRAM demand; it never appears in stream paths.
LLC_FMT = "llc:{socket}"

__all__ = [
    "CTRL_FMT",
    "MESH_FMT",
    "LINK_FMT",
    "LLC_FMT",
    "PCIE_FMT",
    "NIC_FMT",
    "PCIE_TX_FMT",
    "NIC_TX_FMT",
]
