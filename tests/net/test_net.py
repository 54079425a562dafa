"""Network substrate: fabrics and transfer protocols."""

import pytest

from repro.errors import CommunicationError
from repro.net import (
    FABRICS,
    Fabric,
    Protocol,
    RendezvousConfig,
    fabric_for,
    select_protocol,
)
from repro.units import KiB, MB


class TestFabric:
    def test_catalogue_rates(self):
        assert FABRICS["infiniband-edr"].line_rate_gbps == pytest.approx(12.5)
        assert FABRICS["infiniband-hdr"].line_rate_gbps == pytest.approx(25.0)
        assert FABRICS["omni-path"].line_rate_gbps == pytest.approx(12.5)

    def test_wire_time(self):
        fabric = Fabric("test", 10.0, 1e-6)
        assert fabric.wire_time(10**9) == pytest.approx(0.1 + 1e-6)
        assert fabric.wire_time(0) == pytest.approx(1e-6)

    def test_wire_time_negative_bytes(self):
        with pytest.raises(CommunicationError):
            Fabric("test", 10.0, 0.0).wire_time(-1)

    def test_invalid_fabric(self):
        with pytest.raises(CommunicationError):
            Fabric("bad", 0.0, 0.0)

    def test_fabric_for_matches_names(self):
        assert fabric_for("InfiniBand EDR").name == "InfiniBand EDR"
        assert fabric_for("InfiniBand HDR").name == "InfiniBand HDR"
        assert fabric_for("Omni-Path 100").name == "Omni-Path 100"
        assert fabric_for("InfiniBand FDR").name == "InfiniBand FDR"

    def test_fabric_for_fallback(self):
        assert fabric_for("mystery-nic").name == "InfiniBand EDR"


class TestProtocol:
    def test_selection_threshold(self):
        config = RendezvousConfig()
        assert select_protocol(1 * KiB, config) is Protocol.EAGER
        assert select_protocol(32 * KiB, config) is Protocol.EAGER
        assert select_protocol(32 * KiB + 1, config) is Protocol.RENDEZVOUS
        assert select_protocol(64 * MB, config) is Protocol.RENDEZVOUS

    def test_startup_delay(self):
        config = RendezvousConfig(handshake_latency_s=1e-6)
        assert config.startup_delay(Protocol.EAGER) == 0.0
        assert config.startup_delay(Protocol.RENDEZVOUS) == pytest.approx(2e-6)

    def test_zero_bytes_rejected(self):
        with pytest.raises(CommunicationError):
            select_protocol(0, RendezvousConfig())
