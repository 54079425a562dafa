"""Platform serialisation round-trips."""

import json

import pytest

from repro.errors import SimulationError, TopologyError
from repro.topology import (
    get_platform,
    platform_from_dict,
    platform_from_json,
    platform_names,
    platform_to_dict,
    platform_to_json,
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(platform_names()))
    def test_all_testbed_platforms_roundtrip(self, name):
        original = get_platform(name)
        restored = platform_from_json(platform_to_json(original))
        assert restored.machine == original.machine
        assert restored.profile == original.profile

    def test_roundtrip_preserves_behaviour(self, henri):
        """Not just structural equality: the restored platform produces
        identical simulation results."""
        from repro.bench.runner import measure_curves
        from repro.bench import SweepConfig

        restored = platform_from_json(platform_to_json(henri))
        config = SweepConfig(noiseless=True)
        a = measure_curves(
            henri.machine, henri.profile, m_comp=0, m_comm=0,
            config=config, core_counts=[4, 12, 18],
        )
        b = measure_curves(
            restored.machine, restored.profile, m_comp=0, m_comm=0,
            config=config, core_counts=[4, 12, 18],
        )
        assert a.comp_parallel.tolist() == b.comp_parallel.tolist()
        assert a.comm_parallel.tolist() == b.comm_parallel.tolist()

    def test_nic_locality_keys_restored_as_ints(self, diablo):
        restored = platform_from_json(platform_to_json(diablo))
        assert restored.profile.nic_locality_gbps == {0: 12.1, 1: 22.4}


class TestErrors:
    def test_bad_json(self):
        with pytest.raises(TopologyError, match="JSON"):
            platform_from_json("{nope")

    def test_wrong_version(self, henri):
        data = platform_to_dict(henri)
        data["format_version"] = 99
        with pytest.raises(TopologyError, match="version"):
            platform_from_dict(data)

    def test_missing_section(self, henri):
        data = platform_to_dict(henri)
        del data["profile"]
        with pytest.raises(TopologyError, match="missing"):
            platform_from_dict(data)

    def test_unknown_profile_field(self, henri):
        data = platform_to_dict(henri)
        data["profile"]["bogus_knob"] = 1.0
        with pytest.raises(TopologyError, match="unknown profile"):
            platform_from_dict(data)

    def test_document_is_json_compatible(self, pyxis):
        import json

        text = platform_to_json(pyxis)
        parsed = json.loads(text)
        assert parsed["machine"]["name"] == "pyxis"
        assert parsed["profile"]["nic_cross_penalty"] > 0


class TestNonFiniteNumbers:
    """A platform document may carry ``NaN`` or ``Infinity`` (``json``
    parses both); every such number is refused where it is built."""

    @pytest.mark.parametrize(
        "where, name, value, error",
        [
            ("profile", "core_stream_local_gbps", "NaN", SimulationError),
            ("profile", "core_stream_local_gbps", "Infinity", SimulationError),
            ("profile", "core_stream_remote_gbps", "NaN", SimulationError),
            ("profile", "sag_onset", "NaN", SimulationError),
            ("profile", "sag_span", "Infinity", SimulationError),
            ("profile", "interference_core_gbps", "NaN", SimulationError),
            ("profile", "interference_mixed_gbps", "NaN", SimulationError),
            ("profile", "dma_concurrency_bonus", "NaN", SimulationError),
            ("profile", "saturation_sharpness", "NaN", SimulationError),
            ("profile", "mesh_gbps", "NaN", SimulationError),
            ("profile", "comp_noise_sigma", "NaN", SimulationError),
            ("profile", "comm_noise_sigma", "Infinity", SimulationError),
            ("locality", "0", "NaN", SimulationError),
            ("machine", "controller_gbps", "NaN", TopologyError),
            ("machine", "link_gbps", "NaN", TopologyError),
            ("nic", "line_rate_gbps", "NaN", TopologyError),
            ("nic", "pcie_gbps", "Infinity", TopologyError),
        ],
    )
    def test_rejected(self, henri, where, name, value, error):
        data = platform_to_dict(henri)
        section = {
            "profile": data["profile"],
            "locality": data["profile"]["nic_locality_gbps"],
            "machine": data["machine"],
            "nic": data["machine"]["nic"],
        }[where]
        section[name] = float(value)
        with pytest.raises(error, match="finite"):
            platform_from_json(json.dumps(data))
