"""Package-level API surface checks."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.topology",
    "repro.memsim",
    "repro.net",
    "repro.kernels",
    "repro.bench",
    "repro.core",
    "repro.evaluation",
    "repro.baselines",
    "repro.advisor",
]


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_all_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolvable(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_objects_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{module_name}.{name} lacks a docstring"

    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart code runs as shown."""
        from repro import SweepConfig, calibrate_placement_model, get_platform
        from repro.bench import run_sample_sweeps

        platform = get_platform("henri")
        dataset = run_sample_sweeps(
            platform, config=SweepConfig(seed=42), core_counts=[1, 6, 12, 14, 18]
        )
        model = calibrate_placement_model(dataset, platform)
        comp = model.comp_parallel(14, 0, 1)
        comm = model.comm_parallel(14, 0, 1)
        assert comp > 50.0
        assert 0.0 < comm < 12.5
