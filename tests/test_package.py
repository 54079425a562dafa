"""Package-level API surface checks."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

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
    "repro.backends",
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


#: Installed beside the package only as test and benchmark extras.
UNDECLARED = ("scipy", "networkx")

_BLOCKER = f"""
import sys

class _Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in {UNDECLARED!r}:
            raise ModuleNotFoundError(f"No module named {{name!r}} (blocked)")

sys.meta_path.insert(0, _Block())
"""


class TestDeclaredDependencies:
    """``pyproject.toml`` declares numpy as the one runtime dependency:
    the CLI and every product module must work without the test extras."""

    def _run(self, tmp_path, *args: str) -> subprocess.CompletedProcess:
        (tmp_path / "sitecustomize.py").write_text(_BLOCKER)
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src}"}
        return subprocess.run(
            [sys.executable, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_blocker_blocks(self, tmp_path):
        done = self._run(tmp_path, "-c", "import networkx")
        assert done.returncode != 0
        assert "blocked" in done.stderr

    def test_cli_runs_with_numpy_only(self, tmp_path):
        done = self._run(tmp_path, "-m", "repro", "platforms")
        assert done.returncode == 0, done.stderr
        assert "henri" in done.stdout

    def test_product_modules_import_with_numpy_only(self, tmp_path):
        done = self._run(
            tmp_path,
            "-c",
            "import repro.cli, repro.backends, repro.service.server",
        )
        assert done.returncode == 0, done.stderr


#: Modules a pipeline run needs and a booting server or CLI does not:
#: each costs import time on every start.
RUN_ONLY = ("repro.pipeline", "multiprocessing", "concurrent.futures.process")


class TestBootPath:
    def test_boot_loads_no_pipeline_or_process_pool(self):
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "import repro.cli, repro.backends.tournament, "
                "repro.service.server\n"
                "print('\\n'.join(sys.modules))",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded = [
            name
            for name in done.stdout.split()
            if any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in RUN_ONLY
            )
        ]
        assert loaded == []
