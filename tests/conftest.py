"""Shared fixtures and the teardown budget.

Expensive artefacts (full platform experiments) are session-scoped:
many test modules assert different properties of the same pipeline run,
so it is computed once per platform.

A fixture teardown that takes longer than :data:`TEARDOWN_BUDGET_S`
fails the test it belongs to: slow teardowns are almost always a thread
or server waiting out a timeout, which costs every run and hides hangs.
"""

from __future__ import annotations

import pytest

from repro.bench import SweepConfig
from repro.evaluation import run_platform_experiment
from repro.topology import get_platform, platform_names

TEARDOWN_BUDGET_S = 1.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "teardown"
        and report.passed
        and call.duration > TEARDOWN_BUDGET_S
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"teardown of {item.nodeid} took {call.duration:.2f} s, "
            f"over the {TEARDOWN_BUDGET_S:.0f} s budget"
        )


@pytest.fixture(scope="session")
def henri():
    return get_platform("henri")


@pytest.fixture(scope="session")
def henri_subnuma():
    return get_platform("henri-subnuma")


@pytest.fixture(scope="session")
def diablo():
    return get_platform("diablo")


@pytest.fixture(scope="session")
def occigen():
    return get_platform("occigen")


@pytest.fixture(scope="session")
def pyxis():
    return get_platform("pyxis")


@pytest.fixture(scope="session")
def noiseless_config():
    return SweepConfig(noiseless=True)


@pytest.fixture(scope="session")
def seeded_config():
    return SweepConfig(seed=1)


@pytest.fixture(scope="session")
def henri_experiment(seeded_config):
    """Full pipeline run on henri (benchmark -> calibrate -> predict)."""
    return run_platform_experiment("henri", config=seeded_config)


@pytest.fixture(scope="session")
def all_experiments(seeded_config):
    """Full pipeline run on every testbed platform (Table II)."""
    return {
        name: run_platform_experiment(name, config=seeded_config)
        for name in platform_names()
    }
