"""Smoke test of the end-to-end benchmark: every workload, briefly.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs each workload untraced and traced for 1 s (5 s for the traced
runs whose accounting is checked), checks the result line against
BENCHMARK.json, and checks the traced runs' coverage and accounting.
Outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import breakdown  # noqa: E402


def _run(workload: str, trace: int, seconds: int = 1) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


#: Traced runs whose accounting is checked run longer, for steadier
#: numbers, and alone.
ACCOUNTED = ("scalar", "bulk-hol")


def _run_on(cpu: int, keys: list) -> dict:
    """Runs one after the other on one CPU: a process inherits the
    CPUs of the thread that starts it."""
    os.sched_setaffinity(0, {cpu})
    return {key: _run(*key) for key in keys}


@pytest.fixture(scope="module")
def runs():
    cpus = sorted(os.sched_getaffinity(0))
    short = [
        (workload, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
        if not (trace and workload in ACCOUNTED)
    ]
    with ThreadPoolExecutor(len(cpus)) as pool:
        parts = pool.map(
            _run_on, cpus, [short[i::len(cpus)] for i in range(len(cpus))]
        )
        out = {key: run for part in parts for key, run in part.items()}
    for workload in ACCOUNTED:
        out[(workload, 1)] = _run(workload, 1, seconds=5)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_names_every_metric_and_no_failure(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(
            isinstance(m["value"], (int, float))
            for m in result["metrics"].values()
        )
        assert detail["environment"]["nproc"] >= 1
    untraced = runs[(workload, 0)][1]["metrics"]
    assert all(m["value"] > 0 for m in untraced.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(runs, workload):
    assert (
        runs[(workload, 0)][0]["output_digest"]
        == runs[(workload, 1)][0]["output_digest"]
    )


def test_per_layer_list_matches_the_code():
    assert SPEC["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in breakdown.LAYER_METRICS
    ]


def test_traced_runs_cover_every_layer(runs):
    # ``server.unaccounted_ms`` is no layer's time but what is left: it
    # reads 0 wherever the front server never idled during a request.
    timed = [
        name
        for name, unit, _ in breakdown.LAYER_METRICS
        if unit == "ms" and name != "server.unaccounted_ms"
    ]
    seen = {
        name
        for workload in WORKLOADS
        for name, m in runs[(workload, 1)][1]["metrics"].items()
        if m["value"] > 0
    }
    assert set(timed) <= seen
    for workload in ("scalar", "bulk-hol", "routed"):
        metrics = runs[(workload, 1)][1]["metrics"]
        assert metrics["trace.joined_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ACCOUNTED)
def test_self_times_account_for_the_untraced_latency(runs, workload):
    """Along a traced request's path, the self times of every layer but
    ``server.unaccounted_ms`` (the front server idle while the request
    was in the network stack) account for the untraced median latency
    to within 10 %, once the tracer's own cost is taken out.

    With two closed-loop connections the server is saturated, so a
    request's latency grows with the server's CPU time per request,
    which tracing raises by ``trace_overhead_pct``.
    """
    metrics = {
        name: m["value"] for name, m in runs[(workload, 1)][1]["metrics"].items()
    }
    accounted = metrics["trace.accounted_ratio"] / (
        1 + metrics["trace_overhead_pct"] / 100
    )
    assert 0.9 <= accounted <= 1.1, metrics


def test_tracing_costs_a_scalar_request_little(runs):
    """Sampled tracing, on the workload where each request is cheapest."""
    metrics = runs[("scalar", 1)][1]["metrics"]
    assert metrics["trace_overhead_pct"]["value"] <= 10.0
