"""Macrobenchmark: the cached, parallel pipeline layer.

Two artefacts are guarded here:

* **Warm-cache speedup** — a warm run of the full §IV pipeline serves
  the sweep and calibration from the artifact store instead of
  recomputing them, so it must be substantially faster than a cold run
  while staying bit-identical.
* **Parallel bit-identity** — ``run_all_experiments(jobs=N)`` fans
  the platforms out across worker processes and must reproduce the
  serial output bit for bit.  A wall-clock speedup is asserted only on
  multi-core hosts (single-core CI still checks identity).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from _common import best_of

from repro.bench import SweepConfig
from repro.evaluation import run_all_experiments, run_platform_experiment
from repro.pipeline import ArtifactStore

CONFIG = SweepConfig(seed=1)
PLATFORM = "henri-subnuma"  # 16 placements: the largest per-platform grid

#: Conservative floor: the warm path replaces the whole sweep +
#: calibration with file reads and table lookups.
MIN_WARM_SPEEDUP = 3.0


def _identical(a, b) -> None:
    assert a.dataset.to_csv(full_precision=True) == b.dataset.to_csv(
        full_precision=True
    )
    assert a.model.local.to_json() == b.model.local.to_json()
    assert a.model.remote.to_json() == b.model.remote.to_json()
    for key in a.predictions:
        assert np.array_equal(
            a.predictions[key].comm_parallel, b.predictions[key].comm_parallel
        )
        assert np.array_equal(
            a.predictions[key].comp_parallel, b.predictions[key].comp_parallel
        )
    assert a.errors == b.errors


WARM_ROUNDS = 5


def collect(recorder) -> None:
    """The timed cold/warm workload, publishing through one recorder.

    Shared verbatim by the pytest benchmark below and by ``repro bench
    run`` (the BENCH_pipeline.json trajectory).
    """
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ArtifactStore(cache_dir)
        cold_start = time.perf_counter()
        cold = run_platform_experiment(PLATFORM, config=CONFIG, store=store)
        t_cold = time.perf_counter() - cold_start
        assert cold.stats.computed_stages == ("measure", "calibrate")

        # Identity first: a fast wrong answer is worthless.
        warm = run_platform_experiment(PLATFORM, config=CONFIG, store=store)
        assert warm.stats.cached_stages == ("measure", "calibrate")
        _identical(cold, warm)

        # The run above is the warmup; best_of only times from here.
        t_warm = best_of(
            lambda: run_platform_experiment(
                PLATFORM, config=CONFIG, store=store
            ),
            rounds=WARM_ROUNDS,
            warmup=0,
        )
        stats = store.stats.as_dict()
        recorder.metric(
            "cold_ms", t_cold * 1e3, unit="ms", direction="lower", band=1.5
        )
        recorder.metric(
            "warm_ms", t_warm * 1e3, unit="ms", direction="lower", band=1.5
        )
        recorder.metric(
            "warm_speedup", t_cold / t_warm, unit="x", direction="higher",
            band=1.5,
        )
        # Deterministic for the fixed round count: exact-match band.
        recorder.metric(
            "cache_hit_rate",
            stats["hits"] / (stats["hits"] + stats["misses"]),
            unit="ratio", direction="higher", band=0.0,
        )
        recorder.context(
            platform=PLATFORM, warm_rounds=WARM_ROUNDS, store_stats=stats
        )


def test_warm_cache_speedup(benchmark):
    from repro.benchtrack import BenchRecorder

    recorder = BenchRecorder()
    collect(recorder)
    values = recorder.values()
    speedup = values["warm_speedup"]
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm run only {speedup:.1f}x faster than cold "
        f"({values['cold_ms']:.1f} ms vs {values['warm_ms']:.1f} ms)"
    )

    benchmark.extra_info.update(
        {
            "platform": PLATFORM,
            "cold_ms": round(values["cold_ms"], 1),
            "warm_ms": round(values["warm_ms"], 1),
            "warm_speedup": round(speedup, 1),
            "cache_hit_rate": round(values["cache_hit_rate"], 3),
        }
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        store = ArtifactStore(cache_dir)
        run_platform_experiment(PLATFORM, config=CONFIG, store=store)  # prime
        benchmark.pedantic(
            run_platform_experiment,
            args=(PLATFORM,),
            kwargs={"config": CONFIG, "store": store},
            rounds=5,
            iterations=1,
        )


def test_parallel_all_platforms(benchmark):
    t_serial_start = time.perf_counter()
    serial = run_all_experiments(config=CONFIG)
    t_serial = time.perf_counter() - t_serial_start

    jobs = min(4, os.cpu_count() or 1)
    t_parallel_start = time.perf_counter()
    parallel = run_all_experiments(config=CONFIG, jobs=jobs)
    t_parallel = time.perf_counter() - t_parallel_start

    assert list(serial) == list(parallel)
    for name in serial:
        _identical(serial[name], parallel[name])

    speedup = t_serial / t_parallel
    if (os.cpu_count() or 1) >= 2 and jobs >= 2:
        # Process start-up costs a fixed slice; any net win proves the
        # fan-out works.  Single-core hosts only check bit-identity.
        assert speedup >= 1.0, (
            f"jobs={jobs} slower than serial "
            f"({t_parallel:.2f} s vs {t_serial:.2f} s)"
        )

    benchmark.extra_info.update(
        {
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "serial_s": round(t_serial, 2),
            "parallel_s": round(t_parallel, 2),
            "parallel_speedup": round(speedup, 2),
        }
    )
    benchmark.pedantic(
        run_all_experiments,
        kwargs={"config": CONFIG, "jobs": jobs},
        rounds=2,
        iterations=1,
    )
