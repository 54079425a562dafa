"""The in-process workloads, ``reproduce`` and ``tenants``.

    python benchmarks/e2e/offline.py WORKLOAD SEED SECONDS TURN_S [SPANS_FILE]

``run.py`` starts this process and times it from launch until it prints
``ready``: the imports and the scratch store root, the set-up a library
user pays once per process.  On ``go`` (stdin) it warms up for
``WARMUP_S``, runs operations for ``SECONDS``, checks their outputs and
prints one JSON line.  On ``stop`` it exits; that is a set-up probe.
A ``TURN_S`` above 0 makes it take turns with another process (see
:func:`run`).

With ``SPANS_FILE`` the layers are traced (see :mod:`layers`) and every
operation is one ``e2e.op`` span.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Scratch files, as in ``run.py``.
OUT = HERE.parents[1] / "bench-results" / "e2e"
WARMUP_S = 1.0
#: Most operations re-run after the window to check that answers repeat.
RECHECK_MAX = 40


# ---- reproduce -------------------------------------------------------------------


def _experiment_material(results, runs) -> str:
    """Every simulated and scored number of one all-platform pass."""
    parts = []
    for name, result in results.items():
        parts.append(name)
        parts.append(result.dataset.to_csv(full_precision=True))
        parts.append(repr(result.model.local.to_dict()))
        parts.append(repr(result.model.remote.to_dict()))
        for key in sorted(result.predictions):
            pred = result.predictions[key]
            parts.append(
                repr(
                    (
                        key,
                        pred.core_counts.tolist(),
                        pred.comp_parallel.tolist(),
                        pred.comm_parallel.tolist(),
                        pred.comp_alone.tolist(),
                        pred.comm_alone,
                    )
                )
            )
        parts.append(repr(result.errors.as_row()))
        for regime in runs[name].tournament.regimes:
            # The store keeps scores key-sorted; compare them that way.
            parts.append(
                repr(
                    (
                        regime.m_comp,
                        regime.m_comm,
                        regime.band,
                        regime.n_min,
                        regime.n_max,
                        regime.winner,
                        sorted(regime.scores.items()),
                    )
                )
            )
    return "\n".join(parts)


def _reproduce_round(seed: int, root: Path) -> tuple[int, str, list[str]]:
    """Table II cold, then warm on the same store, plus both tournaments."""
    from repro.backends import tournament
    from repro.bench.config import SweepConfig
    from repro.evaluation.experiments import run_all_experiments
    from repro.pipeline.store import ArtifactStore

    config = SweepConfig(seed=seed)
    cache = root / f"seed-{seed}"
    passes = []
    try:
        for _ in ("cold", "warm"):
            results = run_all_experiments(config=config, cache_dir=cache)
            store = ArtifactStore(cache)
            runs = {
                name: tournament.run_platform_tournament(
                    result, config=config, store=store
                )
                for name, result in results.items()
            }
            passes.append((results, runs))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    (cold, cold_runs), (warm, warm_runs) = passes
    material = _experiment_material(cold, cold_runs)
    failures = []
    if _experiment_material(warm, warm_runs) != material:
        failures.append(f"seed {seed}: warm results differ from cold")
    if not all(run.cached for run in warm_runs.values()):
        failures.append(f"seed {seed}: warm tournament was recomputed")
    return len(cold) + len(warm), material, failures


def _reproduce_ops(seed: int, root: Path):
    for round_index in itertools.count():
        yield functools.partial(_reproduce_round, seed + round_index, root)


# ---- tenants ---------------------------------------------------------------------


def _envelope(rng: random.Random):
    from repro.memsim import LoadEnvelope

    kind = rng.choice(("steady", "bursty", "diurnal"))
    if kind == "steady":
        return LoadEnvelope.steady(rng.uniform(0.25, 1.0))
    if kind == "bursty":
        return LoadEnvelope.bursty(
            period_s=rng.uniform(0.5, 2.0),
            duty=rng.uniform(0.2, 0.8),
            low=rng.choice((0.0, 0.2)),
            cycles=rng.randint(1, 4),
        )
    return LoadEnvelope.diurnal(
        day_s=rng.uniform(4.0, 24.0), samples=rng.randint(4, 12)
    )


def tenant_scenario(rng: random.Random, platforms):
    """One seeded multi-tenant scenario that every solver input accepts."""
    from repro.memsim import Tenant, TenantScenario

    platform = rng.choice(platforms)
    machine = platform.machine
    llc = max(machine.sockets[0].caches, key=lambda c: c.level)
    share = llc.size_bytes // machine.cores_per_socket
    free = [machine.cores_per_socket] * machine.n_sockets
    tenants = []
    for i in range(rng.randint(2, 6)):
        socket = rng.randrange(machine.n_sockets)
        n_cores = rng.randint(0, free[socket] // 2)
        free[socket] -= n_cores
        communicating = n_cores == 0 or rng.random() < 0.3
        working_set = rng.choice((None, 0.25, 1, 4, 16))
        tenants.append(
            Tenant(
                name=f"t{i}",
                n_cores=n_cores,
                m_comp=rng.randrange(machine.n_numa_nodes) if n_cores else None,
                m_comm=(
                    rng.randrange(machine.n_numa_nodes)
                    if communicating
                    else None
                ),
                socket=socket,
                working_set_bytes=(
                    int(working_set * share)
                    if working_set is not None and n_cores
                    else None
                ),
                bidirectional=communicating and rng.random() < 0.5,
                envelope=_envelope(rng),
            )
        )
    return platform, TenantScenario(tuple(tenants))


def _bandwidths(bw) -> tuple[float, float, float, float]:
    return (bw.comp_gbps, bw.comp_dram_gbps, bw.comm_gbps, bw.comm_tx_gbps)


def _solve_tenants(platform, scenario) -> tuple[int, str, list[str]]:
    from repro.memsim import scenario as scenario_module

    result = scenario_module.solve_tenant_scenario(
        platform.machine, platform.profile, scenario
    )
    numbers = [
        (name, _bandwidths(bw)) for name, bw in result.per_tenant.items()
    ]
    for phase in result.phases:
        numbers.append(
            (
                phase.start_s,
                phase.end_s,
                [(n, _bandwidths(bw)) for n, bw in phase.per_tenant.items()],
            )
        )
    failures = []
    values = [
        v
        for bw in [*result.per_tenant.values()]
        + [bw for p in result.phases for bw in p.per_tenant.values()]
        for v in _bandwidths(bw)
    ]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        failures.append(f"{platform.name}: negative or non-finite bandwidth")
    if result.phases[0].start_s != 0.0 or result.phases[-1].end_s != (
        result.horizon_s
    ):
        failures.append(f"{platform.name}: segments do not cover the horizon")
    return len(result.phases), repr(numbers), failures


def _tenant_ops(seed: int, _root: Path):
    from repro.topology import get_platform
    from repro.topology.platforms import platform_names

    platforms = [get_platform(name) for name in platform_names()]
    rng = random.Random(seed)
    while True:
        yield functools.partial(_solve_tenants, *tenant_scenario(rng, platforms))


#: Workload -> (operation stream, operations the output digest covers,
#: re-run every n-th operation after the window; 0 = never).  A
#: ``reproduce`` round already checks itself: warm must equal cold.
WORKLOADS = {
    "reproduce": (_reproduce_ops, 1, 0),
    "tenants": (_tenant_ops, 64, 10),
}


# ---- the run ---------------------------------------------------------------------


def _attempt(op) -> tuple[int, str, list[str]]:
    try:
        return op()
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        return 0, "", [repr(exc)]


def run(
    workload: str, seed: int, seconds: float, root: Path, turn_s: float,
    op_span=contextlib.nullcontext,
) -> dict:
    """Warm up, run the timed window, then re-check a sample of answers.

    With ``turn_s`` the process takes turns with another: after each
    ``turn_s`` it prints ``turn`` and waits for the next ``go``.  The
    warm-up and the window count only the time it ran.  ``op_span``
    opens a span around each operation.
    """
    make_ops, digest_ops, recheck_every = WORKLOADS[workload]
    ops = make_ops(seed, root)
    digest = hashlib.sha256()
    failures: list[str] = []
    rechecks = []
    window_ops = []  # (start, end, items) of each operation in the window
    op_cpu_s = []  # CPU seconds of every operation, warm-up included
    attempted = failed = 0

    def record(op, material: str, op_failures: list[str]) -> None:
        nonlocal attempted, failed
        if attempted < digest_ops:
            digest.update(material.encode())
        if (
            recheck_every
            and attempted % recheck_every == 0
            and len(rechecks) < RECHECK_MAX
            and not op_failures
        ):
            rechecks.append((op, material))
        attempted += 1
        failed += bool(op_failures)
        failures.extend(op_failures)

    window_start = None
    started = time.perf_counter()
    turn_end = started + turn_s if turn_s else math.inf
    waited = 0.0  # for turns
    while True:
        if time.perf_counter() >= turn_end:
            paused = time.perf_counter()
            print("turn", flush=True)
            sys.stdin.readline()
            resumed = time.perf_counter()
            waited += resumed - paused
            turn_end = resumed + turn_s
        now = time.perf_counter() - waited
        if window_start is None and now >= started + WARMUP_S:
            window_start = now
        if window_start is not None and now >= window_start + seconds:
            break
        op = next(ops)
        cpu_start, op_start = time.process_time(), time.perf_counter()
        with op_span("e2e.op"):
            op_items, material, op_failures = _attempt(op)
        op_end = time.perf_counter()
        op_cpu_s.append(time.process_time() - cpu_start)
        record(op, material, op_failures)
        if window_start is not None:
            window_ops.append((op_start, op_end, op_items))
    # A short run still digests the same operations as a long one.
    while attempted < digest_ops:
        op = next(ops)
        record(op, *_attempt(op)[1:])
    for op, material in rechecks:
        if _attempt(op)[1] != material:
            failed += 1
            failures.append("an answer changed when recomputed")
    return {
        "attempted": attempted + len(rechecks),
        "failed": failed,
        "failures": failures[:20],
        "ops": window_ops,
        "window": (window_start, window_start + seconds),
        "op_cpu_s": op_cpu_s,
        "output_digest": digest.hexdigest()[:16],
        "digest_ops": digest_ops,
    }


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    seconds, turn_s = float(argv[2]), float(argv[3])
    spans_file = Path(argv[4]) if len(argv) > 4 else None
    op_span = contextlib.nullcontext
    if spans_file is not None:
        import layers

        tracer, epoch_s = layers.install()
        op_span = layers.span
    import repro.backends.tournament  # noqa: F401 - set-up cost: imports
    import repro.evaluation.experiments  # noqa: F401
    import repro.memsim  # noqa: F401

    OUT.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = run(workload, seed, seconds, root, turn_s, op_span)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if spans_file is not None:
            layers.dump(tracer, epoch_s, spans_file, "offline")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
