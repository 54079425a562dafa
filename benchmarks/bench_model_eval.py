"""Microbenchmark: the model's table lookups vs the scalar loop.

The artefact guarded here: a full 16-placement × 64-core
model-prediction grid read out of a :class:`PlacementModel`'s tables is
at least 10× faster than the original per-``n`` scalar loop, while
producing bit-for-bit identical numbers.

The scalar baseline replays the pre-vectorization implementation
exactly: three :class:`ScalarOracle` instantiations (local, remote,
local-with-remote-nominal) queried one core count at a time through the
selection rules of equations 6 and 7, re-deriving the saturation
frontier inside every saturated ``comm_parallel`` call — the O(n²)
behaviour the closed form and the tables remove.
"""

from __future__ import annotations

import numpy as np

from _common import best_of

from repro.core.oracle import ScalarOracle
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel

N_CORES = 64
NODES_PER_SOCKET = 2
N_NUMA_NODES = 4  # 4 x 4 = 16 placements

LOCAL = ModelParameters(
    n_par_max=24,
    t_par_max=120.0,
    n_seq_max=48,
    t_seq_max=110.0,
    t_par_max2=100.0,
    delta_l=0.8,
    delta_r=0.4,
    b_comp_seq=4.0,
    b_comm_seq=12.0,
    alpha=0.35,
)
REMOTE = ModelParameters(
    n_par_max=20,
    t_par_max=80.0,
    n_seq_max=44,
    t_seq_max=75.0,
    t_par_max2=66.0,
    delta_l=0.6,
    delta_r=0.3,
    b_comp_seq=2.5,
    b_comm_seq=9.0,
    alpha=0.3,
)


def _placements() -> list[tuple[int, int]]:
    nodes = range(N_NUMA_NODES)
    return [(mc, mm) for mc in nodes for mm in nodes]


def scalar_grid(ns: np.ndarray) -> dict[tuple[int, int], dict[str, np.ndarray]]:
    """The pre-PR code path: scalar oracle calls, one ``n`` at a time."""
    local = ScalarOracle(LOCAL)
    remote = ScalarOracle(REMOTE)
    local_remote_nominal = ScalarOracle(
        LOCAL.with_comm_nominal(REMOTE.b_comm_seq)
    )

    def is_remote(m: int) -> bool:
        return m >= NODES_PER_SOCKET

    grid = {}
    for m_comp, m_comm in _placements():
        comp, comm, alone = [], [], []
        for n in ns:
            n = int(n)
            # Equation 6.
            if is_remote(m_comp) and m_comp == m_comm:
                comm.append(remote.comm_parallel(n))
            elif is_remote(m_comm):
                comm.append(local_remote_nominal.comm_parallel(n))
            else:
                comm.append(local.comm_parallel(n))
            # Equation 7.
            side = remote if is_remote(m_comp) else local
            comp.append(
                side.comp_parallel(n) if m_comp == m_comm else side.comp_alone(n)
            )
            alone.append(side.comp_alone(n))
        grid[(m_comp, m_comm)] = {
            "comp_par": np.array(comp),
            "comm_par": np.array(comm),
            "comp_alone": np.array(alone),
        }
    return grid


def compiled_grid(
    model: PlacementModel, ns: np.ndarray
) -> dict[tuple[int, int], dict[str, np.ndarray]]:
    return {
        key: {
            "comp_par": pred.comp_parallel,
            "comm_par": pred.comm_parallel,
            "comp_alone": pred.comp_alone,
        }
        for key, pred in model.predict_grid(ns, _placements()).items()
    }


ROUNDS_SCALAR = 3
ROUNDS_COMPILED = 10


def collect(recorder) -> None:
    """The timed workload, publishing through one recorder.

    Shared verbatim by the pytest benchmark below and by ``repro bench
    run`` (the BENCH_model_eval.json trajectory).
    """
    ns = np.arange(1, N_CORES + 1)
    model = PlacementModel(
        LOCAL, REMOTE,
        nodes_per_socket=NODES_PER_SOCKET, n_numa_nodes=N_NUMA_NODES,
    )

    # Identical outputs first: the speed means nothing otherwise.  The
    # tables are held to the scalar oracle replay of equations 6 and 7.
    reference = scalar_grid(ns)
    tabulated = compiled_grid(model, ns)
    assert set(reference) == set(tabulated)
    for key in reference:
        for curve in ("comp_par", "comm_par", "comp_alone"):
            assert np.array_equal(reference[key][curve], tabulated[key][curve])

    t_scalar = best_of(lambda: scalar_grid(ns), rounds=ROUNDS_SCALAR)
    t_compiled = best_of(
        lambda: compiled_grid(model, ns), rounds=ROUNDS_COMPILED
    )
    # Raw ms timings drift heavily across process invocations on busy
    # or single-core hosts; the speedup ratio (both sides measured in
    # the same process) is the tighter trajectory signal.
    recorder.metric(
        "grid_scalar_ms", t_scalar * 1e3, unit="ms", direction="lower",
        band=1.5,
    )
    recorder.metric(
        "grid_speedup", t_scalar / t_compiled, unit="x",
        direction="higher", band=1.0,
    )
    recorder.metric(
        "grid_compiled_ms", t_compiled * 1e3, unit="ms",
        direction="lower", band=1.5,
    )
    recorder.context(
        grid=f"{len(_placements())} placements x {N_CORES} cores",
        rounds_scalar=ROUNDS_SCALAR,
        rounds_compiled=ROUNDS_COMPILED,
    )


def test_vectorized_grid_speedup(benchmark):
    from repro.benchtrack import BenchRecorder

    recorder = BenchRecorder()
    collect(recorder)
    values = recorder.values()
    speedup = values["grid_speedup"]
    assert speedup >= 10.0, (
        f"table lookups only {speedup:.1f}x faster than the scalar loop "
        f"({values['grid_scalar_ms']:.2f} ms vs "
        f"{values['grid_compiled_ms']:.2f} ms)"
    )

    benchmark.extra_info.update(
        {
            "grid": f"{len(_placements())} placements x {N_CORES} cores",
            "scalar_ms": round(values["grid_scalar_ms"], 3),
            "compiled_ms": round(values["grid_compiled_ms"], 3),
            "speedup": round(speedup, 1),
        }
    )
    ns = np.arange(1, N_CORES + 1)
    model = PlacementModel(
        LOCAL, REMOTE,
        nodes_per_socket=NODES_PER_SOCKET, n_numa_nodes=N_NUMA_NODES,
    )
    benchmark.pedantic(
        compiled_grid, args=(model, ns), rounds=10, iterations=1
    )
