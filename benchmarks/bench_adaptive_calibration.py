"""Extension — the paper's footnote-2 calibration optimisation (ext2).

"Once the maxima of bandwidth T_par_max and T_seq_max are found, one
can skip executions with number of computing cores greater than
N_seq_max, except the execution with all cores of the first socket."

Checks that the adaptive sweep (a) saves a meaningful share of the
measurements and (b) calibrates a model whose predictions match the
full sweep's.
"""

import numpy as np

from repro.bench import SweepConfig, run_adaptive_calibration
from repro.bench.runner import measure_curves
from repro.core import calibrate, sweep_curves
from repro.topology import get_platform


PLATFORM = "henri-subnuma"  # early saturation knee: most to save


def run_adaptive():
    platform = get_platform(PLATFORM)
    return run_adaptive_calibration(
        platform.machine,
        platform.profile,
        m_comp=0,
        m_comm=0,
        config=SweepConfig(seed=1),
        # Tolerance above the measurement noise so random wiggles do not
        # masquerade as new maxima.
        tolerance=0.02,
    )


def test_adaptive_calibration(benchmark):
    result = benchmark.pedantic(run_adaptive, rounds=1, iterations=1)
    platform = get_platform(PLATFORM)

    # (a) The optimisation skips a meaningful share of the sweep.
    assert result.measurements_saved >= 2
    fraction_saved = result.measurements_saved / result.full_sweep_size
    assert fraction_saved > 0.2

    # (b) Predictions from the sparse model match the full-sweep model.
    full = measure_curves(
        platform.machine,
        platform.profile,
        m_comp=0,
        m_comm=0,
        config=SweepConfig(seed=1),
    )
    ns = np.arange(1, platform.cores_per_socket + 1)
    sparse_comm = sweep_curves(calibrate(result.curves), ns)["comm_par"]
    full_comm = sweep_curves(calibrate(full), ns)["comm_par"]
    rel = np.abs(sparse_comm - full_comm) / full_comm
    assert float(rel.mean()) < 0.03

    benchmark.extra_info.update(
        {
            "measured_core_counts": list(result.measured_core_counts),
            "measurements_saved": result.measurements_saved,
            "comm_prediction_divergence_pct": round(float(rel.mean()) * 100, 2),
        }
    )
