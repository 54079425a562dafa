"""Least-squares refinement of the model parameters.

The paper extracts parameters with a cheap curve analysis (minima,
maxima, two-point slopes — §IV-A2), arguing the model "has the
advantage of requiring few application runs to calibrate".  A natural
question it leaves open: *how much accuracy does the cheap extraction
leave on the table?*  This module answers it by fitting the same model
family to the same curves with a proper optimiser
(:func:`scipy.optimize.minimize`, Nelder–Mead over the continuous
parameters with the integer knees scanned exhaustively), then the
ablation benchmark compares the two calibrations against ground truth.

The refined fit is an *upper bound* on what the model family can do on
one placement — the paper's heuristic typically lands within a couple
of percent of it, which is the quantified version of the paper's
"accurate enough for our needs" judgement.
"""

from __future__ import annotations

import numpy as np

from repro.bench.results import ModeCurves
from repro.core.calibration import calibrate
from repro.core.evaluation import sweep_curves
from repro.core.parameters import ModelParameters
from repro.errors import CalibrationError, ModelError

__all__ = ["refine_parameters", "fit_quality"]


def fit_quality(params: ModelParameters, curves: ModeCurves) -> float:
    """Mean relative error of a parameter set against measured curves.

    Averages the relative error of the three predicted curves
    (comm/comp in parallel, comp alone) — the quantity the refinement
    minimises.  Goes through the vectorized evaluation layer: this runs
    inside the optimiser's objective, thousands of times per refinement.
    """
    ns = curves.core_counts
    swept = sweep_curves(params, ns)
    total = 0.0
    for predicted, measured in (
        (swept["comm_par"], curves.comm_parallel),
        (swept["comp_par"], curves.comp_parallel),
        (swept["comp_alone"], curves.comp_alone),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(predicted - measured) / np.maximum(measured, 1e-9)
        total += float(np.mean(rel))
    return total / 3.0


def _vector_to_params(
    x: np.ndarray, n_par: int, n_seq: int
) -> ModelParameters | None:
    """Decode an optimiser vector; None when the decoding is invalid."""
    t_par, t_seq, t_par2, delta_l, delta_r, b_comp, b_comm, alpha = x
    try:
        return ModelParameters(
            n_par_max=n_par,
            t_par_max=float(t_par),
            n_seq_max=n_seq,
            t_seq_max=float(t_seq),
            t_par_max2=float(min(t_par2, t_par)),
            delta_l=float(max(delta_l, 0.0)),
            delta_r=float(max(delta_r, 0.0)),
            b_comp_seq=float(b_comp),
            b_comm_seq=float(b_comm),
            alpha=float(np.clip(alpha, 1e-6, 1.0)),
        )
    except ModelError:
        # Out-of-range values the optimiser wandered into: a rejected
        # candidate, not a failure.  Anything else (TypeError,
        # AttributeError, ...) is a genuine bug and must propagate —
        # swallowing it here used to misreport bugs as "calibration
        # failed".
        return None


def refine_parameters(
    curves: ModeCurves,
    *,
    initial: ModelParameters | None = None,
    knee_radius: int = 2,
    maxiter: int = 400,
) -> ModelParameters:
    """Refine a calibration by direct optimisation against the curves.

    ``initial`` defaults to the paper's heuristic extraction.  The
    integer knees (``n_par_max``, ``n_seq_max``) are scanned within
    ``knee_radius`` of the initial values; the eight continuous
    parameters are optimised per knee pair.
    """
    # Imported here: SciPy is only a test and benchmark dependency.
    from scipy.optimize import minimize

    if knee_radius < 0:
        raise CalibrationError("knee_radius must be >= 0")
    start = initial if initial is not None else calibrate(curves)
    n_max = int(curves.core_counts[-1])

    x0 = np.array(
        [
            start.t_par_max,
            start.t_seq_max,
            start.t_par_max2,
            start.delta_l,
            start.delta_r,
            start.b_comp_seq,
            start.b_comm_seq,
            start.alpha,
        ]
    )

    best_params = start
    best_quality = fit_quality(start, curves)

    for n_par in range(
        max(1, start.n_par_max - knee_radius),
        min(n_max, start.n_par_max + knee_radius) + 1,
    ):
        for n_seq in range(
            max(n_par, start.n_seq_max - knee_radius),
            min(n_max, start.n_seq_max + knee_radius) + 1,
        ):

            def objective(x: np.ndarray) -> float:
                params = _vector_to_params(x, n_par, n_seq)
                if params is None:
                    return 1e6
                return fit_quality(params, curves)

            result = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": 1e-4, "fatol": 1e-7},
            )
            candidate = _vector_to_params(result.x, n_par, n_seq)
            if candidate is None:
                continue
            quality = fit_quality(candidate, curves)
            if quality < best_quality:
                best_quality = quality
                best_params = candidate

    return best_params
