"""The paper's primary contribution: the memory-contention model.

* :mod:`repro.core.parameters` — the model's parameter set (§III-A);
* :mod:`repro.core.evaluation` — one model instantiation, equations
  1–5 and 8 (§III-B), as closed-form array expressions;
* :mod:`repro.core.oracle` — the scalar reference implementation the
  closed form is tested against;
* :mod:`repro.core.calibration` — extracting parameters from benchmark
  curves (§IV-A2);
* :mod:`repro.core.placement` — the model of one machine: the local and
  remote instantiations combined by equations 6 and 7 (§III-C) into
  per-placement tables that answer every query by lookup;
* :mod:`repro.core.compiled` — ``CompiledModel``, the former name of
  :class:`~repro.core.placement.PlacementModel`;
* :mod:`repro.core.stacked` — the stacked-bandwidth representation of
  Figure 2.
"""

from repro.core.calibration import calibrate, calibrate_placement_model
from repro.core.evaluation import as_core_counts, sweep_curves
from repro.core.fitting import fit_quality, refine_parameters
from repro.core.oracle import ScalarOracle
from repro.core.parameters import ModelParameters
from repro.core.placement import PlacementModel, PlacementPrediction
from repro.core.sensitivity import SensitivityResult, parameter_sensitivity
from repro.core.stacked import StackedView, stacked_view

__all__ = [
    "ModelParameters",
    "PlacementModel",
    "PlacementPrediction",
    "ScalarOracle",
    "StackedView",
    "SensitivityResult",
    "as_core_counts",
    "calibrate",
    "calibrate_placement_model",
    "fit_quality",
    "parameter_sensitivity",
    "refine_parameters",
    "stacked_view",
    "sweep_curves",
]
