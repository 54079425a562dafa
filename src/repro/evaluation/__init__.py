"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.evaluation.metrics` — MAPE and the sample/non-sample
  error split of Table II;
* :mod:`repro.evaluation.experiments` — per-platform experiment runs
  (benchmark → calibrate → predict → error) and the figure registry;
* :mod:`repro.evaluation.tables` — text renderers for Tables I and II;
* :mod:`repro.evaluation.figures` — data series and ASCII rendering for
  Figures 2–8;
* :mod:`repro.evaluation.report` — the EXPERIMENTS.md generator.
"""

from repro.evaluation.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_all_experiments,
    run_platform_experiment,
)
from repro.evaluation.diagnostics import (
    PlacementDiagnosis,
    diagnose,
    render_diagnosis,
)
from repro.evaluation.compare import compare_to_paper, render_comparison
from repro.evaluation.metrics import ErrorBreakdown, mape, placement_errors
from repro.evaluation.svg import figure_svg, stacked_svg
from repro.evaluation.tables import render_table1, render_table2
from repro.evaluation.figures import figure_series, render_figure_ascii

__all__ = [
    "EXPERIMENTS",
    "ErrorBreakdown",
    "ExperimentResult",
    "PlacementDiagnosis",
    "compare_to_paper",
    "diagnose",
    "figure_svg",
    "figure_series",
    "mape",
    "placement_errors",
    "render_figure_ascii",
    "render_comparison",
    "render_diagnosis",
    "render_table1",
    "render_table2",
    "run_all_experiments",
    "run_platform_experiment",
    "stacked_svg",
]
