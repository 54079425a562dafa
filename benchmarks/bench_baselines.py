"""Baselines vs the paper's model (DESIGN.md abl3).

Scores the §II-D / §V alternatives against the same ground truth:

* **naive** (no contention at all),
* **queueing-ps** (single processor-sharing queue, no priorities),
* **langguth-threadfair** (equal per-thread sharing).

The paper's model should beat all three on communication prediction for
contended platforms, and the margin should shrink on diablo where there
is almost nothing to model.
"""

import numpy as np

from repro.backends.baseline import LangguthSide, NaiveSide, QueueingSide
from repro.evaluation import mape
from _common import run_figure_pipeline, timed

BASELINES = {
    "naive": NaiveSide,
    "queueing-ps": QueueingSide,
    "langguth-threadfair": LangguthSide,
}


def collect(recorder, benchmark=None) -> None:
    """Perf-trajectory hook: baseline-vs-model accuracy on two platforms.

    The trajectory watches the *margins*, not just the wall time: the
    paper model's communication MAPE per predictor on contended henri
    (tight band — deterministic for a fixed seed) and the near
    contention-free diablo, where every predictor converges.  A model
    change that silently erodes the henri margin fails the gate.
    """
    holder: dict = {}
    duration_s = timed(
        lambda: holder.setdefault("henri", score_platform("henri"))
    )
    henri = holder["henri"]
    recorder.metric(
        "henri_wall_ms", duration_s * 1e3, unit="ms", direction="lower",
        band=2.5,
    )
    for name, value in sorted(henri.items()):
        slug = name.replace("-", "_")
        recorder.metric(
            f"henri_{slug}_comm_mape_pct", value, unit="%",
            direction="lower", band=0.05,
        )
    diablo = score_platform("diablo")
    recorder.metric(
        "diablo_paper_model_comm_mape_pct", diablo["paper-model"],
        unit="%", direction="lower", band=0.05,
    )
    recorder.metric(
        "diablo_naive_comm_mape_pct", diablo["naive"], unit="%",
        direction="lower", band=0.05,
    )
    recorder.context(
        platforms=["henri", "diablo"],
        predictors=sorted([*BASELINES, "paper-model"]),
        seed=1,
    )


def score_platform(platform_name: str) -> dict[str, float]:
    """Mean communication MAPE over all placements, per predictor."""
    result = run_figure_pipeline(platform_name)
    scores: dict[str, list[float]] = {name: [] for name in BASELINES}
    scores["paper-model"] = []
    for key in result.dataset.sweep:
        curves = result.dataset.sweep[key]
        scores["paper-model"].append(
            mape(curves.comm_parallel, result.predictions[key].comm_parallel)
        )
        for name, side in BASELINES.items():
            swept = side.fit(curves).curves(curves.core_counts)
            scores[name].append(mape(curves.comm_parallel, swept["comm_par"]))
    return {name: float(np.mean(vals)) for name, vals in scores.items()}


def test_baselines_henri(benchmark):
    scores = benchmark.pedantic(
        score_platform, args=("henri",), rounds=1, iterations=1
    )
    # The paper's model wins on a contended platform.
    for name in BASELINES:
        assert scores["paper-model"] < scores[name], (
            f"paper model ({scores['paper-model']:.2f}%) should beat "
            f"{name} ({scores[name]:.2f}%)"
        )
    # The naive baseline is far off: contention is a real, large effect.
    assert scores["naive"] > 3.0 * scores["paper-model"]
    benchmark.extra_info["comm_mape_pct"] = {
        k: round(v, 2) for k, v in scores.items()
    }


def test_baselines_diablo(benchmark):
    scores = benchmark.pedantic(
        score_platform, args=("diablo",), rounds=1, iterations=1
    )
    # Nearly contention-free: even the naive baseline is decent here,
    # but the full model must not be (much) worse than any baseline.
    for name in BASELINES:
        assert scores["paper-model"] <= scores[name] + 0.5
    assert scores["naive"] < 5.0
    benchmark.extra_info["comm_mape_pct"] = {
        k: round(v, 2) for k, v in scores.items()
    }
