"""Stacked-bandwidth representation (the paper's Figure 2).

"A convenient way to understand how bandwidths ... evolve is to sum
memory bandwidths for computations and communications and visualize
them by stacking them."  :func:`stacked_view` produces the series and
the annotated points of that figure for a calibrated model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import sweep_curves
from repro.core.parameters import ModelParameters
from repro.errors import ModelError

__all__ = ["StackedView", "stacked_view"]


@dataclass(frozen=True)
class StackedView:
    """Series and annotations of a Figure-2-style stacked plot."""

    core_counts: np.ndarray
    #: Bottom band: computation bandwidth in parallel of communications.
    comp_parallel: np.ndarray
    #: Top band, stacked above ``comp_parallel``.
    comm_parallel: np.ndarray
    #: Reference line: computation bandwidth executed alone (green curve).
    comp_alone: np.ndarray
    #: Annotated points, keyed by the paper's labels.
    points: dict[str, tuple[float, float]]

    def stacked_top(self) -> np.ndarray:
        """Upper envelope of the stacked bands."""
        return self.comp_parallel + self.comm_parallel


def stacked_view(
    params: ModelParameters, *, max_cores: int | None = None
) -> StackedView:
    """Build the Figure-2 view of one model instantiation.

    ``max_cores`` defaults to a few cores past ``n_seq_max`` so the
    ``δr`` region is visible, as in the paper's figure.
    """
    if max_cores is None:
        max_cores = params.n_seq_max + max(4, params.n_seq_max // 3)
    if max_cores < params.n_seq_max:
        raise ModelError(
            f"max_cores={max_cores} hides the inflexion point at "
            f"n_seq_max={params.n_seq_max}"
        )
    ns = np.arange(1, max_cores + 1)
    curves = sweep_curves(params, ns)
    points = {
        "(1, Bcomp_seq)": (1.0, params.b_comp_seq),
        "(Npar_max, Tpar_max)": (float(params.n_par_max), params.t_par_max),
        "(Nseq_max, Tseq_max)": (float(params.n_seq_max), params.t_seq_max),
        "(Nseq_max, Tpar_max2)": (float(params.n_seq_max), params.t_par_max2),
    }
    return StackedView(
        core_counts=ns,
        comp_parallel=curves["comp_par"],
        comm_parallel=curves["comm_par"],
        comp_alone=curves["comp_alone"],
        points=points,
    )
