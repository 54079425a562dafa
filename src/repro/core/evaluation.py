"""The closed form of equations 1–5 and 8, over arrays of core counts.

Every consumer of the model — the placement tables, calibration and
fitting, sensitivity analysis, the figures — evaluates the same
piecewise-linear family over many core counts.  Doing that one ``n`` at
a time in Python, re-deriving the saturation frontier (an
O(``n_seq_max``) scan) inside every ``alpha_factor`` call, makes a full
sweep O(n²).  This module evaluates it as NumPy array expressions:

* :func:`curves` — the four curves of one instantiation over an array
  of core counts, in one pass that scans the frontier once;
* :func:`total_bandwidth`, :func:`last_unsaturated` and
  :func:`alpha_factor` — equation 1, the saturation frontier and
  equation 5 on their own;
* :func:`sweep_curves` — validated :func:`curves` of one parameter set;
* :func:`as_core_counts` — the integer-core-count contract shared by
  every array entry point (``sweep_curves``, ``predict``, the
  measurement runners): non-integral core counts are rejected, never
  truncated.

Nothing here is cached.  :class:`~repro.core.placement.PlacementModel`
evaluates the closed form once per instantiation when it builds its
tables; everything else evaluates it on the points it asks for.  The
scalar implementation in :mod:`repro.core.oracle` is the reference:
the property suite asserts the arrays produced here match it bit for
bit.
"""

from __future__ import annotations

from typing import Type

import numpy as np

from repro.core.parameters import ModelParameters
from repro.errors import ModelError, ReproError

__all__ = [
    "alpha_factor",
    "as_core_counts",
    "curves",
    "last_unsaturated",
    "sweep_curves",
    "total_bandwidth",
]


def as_core_counts(
    core_counts: object, *, error: Type[ReproError] = ModelError
) -> np.ndarray:
    """Validate and convert core counts to a 1-D ``int64`` array.

    Integral floats (e.g. ``np.arange(1.0, 5.0)``) are accepted;
    non-integral values raise ``error`` instead of being silently
    truncated — ``2.7`` cores is a caller bug, not 2 cores.
    """
    arr = np.asarray(core_counts)
    if arr.ndim != 1 or arr.size == 0:
        raise error("core_counts must be a non-empty 1-D sequence")
    if arr.dtype.kind not in "iuf":
        raise error(f"core counts must be integers, got dtype {arr.dtype}")
    with np.errstate(invalid="ignore"):
        ns = arr.astype(np.int64)
    if arr.dtype.kind != "i":
        # Floats and uint64 must convert exactly: no fractions, NaN,
        # infinities or values past int64.
        bad = arr[ns != arr][:3].tolist()
        if bad:
            raise error(
                "core counts must be integral and fit in int64, got "
                f"{', '.join(repr(b) for b in bad)}"
            )
    if np.any(ns < 0):
        raise error(f"core counts must be >= 0, got {int(ns.min())}")
    return ns


# ---- the closed form ----------------------------------------------------------
#
# Every function takes a 1-D non-negative ``int64`` array (as produced
# by :func:`as_core_counts`) and returns ``float64`` arrays that match
# :class:`repro.core.oracle.ScalarOracle` bit for bit.


def total_bandwidth(p: ModelParameters, ns: np.ndarray) -> np.ndarray:
    """``T(n)`` (Eq. 1), floored at zero."""
    mid = p.t_par_max - p.delta_l * (ns - p.n_par_max)
    right = p.t_par_max2 - p.delta_r * (ns - p.n_seq_max)
    out = np.where(ns < p.n_seq_max, mid, right)
    out = np.where(ns == p.n_seq_max, p.t_par_max2, out)
    out = np.where(ns <= p.n_par_max, p.t_par_max, out)
    return np.maximum(out, 0.0)


def _requested(p: ModelParameters, ns: np.ndarray) -> np.ndarray:
    """``R(n)`` (Eq. 2)."""
    return ns * p.b_comp_seq + p.alpha * p.b_comm_seq


def last_unsaturated(p: ModelParameters) -> int:
    """The saturation frontier ``i = max{j | R(j) < T(j)}``.

    ``j = 0`` (communications alone) always fits, so the frontier
    always exists.
    """
    js = np.arange(p.n_seq_max + 1, dtype=np.int64)
    unsat = _requested(p, js) < total_bandwidth(p, js)
    unsat[0] = True
    return int(np.nonzero(unsat)[0][-1])


def alpha_factor(p: ModelParameters, ns: np.ndarray) -> np.ndarray:
    """``α(n)`` (Eq. 5)."""
    out = np.full(ns.shape, p.alpha, dtype=float)
    if p.n_seq_max - p.n_par_max <= 1:
        return out
    i = last_unsaturated(p)
    if i >= p.n_seq_max:
        return out
    if i > 0:
        total_i = float(total_bandwidth(p, np.asarray([i], dtype=np.int64))[0])
        comm_at_i = min(total_i - i * p.b_comp_seq, p.b_comm_seq)
    else:
        comm_at_i = p.b_comm_seq
    ratio_i = comm_at_i / p.b_comm_seq
    slope = (ratio_i - p.alpha) / (p.n_seq_max - i)
    factor = ratio_i - slope * (ns - i)
    interp = np.minimum(np.maximum(factor, p.alpha), 1.0)
    return np.where(ns < p.n_seq_max, interp, out)


def curves(p: ModelParameters, ns: np.ndarray) -> dict[str, np.ndarray]:
    """``total`` (Eq. 1), ``comp_par`` (Eq. 3), ``comm_par`` (Eq. 4) and
    ``comp_alone`` (Eq. 8) in one pass, sharing the ``T``/saturation
    work."""
    total = total_bandwidth(p, ns)
    sat = _requested(p, ns) >= total
    demand = ns * p.b_comp_seq
    comm_unsat = np.minimum(total - demand, p.b_comm_seq)
    comm_sat = np.minimum(alpha_factor(p, ns) * p.b_comm_seq, total)
    comm = np.where(sat, comm_sat, comm_unsat)
    comm = np.where(ns == 0, p.b_comm_seq, comm)
    comp = np.where(sat, total - comm, demand)
    comp = np.where(ns == 0, 0.0, comp)
    alone = np.where(
        ns == 0, 0.0, np.minimum(np.minimum(demand, total), p.t_seq_max)
    )
    return {
        "total": total,
        "comp_par": comp,
        "comm_par": comm,
        "comp_alone": alone,
    }


def sweep_curves(
    params: ModelParameters,
    core_counts: object,
    *,
    error: Type[ReproError] = ModelError,
) -> dict[str, np.ndarray]:
    """Validated :func:`curves` of one parameter set."""
    return curves(params, as_core_counts(core_counts, error=error))
