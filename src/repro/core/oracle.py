"""Scalar reference oracle for equations 1–5 and 8.

This is the original one-``n``-at-a-time implementation of the model,
kept verbatim as the ground truth the closed form
(:mod:`repro.core.evaluation`) and the tables of
:class:`~repro.core.placement.PlacementModel` are tested against bit
for bit.  It is deliberately *not* cached: ``alpha_factor`` re-derives
the saturation frontier on every call, exactly as the equations are
written, so the microbenchmark can also quantify what the tables buy.

Production code should use :class:`~repro.core.placement.PlacementModel`,
which serves the same values by table lookup.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import ModelParameters
from repro.errors import ModelError

__all__ = ["ScalarOracle"]


class ScalarOracle:
    """Literal scalar evaluation of the paper's equations (§III-B)."""

    def __init__(self, params: ModelParameters) -> None:
        self._p = params

    @property
    def params(self) -> ModelParameters:
        return self._p

    # ---- equation 1 -----------------------------------------------------------

    def total_bandwidth(self, n: int) -> float:
        """``T(n)`` — total bandwidth the memory system supports (Eq. 1)."""
        p = self._p
        self._check_n(n)
        if n <= p.n_par_max:
            return p.t_par_max
        if n == p.n_seq_max:
            # T(N_seq_max) *is* the parameter T_par_max2 by definition.
            value = p.t_par_max2
        elif n < p.n_seq_max:
            value = p.t_par_max - p.delta_l * (n - p.n_par_max)
        else:
            value = p.t_par_max2 - p.delta_r * (n - p.n_seq_max)
        return max(value, 0.0)

    # ---- equation 2 -----------------------------------------------------------

    def requested_bandwidth(self, n: int) -> float:
        """``R(n)`` — bandwidth needed to satisfy everyone (Eq. 2)."""
        p = self._p
        self._check_n(n)
        return n * p.b_comp_seq + p.alpha * p.b_comm_seq

    def saturated(self, n: int) -> bool:
        """True when the requested bandwidth no longer fits (``R(n) >= T(n)``)."""
        return self.requested_bandwidth(n) >= self.total_bandwidth(n)

    # ---- equation 5 -----------------------------------------------------------

    def alpha_factor(self, n: int) -> float:
        """``α(n)`` — communication degradation factor (Eq. 5)."""
        p = self._p
        self._check_n(n)
        if not (p.n_seq_max - p.n_par_max > 1 and n < p.n_seq_max):
            return p.alpha
        i = self._last_unsaturated()
        if i is None or i >= p.n_seq_max:
            return p.alpha
        # Communication share at i cores, from the unsaturated branch of Eq. 4.
        comm_at_i = min(
            self.total_bandwidth(i) - i * p.b_comp_seq if i > 0 else p.b_comm_seq,
            p.b_comm_seq,
        )
        ratio_i = comm_at_i / p.b_comm_seq
        slope = (ratio_i - p.alpha) / (p.n_seq_max - i)
        factor = ratio_i - slope * (n - i)
        # Clamp so out-of-domain evaluations cannot extrapolate past the
        # physical bounds.
        return float(min(max(factor, p.alpha), 1.0))

    def _last_unsaturated(self) -> int | None:
        """``i = max{j | R(j) < T(j)}`` over 0..n_seq_max, or None."""
        p = self._p
        for j in range(p.n_seq_max, -1, -1):
            if j == 0:
                # Zero computing cores always fit (communications alone).
                return 0
            if self.requested_bandwidth(j) < self.total_bandwidth(j):
                return j
        return None

    # ---- equations 3 and 4 ------------------------------------------------------

    def comp_parallel(self, n: int) -> float:
        """``B_comp_par(n)`` — computation bandwidth under overlap (Eq. 3)."""
        p = self._p
        self._check_n(n)
        if n == 0:
            return 0.0
        if not self.saturated(n):
            return n * p.b_comp_seq
        return self.total_bandwidth(n) - self.comm_parallel(n)

    def comm_parallel(self, n: int) -> float:
        """``B_comm_par(n)`` — communication bandwidth under overlap (Eq. 4)."""
        p = self._p
        self._check_n(n)
        if n == 0:
            return p.b_comm_seq
        if not self.saturated(n):
            return min(
                self.total_bandwidth(n) - n * p.b_comp_seq, p.b_comm_seq
            )
        # Guarded by T(n) against degenerate parameter sets.
        return min(self.alpha_factor(n) * p.b_comm_seq, self.total_bandwidth(n))

    # ---- equation 8 -----------------------------------------------------------

    def comp_alone(self, n: int) -> float:
        """``B_comp_seq(n)`` — computation bandwidth without communications (Eq. 8)."""
        p = self._p
        self._check_n(n)
        if n == 0:
            return 0.0
        return min(n * p.b_comp_seq, self.total_bandwidth(n), p.t_seq_max)

    def comm_alone(self) -> float:
        return self._p.b_comm_seq

    # ---- loops -----------------------------------------------------------------

    def sweep(self, core_counts: "np.ndarray | list[int]") -> dict[str, np.ndarray]:
        """The original per-``n`` Python loop over all four curves."""
        ns = np.asarray(core_counts, dtype=int)
        if ns.ndim != 1 or ns.size == 0:
            raise ModelError("core_counts must be a non-empty 1-D sequence")
        return {
            "total": np.array([self.total_bandwidth(int(n)) for n in ns]),
            "comp_par": np.array([self.comp_parallel(int(n)) for n in ns]),
            "comm_par": np.array([self.comm_parallel(int(n)) for n in ns]),
            "comp_alone": np.array([self.comp_alone(int(n)) for n in ns]),
        }

    # ---- helpers --------------------------------------------------------------

    @staticmethod
    def _check_n(n: int) -> None:
        if not isinstance(n, (int, np.integer)):
            raise ModelError(f"core count must be an integer, got {n!r}")
        if n < 0:
            raise ModelError(f"core count must be >= 0, got {n}")
