"""Afzal-style overlap backend (arXiv 2011.00243).

Afzal, Hager and Wellein model concurrently running *memory-bound
kernels* through a shared saturating bandwidth curve: adding streams
moves the memory subsystem along one saturation characteristic instead
of splitting a fixed capacity.  Transplanted to this problem:

* the computation-alone curve is fitted with a rational saturation
  characteristic ``B(x) = B_sat * x / (x + n_half)`` (the classic
  single-knee bandwidth ramp; ``n_half`` is the core count at half
  saturation), via the linearized least-squares fit of ``1/B`` against
  ``1/n``;
* the communication stream counts as ``w = B_comm_seq / B_comp_seq``
  core-equivalents of pressure, so running both sides puts the system
  at ``B(n + w)`` on the same characteristic;
* below saturation nobody is slowed; past it, the achievable total is
  shared proportionally to demand (both kernels are memory-bound, and
  the overlap model knows no priority classes).

Where the paper's threshold model encodes priorities and a minimum
communication guarantee, this backend bets everything on the shape of
one saturation curve — the tournament shows on which regimes that bet
pays off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.backends.base import fit_error
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import ModeCurves

__all__ = ["SaturationSide"]

_SIDE_FIELDS = ("b_sat", "n_half", "b_comp_seq", "b_comm_seq")


class SaturationSide:
    """One instantiation: a fitted saturation curve plus the stream weights."""

    __slots__ = ("b_sat", "n_half", "b_comp_seq", "b_comm_seq")

    def __init__(
        self,
        *,
        b_sat: float,
        n_half: float,
        b_comp_seq: float,
        b_comm_seq: float,
    ) -> None:
        if b_sat <= 0.0 or b_comp_seq <= 0.0 or b_comm_seq <= 0.0:
            raise ModelError(
                "saturation side needs positive b_sat, b_comp_seq and "
                f"b_comm_seq, got {b_sat}, {b_comp_seq}, {b_comm_seq}"
            )
        if n_half < 0.0 or not np.isfinite(n_half):
            raise ModelError(f"n_half must be finite and >= 0, got {n_half}")
        self.b_sat = float(b_sat)
        self.n_half = float(n_half)
        self.b_comp_seq = float(b_comp_seq)
        self.b_comm_seq = float(b_comm_seq)

    # ---- the characteristic ----------------------------------------------------

    def _sat(self, x: np.ndarray) -> np.ndarray:
        """``B(x)`` — achievable bandwidth at ``x`` core-equivalents."""
        with np.errstate(all="ignore"):
            return np.where(x <= 0.0, 0.0, self.b_sat * x / (x + self.n_half))

    @property
    def comm_weight(self) -> float:
        """Core-equivalents of pressure one communication stream adds."""
        return self.b_comm_seq / self.b_comp_seq

    # ---- side surface ----------------------------------------------------------

    def with_comm_nominal(self, b_comm_seq: float) -> "SaturationSide":
        return SaturationSide(
            b_sat=self.b_sat,
            n_half=self.n_half,
            b_comp_seq=self.b_comp_seq,
            b_comm_seq=b_comm_seq,
        )

    def curves(self, ns: np.ndarray) -> dict[str, np.ndarray]:
        x = ns.astype(np.float64)
        sat = self._sat(x)
        demand = ns * self.b_comp_seq
        # One core cannot exceed its own issue rate, however steep the
        # fitted characteristic starts.
        comp_alone = np.where(demand < sat, demand, sat)
        # Both sides on one characteristic: below saturation nobody is
        # slowed; past it, the total is shared in proportion to demand.
        achievable = self._sat(x + self.comm_weight)
        total = comp_alone + self.b_comm_seq
        fits = total <= achievable
        scale = achievable / total
        return {
            "comp_par": np.where(fits, comp_alone, comp_alone * scale),
            "comm_par": np.where(
                fits, self.b_comm_seq, self.b_comm_seq * scale
            ),
            "comp_alone": comp_alone,
        }

    # ---- calibration -----------------------------------------------------------

    @classmethod
    def fit(
        cls,
        curves: "ModeCurves",
        *,
        platform: str | None = None,
        placement: "tuple[int, int] | None" = None,
    ) -> "SaturationSide":
        """Fit the characteristic to one placement's measured curves."""
        ns = curves.core_counts.astype(float)
        ys = curves.comp_alone.astype(float)
        b_comm_seq = float(np.median(curves.comm_alone))
        b_comp_seq = float(ys[0]) / float(ns[0]) if ys[0] > 0.0 else 0.0
        if b_comm_seq <= 0.0 or b_comp_seq <= 0.0:
            raise fit_error(
                "fit the overlap model",
                platform,
                placement,
                "non-positive sequential bandwidths in the sample curves",
            )
        usable = ys > 0.0
        b_sat = float(np.max(ys))
        if int(np.count_nonzero(usable)) >= 2:
            # Linearized least squares: 1/y = 1/b_sat + (n_half/b_sat)/n.
            inv_n = 1.0 / ns[usable]
            inv_y = 1.0 / ys[usable]
            slope, intercept = np.polyfit(inv_n, inv_y, 1)
            if intercept > 0.0 and slope >= 0.0:
                b_sat = 1.0 / float(intercept)
                n_half = float(slope) * b_sat
                return cls(
                    b_sat=b_sat,
                    n_half=n_half,
                    b_comp_seq=b_comp_seq,
                    b_comm_seq=b_comm_seq,
                )
        # Degenerate fit (noise-free linear ramps make the intercept hit
        # zero): anchor the curve at the first measured point instead.
        y0 = float(ys[0])
        n_half = float(ns[0]) * max(b_sat - y0, 0.0) / y0
        return cls(
            b_sat=b_sat,
            n_half=n_half,
            b_comp_seq=b_comp_seq,
            b_comm_seq=b_comm_seq,
        )

    # ---- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _SIDE_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SaturationSide":
        try:
            return cls(**{name: float(data[name]) for name in _SIDE_FIELDS})
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(
                f"overlap side state is malformed: {exc}"
            ) from exc
