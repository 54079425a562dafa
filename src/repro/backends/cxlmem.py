"""CXL.mem-style message-free backend (arXiv 2512.08005).

The CXL.mem line of work treats communication as *message-free* load/
store traffic: plain memory accesses issued by cores, with no NIC
doorbells, descriptors or DMA engines competing for the bus.  The
modelling consequence transplanted here: computation — the side
actively issuing from many cores — is never slowed by the passive
communication stream, which instead scavenges whatever bus capacity
the computation leaves unused:

* ``comp_parallel(n) = comp_alone(n) = min(n * B_comp_seq, T_seq_max)``
  — computations are unaffected by communications, by assumption;
* ``comm_parallel(n) = clamp(B_cap - comp_alone(n), floor, B_comm_seq)``
  — communications get the leftover of the measured peak capacity,
  never more than the link nominal and never less than the worst
  observed parallel communication bandwidth (the floor keeps the
  prediction positive, matching the measured reality that transfers
  always make *some* progress).

This is the polar opposite of the paper's minimum-guarantee priority
treatment; on computation curves it is exact by construction, so it
punishes the other backends in computation-heavy regimes and loses
where communications visibly throttle computations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.backends.base import fit_error
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import ModeCurves

__all__ = ["LeftoverSide"]

_SIDE_FIELDS = ("b_cap", "b_comp_seq", "b_comm_seq", "t_seq_max", "comm_floor")


class LeftoverSide:
    """One instantiation: priority computation + leftover communication."""

    __slots__ = ("b_cap", "b_comp_seq", "b_comm_seq", "t_seq_max", "comm_floor")

    def __init__(
        self,
        *,
        b_cap: float,
        b_comp_seq: float,
        b_comm_seq: float,
        t_seq_max: float,
        comm_floor: float,
    ) -> None:
        if min(b_cap, b_comp_seq, b_comm_seq, t_seq_max) <= 0.0:
            raise ModelError(
                "leftover side needs positive b_cap, b_comp_seq, "
                "b_comm_seq and t_seq_max"
            )
        if not 0.0 < comm_floor <= b_comm_seq:
            raise ModelError(
                f"comm_floor must be in (0, b_comm_seq], got {comm_floor}"
            )
        self.b_cap = float(b_cap)
        self.b_comp_seq = float(b_comp_seq)
        self.b_comm_seq = float(b_comm_seq)
        self.t_seq_max = float(t_seq_max)
        self.comm_floor = float(comm_floor)

    # ---- side surface ----------------------------------------------------------

    def with_comm_nominal(self, b_comm_seq: float) -> "LeftoverSide":
        # The floor is a communication bandwidth too: it may not exceed
        # the substituted nominal.
        return LeftoverSide(
            b_cap=self.b_cap,
            b_comp_seq=self.b_comp_seq,
            b_comm_seq=b_comm_seq,
            t_seq_max=self.t_seq_max,
            comm_floor=min(self.comm_floor, b_comm_seq),
        )

    def curves(self, ns: np.ndarray) -> dict[str, np.ndarray]:
        demand = ns * self.b_comp_seq
        capped = np.where(self.t_seq_max < demand, self.t_seq_max, demand)
        comp_alone = np.where(ns == 0, 0.0, capped)
        leftover = self.b_cap - comp_alone
        return {
            # The message-free assumption: computations never notice.
            "comp_par": comp_alone,
            "comm_par": np.clip(leftover, self.comm_floor, self.b_comm_seq),
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
    ) -> "LeftoverSide":
        b_comm_seq = float(np.median(curves.comm_alone))
        b_comp_seq = (
            float(curves.comp_alone[0]) / int(curves.core_counts[0])
            if curves.comp_alone[0] > 0.0
            else 0.0
        )
        if b_comm_seq <= 0.0 or b_comp_seq <= 0.0:
            raise fit_error(
                "fit the cxlmem model",
                platform,
                placement,
                "non-positive sequential bandwidths in the sample curves",
            )
        observed_floor = float(np.min(curves.comm_parallel))
        comm_floor = observed_floor if observed_floor > 0.0 else b_comm_seq * 1e-3
        return cls(
            b_cap=float(np.max(curves.total_parallel())),
            b_comp_seq=b_comp_seq,
            b_comm_seq=b_comm_seq,
            t_seq_max=float(np.max(curves.comp_alone)),
            comm_floor=min(comm_floor, b_comm_seq),
        )

    # ---- serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _SIDE_FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeftoverSide":
        try:
            return cls(**{name: float(data[name]) for name in _SIDE_FIELDS})
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"cxlmem side state is malformed: {exc}") from exc
