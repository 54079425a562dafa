"""Model parameters (paper §III-A).

One :class:`ModelParameters` instance describes the behaviour of the
memory system for one data-locality class (local or remote accesses).
The notation maps to the paper as follows:

=====================  =========================================================
attribute               paper notation and meaning
=====================  =========================================================
``n_par_max``           :math:`N^{max}_{par}` — cores at which the *parallel*
                        total bandwidth peaks
``t_par_max``           :math:`T^{max}_{par}` — that peak total bandwidth
``n_seq_max``           :math:`N^{max}_{seq}` — cores at which the
                        *computation-alone* bandwidth peaks
``t_seq_max``           :math:`T^{max}_{seq}` — that peak bandwidth
``t_par_max2``          :math:`T^{max2}_{par}` — parallel total bandwidth with
                        exactly :math:`N^{max}_{seq}` computing cores
``delta_l``             :math:`\\delta_l` — total bandwidth lost per extra core
                        between :math:`N^{max}_{par}` and :math:`N^{max}_{seq}`
``delta_r``             :math:`\\delta_r` — total bandwidth lost per extra core
                        beyond :math:`N^{max}_{seq}`
``b_comp_seq``          :math:`B^{comp}_{seq}` — one core's memory bandwidth
``b_comm_seq``          :math:`B^{comm}_{seq}` — communication bandwidth alone
``alpha``               :math:`\\alpha` — worst-case fraction of
                        :math:`B^{comm}_{seq}` left to communications
=====================  =========================================================

All bandwidths are in GB/s.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["ModelParameters"]


@dataclass(frozen=True)
class ModelParameters:
    """Parameter set of one model instantiation (§III-A)."""

    n_par_max: int
    t_par_max: float
    n_seq_max: int
    t_seq_max: float
    t_par_max2: float
    delta_l: float
    delta_r: float
    b_comp_seq: float
    b_comm_seq: float
    alpha: float

    def __post_init__(self) -> None:
        if self.n_par_max < 1:
            raise ModelError(f"n_par_max must be >= 1, got {self.n_par_max}")
        if self.n_seq_max < self.n_par_max:
            raise ModelError(
                "n_seq_max must be >= n_par_max (contention starts earlier "
                f"with communications running): got n_seq_max={self.n_seq_max} "
                f"< n_par_max={self.n_par_max}"
            )
        for name in ("t_par_max", "t_seq_max", "t_par_max2", "b_comp_seq", "b_comm_seq"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ModelError(f"{name} must be positive, got {value}")
        if self.delta_l < 0.0 or self.delta_r < 0.0:
            raise ModelError(
                f"slopes must be non-negative, got delta_l={self.delta_l}, "
                f"delta_r={self.delta_r}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ModelError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.t_par_max2 > self.t_par_max + 1e-9:
            raise ModelError(
                "t_par_max2 (total bandwidth at n_seq_max cores) cannot exceed "
                f"the parallel peak t_par_max: {self.t_par_max2} > {self.t_par_max}"
            )

    # ---- convenience ----------------------------------------------------------

    def with_comm_nominal(self, b_comm_seq: float) -> "ModelParameters":
        """Copy with a substituted nominal network bandwidth.

        Implements the locality-sensitive-NIC rule of equation 6: "we
        use the local model, but with the nominal network performances
        when data are located on remote memory, i.e. the
        :math:`B^{comm}_{seq}` of :math:`M_{remote}`".
        """
        return replace(self, b_comm_seq=b_comm_seq)

    def curves(self, ns: np.ndarray) -> dict[str, np.ndarray]:
        """Equations 1–5 and 8 over a core-count array
        (:func:`repro.core.evaluation.curves`): this instantiation as a
        :class:`~repro.core.placement.PlacementModel` side."""
        # Imported here: the evaluation module imports this one.
        from repro.core import evaluation

        return evaluation.curves(self, ns)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelParameters":
        expected = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - expected
        if unknown:
            raise ModelError(f"unknown parameter fields: {sorted(unknown)}")
        missing = expected - set(data)
        if missing:
            raise ModelError(f"missing parameter fields: {sorted(missing)}")
        return cls(**{k: data[k] for k in expected})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelParameters":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid parameter JSON: {exc}") from exc
        return cls.from_dict(data)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Npar={self.n_par_max} Tpar={self.t_par_max:.1f} "
            f"Nseq={self.n_seq_max} Tseq={self.t_seq_max:.1f} "
            f"Tpar2={self.t_par_max2:.1f} dl={self.delta_l:.2f} "
            f"dr={self.delta_r:.2f} Bcomp={self.b_comp_seq:.2f} "
            f"Bcomm={self.b_comm_seq:.2f} alpha={self.alpha:.2f}"
        )
