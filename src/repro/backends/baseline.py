"""The §II-D / §V baselines the paper's model is compared against.

The paper discusses alternatives in §II-D (queueing theory) and §V
(related work, notably Langguth et al. [13]).  Each baseline is a
side (:class:`~repro.core.placement.Side`) over the same few
measurements, :class:`BaselineInputs`, fitted on the same two sample
placements as the paper's model, so the baselines compete with it on
the full placement grid through the equations 6/7 selection:

* :class:`NaiveSide` — no contention: everyone gets their nominal
  bandwidth;
* :class:`QueueingSide` — a processor-sharing queue: demand-proportional
  split of the bus capacity, no priorities;
* :class:`LangguthSide` — a thread-fair split in the spirit of Langguth
  et al.: the communication thread counts as one more thread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.backends.base import fit_error
from repro.errors import ModelError
from repro.memsim.policies import waterfill

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import ModeCurves

__all__ = ["BaselineInputs", "LangguthSide", "NaiveSide", "QueueingSide"]


@dataclass(frozen=True)
class BaselineInputs:
    """Minimal measurements every baseline calibrates from.

    Deliberately a subset of the paper model's parameters: baselines
    get the bus capacity, the per-core rate and the network nominal —
    the quantities any of the §II-D / §V approaches would also need.
    Each baseline side is this class plus its ``curves``.
    """

    bus_capacity_gbps: float  # peak observed total bandwidth
    b_comp_seq: float  # one core's bandwidth
    b_comm_seq: float  # network nominal
    t_seq_max: float  # computation-alone peak

    def __post_init__(self) -> None:
        for name in ("bus_capacity_gbps", "b_comp_seq", "b_comm_seq", "t_seq_max"):
            if getattr(self, name) <= 0.0:
                raise ModelError(f"{name} must be positive")

    @classmethod
    def fit(
        cls,
        curves: "ModeCurves",
        *,
        platform: str | None = None,
        placement: "tuple[int, int] | None" = None,
    ) -> "BaselineInputs":
        """Extract the inputs from one placement's curves.

        A degenerate curve (e.g. an all-zero ``comm_alone`` or a sweep
        with a zero-bandwidth first point) is reported here, naming the
        platform and placement it came from — not as a bare ``"... must
        be positive"`` with no way to tell *which* of a grid's curves
        was broken.
        """
        extracted = {
            "bus_capacity_gbps": float(np.max(curves.total_parallel())),
            "b_comp_seq": float(curves.comp_alone[0])
            / int(curves.core_counts[0]),
            "b_comm_seq": float(np.median(curves.comm_alone)),
            "t_seq_max": float(np.max(curves.comp_alone)),
        }
        degenerate = sorted(k for k, v in extracted.items() if v <= 0.0)
        if degenerate:
            raise fit_error(
                "calibrate a baseline",
                platform,
                placement,
                f"the measured curves ({curves.n_points} point(s) at core "
                f"counts {curves.core_counts.tolist()}) yield non-positive "
                f"{', '.join(degenerate)}",
            )
        return cls(**extracted)

    def with_comm_nominal(self, b_comm_seq: float) -> "BaselineInputs":
        return dataclasses.replace(self, b_comm_seq=b_comm_seq)

    def to_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BaselineInputs":
        try:
            return cls(**{k: float(v) for k, v in dict(data).items()})
        except (TypeError, ValueError) as exc:
            raise ModelError(f"baseline side state is malformed: {exc}") from exc

    def _comp_alone(self, ns: np.ndarray) -> np.ndarray:
        """Computation-alone bandwidth (shared by all baselines):
        ``min(n * B_comp_seq, T_seq_max)``, and 0 at ``n = 0``."""
        demand = ns * self.b_comp_seq
        capped = np.where(self.t_seq_max < demand, self.t_seq_max, demand)
        return np.where(ns == 0, 0.0, capped)


class NaiveSide(BaselineInputs):
    """No contention: what every performance model implicitly assumes
    when it ignores the memory system.  Computations scale to their
    solo peak and communications always run at the network nominal; the
    gap to the ground truth *is* the contention the paper measures."""

    def curves(self, ns: np.ndarray) -> dict[str, np.ndarray]:
        alone = self._comp_alone(ns)
        return {
            "comp_par": alone,
            "comm_par": np.full(ns.shape, self.b_comm_seq),
            "comp_alone": alone,
        }


class QueueingSide(BaselineInputs):
    """A single processor-sharing queue over the memory bus (§II-D).

    The paper argues queueing theory is a poor fit for this problem:
    the memory hierarchy would need one queue per component, the
    parameters lack physical meaning, and heterogeneous request rates
    (a NIC issues requests several times faster than a core) break the
    closed forms.  This is the honest single-queue version anyway: the
    bus is one server of capacity ``C``; when the offered load exceeds
    it, every customer gets a share proportional to its demand — no
    priorities, no minimum guarantee.
    """

    def curves(self, ns: np.ndarray) -> dict[str, np.ndarray]:
        demand = ns * self.b_comp_seq
        comp_demand = np.where(self.t_seq_max < demand, self.t_seq_max, demand)
        total = comp_demand + self.b_comm_seq
        capacity = self.bus_capacity_gbps
        fits = total <= capacity
        scale = capacity / total
        comp = np.where(fits, comp_demand, comp_demand * scale)
        return {
            "comp_par": np.where(ns == 0, 0.0, comp),
            "comm_par": np.where(fits, self.b_comm_seq, self.b_comm_seq * scale),
            "comp_alone": self._comp_alone(ns),
        }


class LangguthSide(BaselineInputs):
    """Equal-per-thread (max-min) sharing of the bus capacity.

    Langguth, Cai and Sourouri model memory-bandwidth sharing between
    *communicating and computing threads*: during the overlap period
    the bus is shared per thread.  In steady state the communication
    thread counts as one more thread among ``n`` computing threads,
    each entitled to an equal slice of the bus when it saturates;
    unused entitlement redistributes.

    The split is :func:`~repro.memsim.policies.waterfill` over ``n + 1``
    offers, run once per distinct core count.  Its bits depend on the
    order ``np.argsort`` gives equal offers, so there is no closed form
    to vectorize; the cost is O(n) per core count.
    """

    def curves(self, ns: np.ndarray) -> dict[str, np.ndarray]:
        points, at = np.unique(ns, return_inverse=True)
        comp = np.empty(points.size)
        comm = np.empty(points.size)
        for i, n in enumerate(points.tolist()):
            demands = [self.b_comp_seq] * n + [self.b_comm_seq]
            shares = waterfill(demands, self.bus_capacity_gbps)
            # The computation-alone ceiling still applies.
            comp[i] = min(sum(shares[:n]), self.t_seq_max)
            comm[i] = shares[n]
        return {
            "comp_par": np.where(ns == 0, 0.0, comp[at]),
            "comm_par": comm[at],
            "comp_alone": self._comp_alone(ns),
        }
