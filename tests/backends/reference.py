"""Scalar references for every model backend.

The backends answer from tables filled by array forms of their sides
(:mod:`repro.backends`).  This module keeps the one-``n``-at-a-time
implementations those array forms replaced — the baseline predictors,
and the scalar methods of the overlap and cxlmem sides — with the
equation 6/7 replay that combined them per placement
(:func:`replay`).  ``tests/backends/test_reference.py`` holds every
model's answers equal to them, bit for bit.
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from typing import Any

import numpy as np

from repro.backends.baseline import BaselineInputs
from repro.backends.cxlmem import LeftoverSide
from repro.backends.overlap import SaturationSide
from repro.core.oracle import ScalarOracle
from repro.core.parameters import ModelParameters
from repro.errors import ModelError
from repro.memsim.policies import waterfill

__all__ = [
    "LangguthModel",
    "NaiveModel",
    "QueueingModel",
    "ScalarLeftover",
    "ScalarSaturation",
    "replay",
    "scalar_sides",
]


# ---- the baselines ---------------------------------------------------------------


class BaselinePredictor(abc.ABC):
    """Predicts the same three curves as the paper's model."""

    def __init__(self, inputs: BaselineInputs) -> None:
        self._in = inputs

    @property
    def inputs(self) -> BaselineInputs:
        return self._in

    @abc.abstractmethod
    def comp_parallel(self, n: int) -> float:
        """Computation bandwidth with communications running."""

    @abc.abstractmethod
    def comm_parallel(self, n: int) -> float:
        """Communication bandwidth with ``n`` cores computing."""

    def comp_alone(self, n: int) -> float:
        """Computation-alone bandwidth (shared by all baselines)."""
        self._check_n(n)
        if n == 0:
            return 0.0
        return min(n * self._in.b_comp_seq, self._in.t_seq_max)

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 0:
            raise ModelError(f"core count must be >= 0, got {n}")


class NaiveModel(BaselinePredictor):
    """Assumes computations and communications never interfere."""

    def comp_parallel(self, n: int) -> float:
        self._check_n(n)
        return self.comp_alone(n)

    def comm_parallel(self, n: int) -> float:
        self._check_n(n)
        return self._in.b_comm_seq


class QueueingModel(BaselinePredictor):
    """Single processor-sharing queue over the memory bus."""

    def _shares(self, n: int) -> tuple[float, float]:
        comp_demand = min(n * self._in.b_comp_seq, self._in.t_seq_max)
        comm_demand = self._in.b_comm_seq
        total = comp_demand + comm_demand
        capacity = self._in.bus_capacity_gbps
        if total <= capacity or total == 0.0:
            return comp_demand, comm_demand
        scale = capacity / total
        return comp_demand * scale, comm_demand * scale

    def comp_parallel(self, n: int) -> float:
        self._check_n(n)
        if n == 0:
            return 0.0
        return self._shares(n)[0]

    def comm_parallel(self, n: int) -> float:
        self._check_n(n)
        return self._shares(n)[1]


class LangguthModel(BaselinePredictor):
    """Equal-per-thread (max-min) sharing of the bus capacity."""

    def _shares(self, n: int) -> tuple[float, float]:
        capacity = self._in.bus_capacity_gbps
        per_core = self._in.b_comp_seq
        demands = [per_core] * n + [self._in.b_comm_seq]
        shares = waterfill(demands, capacity)
        comp = sum(shares[:n])
        comm = shares[n]
        # Computation-alone ceiling still applies.
        return min(comp, self._in.t_seq_max), comm

    def comp_parallel(self, n: int) -> float:
        self._check_n(n)
        if n == 0:
            return 0.0
        return self._shares(n)[0]

    def comm_parallel(self, n: int) -> float:
        self._check_n(n)
        return self._shares(n)[1]


# ---- the literature backends' scalar sides -----------------------------------------


class ScalarSaturation:
    """The overlap side's scalar methods, over a side's fields."""

    def __init__(self, side: SaturationSide) -> None:
        self.b_sat = side.b_sat
        self.n_half = side.n_half
        self.b_comp_seq = side.b_comp_seq
        self.b_comm_seq = side.b_comm_seq

    def _sat(self, x: float) -> float:
        """``B(x)`` — achievable bandwidth at ``x`` core-equivalents."""
        if x <= 0.0:
            return 0.0
        return self.b_sat * x / (x + self.n_half)

    @property
    def comm_weight(self) -> float:
        """Core-equivalents of pressure one communication stream adds."""
        return self.b_comm_seq / self.b_comp_seq

    def comp_alone(self, n: int) -> float:
        self._check_n(n)
        # One core cannot exceed its own issue rate, however steep the
        # fitted characteristic starts.
        return min(self._sat(float(n)), n * self.b_comp_seq)

    def _shares(self, n: int) -> tuple[float, float]:
        comp_demand = self.comp_alone(n)
        comm_demand = self.b_comm_seq
        achievable = self._sat(float(n) + self.comm_weight)
        total = comp_demand + comm_demand
        if total <= achievable or total == 0.0:
            return comp_demand, comm_demand
        scale = achievable / total
        return comp_demand * scale, comm_demand * scale

    def comp_parallel(self, n: int) -> float:
        self._check_n(n)
        return self._shares(n)[0]

    def comm_parallel(self, n: int) -> float:
        self._check_n(n)
        return self._shares(n)[1]

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 0:
            raise ModelError(f"core count must be >= 0, got {n}")


class ScalarLeftover:
    """The cxlmem side's scalar methods, over a side's fields."""

    def __init__(self, side: LeftoverSide) -> None:
        self.b_cap = side.b_cap
        self.b_comp_seq = side.b_comp_seq
        self.b_comm_seq = side.b_comm_seq
        self.t_seq_max = side.t_seq_max
        self.comm_floor = side.comm_floor

    def comp_alone(self, n: int) -> float:
        self._check_n(n)
        if n == 0:
            return 0.0
        return min(n * self.b_comp_seq, self.t_seq_max)

    def comp_parallel(self, n: int) -> float:
        # The message-free assumption: computations never notice.
        return self.comp_alone(n)

    def comm_parallel(self, n: int) -> float:
        self._check_n(n)
        leftover = self.b_cap - self.comp_alone(n)
        return float(np.clip(leftover, self.comm_floor, self.b_comm_seq))

    @staticmethod
    def _check_n(n: int) -> None:
        if n < 0:
            raise ModelError(f"core count must be >= 0, got {n}")


# ---- equations 6 and 7 --------------------------------------------------------------


class _Side:
    """A scalar side's three curves and its network nominal.  The
    curves are pure, so each ``n`` is evaluated once per side however
    many placements the side answers."""

    def __init__(self, scalar: Any, b_comm_seq: float) -> None:
        self.comp_parallel = functools.cache(scalar.comp_parallel)
        self.comm_parallel = functools.cache(scalar.comm_parallel)
        self.comp_alone = functools.cache(scalar.comp_alone)
        self.b_comm_seq = b_comm_seq


def _baseline(predictor: type[BaselinePredictor]):
    def sides(local: BaselineInputs, remote: BaselineInputs):
        substituted = dataclasses.replace(local, b_comm_seq=remote.b_comm_seq)
        return tuple(
            _Side(predictor(inputs), inputs.b_comm_seq)
            for inputs in (local, remote, substituted)
        )

    return sides


def _saturation(local: SaturationSide, remote: SaturationSide):
    substituted = SaturationSide(
        b_sat=local.b_sat,
        n_half=local.n_half,
        b_comp_seq=local.b_comp_seq,
        b_comm_seq=remote.b_comm_seq,
    )
    return tuple(
        _Side(ScalarSaturation(side), side.b_comm_seq)
        for side in (local, remote, substituted)
    )


def _leftover(local: LeftoverSide, remote: LeftoverSide):
    substituted = LeftoverSide(
        b_cap=local.b_cap,
        b_comp_seq=local.b_comp_seq,
        b_comm_seq=remote.b_comm_seq,
        t_seq_max=local.t_seq_max,
        comm_floor=min(local.comm_floor, remote.b_comm_seq),
    )
    return tuple(
        _Side(ScalarLeftover(side), side.b_comm_seq)
        for side in (local, remote, substituted)
    )


def _threshold(local: ModelParameters, remote: ModelParameters):
    substituted = local.with_comm_nominal(remote.b_comm_seq)
    return tuple(
        _Side(ScalarOracle(params), params.b_comm_seq)
        for params in (local, remote, substituted)
    )


#: backend id -> ``(local, remote) -> (local, remote, substituted)``
#: scalar sides.
_SIDES = {
    "threshold": _threshold,
    "naive": _baseline(NaiveModel),
    "queueing-ps": _baseline(QueueingModel),
    "langguth-threadfair": _baseline(LangguthModel),
    "overlap-afzal": _saturation,
    "cxlmem-messagefree": _leftover,
}


def scalar_sides(backend_id: str, local: Any, remote: Any) -> tuple:
    """The scalar local, remote and substituted sides of one model."""
    return _SIDES[backend_id](local, remote)


def replay(
    sides: tuple, nodes_per_socket: int, n: int, m_comp: int, m_comm: int
) -> tuple[float, float, float, float]:
    """Equations 6 and 7, one query at a time: ``comp_parallel``,
    ``comm_parallel``, ``comp_alone`` and ``comm_alone``."""
    local, remote, substituted = sides
    comp_remote = m_comp >= nodes_per_socket
    comm_remote = m_comm >= nodes_per_socket
    if comp_remote and m_comp == m_comm:
        comm_side = remote
    elif comm_remote:
        comm_side = substituted
    else:
        comm_side = local
    comp_side = remote if comp_remote else local
    comp = (
        comp_side.comp_parallel(n)
        if m_comp == m_comm
        else comp_side.comp_alone(n)
    )
    return (
        float(comp),
        float(comm_side.comm_parallel(n)),
        float(comp_side.comp_alone(n)),
        float((remote if comm_remote else local).b_comm_seq),
    )
