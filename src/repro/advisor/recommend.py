"""Recommendation engine over a calibrated placement model.

For a workload that must move ``comp_bytes`` of computation data and
receive ``comm_bytes`` of messages, overlapped, the predicted makespan
with ``n`` cores and placement ``(m_comp, m_comm)`` is::

    t(n, m_comp, m_comm) = max(comp_bytes / B_comp_par,
                               comm_bytes / B_comm_par)

The advisor enumerates every feasible choice, scores it with the model,
and returns recommendations ranked by makespan (ties broken toward
fewer cores — freeing cores is valuable to a runtime system).

Mixed local/remote computing cores across sockets are outside the
model's validity (§II-B leaves them to future work); the advisor only
considers cores of socket 0, like the paper's benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import logging
import math

import numpy as np

from repro.core.evaluation import as_core_counts
from repro.core.placement import PlacementModel
from repro.errors import AdvisorError
from repro.topology.objects import Machine

__all__ = ["Workload", "Recommendation", "Advisor"]

log = logging.getLogger("repro.advisor")


@dataclass(frozen=True)
class Workload:
    """Bytes each side must move during the overlapped phase."""

    comp_bytes: float
    comm_bytes: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.comp_bytes, self.comm_bytes))):
            raise AdvisorError("workload byte counts must be finite")
        if self.comp_bytes < 0 or self.comm_bytes < 0:
            raise AdvisorError("workload byte counts must be non-negative")
        if self.comp_bytes == 0 and self.comm_bytes == 0:
            raise AdvisorError("workload moves no data; nothing to advise")


@dataclass(frozen=True)
class Recommendation:
    """One scored configuration."""

    n_cores: int
    m_comp: int
    m_comm: int
    makespan_s: float
    comp_gbps: float
    comm_gbps: float

    def describe(self) -> str:
        return (
            f"{self.n_cores} cores, comp data on node {self.m_comp}, "
            f"comm data on node {self.m_comm}: "
            f"makespan {self.makespan_s * 1e3:.2f} ms "
            f"(comp {self.comp_gbps:.1f} GB/s, comm {self.comm_gbps:.1f} GB/s)"
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view (used by the prediction service)."""
        return {
            "n_cores": self.n_cores,
            "m_comp": self.m_comp,
            "m_comm": self.m_comm,
            "makespan_s": self.makespan_s,
            "comp_gbps": self.comp_gbps,
            "comm_gbps": self.comm_gbps,
        }


class Advisor:
    """Ranks core counts and placements for an overlapped workload."""

    def __init__(self, model: PlacementModel, machine: Machine) -> None:
        if machine.nodes_per_socket != model.nodes_per_socket:
            raise AdvisorError(
                "model and machine disagree on NUMA layout: "
                f"{model.nodes_per_socket} vs {machine.nodes_per_socket} "
                "nodes per socket"
            )
        self._model = model
        self._machine = machine

    def score(
        self, workload: Workload, n: int, m_comp: int, m_comm: int
    ) -> Recommendation:
        """Score one configuration."""
        if not 1 <= n <= self._machine.cores_per_socket:
            raise AdvisorError(
                f"n={n} outside 1..{self._machine.cores_per_socket} "
                "(the model covers one socket's cores only, §II-B)"
            )
        comp_gbps = self._model.comp_parallel(n, m_comp, m_comm)
        comm_gbps = self._model.comm_parallel(n, m_comp, m_comm)
        times = []
        if workload.comp_bytes > 0:
            if comp_gbps <= 0:
                raise AdvisorError(
                    f"model predicts zero computation bandwidth for "
                    f"(n={n}, m_comp={m_comp}, m_comm={m_comm})"
                )
            times.append(workload.comp_bytes / (comp_gbps * 1e9))
        if workload.comm_bytes > 0:
            if comm_gbps <= 0:
                raise AdvisorError(
                    f"model predicts zero communication bandwidth for "
                    f"(n={n}, m_comp={m_comp}, m_comm={m_comm})"
                )
            times.append(workload.comm_bytes / (comm_gbps * 1e9))
        return Recommendation(
            n_cores=n,
            m_comp=m_comp,
            m_comm=m_comm,
            makespan_s=max(times),
            comp_gbps=comp_gbps,
            comm_gbps=comm_gbps,
        )

    def recommend(
        self,
        workload: Workload,
        *,
        top: int = 5,
        core_counts: list[int] | None = None,
    ) -> list[Recommendation]:
        """Enumerate and rank configurations; return the ``top`` best.

        The whole grid is scored through the vectorized evaluation
        layer: one :meth:`PlacementModel.predict` per placement, array
        arithmetic for the makespans.
        """
        if top < 1:
            raise AdvisorError(f"top must be >= 1, got {top}")
        if core_counts is None:
            core_counts = list(range(1, self._machine.cores_per_socket + 1))
        if not core_counts:
            raise AdvisorError("core_counts must be non-empty")
        ns = as_core_counts(core_counts, error=AdvisorError)
        if ns.min() < 1 or ns.max() > self._machine.cores_per_socket:
            bad = int(ns[(ns < 1) | (ns > self._machine.cores_per_socket)][0])
            raise AdvisorError(
                f"n={bad} outside 1..{self._machine.cores_per_socket} "
                "(the model covers one socket's cores only, §II-B)"
            )
        nodes = [node.index for node in self._machine.iter_numa_nodes()]

        scored: list[Recommendation] = []
        per_placement = {}
        for m_comp in nodes:
            for m_comm in nodes:
                pred = self._model.predict(ns, m_comp, m_comm)
                comp = pred.comp_parallel
                comm = pred.comm_parallel
                times = np.full(ns.shape, -np.inf)
                if workload.comp_bytes > 0:
                    self._require_positive(
                        comp, "computation", ns, m_comp, m_comm
                    )
                    times = np.maximum(
                        times, workload.comp_bytes / (comp * 1e9)
                    )
                if workload.comm_bytes > 0:
                    self._require_positive(
                        comm, "communication", ns, m_comp, m_comm
                    )
                    times = np.maximum(
                        times, workload.comm_bytes / (comm * 1e9)
                    )
                per_placement[(m_comp, m_comm)] = (comp, comm, times)
        for i, n in enumerate(ns):
            for m_comp in nodes:
                for m_comm in nodes:
                    comp, comm, times = per_placement[(m_comp, m_comm)]
                    scored.append(
                        Recommendation(
                            n_cores=int(n),
                            m_comp=m_comp,
                            m_comm=m_comm,
                            makespan_s=float(times[i]),
                            comp_gbps=float(comp[i]),
                            comm_gbps=float(comm[i]),
                        )
                    )
        scored.sort(key=lambda r: (r.makespan_s, r.n_cores))
        return scored[:top]

    @staticmethod
    def _require_positive(
        gbps: np.ndarray, kind: str, ns: np.ndarray, m_comp: int, m_comm: int
    ) -> None:
        if np.any(gbps <= 0):
            n = int(ns[np.nonzero(gbps <= 0)[0][0]])
            raise AdvisorError(
                f"model predicts zero {kind} bandwidth for "
                f"(n={n}, m_comp={m_comp}, m_comm={m_comm})"
            )

    def best(self, workload: Workload) -> Recommendation:
        """Shortcut: the single best configuration."""
        return self.recommend(workload, top=1)[0]
