"""The pluggable model-backend protocol.

A *backend* is one analytic treatment of memory contention — the
paper's threshold model, a §II-D baseline, or a competing formulation
from the literature — packaged behind a uniform surface so everything
downstream (pipeline, tournament, service, advisor) can treat "which
model?" as a parameter:

* :class:`ModelBackend` — the uncalibrated family: a stable
  ``backend_id``, a code ``version`` (bumped whenever calibration or
  prediction changes for identical inputs), a config mapping folded
  into the artifact :meth:`~ModelBackend.fingerprint`, and
  ``calibrate(dataset, platform) -> CalibratedBackend``;
* :class:`CalibratedBackend` — one calibrated instance, answering the
  exact query surface of
  :class:`~repro.core.placement.PlacementModel` (``predict`` /
  ``predict_batch`` / ``predict_grid`` plus the scalar curve lookups),
  so the advisor and :func:`~repro.evaluation.metrics.placement_errors`
  work on any backend unchanged;
* :class:`TwoInstantiationBackend` — shared scaffolding for backends
  that, like the paper's model, calibrate a *local* and a *remote*
  instantiation and select between them per placement with the
  equations 6/7 rules.

Calibrated backends serialize to a JSON-able ``state_dict`` and
reconstruct via the owning backend's ``from_state``.  One calibration
persists as one artifact (:func:`backend_key`, :func:`encode_backend`,
:func:`decode_backend`) served by the store's shared cache policy;
:func:`load_or_calibrate` is the calibrate-on-miss entry point.  The
threshold model is not stored this way: its calibration is the
pipeline's ``calibrate`` artifact.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.evaluation import as_core_counts
from repro.core.placement import (
    PlacementPrediction,
    PointPrediction,
    select_instantiations,
)
from repro.errors import ModelError, PlacementError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.results import PlatformDataset
    from repro.pipeline.stage import StageKey
    from repro.pipeline.store import ArtifactStore
    from repro.topology.platforms import Platform

__all__ = [
    "BACKEND_FORMAT_VERSION",
    "CalibratedBackend",
    "ModelBackend",
    "TwoInstantiationBackend",
    "backend_key",
    "decode_backend",
    "encode_backend",
    "load_or_calibrate",
    "sample_curves",
]

#: Bumped whenever the ``backend.json`` layout changes; older artifacts
#: are discarded and recalibrated rather than misread.
BACKEND_FORMAT_VERSION = 1

_STATE_FILE = "backend.json"


#: The columns of :meth:`CalibratedBackend.predict_columns`, in order.
_COLUMNS = tuple(f.name for f in dataclasses.fields(PointPrediction))


def sample_curves(
    dataset: "PlatformDataset", platform: "Platform"
) -> "dict[str, Any]":
    """The two calibration placements' curves (§IV-A2), keyed
    ``local``/``remote``.  Raises :class:`ModelError` naming the
    missing placement when the dataset lacks one."""
    from repro.bench.sweep import sample_placements

    local_key, remote_key = sample_placements(platform)
    out = {}
    for side, key in (("local", local_key), ("remote", remote_key)):
        if key not in dataset.sweep:
            raise ModelError(
                f"dataset for {dataset.platform_name!r} lacks the sample "
                f"placement {key}; measured: {dataset.sweep.placements()}"
            )
        out[side] = dataset.sweep[key]
    return out


class CalibratedBackend(abc.ABC):
    """One backend calibrated for one platform.

    Implementations must answer the scalar curve queries; the batched
    surfaces (``predict``/``predict_grid``/``predict_batch``/
    ``predict_columns``) have default implementations built on them.
    The threshold model needs no subclass: a calibrated
    :class:`~repro.core.placement.PlacementModel` answers the same
    surface from its tables and is the roster's ``threshold`` entry.
    """

    # ---- identity --------------------------------------------------------------

    @property
    @abc.abstractmethod
    def backend_id(self) -> str:
        """The owning backend's stable identifier."""

    # ---- topology --------------------------------------------------------------

    @property
    @abc.abstractmethod
    def nodes_per_socket(self) -> int:
        """The paper's ``#m``."""

    @property
    @abc.abstractmethod
    def n_numa_nodes(self) -> int:
        """NUMA nodes of the modelled machine."""

    def is_remote(self, m: int) -> bool:
        """``m >= #m`` — the comparison of equations 6 and 7."""
        self._check_node(m)
        return m >= self.nodes_per_socket

    def _check_node(self, m: int) -> None:
        if not isinstance(m, (int, np.integer)):
            raise PlacementError(
                f"NUMA node index must be an integer, got {m!r}"
            )
        if not 0 <= m < self.n_numa_nodes:
            raise PlacementError(
                f"NUMA node {m} out of range (machine has "
                f"{self.n_numa_nodes} nodes)"
            )

    # ---- scalar queries --------------------------------------------------------

    @abc.abstractmethod
    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """Computation bandwidth with communications running (Eq. 7)."""

    @abc.abstractmethod
    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """Communication bandwidth with ``n`` cores computing (Eq. 6)."""

    @abc.abstractmethod
    def comp_alone(self, n: int, m_comp: int) -> float:
        """Computation-alone bandwidth for a placement."""

    @abc.abstractmethod
    def comm_alone(self, m_comm: int) -> float:
        """Communication-alone bandwidth for a placement."""

    # ---- batched queries (defaults built on the scalars) -----------------------

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """All curves of one placement over ``core_counts``.

        The scalar queries are pure functions of their arguments, so
        each distinct core count is evaluated once and its answers are
        gathered to every position that repeats it: the same floats as
        one evaluation per position.
        """
        ns = as_core_counts(core_counts, error=PlacementError)
        self._check_node(m_comp)
        self._check_node(m_comm)
        counts = ns.tolist()
        distinct = dict.fromkeys(counts)
        comp_par = {n: self.comp_parallel(n, m_comp, m_comm) for n in distinct}
        comm_par = {n: self.comm_parallel(n, m_comp, m_comm) for n in distinct}
        comp_alone = {n: self.comp_alone(n, m_comp) for n in distinct}
        return PlacementPrediction(
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=ns,
            comp_parallel=np.array([comp_par[n] for n in counts]),
            comm_parallel=np.array([comm_par[n] for n in counts]),
            comp_alone=np.array([comp_alone[n] for n in counts]),
            comm_alone=self.comm_alone(m_comm),
        )

    def predict_grid(
        self,
        core_counts: Sequence[int] | np.ndarray,
        placements: Iterable[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], PlacementPrediction]:
        """Every placement (or the given ones) over ``core_counts``."""
        ns = as_core_counts(core_counts, error=PlacementError)
        if placements is None:
            nodes = range(self.n_numa_nodes)
            placements = [(mc, mm) for mc in nodes for mm in nodes]
        return {
            (m_comp, m_comm): self.predict(ns, m_comp, m_comm)
            for m_comp, m_comm in placements
        }

    def predict_batch(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> list[PointPrediction]:
        """Heterogeneous scalar queries, grouped per placement.

        An ``(N, 3)`` array of queries (the service's parsed bulk) is
        read as the Python ints of its rows.
        """
        if isinstance(queries, np.ndarray):
            queries = queries.tolist()
        groups: dict[tuple[int, int], list[int]] = {}
        for index, query in enumerate(queries):
            if len(query) != 3:
                raise PlacementError(
                    f"batch queries must be (n, m_comp, m_comm) triples, "
                    f"got {query!r}"
                )
            groups.setdefault((query[1], query[2]), []).append(index)
        results: dict[int, PointPrediction] = {}
        for (m_comp, m_comm), indices in groups.items():
            ns = as_core_counts(
                [queries[i][0] for i in indices], error=PlacementError
            )
            pred = self.predict(ns, m_comp, m_comm)
            for j, i in enumerate(indices):
                results[i] = PointPrediction(
                    n=int(ns[j]),
                    m_comp=m_comp,
                    m_comm=m_comm,
                    comp_parallel=float(pred.comp_parallel[j]),
                    comm_parallel=float(pred.comm_parallel[j]),
                    comp_alone=float(pred.comp_alone[j]),
                    comm_alone=float(pred.comm_alone),
                )
        return [results[i] for i in range(len(queries))]

    def predict_columns(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> dict[str, np.ndarray]:
        """:meth:`predict_batch` as columns: the ``n``/``m_comp``/
        ``m_comm`` echo columns and the four answer columns, 1-D arrays
        in query order (the service serializes every non-threshold
        answer from them)."""
        points = self.predict_batch(queries)
        return {
            name: np.array([getattr(p, name) for p in points])
            for name in _COLUMNS
        }

    # ---- serialization ---------------------------------------------------------

    @abc.abstractmethod
    def state_dict(self) -> dict[str, Any]:
        """JSON-able state from which ``from_state`` rebuilds this
        instance exactly (the artifact-store round-trip contract)."""


class ModelBackend(abc.ABC):
    """One backend family, uncalibrated."""

    @property
    @abc.abstractmethod
    def backend_id(self) -> str:
        """Stable identifier — artifact keys and API selectors use it."""

    @property
    @abc.abstractmethod
    def version(self) -> int:
        """Bumped whenever calibration or prediction changes for
        identical inputs; participates in the artifact stage version."""

    def config(self) -> Mapping[str, Any]:
        """Backend configuration folded into :meth:`fingerprint`."""
        return {}

    def fingerprint(self, config_fp: str) -> str:
        """Artifact fingerprint: sweep-config fingerprint + backend config.

        Backend id and version live in the stage name / stage version
        of the :class:`~repro.pipeline.stage.StageKey`, so the
        fingerprint only has to capture what *else* influenced the
        calibration: the measurement config and the backend's own knobs.
        """
        from repro.pipeline.fingerprint import fingerprint_mapping

        return fingerprint_mapping(
            {"config_fp": config_fp, "backend_config": dict(self.config())}
        )

    @abc.abstractmethod
    def calibrate(
        self, dataset: "PlatformDataset", platform: "Platform"
    ) -> CalibratedBackend:
        """Calibrate from a platform's measured curves.

        Backends calibrate from the same two sample placements as the
        paper's model (§IV-A2); the rest of the dataset is evaluation
        data and must not leak into calibration.
        """

    @abc.abstractmethod
    def from_state(self, state: Mapping[str, Any]) -> CalibratedBackend:
        """Rebuild a calibrated instance from ``state_dict`` output.

        Raise :class:`~repro.errors.ModelError` on any defect so the
        store discards and recalibrates instead of serving a corrupt
        artifact.
        """


# ---- persistence ------------------------------------------------------------------


def backend_key(
    platform: str, backend: ModelBackend, fingerprint: str
) -> "StageKey":
    """The store address of one backend's calibration for one platform:
    stage ``backend-<id>``, the code version as stage version, and
    :meth:`ModelBackend.fingerprint` of the sweep-config fingerprint."""
    from repro.pipeline.stage import StageKey

    return StageKey(
        platform=platform,
        stage=f"backend-{backend.backend_id}",
        version=str(backend.version),
        fingerprint=backend.fingerprint(fingerprint),
    )


def _envelope(backend: ModelBackend) -> dict[str, Any]:
    return {
        "format_version": BACKEND_FORMAT_VERSION,
        "backend_id": backend.backend_id,
        "backend_version": backend.version,
    }


def encode_backend(
    backend: ModelBackend, calibrated: CalibratedBackend
) -> dict[str, str]:
    """The ``backend.json`` payload of one calibration."""
    from repro.pipeline.store import json_payload

    return json_payload(
        _STATE_FILE, **_envelope(backend), state=calibrated.state_dict()
    )


def decode_backend(
    backend: ModelBackend, payloads: Mapping[str, str]
) -> CalibratedBackend:
    """Rebuild the calibration :func:`encode_backend` stored for
    ``backend``; a skewed format version, id or code version raises."""
    from repro.pipeline.store import json_member

    data = json_member(payloads, _STATE_FILE, **_envelope(backend))
    return backend.from_state(data["state"])


def load_or_calibrate(
    store: "ArtifactStore | None",
    backend: ModelBackend,
    dataset: "PlatformDataset",
    platform: "Platform",
    fingerprint: str,
) -> tuple[CalibratedBackend, bool]:
    """The calibrate-on-miss entry point: ``(calibrated, cached)``.

    With a store, a miss publishes the fresh calibration so every other
    worker sharing the store gets a hit.
    """
    from repro.pipeline.store import load_or_compute

    return load_or_compute(
        store,
        backend_key(platform.name, backend, fingerprint),
        compute=lambda: backend.calibrate(dataset, platform),
        encode=lambda calibrated: encode_backend(backend, calibrated),
        decode=lambda payloads: decode_backend(backend, payloads),
        provenance={"platform": platform.name, "backend": backend.backend_id},
    )


# ---- shared two-instantiation scaffolding -----------------------------------------


class TwoInstantiationBackend(CalibratedBackend):
    """A calibrated backend made of local/remote instantiations.

    Mirrors the paper's placement selection (§III-C): *sides* are
    single-placement predictors exposing ``comp_parallel(n)`` /
    ``comm_parallel(n)`` / ``comp_alone(n)`` / ``b_comm_seq``; the
    equations 6/7 rules
    (:func:`~repro.core.placement.select_instantiations`) pick which
    side (and which computation curve) answers each ``(m_comp,
    m_comm)`` placement.  ``substituted`` is equation 6's middle case —
    the local side with the remote network nominal substituted in.
    """

    def __init__(
        self,
        *,
        local: Any,
        remote: Any,
        substituted: Any,
        nodes_per_socket: int,
        n_numa_nodes: int,
    ) -> None:
        if nodes_per_socket < 1:
            raise ModelError("nodes_per_socket must be >= 1")
        if n_numa_nodes <= nodes_per_socket:
            raise ModelError(
                "a two-instantiation backend needs at least two sockets' "
                f"worth of NUMA nodes, got {n_numa_nodes} with "
                f"{nodes_per_socket} per socket"
            )
        self._local = local
        self._remote = remote
        self._substituted = substituted
        self._nodes_per_socket = nodes_per_socket
        self._n_numa_nodes = n_numa_nodes

    @property
    def nodes_per_socket(self) -> int:
        return self._nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._n_numa_nodes

    # ---- equations 6 and 7 -------------------------------------------------------

    def _select(self, m_comp: int, m_comm: int) -> tuple[Any, Any, bool, Any]:
        self._check_node(m_comp)
        self._check_node(m_comm)
        return select_instantiations(
            m_comp,
            m_comm,
            self._nodes_per_socket,
            self._local,
            self._remote,
            self._substituted,
        )

    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        comm, *_ = self._select(m_comp, m_comm)
        return float(comm.comm_parallel(n))

    def comm_alone(self, m_comm: int) -> float:
        *_, alone = self._select(m_comm, m_comm)
        return float(alone.b_comm_seq)

    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        _, comp, shared, _ = self._select(m_comp, m_comm)
        return float(comp.comp_parallel(n) if shared else comp.comp_alone(n))

    def comp_alone(self, n: int, m_comp: int) -> float:
        _, comp, _, _ = self._select(m_comp, m_comp)
        return float(comp.comp_alone(n))
