"""The threshold model of one machine, across placements (§III-C).

Two calibrated instantiations — ``M_local`` (computation and
communication data both on the first NUMA node of socket 0) and
``M_remote`` (both on the first node of socket 1) — predict *every*
``(m_comp, m_comm)`` placement through the selection rules of equations
6 and 7 (:func:`select_instantiations`).

Index convention: NUMA nodes are numbered socket-major, computing cores
sit on socket 0, so a node ``m < #m`` (``nodes_per_socket``) is local
and ``m >= #m`` is remote — exactly the comparisons written in the
paper's equations.

The model is piecewise-linear in ``n`` and the selection rules depend
only on the placement, so a calibrated machine has a finite answer
set: three curves × every placement × every core count.
:class:`PlacementModel` evaluates the closed form of equations 1–5 and
8 (:mod:`repro.core.evaluation`) once per instantiation over
``n = 0..TABLE_N_MAX`` when it is built, and assembles the
per-placement tables.  Every query is then a table lookup; core counts
past the table are answered by the same closed form, evaluated on the
requested points only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

from repro.core import evaluation
from repro.core.evaluation import as_core_counts
from repro.core.parameters import ModelParameters
from repro.errors import PlacementError

__all__ = [
    "TABLE_N_MAX",
    "PlacementModel",
    "PlacementPrediction",
    "PointPrediction",
    "select_instantiations",
]

#: Largest core count the tables cover.  Every archived platform tops
#: out at 64 physical cores, so the tables answer any plausible query
#: while staying ~100 KB per model.
TABLE_N_MAX = 256

#: Largest core count a query may name: lookups index ``int64`` arrays.
_INT64_MAX = int(np.iinfo(np.int64).max)

T = TypeVar("T")


def select_instantiations(
    m_comp: int,
    m_comm: int,
    nodes_per_socket: int,
    local: T,
    remote: T,
    substituted: T,
) -> tuple[T, T, bool, T]:
    """Equations 6 and 7: the instantiations that answer one placement.

    ``substituted`` is equation 6's middle case, the local instantiation
    with the remote nominal network bandwidth.  Returns
    ``(comm, comp, shared, alone)``:

    * ``comm`` answers the communication curve (Eq. 6): ``remote`` when
      both data sit on the same remote node, else ``substituted`` when
      the communication data is remote, else ``local``;
    * ``comp`` answers the computation curves (Eq. 7): the instantiation
      of ``m_comp``'s socket.  When ``shared`` (both data on one node)
      its overlapped curve answers ``B_comp_par``; otherwise the two do
      not contend and its alone curve does;
    * ``alone`` answers the communication-alone bandwidth: the
      instantiation of ``m_comm``'s socket.
    """
    comp_remote = m_comp >= nodes_per_socket
    comm_remote = m_comm >= nodes_per_socket
    shared = m_comp == m_comm
    if comp_remote and shared:
        comm = remote
    elif comm_remote:
        comm = substituted
    else:
        comm = local
    return (
        comm,
        remote if comp_remote else local,
        shared,
        remote if comm_remote else local,
    )


@dataclass(frozen=True)
class PointPrediction:
    """Model predictions for one ``(n, m_comp, m_comm)`` query."""

    n: int
    m_comp: int
    m_comm: int
    comp_parallel: float
    comm_parallel: float
    comp_alone: float
    comm_alone: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m_comp": self.m_comp,
            "m_comm": self.m_comm,
            "comp_parallel": self.comp_parallel,
            "comm_parallel": self.comm_parallel,
            "comp_alone": self.comp_alone,
            "comm_alone": self.comm_alone,
        }


@dataclass(frozen=True)
class PlacementPrediction:
    """Model predictions for one placement over a range of core counts."""

    m_comp: int
    m_comm: int
    core_counts: np.ndarray
    comp_parallel: np.ndarray
    comm_parallel: np.ndarray
    comp_alone: np.ndarray
    comm_alone: float

    def total_parallel(self) -> np.ndarray:
        return self.comp_parallel + self.comm_parallel


def _core_count(n: object) -> int:
    """One core count as an ``int``; integral floats are accepted.

    Booleans are rejected explicitly: ``True`` is an ``int`` in Python
    and would otherwise silently mean 1 core.
    """
    if isinstance(n, (float, np.floating)) and np.isfinite(n) and n == int(n):
        n = int(n)
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise PlacementError(f"core count must be an integer, got {n!r}")
    if n < 0:
        raise PlacementError(f"core count must be >= 0, got {n}")
    if n > _INT64_MAX:
        raise PlacementError(
            f"core count must be at most {_INT64_MAX}, got {n}"
        )
    return int(n)


class PlacementModel:
    """The full model of one machine: ``M_local`` + ``M_remote`` + topology.

    Built with its answer tables: ``_tables`` has shape
    ``(3, k * k, TABLE_N_MAX + 1)`` — curve (``comp_parallel``,
    ``comm_parallel``, ``comp_alone``) × placement × core count — and
    ``_comm_alone`` shape ``(k * k,)``.  Placement rows are row-major:
    ``row = m_comp * k + m_comm``.
    """

    def __init__(
        self,
        local: ModelParameters,
        remote: ModelParameters,
        *,
        nodes_per_socket: int,
        n_numa_nodes: int,
    ) -> None:
        if nodes_per_socket < 1:
            raise PlacementError("nodes_per_socket must be >= 1")
        if n_numa_nodes <= nodes_per_socket:
            raise PlacementError(
                "the placement model needs at least two sockets' worth of "
                f"NUMA nodes, got {n_numa_nodes} with {nodes_per_socket} per socket"
            )
        self._nodes_per_socket = nodes_per_socket
        self._n_numa_nodes = n_numa_nodes
        # Local, remote, and equation 6's middle case: the local model
        # with the remote nominal network bandwidth substituted in.
        self._params = (
            local, remote, local.with_comm_nominal(remote.b_comm_seq)
        )
        self._tables = self._tables_over(
            np.arange(TABLE_N_MAX + 1, dtype=np.int64)
        )
        self._comm_alone = np.array(
            [
                select_instantiations(
                    m_comp, m_comm, nodes_per_socket, *self._params
                )[3].b_comm_seq
                for m_comp, m_comm in self.placements()
            ],
            dtype=np.float64,
        )

    @classmethod
    def compile(cls, model: "PlacementModel") -> "PlacementModel":
        """``model`` itself: a model is built with its tables, so there
        is nothing left to compile.  Kept for callers of the name
        :class:`repro.core.compiled.CompiledModel`."""
        return model

    # ---- accessors -------------------------------------------------------------

    @property
    def local(self) -> ModelParameters:
        return self._params[0]

    @property
    def remote(self) -> ModelParameters:
        return self._params[1]

    @property
    def nodes_per_socket(self) -> int:
        """The paper's ``#m``."""
        return self._nodes_per_socket

    @property
    def n_numa_nodes(self) -> int:
        return self._n_numa_nodes

    def placements(self) -> list[tuple[int, int]]:
        """Every ``(m_comp, m_comm)`` pair, in table row order."""
        nodes = range(self._n_numa_nodes)
        return [(m_comp, m_comm) for m_comp in nodes for m_comm in nodes]

    def is_remote(self, m: int) -> bool:
        """``m >= #m`` — the comparison used by equations 6 and 7."""
        self._row(m, m)
        return m >= self._nodes_per_socket

    # ---- scalar queries (equations 6-8) ------------------------------------------

    def comp_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """``B_comp_par(n, m_comp, m_comm)`` (Eq. 7)."""
        return self._point(0, n, m_comp, m_comm)

    def comm_parallel(self, n: int, m_comp: int, m_comm: int) -> float:
        """``B_comm_par(n, m_comp, m_comm)`` (Eq. 6)."""
        return self._point(1, n, m_comp, m_comm)

    def comp_alone(self, n: int, m_comp: int) -> float:
        """Computation-alone bandwidth for a placement (Eq. 8 on the
        instantiation selected by ``m_comp``)."""
        return self._point(2, n, m_comp, m_comp)

    def comm_alone(self, m_comm: int) -> float:
        """Communication-alone bandwidth for a placement."""
        try:
            row = self._row(m_comm, m_comm)
        except PlacementError as exc:
            raise PlacementError(f"query m_comm={m_comm!r}: {exc}") from None
        return float(self._comm_alone[row])

    # ---- bulk queries ----------------------------------------------------------

    def predict(
        self,
        core_counts: Sequence[int] | np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        """Predict all curves of one placement over ``core_counts``.

        Core counts must be integral (integral floats are accepted);
        non-integral values raise :class:`PlacementError` rather than
        being truncated.
        """
        ns = as_core_counts(core_counts, error=PlacementError)
        return self._prediction(ns, *self._table_for(ns), m_comp, m_comm)

    def predict_grid(
        self,
        core_counts: Sequence[int] | np.ndarray,
        placements: Iterable[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], PlacementPrediction]:
        """Predict every placement (or the given ones) over ``core_counts``."""
        ns = as_core_counts(core_counts, error=PlacementError)
        table, columns = self._table_for(ns)
        if placements is None:
            placements = self.placements()
        return {
            (m_comp, m_comm): self._prediction(
                ns, table, columns, m_comp, m_comm
            )
            for m_comp, m_comm in placements
        }

    def predict_batch(
        self, queries: Sequence[tuple[int, int, int]]
    ) -> list[PointPrediction]:
        """Answer heterogeneous scalar ``(n, m_comp, m_comm)`` queries in bulk.

        Each query is validated on its own, so an error names the
        offending query; the answers are then one vectorized lookup.
        Results are returned in query order and are bit-identical to
        issuing the scalar queries one at a time.
        """
        ns, rows = self._validated(queries)
        if not ns:
            return []
        answers = self._lookup(
            np.array(ns, dtype=np.int64), np.array(rows, dtype=np.int64)
        )
        k = self._n_numa_nodes
        return [
            PointPrediction(
                n=n,
                m_comp=row // k,
                m_comm=row % k,
                comp_parallel=comp_par,
                comm_parallel=comm_par,
                comp_alone=comp_alone,
                comm_alone=comm_alone,
            )
            for n, row, comp_par, comm_par, comp_alone, comm_alone in zip(
                ns, rows, *(column.tolist() for column in answers)
            )
        ]

    def predict_columns(
        self, queries: Sequence[tuple[int, int, int]] | np.ndarray
    ) -> dict[str, np.ndarray]:
        """Answer ``(n, m_comp, m_comm)`` queries as columns, with no
        :class:`PointPrediction` per query.

        Returns the ``n``/``m_comp``/``m_comm`` echo columns and the
        four answer columns, all 1-D arrays in query order: exactly the
        values :meth:`predict_batch` would wrap.

        ``queries`` is a sequence of triples or an ``(N, 3)`` array.
        The service's bulk path passes the int64 array its wire parser
        fills, which is used as it is: on a 10k-row bulk (2-vCPU VM) the
        call then takes about 0.2 ms, where converting 10k tuples to an
        array first costs about 3 ms more.  A bulk holding an integer
        past int64 reaches here as tuples instead.

        Validation is vectorized.  It rejects non-integral, negative,
        out-of-range and past-int64 values, but it cannot see a boolean
        inside an integer batch: NumPy turns ``[(True, 0, 0)]`` into
        ``n = 1``.  The service's columnar path passes integers the wire
        parser has already validated, and a per-element scan would cost
        about 1 ms per 10k rows.  Only a batch NumPy must store as
        objects (an integer past 64 bits) is checked query by query.
        """
        try:
            arr = np.asarray(queries)
            if arr.shape == (0,):
                arr = arr.reshape(0, 3)
        except ValueError:  # ragged
            arr = np.empty(0)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise PlacementError(
                "batch queries must be a sequence of (n, m_comp, m_comm) "
                "triples"
            )
        if arr.dtype == object:
            # NumPy keeps integers past 64 bits as objects: the per-query
            # validator names the first such query.
            self._validated(queries)
        if arr.dtype.kind not in "iuf":
            raise PlacementError(
                f"batch queries must be integers, got dtype {arr.dtype}"
            )
        if arr.dtype.kind != "i":
            # Floats and uint64 must convert to int64 exactly, which
            # rejects fractions, NaN, infinities and values past int64.
            with np.errstate(invalid="ignore"):
                ints = arr.astype(np.int64)
            bad = (ints != arr).any(axis=1)
            if np.any(bad):
                index = int(np.nonzero(bad)[0][0])
                # The query as given: NumPy may have promoted a whole
                # batch to float64 for one integer past int64.
                raise PlacementError(
                    f"batch query {index}: values must be integral and fit "
                    f"in int64, got {queries[index]!r}"
                )
            arr = ints
        ns, m_comp, m_comm = np.ascontiguousarray(arr.T, dtype=np.int64)
        if np.any(ns < 0):
            index = int(np.nonzero(ns < 0)[0][0])
            raise PlacementError(
                f"batch query {index}: core count must be >= 0, "
                f"got {int(ns[index])}"
            )
        k = self._n_numa_nodes
        bad_node = (m_comp < 0) | (m_comp >= k) | (m_comm < 0) | (m_comm >= k)
        if np.any(bad_node):
            index = int(np.nonzero(bad_node)[0][0])
            raise PlacementError(
                f"batch query {index}: NUMA node out of range "
                f"(machine has {k} nodes), got "
                f"({int(m_comp[index])}, {int(m_comm[index])})"
            )
        comp_par, comm_par, comp_alone, comm_alone = self._lookup(
            ns, m_comp * k + m_comm
        )
        return {
            "n": ns,
            "m_comp": m_comp,
            "m_comm": m_comm,
            "comp_parallel": comp_par,
            "comm_parallel": comm_par,
            "comp_alone": comp_alone,
            "comm_alone": comm_alone,
        }

    # ---- the tables ------------------------------------------------------------

    def _tables_over(self, ns: np.ndarray) -> np.ndarray:
        """The ``(3, k * k, len(ns))`` answer tables over ``ns``: the
        closed form of each instantiation, assembled per placement by
        equations 6 and 7."""
        sides = [evaluation.curves(p, ns) for p in self._params]
        tables = np.empty((3, self._n_numa_nodes**2, ns.size))
        for row, (m_comp, m_comm) in enumerate(self.placements()):
            comm, comp, shared, _ = select_instantiations(
                m_comp, m_comm, self._nodes_per_socket, *sides
            )
            tables[0, row] = comp["comp_par" if shared else "comp_alone"]
            tables[1, row] = comm["comm_par"]
            tables[2, row] = comp["comp_alone"]
        return tables

    def _table_for(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A table covering ``ns`` and the columns of ``ns`` in it.

        Past ``TABLE_N_MAX`` the closed form is evaluated on the distinct
        requested core counts only, so absurdly large ``n`` cannot
        balloon memory.
        """
        if ns.size == 0 or int(ns.max()) <= TABLE_N_MAX:
            return self._tables, ns
        points, columns = np.unique(ns, return_inverse=True)
        return self._tables_over(points), columns

    def _lookup(
        self, ns: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``comp_parallel``, ``comm_parallel``, ``comp_alone`` and
        ``comm_alone`` of validated queries."""
        table, columns = self._table_for(ns)
        comp_par, comm_par, comp_alone = table[:, rows, columns]
        return comp_par, comm_par, comp_alone, self._comm_alone[rows]

    def _prediction(
        self,
        ns: np.ndarray,
        table: np.ndarray,
        columns: np.ndarray,
        m_comp: int,
        m_comm: int,
    ) -> PlacementPrediction:
        row = self._row(m_comp, m_comm)
        comp_par, comm_par, comp_alone = table[:, row, columns]
        return PlacementPrediction(
            m_comp=m_comp,
            m_comm=m_comm,
            core_counts=ns,
            comp_parallel=comp_par,
            comm_parallel=comm_par,
            comp_alone=comp_alone,
            comm_alone=float(self._comm_alone[row]),
        )

    def _point(self, curve: int, n: object, m_comp: int, m_comm: int) -> float:
        """One curve at one ``(n, m_comp, m_comm)`` query, validated."""
        try:
            count = _core_count(n)
            row = self._row(m_comp, m_comm)
        except PlacementError as exc:
            raise PlacementError(
                f"query {(n, m_comp, m_comm)!r}: {exc}"
            ) from None
        table, columns = self._table_for(np.array([count], dtype=np.int64))
        return float(table[curve, row, columns[0]])

    # ---- validation ------------------------------------------------------------

    def _validated(
        self, queries: Sequence[tuple[int, int, int]]
    ) -> tuple[list[int], list[int]]:
        """The core counts and table rows of ``queries``, each query
        validated on its own so that an error names it."""
        ns, rows = [], []
        for index, query in enumerate(queries):
            try:
                if len(query) != 3:
                    raise PlacementError(
                        "batch queries must be (n, m_comp, m_comm) triples, "
                        f"got {query!r}"
                    )
                n, m_comp, m_comm = query
                ns.append(_core_count(n))
                rows.append(self._row(m_comp, m_comm))
            except PlacementError as exc:
                raise PlacementError(f"batch query {index}: {exc}") from None
        return ns, rows

    def _row(self, m_comp: object, m_comm: object) -> int:
        """The table row of a validated placement."""
        for m in (m_comp, m_comm):
            if isinstance(m, (bool, np.bool_)) or not isinstance(
                m, (int, np.integer)
            ):
                raise PlacementError(
                    f"NUMA node index must be an integer, got {m!r}"
                )
        k = self._n_numa_nodes
        if not (0 <= m_comp < k and 0 <= m_comm < k):
            raise PlacementError(
                f"NUMA node out of range (machine has {k} nodes), got "
                f"({m_comp}, {m_comm})"
            )
        return int(m_comp) * k + int(m_comm)
