"""Bulk ``/predict`` answers, byte for byte.

A bulk request is parsed column-wise and its answer rendered one
distinct row at a time (``protocol.encode_results``).  Its body must be
the one a per-row build gives: ``json.dumps({**echo, "results": rows})``
with one dict per query, built from ``predict_columns``.  A malformed
bulk must keep its status and message, which come from the per-query
parser the column-wise parse falls back to.
"""

from __future__ import annotations

import http.client
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import backends
from repro.core.placement import TABLE_N_MAX
from repro.service import protocol
from repro.topology import get_platform

from tests.service.conftest import ServerThread

PLATFORM = "henri-subnuma"
NODES = get_platform(PLATFORM).machine.n_numa_nodes
FIELDS = (
    "n",
    "m_comp",
    "m_comm",
    "comp_parallel",
    "comm_parallel",
    "comp_alone",
    "comm_alone",
)
#: ``None`` is the default model; ``threshold`` names it explicitly.
BACKENDS = [None, *backends.BACKENDS, "tournament"]


def per_row_body(echo: dict, columns: dict) -> bytes:
    """The bulk body built row by row: one dict per query."""
    rows = [
        dict(zip(FIELDS, row))
        for row in zip(*(columns[name].tolist() for name in FIELDS))
    ]
    return json.dumps({**echo, "results": rows}).encode()


def post(port: int, body: dict) -> tuple[int, bytes]:
    """One ``POST /predict`` -> (status, raw body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/predict", json.dumps(body).encode())
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def served():
    """One server with ``PLATFORM`` calibrated, and its registry entry."""
    with ServerThread() as server:
        yield server, server.run(server.service.registry.get(PLATFORM, 0))


def _model(entry, backend: str | None):
    if backend in (None, "threshold"):
        return entry.model
    if backend == "tournament":
        return entry.tournament
    return entry.backends[backend]


_core_counts = st.one_of(
    st.integers(0, TABLE_N_MAX + 8),
    st.sampled_from([0, TABLE_N_MAX, TABLE_N_MAX + 1, 4096]),
)
_queries = st.tuples(
    _core_counts, st.integers(0, NODES - 1), st.integers(0, NODES - 1)
)
#: A few distinct queries, drawn from with repetition: bulks repeat rows.
_bulks = st.lists(_queries, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=48)
)
#: Every placement at n = 0 and past the tables, the n = 0 rows twice.
_EVERY_PLACEMENT = [
    (n, m_comp, m_comm)
    for n in (0, TABLE_N_MAX + 1, 0)
    for m_comp in range(NODES)
    for m_comm in range(NODES)
]


class TestByteParity:
    @pytest.mark.parametrize("backend", BACKENDS, ids=str)
    @settings(max_examples=25, deadline=None)
    @example(queries=_EVERY_PLACEMENT)
    @given(queries=_bulks)
    def test_body_equals_the_per_row_build(self, served, backend, queries):
        server, entry = served
        body = {
            "platform": PLATFORM,
            "seed": 0,
            "queries": [
                {"n": n, "m_comp": mc, "m_comm": mm} for n, mc, mm in queries
            ],
        }
        echo = {"platform": PLATFORM, "seed": 0}
        if backend is not None:
            body["backend"] = echo["backend"] = backend
        status, raw = post(server.port, body)
        assert status == 200, raw
        columns = _model(entry, backend).predict_columns(queries)
        assert raw == per_row_body(echo, columns)


def _columns(rows: list[tuple]) -> dict[str, np.ndarray]:
    columns = list(zip(*rows)) or [()] * len(FIELDS)
    return {
        name: np.array(column, dtype=np.int64 if i < 3 else np.float64)
        for i, (name, column) in enumerate(zip(FIELDS, columns))
    }


#: A NaN whose bits differ from ``math.nan``'s.
_OTHER_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]

_INTS = st.sampled_from([0, 1, 2**62, -(2**63), 2**63 - 1])
_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, _OTHER_NAN, math.inf, -math.inf, 5e-324, 1.5]
)


@st.composite
def _repeating_rows(draw) -> list[tuple]:
    """Rows drawn with repetition from a few 7-tuples.  Each tuple of
    the pool is an earlier one with one value replaced, so the pool
    holds rows that differ in a single column."""
    pool = [draw(st.tuples(*[_INTS] * 3, *[_FLOATS] * 4))]
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.sampled_from(pool))
        column = draw(st.integers(0, len(FIELDS) - 1))
        value = draw(_INTS if column < 3 else _FLOATS)
        pool.append(row[:column] + (value,) + row[column + 1:])
    return draw(st.lists(st.sampled_from(pool), max_size=40))


class TestEncodeResults:
    ECHO = {"platform": "henri", "seed": 3, "backend": "naive"}

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 0, 1, 0.0, 2.5, 0.0, 1.0), (1, 0, 1, -0.0, 2.5, -0.0, 1.0)]
            * 3,
            [
                (2, 1, 0, math.nan, math.inf, -math.inf, 1.0),
                (2, 1, 0, _OTHER_NAN, math.inf, -math.inf, 1.0),
                (2, 1, 0, math.nan, -math.inf, math.inf, math.nan),
                (2, 1, 0, math.nan, math.inf, -math.inf, 1.0),
            ],
            [(4, 0, 0, 1.5, 2.5, 3.5, 4.5)] * 5
            + [(5, 0, 0, 1.5, 2.5, 3.5, 4.5)]
            + [(4, 0, 0, 1.5, 2.5, 3.5, 4.5)] * 2,
            [(7, 1, 1, 0.1, 0.2, 0.30000000000000004, 1e-300)],
            [(2**62, 1, 1, 1e300, 5e-324, -1.7976931348623157e308, 0.5)],
            [],
        ],
        ids=["signed-zeros", "nan-inf", "repeated", "single", "extremes", "none"],
    )
    def test_matches_the_per_row_build(self, rows):
        columns = _columns(rows)
        body = protocol.encode_results(self.ECHO, columns)
        assert body == per_row_body(self.ECHO, columns)
        assert len(json.loads(body)["results"]) == len(rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=_repeating_rows())
    def test_any_repeating_rows_match_the_per_row_build(self, rows):
        columns = _columns(rows)
        body = protocol.encode_results(self.ECHO, columns)
        assert body == per_row_body(self.ECHO, columns)

    def test_signed_zeros_are_kept_apart(self):
        rows = [(1, 0, 0, 0.0, 0.0, 0.0, 0.0), (1, 0, 0, -0.0, 0.0, 0.0, 0.0)]
        results = json.loads(
            protocol.encode_results(self.ECHO, _columns(rows))
        )["results"]
        assert [math.copysign(1.0, r["comp_parallel"]) for r in results] == [
            1.0,
            -1.0,
        ]


#: Malformed bulks, each with the status and message the per-query
#: parser and the kernel give it.  Every bulk starts with a valid query,
#: so the batch is only rejected for the one that follows.
_GOOD = {"n": 4, "m_comp": 0, "m_comm": 1}
ERRORS = {
    "non-object": ([_GOOD, 7], 400, "queries[1] must be an object, got 7"),
    "list-item": (
        [_GOOD, [4, 0, 1]],
        400,
        "queries[1] must be an object, got [4, 0, 1]",
    ),
    "null-item": ([_GOOD, None], 400, "queries[1] must be an object, got None"),
    "missing-field": (
        [_GOOD, {"n": 4, "m_comp": 0}],
        400,
        "missing required field 'm_comm'",
    ),
    "true": (
        [_GOOD, {"n": True, "m_comp": 0, "m_comm": 1}],
        400,
        "field 'n' must be an integer, got True",
    ),
    "true-node": (
        [_GOOD, {"n": 4, "m_comp": True, "m_comm": 1}],
        400,
        "field 'm_comp' must be an integer, got True",
    ),
    "string": (
        [_GOOD, {"n": "4", "m_comp": 0, "m_comm": 1}],
        400,
        "field 'n' must be an integer, got '4'",
    ),
    "fraction": (
        [_GOOD, {"n": 4.5, "m_comp": 0, "m_comm": 1}],
        400,
        "field 'n' must be an integer, got 4.5",
    ),
    "negative": (
        [_GOOD, {"n": -1, "m_comp": 0, "m_comm": 1}],
        422,
        "batch query 1: core count must be >= 0, got -1",
    ),
    "2**63": (
        [_GOOD, {"n": 2**63, "m_comp": 0, "m_comm": 1}],
        422,
        "batch query 1: values must be integral and fit in int64, "
        "got (9223372036854775808, 0, 1)",
    ),
    "2**64": (
        [_GOOD, {"n": 2**64, "m_comp": 0, "m_comm": 1}],
        422,
        "batch query 1: core count must be at most 9223372036854775807, "
        "got 18446744073709551616",
    ),
    "node-out-of-range": (
        [_GOOD, {"n": 4, "m_comp": NODES, "m_comm": 1}],
        422,
        f"batch query 1: NUMA node out of range (machine has {NODES} "
        f"nodes), got ({NODES}, 1)",
    ),
    "empty": ([], 400, "field 'queries' must be a non-empty list"),
}


class TestErrorParity:
    @pytest.mark.parametrize("case", ERRORS)
    def test_status_and_message(self, served, case):
        server, _ = served
        queries, status, message = ERRORS[case]
        got, raw = post(server.port, {"platform": PLATFORM, "queries": queries})
        error = json.loads(raw)["error"]
        assert (got, error["status"], error["message"]) == (
            status,
            status,
            message,
        )

    def test_integral_float_is_accepted_as_its_integer(self, served):
        server, _ = served
        as_float = {"n": 4.0, "m_comp": 0, "m_comm": 1}
        answers = [
            post(server.port, {"platform": PLATFORM, "queries": [_GOOD, q]})
            for q in (as_float, _GOOD)
        ]
        assert answers[0][0] == 200
        assert answers[0] == answers[1]
