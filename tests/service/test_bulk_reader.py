"""``protocol.read_bulk_predict``: bulk ``/predict`` bodies read without
``json.loads``.

The reader answers ``None`` or exactly what ``parse_predict`` makes of
the decoded body: the same platform and seed with their types, and the
same C-contiguous ``(N, 3)`` int64 array.  It accepts every body
``json.dumps`` writes in the documented form, and any other body goes
back to the JSON decode, so a server answers both alike.
"""

from __future__ import annotations

import http.client
import json
import re
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import protocol
from repro.service import server as server_module

from tests.service.conftest import ServerThread

_VALUES = st.one_of(
    st.integers(0, 64),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**18 - 1, -(10**18 - 1), 10**18, -(10**18)]),
)
_PLATFORMS = st.one_of(
    st.sampled_from(["henri", "occigen", "henri-subnuma", ""]),
    st.text(st.characters(max_codepoint=127), max_size=12),
    st.text(max_size=12),
)
#: A pool of distinct queries, used all-distinct or drawn from with
#: repetition.
_QUERIES = st.lists(
    st.tuples(_VALUES, _VALUES, _VALUES), min_size=1, max_size=300, unique=True
).flatmap(
    lambda pool: st.one_of(
        st.just(pool),
        st.lists(st.sampled_from(pool), min_size=1, max_size=300),
    )
)


def bulk(platform, seed, queries, backend=None) -> dict:
    """A bulk ``/predict`` body, its keys in the documented order."""
    body: dict = {"platform": platform}
    if seed is not None:
        body["seed"] = seed
    body["queries"] = [
        {"n": n, "m_comp": m_comp, "m_comm": m_comm}
        for n, m_comp, m_comm in queries
    ]
    if backend is not None:
        body["backend"] = backend
    return body


def reference(body: bytes):
    """What the JSON path makes of ``body``; ``None`` if it refuses it."""
    try:
        return protocol.parse_predict(json.loads(body.decode("utf-8")))
    except (ValueError, RecursionError, ServiceError):
        return None


def read_checked(body: bytes):
    """``read_bulk_predict(body)``, checked against the JSON path."""
    got = protocol.read_bulk_predict(body)
    if got is not None:
        want = reference(body)
        assert want is not None, body
        platform, seed, queries, is_bulk, backend = got
        assert (type(platform), platform) == (str, want[0])
        assert (type(seed), seed) == (int, want[1])
        assert isinstance(want[2], np.ndarray)
        assert queries.dtype == want[2].dtype == np.int64
        assert queries.shape == want[2].shape
        assert queries.flags.c_contiguous
        assert np.array_equal(queries, want[2])
        assert (is_bulk, backend) == (want[3], want[4]) == (True, None)
    return got


def _in_form(platform: str, seed, queries, backend) -> bool:
    """Whether ``json.dumps`` of the body is the form the reader reads."""
    values = [v for q in queries for v in q]
    if seed is not None:
        values.append(seed)
    return (
        backend is None
        and re.fullmatch(r'[ !#-\[\]-~]*', platform) is not None
        and all(abs(v) < 10**18 for v in values)
    )


class TestAnyDumpedBody:
    @settings(max_examples=300, deadline=None)
    @example(platform='a"b', seed=0, queries=[(1, 0, 1)], backend=None)
    @example(platform="a\\b", seed=0, queries=[(1, 0, 1)], backend=None)
    @example(platform="a\x1fb", seed=0, queries=[(1, 0, 1)], backend=None)
    @example(platform="hénri", seed=0, queries=[(1, 0, 1)], backend=None)
    @example(platform="henri", seed=2**70, queries=[(1, 0, 1)], backend=None)
    @example(
        platform="henri", seed=None, queries=[(1, 0, 1)], backend="naive"
    )
    @given(
        platform=_PLATFORMS,
        seed=st.none() | _VALUES,
        queries=_QUERIES,
        backend=st.none() | st.sampled_from(["threshold", "naive", ""]),
    )
    def test_reads_like_the_json_path(self, platform, seed, queries, backend):
        body = json.dumps(bulk(platform, seed, queries, backend)).encode()
        got = read_checked(body)
        assert (got is not None) == _in_form(platform, seed, queries, backend)

    def test_reads_the_client_body_once_per_distinct_query(self):
        queries = [(4, 0, 1), (12, 1, 0)] * 500 + [(7, 1, 1)]
        body = json.dumps(bulk("occigen", 3, queries)).encode()
        platform, seed, got, _, _ = read_checked(body)
        assert (platform, seed) == ("occigen", 3)
        assert got.tolist() == [list(q) for q in queries]


# ---- byte-level mutations of a body in the form ---------------------------------

#: Rows drawn from a few distinct queries, so that most bodies repeat
#: queries.
_SIMPLE = st.builds(
    bulk,
    st.sampled_from(["henri", "occigen", "x"]),
    st.none() | st.integers(0, 99),
    st.lists(
        st.tuples(*[st.integers(-20, 120)] * 3), min_size=1, max_size=4
    ).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=20)
    ),
)
#: Bytes that replace one value of a body.
_VALUE_MUTANTS = [b"01", b"-0", b"4.0", b"true", b"1e3", b"+1", b"- 1",
                  b"", b"0x1", b"9" * 19, b"NaN", b'"4"', b"null"]


@st.composite
def _mutated(draw) -> bytes:
    obj = draw(_SIMPLE)
    body = json.dumps(obj).encode()
    kind = draw(st.sampled_from([
        "whitespace", "compact", "separator", "reorder", "duplicate",
        "value", "truncate", "trailing", "utf-8", "byte", "delete",
    ]))
    if kind == "whitespace":
        at = draw(st.integers(0, len(body)))
        space = draw(st.sampled_from([b" ", b"\n", b"\t", b"\r"]))
        return body[:at] + space + body[at:]
    if kind == "compact":
        return json.dumps(obj, separators=(",", ":")).encode()
    if kind == "separator":
        spans = [m.span() for m in re.finditer(rb"\}, \{", body)] or [(0, 0)]
        start, end = draw(st.sampled_from(spans))
        other = draw(st.sampled_from([b"},{", b"} ,{", b"},  {", b"}; {"]))
        return body[:start] + other + body[end:]
    if kind == "reorder":
        keys = draw(st.permutations(list(obj)))
        if draw(st.booleans()):
            obj["queries"] = [
                dict(reversed(list(q.items()))) for q in obj["queries"]
            ]
        return json.dumps({key: obj[key] for key in keys}).encode()
    if kind == "duplicate":
        key = draw(st.sampled_from(
            [b'"platform": "y", ', b'"seed": 5, ', b'"n": 3, ',
             b'"m_comm": 0, ']
        ))
        starts = [m.end() for m in re.finditer(rb"\{", body)]
        at = draw(st.sampled_from(starts))
        return body[:at] + key + body[at:]
    if kind == "value":
        spans = [m.span(1) for m in re.finditer(rb": (-?\d+)", body)]
        start, end = draw(st.sampled_from(spans))
        return body[:start] + draw(st.sampled_from(_VALUE_MUTANTS)) + body[end:]
    if kind == "truncate":
        return body[: draw(st.integers(0, len(body) - 1))]
    if kind == "trailing":
        return body + draw(st.binary(min_size=1, max_size=4))
    if kind == "utf-8":
        at = body.index(b'"', len(b'{"platform": ')) + 1
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9", b"\xc3\xa9"]))
        return body[:at] + bad + body[at:]
    at = draw(st.integers(0, len(body) - 1))
    if kind == "delete":
        return body[:at] + body[at + 1:]
    return body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1:]


class TestMutatedBodies:
    @settings(max_examples=500, deadline=None)
    @example(body=b'{"platform": "henri", "queries": [{"n": 01, "m_comp": 0, '
                  b'"m_comm": 1}]}')
    @example(body=b'{"platform": "henri", "queries": [{"n": -0, "m_comp": 0, '
                  b'"m_comm": 1}]}')
    @example(body=b'{"platform": "henri", "queries": [{"n": 4.0, "m_comp": 0, '
                  b'"m_comm": 1}]}')
    @example(body=b'{"platform": "henri", "queries": []}')
    @example(body=b'{"platform": "henri", "queries": [{}]}')
    @example(body=b'{"platform": "henri", "queries": [{"n": 1, "m_comp": 0, '
                  b'"m_comm": 1}]}}]}')
    @example(body=b'{"platform": "henri", "queries": [{"n": 1, "m_comp": 0, '
                  b'"m_comm": 12}]')
    @example(body=b'{"platform": "henri", "queries": [{"n": 1, "m_comp": 0, '
                  b'"m_comm": 1},{"n": 2, "m_comp": 0, "m_comm": 1}, '
                  b'{"n": 1, "m_comp": 0, "m_comm": 1}, '
                  b'{"n": 1, "m_comp": 0, "m_comm": 1}]}')
    @example(body=b"")
    @given(body=_mutated())
    def test_reads_like_the_json_path_or_refuses(self, body):
        read_checked(body)

    @pytest.mark.parametrize(
        "body",
        [
            b'{"platform":"henri","queries":[{"n":4,"m_comp":0,"m_comm":1}]}',
            b'{"platform": "henri", "queries": [{"n": 4, "m_comp": 0, '
            b'"m_comm": 1}], "backend": "naive"}',
            b'{"platform": "henri", "queries": [{"n": 4, "m_comp": 0, '
            b'"m_comm": 1}] }',
            b'{"platform": "henri", "queries": [{"n": 4, "m_comp": 0, '
            b'"m_comm": 1000000000000000000}]}',
            b'{"platform": "he\\u006eri", "queries": [{"n": 4, "m_comp": 0, '
            b'"m_comm": 1}]}',
        ],
        ids=["compact", "backend", "space", "19-digits", "escape"],
    )
    def test_refuses_what_json_dumps_would_not_write(self, body):
        assert protocol.read_bulk_predict(body) is None
        assert reference(body) is not None


# ---- the server reads both paths alike ------------------------------------------


PLATFORM = "henri-subnuma"
QUERIES = [(4, 0, 1), (12, 1, 0), (4, 0, 1), (0, 1, 1), (40, 0, 0)] * 20


def post(port: int, body: bytes) -> tuple[int, bytes]:
    """One raw ``POST /predict`` -> (status, raw body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/predict", body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def served():
    with ServerThread() as server:
        server.run(server.service.registry.get(PLATFORM, 0))
        yield server


class TestServer:
    @pytest.mark.parametrize("seed", [None, 0])
    @pytest.mark.parametrize(
        "queries",
        [QUERIES, [(4, 0, 1), (-1, 0, 0)], [(4, 0, 1), (10**17, 0, 0)]],
        ids=["valid", "negative", "huge"],
    )
    def test_separators_do_not_change_the_answer(self, served, seed, queries):
        obj = bulk(PLATFORM, seed, queries)
        default = post(served.port, json.dumps(obj).encode())
        compact = post(
            served.port, json.dumps(obj, separators=(",", ":")).encode()
        )
        assert default == compact

    def test_documented_bodies_skip_the_json_decode(self, served, monkeypatch):
        calls = []
        stand_in = types.ModuleType("json")
        stand_in.__dict__.update(vars(json))

        def loads(*args, **kwargs):
            calls.append(args)
            return json.loads(*args, **kwargs)

        stand_in.loads = loads
        monkeypatch.setattr(server_module, "json", stand_in)

        rows = served.client().predict_many(PLATFORM, QUERIES)
        assert [(r["n"], r["m_comp"], r["m_comm"]) for r in rows] == QUERIES
        seedless = bulk(PLATFORM, None, QUERIES)
        status, raw = post(served.port, json.dumps(seedless).encode())
        assert status == 200
        assert json.loads(raw)["results"] == rows
        assert calls == []

        compact = json.dumps(seedless, separators=(",", ":")).encode()
        assert post(served.port, compact) == (status, raw)
        assert len(calls) == 1
