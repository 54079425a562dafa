"""Request/response schemas of the JSON prediction API.

Endpoints, payloads, and error envelopes are documented in
``docs/SERVICE.md``.  Every malformed request is reported as a
:class:`~repro.errors.ServiceError`; library failures keep their own
types, and :func:`http_status_for` maps the whole :class:`ReproError`
hierarchy onto HTTP statuses so clients can distinguish "you sent
garbage" (4xx) from "the model refused" (422) from "the service broke"
(5xx).
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.errors import (
    AdvisorError,
    BenchmarkError,
    CalibrationError,
    ModelError,
    ReproError,
    ServiceError,
    TopologyError,
)

__all__ = [
    "encode_results",
    "error_payload",
    "http_status_for",
    "is_victim_advise",
    "parse_advise",
    "parse_advise_victim",
    "parse_calibrate",
    "parse_predict",
    "parse_predict_grid",
    "read_bulk_predict",
    "result_rows",
]

#: Most-derived first: ``isinstance`` walks this in order.
_STATUS_BY_ERROR: tuple[tuple[type, int], ...] = (
    (ServiceError, 400),  # malformed request
    (TopologyError, 404),  # unknown platform
    (AdvisorError, 422),  # valid JSON, unservable model query
    (ModelError, 422),  # includes PlacementError
    (CalibrationError, 422),
    (BenchmarkError, 422),
    (ReproError, 500),
)


def http_status_for(exc: BaseException) -> int:
    """HTTP status for a library error (500 for anything unexpected)."""
    for err_type, status in _STATUS_BY_ERROR:
        if isinstance(exc, err_type):
            return status
    return 500


def error_payload(exc: BaseException, *, status: int | None = None) -> dict:
    """The structured JSON error envelope of one failed request."""
    status = http_status_for(exc) if status is None else status
    return {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "status": status,
        }
    }


# ---- field extraction -----------------------------------------------------------


def _require_mapping(body: object) -> dict:
    if not isinstance(body, dict):
        raise ServiceError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _get(body: dict, field: str, *, default: object = ...) -> object:
    if field in body:
        return body[field]
    if default is ...:
        raise ServiceError(f"missing required field {field!r}")
    return default


def _as_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        # ``json.loads`` accepts NaN and Infinity; ``is_integer`` is
        # False for both, so they are rejected rather than crash int().
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ServiceError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _as_number(value: object, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"field {field!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ServiceError(f"field {field!r} must be finite, got {value!r}")
    return number


def _as_str(value: object, field: str) -> str:
    if not isinstance(value, str):
        raise ServiceError(f"field {field!r} must be a string, got {value!r}")
    return value


def _platform_and_seed(body: dict) -> tuple[str, int]:
    platform = _as_str(_get(body, "platform"), "platform")
    seed = _as_int(_get(body, "seed", default=0), "seed")
    return platform, seed


def _backend(body: dict) -> str | None:
    """The optional ``backend`` selector (``None`` = the default
    threshold model).  Validity of the name is the registry's business;
    the parser only enforces the type."""
    raw = _get(body, "backend", default=None)
    if raw is None:
        return None
    backend = _as_str(raw, "backend")
    if not backend:
        raise ServiceError("field 'backend' must be a non-empty string")
    return backend


# ---- per-endpoint parsers -------------------------------------------------------


#: The fields of one ``/predict`` query, in wire order.
_QUERY_FIELDS = ("n", "m_comp", "m_comm")


def _parse_query(obj: object, *, where: str) -> tuple[int, int, int]:
    if not isinstance(obj, dict):
        raise ServiceError(f"{where} must be an object, got {obj!r}")
    return tuple(_as_int(_get(obj, field), field) for field in _QUERY_FIELDS)


def _parse_queries(raw: list) -> np.ndarray | list[tuple[int, int, int]]:
    """The ``(n, m_comp, m_comm)`` triples of a bulk ``queries`` list.

    Read column-wise: each field is pulled out of every item into one
    list.  When every value's type is exactly ``int``, the columns fill
    one C-contiguous ``(N, 3)`` int64 array, which the model's columnar
    lookup takes as it is.  A value past int64 does not fit it: that
    batch is returned as ``(n, m_comp, m_comm)`` tuples, for the model
    to name the query.  Anything else (an item that is not an object, a
    missing field, a bool, an integral float) goes query by query
    through :func:`_parse_query`, which accepts it or names the
    offending query just as it would on its own.
    """
    try:
        columns = [list(map(itemgetter(field), raw)) for field in _QUERY_FIELDS]
    except (KeyError, TypeError):  # an item lacks a field or is no object
        pass
    else:
        if set(map(type, chain.from_iterable(columns))) == {int}:
            queries = np.empty((len(raw), len(columns)), dtype=np.int64)
            try:
                for j, column in enumerate(columns):
                    queries[:, j] = np.fromiter(
                        column, dtype=np.int64, count=len(column)
                    )
            except OverflowError:
                return list(zip(*columns))
            return queries
    return [
        _parse_query(item, where=f"queries[{i}]") for i, item in enumerate(raw)
    ]


def parse_calibrate(body: object) -> tuple[str, int]:
    """``POST /calibrate`` -> (platform, seed)."""
    return _platform_and_seed(_require_mapping(body))


def parse_predict(
    body: object,
) -> tuple[
    str, int, np.ndarray | list[tuple[int, int, int]], bool, str | None
]:
    """``POST /predict`` -> (platform, seed, queries, is_bulk, backend).

    Accepts either one inline query (``n``/``m_comp``/``m_comm`` at the
    top level) or a bulk ``queries`` list; the two forms are exclusive.
    ``backend`` selects a registered model backend (or ``tournament``);
    absent means the default threshold model.

    An inline query comes back as a one-element list of
    ``(n, m_comp, m_comm)`` tuples.  A bulk comes back as an ``(N, 3)``
    int64 array when every value is a JSON integer that fits int64, and
    as a list of tuples otherwise.
    """
    body = _require_mapping(body)
    platform, seed = _platform_and_seed(body)
    backend = _backend(body)
    if "queries" in body:
        if any(k in body for k in ("n", "m_comp", "m_comm")):
            raise ServiceError(
                "use either an inline query or 'queries', not both"
            )
        raw = body["queries"]
        if not isinstance(raw, list) or not raw:
            raise ServiceError("field 'queries' must be a non-empty list")
        return platform, seed, _parse_queries(raw), True, backend
    return (
        platform,
        seed,
        [_parse_query(body, where="request body")],
        False,
        backend,
    )


def parse_predict_grid(
    body: object,
) -> tuple[str, int, list[int], list[tuple[int, int]] | None]:
    """``POST /predict_grid`` -> (platform, seed, core_counts, placements)."""
    body = _require_mapping(body)
    platform, seed = _platform_and_seed(body)
    raw_counts = _get(body, "core_counts")
    if not isinstance(raw_counts, list) or not raw_counts:
        raise ServiceError("field 'core_counts' must be a non-empty list")
    core_counts = [_as_int(v, "core_counts") for v in raw_counts]
    placements: list[tuple[int, int]] | None = None
    raw_placements = _get(body, "placements", default=None)
    if raw_placements is not None:
        if not isinstance(raw_placements, list) or not raw_placements:
            raise ServiceError("field 'placements' must be a non-empty list")
        placements = []
        for i, pair in enumerate(raw_placements):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ServiceError(
                    f"placements[{i}] must be an [m_comp, m_comm] pair"
                )
            placements.append(
                (_as_int(pair[0], "m_comp"), _as_int(pair[1], "m_comm"))
            )
    return platform, seed, core_counts, placements


def parse_advise(
    body: object,
) -> tuple[str, int, float, float, int, str | None]:
    """``POST /advise``
    -> (platform, seed, comp_bytes, comm_bytes, top, backend)."""
    body = _require_mapping(body)
    platform, seed = _platform_and_seed(body)
    comp_bytes = _as_number(_get(body, "comp_bytes"), "comp_bytes")
    comm_bytes = _as_number(_get(body, "comm_bytes"), "comm_bytes")
    top = _as_int(_get(body, "top", default=5), "top")
    return platform, seed, comp_bytes, comm_bytes, top, _backend(body)


def is_victim_advise(body: object) -> bool:
    """Whether an ``/advise`` body selects the victim-placement mode."""
    return isinstance(body, dict) and bool(body.get("victim"))


def parse_advise_victim(body: object) -> tuple[str, int, int | None]:
    """``POST /advise`` with ``"victim": true``
    -> (platform, seed, top).

    Victim mode stress-tests placements against the noisy-neighbour
    roster, so the workload byte counts of the makespan advisor do not
    apply and are rejected to avoid silently ignoring them.
    """
    body = _require_mapping(body)
    if body.get("victim") is not True:
        raise ServiceError("field 'victim' must be the JSON literal true")
    for banned in ("comp_bytes", "comm_bytes", "backend"):
        if banned in body:
            raise ServiceError(
                f"field {banned!r} does not apply to victim-placement "
                "advice; drop it or drop 'victim'"
            )
    platform, seed = _platform_and_seed(body)
    raw_top = _get(body, "top", default=None)
    top = None if raw_top is None else _as_int(raw_top, "top")
    return platform, seed, top


# ---- /predict answers -----------------------------------------------------------


def result_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """One ``/predict`` answer object per row of ``columns``, the
    columns :meth:`~repro.core.placement.PlacementModel.predict_columns`
    returns."""
    return [
        {
            "n": n,
            "m_comp": mc,
            "m_comm": mm,
            "comp_parallel": cp,
            "comm_parallel": cm,
            "comp_alone": ca,
            "comm_alone": cal,
        }
        for n, mc, mm, cp, cm, ca, cal in zip(
            columns["n"].tolist(),
            columns["m_comp"].tolist(),
            columns["m_comm"].tolist(),
            columns["comp_parallel"].tolist(),
            columns["comm_parallel"].tolist(),
            columns["comp_alone"].tolist(),
            columns["comm_alone"].tolist(),
        )
    ]


def _distinct_rows(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` over the rows of equal-length integer
    ``keys``: the index of the first row of each distinct row, and each
    row's position in ``first``.

    ``np.unique(rows, return_index=True, return_inverse=True)`` without
    building the rows: one lexsort brings equal rows together, a row
    that differs from its sorted neighbour in any key starts a group,
    and each row's group is scattered back to its place.
    """
    order = np.lexsort(keys)
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def encode_results(echo: dict, columns: dict[str, np.ndarray]) -> bytes:
    """The body of a bulk ``/predict`` answer:
    ``json.dumps({**echo, "results": result_rows(columns)})`` as UTF-8,
    byte for byte.

    A calibrated model has a finite answer set, so a bulk answer
    repeats rows.  Each distinct row is rendered once and the rendered
    rows are gathered in query order.  Rows are keyed by the raw bytes
    of their values rather than compared as floats: ``-0.0`` equals
    ``0.0`` but ``json.dumps`` writes them apart, and a NaN equals
    nothing, not even itself.  Each of the int64 and float64 columns
    is viewed as int64 bit patterns, so equal bits, and only those,
    compare equal; one ``np.lexsort`` brings equal rows together.  The
    distinct rows go through one ``json.dumps`` call rather than one
    call each, whose fixed cost would make an answer with no repeated
    row slower than rendering it whole.
    """
    first, inverse = _distinct_rows(
        [column.view(np.int64) for column in columns.values()]
    )
    distinct = {name: column[first] for name, column in columns.items()}
    # ``[{row}, {row}]``: numbers and the fixed keys never hold ``}, {``,
    # so splitting on it and trimming ``[{`` and ``}]`` off the ends
    # leaves each distinct row without its braces.
    inner = json.dumps(result_rows(distinct)).encode("utf-8").split(b"}, {")
    inner[0] = inner[0][2:]
    inner[-1] = inner[-1][:-2]
    rows = [inner[i] for i in inverse.tolist()]
    # ``{**echo, "results": []}`` ends in ``[]}``; the rows go between
    # the brackets, and one join writes the whole body.
    head = json.dumps({**echo, "results": []}).encode("utf-8")[:-2]
    if not rows:
        return head + b"]}"
    rows[0] = head + b"{" + rows[0]
    rows[-1] += b"}]}"
    return b"}, {".join(rows)


# ---- bulk /predict bodies as json.dumps writes them -----------------------------

#: A JSON integer of at most 18 digits, which always fits int64.
_INT = rb"-?(?:0|[1-9][0-9]{0,17})"
#: ``{"platform": "…"[, "seed": N], "queries": [{``, the platform
#: printable ASCII with no escape.
_BULK_HEAD = re.compile(
    rb'\{"platform": "([ !#-\[\]-~]*)"(?:, "seed": (' + _INT + rb"))?"
    rb', "queries": \[\{'
)
_QUERY = rb'"n": ' + _INT + rb', "m_comp": ' + _INT + rb', "m_comm": ' + _INT
#: Queries between the ``}, {`` that separate them.
_QUERY_LIST = re.compile(_QUERY + rb"(?:\}, \{" + _QUERY + rb")*")
#: The bytes of a query list that are not its values or the commas and
#: spaces between them: the keys with their quotes and colons, and the
#: braces.
_QUERY_PUNCTUATION = b'"nm_cop:{}'


def read_bulk_predict(
    body: bytes,
) -> tuple[str, int, np.ndarray, bool, None] | None:
    """``parse_predict(json.loads(body))`` of a bulk ``/predict`` body
    in the exact form ``json.dumps`` writes with its default separators,
    and ``None`` for any other body.

    The form is ``{"platform": "…"[, "seed": N], "queries": [{"n": …,
    "m_comp": …, "m_comm": …}, …]}``: what the client's
    ``predict_many`` sends when it names no backend.  Whitespace,
    another key order, a ``backend``, an escape or a control character
    in the platform, a value of more than 18 digits or any malformed
    byte gives ``None``, and the caller decodes the body as JSON
    instead.

    The decode side of :func:`encode_results`: a bulk repeats queries,
    so the list is split on the ``}, {`` between two queries and each
    distinct query text is read once.  One regular expression checks
    every distinct text, and one ``np.fromstring`` converts their
    values; the rows are then gathered in query order into the
    C-contiguous ``(N, 3)`` int64 array ``parse_predict`` builds.
    """
    head = _BULK_HEAD.match(body)
    if head is None or not body.endswith(b"}]}"):
        return None
    texts = body[head.end():-3].split(b"}, {")
    # Each distinct text once, in order of first appearance.
    distinct = dict.fromkeys(texts)
    joined = b"}, {".join(distinct)
    if _QUERY_LIST.fullmatch(joined) is None:
        return None
    values = np.fromstring(
        joined.translate(None, _QUERY_PUNCTUATION), dtype=np.int64, sep=","
    ).reshape(-1, len(_QUERY_FIELDS))
    # With no query repeated, the values are already in query order.
    if len(distinct) < len(texts):
        distinct.update(zip(distinct, range(len(distinct))))
        values = values[
            np.fromiter(
                map(distinct.__getitem__, texts),
                dtype=np.intp,
                count=len(texts),
            )
        ]
    platform, seed = head.group(1, 2)
    return (
        platform.decode("ascii"),
        0 if seed is None else int(seed),
        values,
        True,
        None,
    )
