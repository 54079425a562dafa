"""Wire-format parsing and the error -> HTTP status mapping."""

import copy
import math

import numpy as np
import pytest

from repro.errors import (
    AdvisorError,
    ArbitrationError,
    CalibrationError,
    PlacementError,
    ReproError,
    ServiceError,
    TopologyError,
)
from repro.service import protocol


class TestStatusMapping:
    @pytest.mark.parametrize(
        "exc,status",
        [
            (ServiceError("bad"), 400),
            (TopologyError("unknown platform"), 404),
            (PlacementError("node"), 422),
            (AdvisorError("zero"), 422),
            (CalibrationError("fit"), 422),
            (ArbitrationError("infeasible"), 500),  # SimulationError family
            (ReproError("generic"), 500),
            (RuntimeError("not ours"), 500),
        ],
    )
    def test_status(self, exc, status):
        assert protocol.http_status_for(exc) == status

    def test_error_payload_shape(self):
        payload = protocol.error_payload(PlacementError("node 9 out of range"))
        assert payload == {
            "error": {
                "type": "PlacementError",
                "message": "node 9 out of range",
                "status": 422,
            }
        }


class TestParsePredict:
    def test_inline_query(self):
        platform, seed, queries, bulk, backend = protocol.parse_predict(
            {"platform": "henri", "n": 4, "m_comp": 0, "m_comm": 1}
        )
        assert (platform, seed, bulk, backend) == ("henri", 0, False, None)
        assert queries == [(4, 0, 1)]

    def test_bulk_queries(self):
        platform, seed, queries, bulk, backend = protocol.parse_predict(
            {
                "platform": "henri",
                "seed": 3,
                "queries": [
                    {"n": 4, "m_comp": 0, "m_comm": 0},
                    {"n": 8, "m_comp": 1, "m_comm": 0},
                ],
            }
        )
        assert (platform, seed, bulk, backend) == ("henri", 3, True, None)
        # One int64 array, handed to the model's lookup as it is.
        assert queries.dtype == np.int64
        assert queries.shape == (2, 3)
        assert queries.tolist() == [[4, 0, 0], [8, 1, 0]]
        assert queries.flags.c_contiguous

    @pytest.mark.parametrize("value", [2**63, 2**64, -(2**63) - 1, 8.0])
    def test_bulk_no_int64_array_holds_stays_tuples(self, value):
        """A value past int64 leaves the batch as tuples, for the model
        to name the query; a float sends it query by query."""
        *_, queries, _, _ = protocol.parse_predict(
            {
                "platform": "henri",
                "queries": [
                    {"n": 4, "m_comp": 0, "m_comm": 0},
                    {"n": value, "m_comp": 1, "m_comm": 0},
                ],
            }
        )
        assert queries == [(4, 0, 0), (int(value), 1, 0)]
        assert type(queries[1][0]) is int

    def test_backend_selector(self):
        *_, backend = protocol.parse_predict(
            {
                "platform": "henri",
                "n": 4,
                "m_comp": 0,
                "m_comm": 1,
                "backend": "tournament",
            }
        )
        assert backend == "tournament"

    @pytest.mark.parametrize("bad", [7, "", ["overlap"]])
    def test_backend_must_be_nonempty_string(self, bad):
        with pytest.raises(ServiceError, match="backend"):
            protocol.parse_predict(
                {
                    "platform": "henri",
                    "n": 4,
                    "m_comp": 0,
                    "m_comm": 1,
                    "backend": bad,
                }
            )

    def test_mixed_forms_rejected(self):
        with pytest.raises(ServiceError, match="not both"):
            protocol.parse_predict(
                {"platform": "henri", "n": 4, "queries": []}
            )

    @pytest.mark.parametrize(
        "body,match",
        [
            (None, "JSON object"),
            ([1, 2], "JSON object"),
            ({}, "platform"),
            ({"platform": 7}, "string"),
            ({"platform": "henri"}, "missing required field 'n'"),
            ({"platform": "henri", "n": "four"}, "integer"),
            ({"platform": "henri", "n": True}, "integer"),
            ({"platform": "henri", "queries": []}, "non-empty"),
            ({"platform": "henri", "queries": [42]}, r"queries\[0\]"),
        ],
    )
    def test_malformed(self, body, match):
        with pytest.raises(ServiceError, match=match):
            protocol.parse_predict(body)

    def test_integral_float_accepted(self):
        _, _, queries, _, _ = protocol.parse_predict(
            {"platform": "henri", "n": 4.0, "m_comp": 0, "m_comm": 0}
        )
        assert queries == [(4, 0, 0)]
        assert type(queries[0][0]) is int


class TestParseOthers:
    def test_calibrate_defaults_seed(self):
        assert protocol.parse_calibrate({"platform": "dahu"}) == ("dahu", 0)

    def test_predict_grid(self):
        platform, seed, ns, placements = protocol.parse_predict_grid(
            {
                "platform": "dahu",
                "core_counts": [1, 2, 3],
                "placements": [[0, 0], [0, 1]],
            }
        )
        assert (platform, seed) == ("dahu", 0)
        assert ns == [1, 2, 3]
        assert placements == [(0, 0), (0, 1)]

    def test_predict_grid_default_placements(self):
        *_, placements = protocol.parse_predict_grid(
            {"platform": "dahu", "core_counts": [1]}
        )
        assert placements is None

    def test_predict_grid_bad_placement_pair(self):
        with pytest.raises(ServiceError, match=r"placements\[1\]"):
            protocol.parse_predict_grid(
                {
                    "platform": "dahu",
                    "core_counts": [1],
                    "placements": [[0, 0], [1]],
                }
            )

    def test_advise(self):
        parsed = protocol.parse_advise(
            {
                "platform": "dahu",
                "comp_bytes": 1e9,
                "comm_bytes": 2e8,
                "top": 3,
            }
        )
        assert parsed == ("dahu", 0, 1e9, 2e8, 3, None)

    def test_advise_backend(self):
        parsed = protocol.parse_advise(
            {
                "platform": "dahu",
                "comp_bytes": 1e9,
                "comm_bytes": 2e8,
                "backend": "overlap-afzal",
            }
        )
        assert parsed == ("dahu", 0, 1e9, 2e8, 5, "overlap-afzal")

    def test_advise_requires_numbers(self):
        with pytest.raises(ServiceError, match="number"):
            protocol.parse_advise(
                {"platform": "dahu", "comp_bytes": "lots", "comm_bytes": 0}
            )


def _with(body: dict, path: tuple, value: object) -> dict:
    """A copy of ``body`` with the field at ``path`` set to ``value``."""
    body = copy.deepcopy(body)
    target = body
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return body


_INLINE = {"platform": "henri", "seed": 0, "n": 4, "m_comp": 0, "m_comm": 1}
_BULK = {
    "platform": "henri",
    "seed": 0,
    "queries": [{"n": 4, "m_comp": 0, "m_comm": 1}],
}
_GRID = {
    "platform": "henri",
    "seed": 0,
    "core_counts": [1, 2],
    "placements": [[0, 1]],
}
_ADVISE = {
    "platform": "henri",
    "seed": 0,
    "comp_bytes": 1e9,
    "comm_bytes": 2e8,
    "top": 3,
}
_VICTIM = {"platform": "henri", "seed": 0, "victim": True, "top": 3}

#: Every numeric field of every endpoint: (parser, a body valid apart
#: from that field, the field's path in it, the name the error gives).
NUMERIC_FIELDS = {
    "calibrate.seed": (protocol.parse_calibrate, _INLINE, ("seed",), "seed"),
    "predict.seed": (protocol.parse_predict, _INLINE, ("seed",), "seed"),
    "predict.n": (protocol.parse_predict, _INLINE, ("n",), "n"),
    "predict.m_comp": (protocol.parse_predict, _INLINE, ("m_comp",), "m_comp"),
    "predict.m_comm": (protocol.parse_predict, _INLINE, ("m_comm",), "m_comm"),
    "bulk.n": (protocol.parse_predict, _BULK, ("queries", 0, "n"), "n"),
    "bulk.m_comp": (
        protocol.parse_predict, _BULK, ("queries", 0, "m_comp"), "m_comp"
    ),
    "bulk.m_comm": (
        protocol.parse_predict, _BULK, ("queries", 0, "m_comm"), "m_comm"
    ),
    "grid.seed": (protocol.parse_predict_grid, _GRID, ("seed",), "seed"),
    "grid.core_counts": (
        protocol.parse_predict_grid, _GRID, ("core_counts", 1), "core_counts"
    ),
    "grid.m_comp": (
        protocol.parse_predict_grid, _GRID, ("placements", 0, 0), "m_comp"
    ),
    "grid.m_comm": (
        protocol.parse_predict_grid, _GRID, ("placements", 0, 1), "m_comm"
    ),
    "advise.seed": (protocol.parse_advise, _ADVISE, ("seed",), "seed"),
    "advise.comp_bytes": (
        protocol.parse_advise, _ADVISE, ("comp_bytes",), "comp_bytes"
    ),
    "advise.comm_bytes": (
        protocol.parse_advise, _ADVISE, ("comm_bytes",), "comm_bytes"
    ),
    "advise.top": (protocol.parse_advise, _ADVISE, ("top",), "top"),
    "victim.seed": (protocol.parse_advise_victim, _VICTIM, ("seed",), "seed"),
    "victim.top": (protocol.parse_advise_victim, _VICTIM, ("top",), "top"),
}


class TestNonFiniteNumbers:
    """``json.loads`` accepts NaN and Infinity: every numeric field
    rejects them with a ServiceError naming the field (a 400), rather
    than crashing ``int()`` or passing them to the model."""

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("case", NUMERIC_FIELDS)
    def test_rejected_naming_the_field(self, case, value):
        parse, body, path, field = NUMERIC_FIELDS[case]
        parse(body)  # valid as given
        with pytest.raises(ServiceError, match=f"field '{field}'"):
            parse(_with(body, path, value))

    def test_byte_counts_beyond_float_range_rejected(self):
        with pytest.raises(ServiceError, match="field 'comp_bytes'"):
            protocol.parse_advise(_with(_ADVISE, ("comp_bytes",), 10**400))
