"""Every model answers like its scalar reference, bit for bit.

Each backend's side evaluates whole core-count arrays and its
:class:`~repro.core.placement.PlacementModel` answers from tables it
fills on first read.  ``tests/backends/reference.py`` keeps the scalar
implementations those replaced.  Here every model's
``predict_columns`` and scalar queries must equal the reference's
equation 6/7 replay, compared as bit patterns (so ``-0.0`` differs
from ``0.0``): on every platform's calibration, and on drawn side
parameters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import BACKENDS
from repro.backends.baseline import LangguthSide, NaiveSide, QueueingSide
from repro.backends.cxlmem import LeftoverSide
from repro.backends.overlap import SaturationSide
from repro.backends.tournament import run_platform_tournament
from repro.core.placement import PlacementModel
from repro.topology import platform_names

from tests.backends.reference import replay, scalar_sides
from tests.core.test_model_properties import model_params

INT64_MAX = int(np.iinfo(np.int64).max)

#: Core counts far past the tables.  The thread-fair water-fill is
#: O(n) in time and memory per core count, so langguth skips them.
_HUGE = [10**6, 2**40, INT64_MAX]


def _core_counts(backend_id: str) -> st.SearchStrategy[list[int]]:
    """Up to ten core counts in 0..300 and up to two past the tables,
    in any order."""
    past = [4096] if backend_id == "langguth-threadfair" else [4096, *_HUGE]
    return st.tuples(
        st.lists(st.integers(0, 300), min_size=1, max_size=10),
        st.lists(st.sampled_from(past), max_size=2),
    ).flatmap(lambda drawn: st.permutations(drawn[0] + drawn[1]))


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_matches_reference(
    model: PlacementModel, backend_id: str, ns: list[int]
) -> None:
    """``predict_columns`` and the four scalar queries of ``model``, for
    every placement at each of ``ns``, against the scalar replay."""
    sides = scalar_sides(backend_id, model.local, model.remote)
    queries = [(n, mc, mm) for mc, mm in model.placements() for n in ns]
    columns = model.predict_columns(queries)
    expected = [replay(sides, model.nodes_per_socket, *q) for q in queries]
    names = ("comp_parallel", "comm_parallel", "comp_alone", "comm_alone")
    for i, name in enumerate(names):
        assert _bits(columns[name]) == _bits([e[i] for e in expected]), name
    for (n, mc, mm), want in zip(queries, expected):
        got = (
            model.comp_parallel(n, mc, mm),
            model.comm_parallel(n, mc, mm),
            model.comp_alone(n, mc),
            model.comm_alone(mm),
        )
        assert _bits(got) == _bits(want), (backend_id, n, mc, mm)


# ---- every platform's calibration -------------------------------------------------


@pytest.fixture(scope="module")
def rosters(all_experiments, seeded_config):
    """Every platform's calibrated roster, threshold included."""
    return {
        name: run_platform_tournament(
            all_experiments[name], config=seeded_config
        ).calibrated
        for name in platform_names()
    }


@pytest.mark.parametrize("backend_id", list(BACKENDS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_platform_calibrations_match(rosters, backend_id, data):
    platform = data.draw(st.sampled_from(platform_names()), label="platform")
    ns = data.draw(_core_counts(backend_id), label="ns")
    assert_matches_reference(rosters[platform][backend_id], backend_id, ns)


# ---- drawn side parameters ------------------------------------------------------

_gbps = st.floats(0.25, 400.0)


@st.composite
def _baseline_inputs(draw, side: type) -> object:
    """Baseline inputs; ``b_comm_seq == b_comp_seq`` in about half the
    draws, so that every water-fill offer is equal.  The capacity falls
    below the total demand at some core counts and above it at others."""
    b_comp_seq = draw(_gbps)
    b_comm_seq = b_comp_seq if draw(st.booleans()) else draw(_gbps)
    return side(
        bus_capacity_gbps=draw(_gbps),
        b_comp_seq=b_comp_seq,
        b_comm_seq=b_comm_seq,
        t_seq_max=draw(_gbps),
    )


@st.composite
def _saturation_side(draw) -> SaturationSide:
    return SaturationSide(
        b_sat=draw(_gbps),
        n_half=draw(st.one_of(st.just(0.0), st.floats(0.0, 64.0))),
        b_comp_seq=draw(_gbps),
        b_comm_seq=draw(_gbps),
    )


@st.composite
def _leftover_side(draw) -> LeftoverSide:
    b_comm_seq = draw(_gbps)
    return LeftoverSide(
        b_cap=draw(_gbps),
        b_comp_seq=draw(_gbps),
        b_comm_seq=b_comm_seq,
        t_seq_max=draw(_gbps),
        comm_floor=b_comm_seq * draw(st.floats(1e-3, 1.0)),
    )


SIDES = {
    "threshold": model_params(),
    "naive": _baseline_inputs(NaiveSide),
    "queueing-ps": _baseline_inputs(QueueingSide),
    "overlap-afzal": _saturation_side(),
    "cxlmem-messagefree": _leftover_side(),
    "langguth-threadfair": _baseline_inputs(LangguthSide),
}


def _drawn_model(data, side: st.SearchStrategy) -> PlacementModel:
    nodes_per_socket = data.draw(st.integers(1, 2), label="nodes_per_socket")
    return PlacementModel(
        data.draw(side, label="local"),
        data.draw(side, label="remote"),
        nodes_per_socket=nodes_per_socket,
        n_numa_nodes=2 * nodes_per_socket,
    )


@pytest.mark.parametrize("backend_id", list(SIDES)[:-1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_drawn_sides_match(backend_id, data):
    model = _drawn_model(data, SIDES[backend_id])
    ns = data.draw(_core_counts(backend_id), label="ns")
    assert_matches_reference(model, backend_id, ns)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_drawn_thread_fair_sides_match(data):
    """Fewer draws: every scalar query past the tables runs the O(n)
    water-fill of all three sides again."""
    backend_id = "langguth-threadfair"
    model = _drawn_model(data, SIDES[backend_id])
    ns = data.draw(_core_counts(backend_id), label="ns")
    assert_matches_reference(model, backend_id, ns)
