"""PlacementModel: equations 6 and 7, every selection case."""

import re

import numpy as np
import pytest

from repro.core import ModelParameters, PlacementModel, ScalarOracle
from repro.core.placement import PointPrediction
from repro.errors import PlacementError

LOCAL = ModelParameters(
    n_par_max=8,
    t_par_max=60.0,
    n_seq_max=12,
    t_seq_max=58.0,
    t_par_max2=56.0,
    delta_l=1.0,
    delta_r=0.5,
    b_comp_seq=5.0,
    b_comm_seq=10.0,
    alpha=0.4,
)

REMOTE = ModelParameters(
    n_par_max=6,
    t_par_max=30.0,
    n_seq_max=10,
    t_seq_max=28.0,
    t_par_max2=27.0,
    delta_l=0.75,
    delta_r=0.3,
    b_comp_seq=2.5,
    b_comm_seq=9.0,  # locality-sensitive NIC: remote nominal differs
    alpha=0.4,
)


@pytest.fixture
def model():
    return PlacementModel(LOCAL, REMOTE, nodes_per_socket=2, n_numa_nodes=4)


class TestConstruction:
    def test_requires_two_sockets(self):
        with pytest.raises(PlacementError, match="two sockets"):
            PlacementModel(LOCAL, REMOTE, nodes_per_socket=2, n_numa_nodes=2)

    def test_node_bounds_checked(self, model):
        with pytest.raises(PlacementError, match="out of range"):
            model.comm_parallel(2, 0, 5)
        with pytest.raises(PlacementError):
            model.comp_parallel(2, -1, 0)

    def test_is_remote(self, model):
        assert not model.is_remote(0)
        assert not model.is_remote(1)
        assert model.is_remote(2)
        assert model.is_remote(3)


class TestEquation6:
    def test_case1_remote_same_node(self, model):
        """m_comp >= #m and m_comp == m_comm -> remote model."""
        expected = ScalarOracle(REMOTE).comm_parallel(7)
        assert model.comm_parallel(7, 2, 2) == expected
        assert model.comm_parallel(7, 3, 3) == expected

    def test_case2_comm_remote_substitutes_nominal(self, model):
        """m_comm >= #m otherwise -> local model with remote B_comm_seq."""
        substituted = ScalarOracle(
            LOCAL.with_comm_nominal(REMOTE.b_comm_seq)
        ).comm_parallel(7)
        assert model.comm_parallel(7, 0, 2) == substituted
        assert model.comm_parallel(7, 2, 3) == substituted  # different remote nodes

    def test_case3_comm_local(self, model):
        expected = ScalarOracle(LOCAL).comm_parallel(7)
        assert model.comm_parallel(7, 0, 0) == expected
        assert model.comm_parallel(7, 2, 1) == expected
        assert model.comm_parallel(7, 0, 1) == expected

    def test_case2_uses_remote_nominal_at_low_core_counts(self, model):
        """With few cores the substituted model returns the remote nominal."""
        assert model.comm_parallel(1, 0, 2) == pytest.approx(REMOTE.b_comm_seq)

    def test_sample_placements_reduce_to_instantiations(self, model):
        local_model = ScalarOracle(LOCAL)
        remote_model = ScalarOracle(REMOTE)
        for n in (1, 5, 9, 13):
            assert model.comm_parallel(n, 0, 0) == local_model.comm_parallel(n)
            assert model.comm_parallel(n, 2, 2) == remote_model.comm_parallel(n)


class TestEquation7:
    def test_local_shared_node(self, model):
        assert model.comp_parallel(9, 0, 0) == ScalarOracle(LOCAL).comp_parallel(9)
        assert model.comp_parallel(9, 1, 1) == ScalarOracle(LOCAL).comp_parallel(9)

    def test_local_disjoint_uses_alone(self, model):
        expected = ScalarOracle(LOCAL).comp_alone(9)
        assert model.comp_parallel(9, 0, 1) == expected
        assert model.comp_parallel(9, 1, 2) == expected

    def test_remote_shared_node(self, model):
        assert model.comp_parallel(9, 2, 2) == ScalarOracle(REMOTE).comp_parallel(9)

    def test_remote_disjoint_uses_remote_alone(self, model):
        expected = ScalarOracle(REMOTE).comp_alone(9)
        assert model.comp_parallel(9, 2, 0) == expected
        assert model.comp_parallel(9, 2, 3) == expected

    def test_symmetry_across_equivalent_remote_nodes(self, model):
        """Remote nodes are interchangeable in the model (the paper's
        observed machine symmetry)."""
        for n in (3, 9, 14):
            assert model.comp_parallel(n, 2, 2) == model.comp_parallel(n, 3, 3)
            assert model.comm_parallel(n, 2, 2) == model.comm_parallel(n, 3, 3)


class TestAlonePredictions:
    def test_comp_alone_by_locality(self, model):
        assert model.comp_alone(6, 0) == ScalarOracle(LOCAL).comp_alone(6)
        assert model.comp_alone(6, 3) == ScalarOracle(REMOTE).comp_alone(6)

    def test_comm_alone_by_locality(self, model):
        assert model.comm_alone(1) == LOCAL.b_comm_seq
        assert model.comm_alone(2) == REMOTE.b_comm_seq


class TestPredictSweep:
    def test_prediction_bundle(self, model):
        ns = np.arange(1, 15)
        pred = model.predict(ns, 0, 0)
        assert pred.m_comp == 0 and pred.m_comm == 0
        assert pred.comp_parallel.shape == ns.shape
        assert pred.total_parallel() == pytest.approx(
            pred.comp_parallel + pred.comm_parallel
        )

    def test_empty_core_counts_rejected(self, model):
        with pytest.raises(PlacementError):
            model.predict([], 0, 0)


class TestPredictGridValidation:
    """predict_grid must reject exactly what the scalar path rejects."""

    def test_non_integral_core_counts_rejected(self, model):
        with pytest.raises(PlacementError, match="integral"):
            model.predict_grid([1.0, 2.5, 3.0])

    def test_non_integral_matches_scalar_predict(self, model):
        with pytest.raises(PlacementError) as grid_err:
            model.predict_grid([2.7], [(0, 0)])
        with pytest.raises(PlacementError) as scalar_err:
            model.predict([2.7], 0, 0)
        assert str(grid_err.value) == str(scalar_err.value)

    def test_out_of_range_node_rejected(self, model):
        with pytest.raises(PlacementError, match="out of range"):
            model.predict_grid([1, 2], [(0, 4)])
        with pytest.raises(PlacementError, match="out of range"):
            model.predict_grid([1, 2], [(-1, 0)])

    def test_non_integer_node_rejected(self, model):
        with pytest.raises(PlacementError, match="integer"):
            model.predict_grid([1, 2], [(0.5, 0)])

    def test_empty_grid_rejected(self, model):
        with pytest.raises(PlacementError, match="non-empty"):
            model.predict_grid([])
        with pytest.raises(PlacementError, match="non-empty"):
            model.predict_grid(np.array([]))

    def test_negative_core_counts_rejected(self, model):
        with pytest.raises(PlacementError, match=">= 0"):
            model.predict_grid([-1, 2])


class TestPredictBatch:
    def test_matches_scalar_queries(self, model):
        queries = [(4, 0, 0), (8, 0, 1), (2, 2, 2), (10, 3, 0), (4, 0, 0)]
        results = model.predict_batch(queries)
        assert [r.n for r in results] == [q[0] for q in queries]
        for (n, mc, mm), point in zip(queries, results):
            assert point.comp_parallel == model.comp_parallel(n, mc, mm)
            assert point.comm_parallel == model.comm_parallel(n, mc, mm)
            assert point.comp_alone == model.comp_alone(n, mc)
            assert point.comm_alone == model.comm_alone(mm)

    def test_empty_batch(self, model):
        assert model.predict_batch([]) == []

    def test_invalid_query_rejected(self, model):
        with pytest.raises(PlacementError, match="out of range"):
            model.predict_batch([(4, 0, 0), (4, 0, 9)])
        with pytest.raises(PlacementError, match="triples"):
            model.predict_batch([(4, 0)])

    def test_per_query_core_count_validation(self, model):
        """Bad n values are rejected up front, naming the offending query."""
        with pytest.raises(PlacementError, match="batch query 1"):
            model.predict_batch([(4, 0, 0), (2.5, 0, 0)])
        with pytest.raises(PlacementError, match="batch query 0"):
            model.predict_batch([(float("nan"), 0, 0)])
        with pytest.raises(PlacementError, match="batch query 2"):
            model.predict_batch([(4, 0, 0), (2, 0, 0), (-1, 0, 0)])
        with pytest.raises(PlacementError, match="batch query 0"):
            model.predict_batch([("4", 0, 0)])

    def test_bool_core_count_rejected(self, model):
        # True is an int in Python; silently meaning "1 core" would be
        # a caller bug answered with a plausible number.
        with pytest.raises(PlacementError, match="batch query 0"):
            model.predict_batch([(True, 0, 0)])

    def test_integral_float_accepted(self, model):
        point = model.predict_batch([(4.0, 0, 0)])[0]
        assert point.n == 4
        assert point.comp_parallel == model.comp_parallel(4, 0, 0)

    def test_every_slot_is_a_prediction(self, model):
        results = model.predict_batch([(4, 0, 0), (8, 1, 2), (2, 3, 3)])
        assert all(isinstance(r, PointPrediction) for r in results)


#: One query per field holding a boolean: ``True`` is an ``int`` in
#: Python, so a query would otherwise silently mean 1 core or node 1.
BOOL_QUERIES = {
    "n": (True, 0, 1),
    "m_comp": (4, True, 1),
    "m_comm": (4, 0, True),
}


class TestBooleansRejected:
    # A boolean core count in a batch: TestPredictBatch.
    @pytest.mark.parametrize("field", ["m_comp", "m_comm"])
    def test_predict_batch_names_the_query(self, model, field):
        with pytest.raises(PlacementError, match="batch query 1"):
            model.predict_batch([(4, 0, 0), BOOL_QUERIES[field]])

    @pytest.mark.parametrize("field", BOOL_QUERIES)
    def test_scalar_curves_name_the_query(self, model, field):
        query = BOOL_QUERIES[field]
        for curve in (model.comp_parallel, model.comm_parallel):
            with pytest.raises(PlacementError, match=re.escape(repr(query))):
                curve(*query)

    def test_alone_curves_and_sweeps(self, model):
        with pytest.raises(PlacementError, match="core count"):
            model.comp_alone(True, 0)
        with pytest.raises(PlacementError, match="NUMA node"):
            model.comp_alone(4, True)
        with pytest.raises(PlacementError, match="NUMA node"):
            model.comm_alone(True)
        with pytest.raises(PlacementError, match="NUMA node"):
            model.predict([4], True, 0)
        with pytest.raises(PlacementError, match="NUMA node"):
            model.predict_grid([4], [(0, True)])
        with pytest.raises(PlacementError, match="dtype bool"):
            model.predict([True], 0, 0)


#: Core counts past int64: JSON allows integer literals of any length,
#: and NumPy stores 2**63..2**64-1 as uint64 and longer ones as objects.
HUGE_CORE_COUNTS = {"2^63": 2**63, "2^64": 2**64, "1e400": 10**400}


class TestCoreCountsPastInt64:
    @pytest.mark.parametrize("name", HUGE_CORE_COUNTS)
    def test_every_query_method_names_the_query(self, model, name):
        n = HUGE_CORE_COUNTS[name]
        with pytest.raises(PlacementError, match="batch query 1: .*at most"):
            model.predict_batch([(4, 0, 0), (n, 0, 1)])
        # Named as given, though NumPy may turn the batch into floats.
        with pytest.raises(PlacementError, match=f"batch query 1: .*{n}"):
            model.predict_columns([(4, 0, 0), (n, 0, 1)])
        query = re.escape(f"query ({n}, 0, 1)")
        with pytest.raises(PlacementError, match=query):
            model.comm_parallel(n, 0, 1)
        with pytest.raises(PlacementError, match="core count"):
            model.predict([4, n], 0, 1)

    def test_float_past_int64_is_not_wrapped(self, model):
        with pytest.raises(PlacementError, match="batch query 0: .*int64"):
            model.predict_columns([(1e300, 0, 1)])
        with pytest.raises(PlacementError, match="at most"):
            model.predict_batch([(1e300, 0, 1)])
        with pytest.raises(PlacementError, match="int64, got 1e\\+300"):
            model.predict([1e300], 0, 1)

    def test_largest_int64_core_count_is_answered(self, model):
        n = 2**63 - 1
        (point,) = model.predict_batch([(n, 0, 1)])
        columns = model.predict_columns([(n, 0, 1)])
        assert point.n == int(columns["n"][0]) == n
        assert point.comm_alone == columns["comm_alone"][0]
