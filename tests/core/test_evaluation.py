"""The closed form of equations 1–5 and 8 against the scalar oracle.

The contract is bit-for-bit equality: every array the closed form
produces must equal what the literal per-``n`` implementation
(:class:`repro.core.oracle.ScalarOracle`) computes, across ordinary,
degenerate, and randomly drawn parameter sets.
"""

import random

import numpy as np
import pytest

from repro.core import ModelParameters, PlacementModel
from repro.core.evaluation import (
    alpha_factor,
    as_core_counts,
    curves,
    last_unsaturated,
    sweep_curves,
    total_bandwidth,
)
from repro.core.oracle import ScalarOracle
from repro.errors import BenchmarkError, ModelError, PlacementError


def params(**overrides):
    base = dict(
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
    base.update(overrides)
    return ModelParameters(**base)


#: Edge cases called out by the equations: knees colliding, the
#: interpolation window collapsing, permanent saturation, flat and
#: cliff-like capacity curves.
EDGE_CASES = [
    params(),
    # Degenerate knees: n_par_max == n_seq_max.
    params(n_par_max=12, t_par_max2=60.0, delta_l=0.0),
    # Interpolation window of width one: Eq. 5's condition fails.
    params(n_par_max=11, t_par_max2=59.0),
    # Always saturated: R(1) >= T(1).
    params(
        t_par_max=8.0, t_seq_max=7.0, t_par_max2=7.0, delta_l=0.25, delta_r=0.1
    ),
    # Flat capacity (no contention slopes at all).
    params(delta_l=0.0, delta_r=0.0, t_par_max2=60.0),
    # Cliff after n_seq_max: the zero floor engages.
    params(delta_r=50.0),
    # Communications guaranteed everything (alpha = 1).
    params(alpha=1.0),
]


def random_params(n_sets: int = 150) -> list[ModelParameters]:
    rng = random.Random(20260806)
    out = []
    while len(out) < n_sets:
        n_par = rng.randint(1, 24)
        t_par = rng.uniform(1, 200)
        try:
            out.append(
                ModelParameters(
                    n_par_max=n_par,
                    t_par_max=t_par,
                    n_seq_max=n_par + rng.randint(0, 24),
                    t_seq_max=rng.uniform(0.5, 200),
                    t_par_max2=t_par * rng.uniform(0.3, 1.0),
                    delta_l=rng.uniform(0, 5),
                    delta_r=rng.uniform(0, 5),
                    b_comp_seq=rng.uniform(0.1, 20),
                    b_comm_seq=rng.uniform(0.1, 30),
                    alpha=rng.uniform(1e-3, 1.0),
                )
            )
        except ModelError:
            continue
    return out


def assert_matches_oracle(p: ModelParameters) -> None:
    oracle = ScalarOracle(p)
    ns = np.arange(0, p.n_seq_max + 9)
    swept = sweep_curves(p, ns)
    reference = oracle.sweep(ns)
    for name in ("total", "comp_par", "comm_par", "comp_alone"):
        assert np.array_equal(swept[name], reference[name]), (name, p)
    # Single points, including far past any table.
    for n in (0, 1, p.n_par_max, p.n_seq_max, p.n_seq_max + 5, 10**9):
        point = np.array([n], dtype=np.int64)
        at = curves(p, point)
        assert total_bandwidth(p, point)[0] == oracle.total_bandwidth(n)
        assert alpha_factor(p, point)[0] == oracle.alpha_factor(n)
        assert at["comp_par"][0] == oracle.comp_parallel(n)
        assert at["comm_par"][0] == oracle.comm_parallel(n)
        assert at["comp_alone"][0] == oracle.comp_alone(n)


class TestBitForBit:
    @pytest.mark.parametrize("p", EDGE_CASES, ids=range(len(EDGE_CASES)))
    def test_edge_cases(self, p):
        assert_matches_oracle(p)

    def test_random_parameter_grid(self):
        for p in random_params():
            assert_matches_oracle(p)

    def test_frontier_matches_oracle(self):
        for p in EDGE_CASES + random_params(40):
            assert last_unsaturated(p) == ScalarOracle(p)._last_unsaturated()

    def test_sweep_curves_helper(self):
        p = params()
        swept = sweep_curves(p, [1, 5, 11])
        assert swept["comm_par"][2] == ScalarOracle(p).comm_parallel(11)


class TestIntegerContract:
    """Non-integral core counts are rejected, never truncated."""

    def test_sweep_rejects_fractional_cores(self):
        with pytest.raises(ModelError, match="integral"):
            sweep_curves(params(), [1, 2.7, 3])

    def test_sweep_rejects_nan(self):
        with pytest.raises(ModelError, match="integral"):
            sweep_curves(params(), [1.0, float("nan")])

    def test_sweep_rejects_strings(self):
        with pytest.raises(ModelError, match="dtype"):
            sweep_curves(params(), ["a", "b"])

    def test_sweep_rejects_negative(self):
        with pytest.raises(ModelError, match=">= 0"):
            sweep_curves(params(), [1, -2])

    def test_sweep_accepts_integral_floats(self):
        swept = sweep_curves(params(), np.arange(1.0, 5.0))
        assert np.array_equal(
            swept["total"], sweep_curves(params(), [1, 2, 3, 4])["total"]
        )

    def test_predict_rejects_fractional_cores(self):
        model = PlacementModel(
            params(), params(t_par_max=50.0, t_par_max2=48.0),
            nodes_per_socket=1, n_numa_nodes=2,
        )
        with pytest.raises(PlacementError, match="integral"):
            model.predict([1, 2.5], 0, 1)

    def test_as_core_counts_custom_error(self):
        with pytest.raises(BenchmarkError):
            as_core_counts([0.5], error=BenchmarkError)

    def test_as_core_counts_roundtrip(self):
        ns = as_core_counts([3, 1, 2])
        assert ns.dtype == np.int64
        assert list(ns) == [3, 1, 2]


class TestPredictGrid:
    def test_grid_matches_per_placement_predict(self):
        model = PlacementModel(
            params(),
            params(t_par_max=50.0, t_par_max2=48.0, b_comm_seq=7.0),
            nodes_per_socket=2,
            n_numa_nodes=4,
        )
        ns = np.arange(1, 17)
        grid = model.predict_grid(ns)
        assert set(grid) == {(a, b) for a in range(4) for b in range(4)}
        for (m_comp, m_comm), pred in grid.items():
            single = model.predict(ns, m_comp, m_comm)
            assert np.array_equal(pred.comp_parallel, single.comp_parallel)
            assert np.array_equal(pred.comm_parallel, single.comm_parallel)
            assert np.array_equal(pred.comp_alone, single.comp_alone)
            assert pred.comm_alone == single.comm_alone

    def test_grid_matches_scalar_placement_calls(self):
        model = PlacementModel(
            params(),
            params(t_par_max=50.0, t_par_max2=48.0, b_comm_seq=7.0),
            nodes_per_socket=2,
            n_numa_nodes=4,
        )
        ns = np.arange(0, 16)
        for (m_comp, m_comm), pred in model.predict_grid(ns).items():
            for i, n in enumerate(ns):
                n = int(n)
                assert pred.comp_parallel[i] == model.comp_parallel(
                    n, m_comp, m_comm
                )
                assert pred.comm_parallel[i] == model.comm_parallel(
                    n, m_comp, m_comm
                )
                assert pred.comp_alone[i] == model.comp_alone(n, m_comp)

    def test_grid_subset_of_placements(self):
        model = PlacementModel(
            params(),
            params(t_par_max=50.0, t_par_max2=48.0),
            nodes_per_socket=1,
            n_numa_nodes=2,
        )
        grid = model.predict_grid([1, 2, 3], [(0, 0), (1, 1)])
        assert set(grid) == {(0, 0), (1, 1)}
