"""The model's answer tables against the scalar oracle.

:class:`~repro.core.placement.PlacementModel` (also importable under
its former name, ``CompiledModel``) answers every query from tables
whose columns it fills on first read, and past ``TABLE_N_MAX`` from the
closed form on the requested points.  Both must equal the scalar oracle's replay of
equations 6 and 7 bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.compiled import CompiledModel
from repro.core.oracle import ScalarOracle
from repro.core.placement import TABLE_N_MAX, PlacementModel
from repro.errors import PlacementError
from repro.topology import get_platform

N_MAX = 48

#: Both sides of the table edge, and far past it.
EDGE = (TABLE_N_MAX - 1, TABLE_N_MAX, TABLE_N_MAX + 1, 1000)


def scalar_reference(model: PlacementModel, n: int, m_comp: int, m_comm: int):
    """Equations 6/7 replayed through the scalar oracle — the original
    implementation every faster layer must match bit for bit."""
    local = ScalarOracle(model.local)
    remote = ScalarOracle(model.remote)
    substituted = ScalarOracle(
        model.local.with_comm_nominal(model.remote.b_comm_seq)
    )
    if model.is_remote(m_comp) and m_comp == m_comm:
        comm_side = remote
    elif model.is_remote(m_comm):
        comm_side = substituted
    else:
        comm_side = local
    comp_side = remote if model.is_remote(m_comp) else local
    comp = (
        comp_side.comp_parallel(n)
        if m_comp == m_comm
        else comp_side.comp_alone(n)
    )
    return (
        comp,
        comm_side.comm_parallel(n),
        comp_side.comp_alone(n),
        comm_side.comm_alone(),
    )


class TestBitIdentity:
    def test_matches_scalar_oracle_on_every_platform(self, all_experiments):
        """Every archived platform x every placement x every n up to
        ``N_MAX`` and on both sides of the table edge: the answer equals
        the scalar-oracle replay exactly, whether a batch stays inside
        the table or reaches past it."""
        for name, experiment in all_experiments.items():
            model = experiment.model
            compiled = CompiledModel.compile(model)
            assert compiled is model
            k = model.n_numa_nodes
            placements = [(mc, mm) for mc in range(k) for mm in range(k)]
            inside = [
                (n, mc, mm)
                for n in [*range(N_MAX + 1), *EDGE[:2]]
                for mc, mm in placements
            ]
            beyond = [(n, mc, mm) for n in EDGE[2:] for mc, mm in placements]
            for queries in (inside, inside + beyond):
                points = compiled.predict_batch(queries)
                for (n, mc, mm), point in zip(queries, points):
                    assert (
                        point.comp_parallel,
                        point.comm_parallel,
                        point.comp_alone,
                        point.comm_alone,
                    ) == scalar_reference(model, n, mc, mm), (name, n, mc, mm)
            for n in EDGE:
                for mc, mm in placements:
                    comp, comm, alone, comm_alone = scalar_reference(
                        model, n, mc, mm
                    )
                    where = (name, n, mc, mm)
                    assert model.comp_parallel(n, mc, mm) == comp, where
                    assert model.comm_parallel(n, mc, mm) == comm, where
                    assert model.comp_alone(n, mc) == alone, where
                    assert model.comm_alone(mm) == comm_alone, where

    def test_columns_match_batch(self, all_experiments):
        model = all_experiments["occigen"].model
        k = model.n_numa_nodes
        queries = [(n, n % k, (n + 1) % k) for n in [*range(N_MAX + 1), *EDGE]]
        points = model.predict_batch(queries)
        columns = model.predict_columns(queries)
        for name in (
            "n", "m_comp", "m_comm", "comp_parallel", "comm_parallel",
            "comp_alone", "comm_alone",
        ):
            assert columns[name].tolist() == [getattr(p, name) for p in points]

    def test_grid_matches_live_model(self, all_experiments):
        """The grid, the per-placement sweep and the scalar oracle agree."""
        model = all_experiments["henri"].model
        ns = np.array([*range(1, N_MAX + 1), *EDGE])
        grid = model.predict_grid(ns)
        assert set(grid) == set(model.placements())
        for (mc, mm), pred in grid.items():
            single = model.predict(ns, mc, mm)
            assert np.array_equal(pred.comp_parallel, single.comp_parallel)
            assert np.array_equal(pred.comm_parallel, single.comm_parallel)
            assert np.array_equal(pred.comp_alone, single.comp_alone)
            for i, n in enumerate(ns.tolist()):
                comp, comm, alone, comm_alone = scalar_reference(
                    model, n, mc, mm
                )
                assert pred.comp_parallel[i] == comp, (n, mc, mm)
                assert pred.comm_parallel[i] == comm, (n, mc, mm)
                assert pred.comp_alone[i] == alone, (n, mc, mm)
                assert pred.comm_alone == comm_alone, (n, mc, mm)


class TestFallbackAndValidation:
    def test_past_n_max_falls_back_to_live_model(self, all_experiments):
        """Past the table, every entry point answers from the closed
        form on the requested points, identically."""
        model = all_experiments["occigen"].model
        n = TABLE_N_MAX + 20
        point = model.predict_batch([(n, 0, 1)])[0]
        assert point.comp_parallel == model.comp_parallel(n, 0, 1)
        assert point.comm_parallel == model.comm_parallel(n, 0, 1)
        columns = model.predict_columns([(2, 0, 0), (n, 0, 1)])
        assert columns["comp_parallel"][1] == point.comp_parallel
        assert columns["comp_parallel"][0] == model.comp_parallel(2, 0, 0)
        ns = np.arange(TABLE_N_MAX - 5, n + 1)
        grid = model.predict_grid(ns, [(0, 1)])
        assert grid[(0, 1)].comp_parallel[-1] == point.comp_parallel
        assert np.array_equal(
            grid[(0, 1)].comp_parallel, model.predict(ns, 0, 1).comp_parallel
        )

    def test_rejects_malformed_batches(self, all_experiments):
        model = all_experiments["occigen"].model
        for predict in (model.predict_batch, model.predict_columns):
            with pytest.raises(PlacementError):
                predict([(1, 2)])  # not a triple
            with pytest.raises(PlacementError, match="query 1"):
                predict([(1, 0, 0), (1.5, 0, 0)])
            with pytest.raises(PlacementError, match="query 0"):
                predict([(-1, 0, 0)])
            with pytest.raises(PlacementError, match="NUMA node"):
                predict([(1, 0, 99)])


class TestTopologyCoverage:
    def test_default_n_max_covers_every_archived_platform(self):
        from repro.topology import platform_names

        for name in platform_names():
            platform = get_platform(name)
            assert platform.machine.n_cores <= TABLE_N_MAX
