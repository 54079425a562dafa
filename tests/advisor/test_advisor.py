"""Placement advisor tests."""

import pytest

from repro.advisor import Advisor, Recommendation, Workload
from repro.errors import AdvisorError
from repro.units import GB


@pytest.fixture(scope="module")
def advisor(henri_experiment):
    return Advisor(henri_experiment.model, henri_experiment.platform.machine)


class TestWorkload:
    def test_valid(self):
        Workload(comp_bytes=1e9, comm_bytes=1e8)

    def test_nothing_to_move_rejected(self):
        with pytest.raises(AdvisorError, match="nothing"):
            Workload(comp_bytes=0, comm_bytes=0)

    def test_negative_rejected(self):
        with pytest.raises(AdvisorError):
            Workload(comp_bytes=-1, comm_bytes=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("side", ["comp_bytes", "comm_bytes"])
    def test_non_finite_rejected(self, side, value):
        # NaN passes a ``< 0`` check and would rank garbage; infinity
        # would make an unencodable makespan.
        with pytest.raises(AdvisorError, match="finite"):
            Workload(**{"comp_bytes": 1e9, "comm_bytes": 1e8, side: value})


class TestScoring:
    def test_makespan_is_max_of_sides(self, advisor):
        workload = Workload(comp_bytes=10 * GB, comm_bytes=1 * GB)
        rec = advisor.score(workload, 8, 0, 1)
        comp_t = 10 * GB / (rec.comp_gbps * 1e9)
        comm_t = 1 * GB / (rec.comm_gbps * 1e9)
        assert rec.makespan_s == pytest.approx(max(comp_t, comm_t))

    def test_out_of_range_cores_rejected(self, advisor):
        with pytest.raises(AdvisorError, match="one socket"):
            advisor.score(Workload(comp_bytes=1e9, comm_bytes=1e9), 19, 0, 0)

    def test_comm_only_workload(self, advisor):
        rec = advisor.score(Workload(comp_bytes=0, comm_bytes=GB), 1, 0, 1)
        assert rec.makespan_s == pytest.approx(GB / (rec.comm_gbps * 1e9))

    def test_describe(self, advisor):
        rec = advisor.score(Workload(comp_bytes=GB, comm_bytes=GB), 4, 0, 1)
        text = rec.describe()
        assert "4 cores" in text and "node 0" in text


class TestRecommend:
    def test_top_n(self, advisor):
        recs = advisor.recommend(Workload(comp_bytes=GB, comm_bytes=GB), top=3)
        assert len(recs) == 3
        assert all(isinstance(r, Recommendation) for r in recs)

    def test_sorted_by_makespan(self, advisor):
        recs = advisor.recommend(Workload(comp_bytes=GB, comm_bytes=GB), top=10)
        makespans = [r.makespan_s for r in recs]
        assert makespans == sorted(makespans)

    def test_best_beats_fully_contended_config(self, advisor):
        """The recommendation is never worse than the naive choice of
        all cores + everything on the NIC-local node."""
        workload = Workload(comp_bytes=20 * GB, comm_bytes=8 * GB)
        best = advisor.best(workload)
        naive = advisor.score(workload, 18, 0, 0)
        assert best.makespan_s <= naive.makespan_s + 1e-12

    def test_ties_prefer_fewer_cores(self, advisor):
        """Comm-bound workloads should not burn extra cores."""
        recs = advisor.recommend(
            Workload(comp_bytes=GB, comm_bytes=50 * GB), top=2
        )
        assert recs[0].n_cores <= recs[1].n_cores

    def test_prefers_local_comp_data(self, advisor):
        """Computation-heavy workloads want local (socket-0) data."""
        best = advisor.best(Workload(comp_bytes=100 * GB, comm_bytes=GB))
        assert best.m_comp == 0

    def test_invalid_top(self, advisor):
        with pytest.raises(AdvisorError):
            advisor.recommend(Workload(comp_bytes=GB, comm_bytes=GB), top=0)

    def test_empty_core_counts(self, advisor):
        with pytest.raises(AdvisorError, match="non-empty"):
            advisor.recommend(
                Workload(comp_bytes=GB, comm_bytes=GB), core_counts=[]
            )

    def test_restricted_core_counts(self, advisor):
        recs = advisor.recommend(
            Workload(comp_bytes=GB, comm_bytes=GB), core_counts=[4, 8], top=50
        )
        assert {r.n_cores for r in recs} <= {4, 8}


class TestMismatchedTopology:
    def test_rejects_foreign_machine(self, henri_experiment):
        from repro.topology import get_platform

        subnuma = get_platform("henri-subnuma").machine
        with pytest.raises(AdvisorError, match="NUMA layout"):
            Advisor(henri_experiment.model, subnuma)
