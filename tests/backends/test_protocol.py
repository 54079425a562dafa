"""The ModelBackend protocol: threshold bit-identity, registry,
state round-trips, and the new literature backends' sanity."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.backends import BACKENDS, backend_ids, get_backend
from repro.backends.base import sample_curves
from repro.backends.threshold import ThresholdBackend
from repro.backends.tournament import run_platform_tournament
from repro.core.oracle import ScalarOracle
from repro.core.placement import PlacementModel
from repro.errors import ModelError, PlacementError
from repro.evaluation.metrics import ErrorBreakdown, placement_errors
from repro.topology import get_platform

N_MAX = 48

EXPECTED_IDS = (
    "threshold",
    "naive",
    "queueing-ps",
    "langguth-threadfair",
    "overlap-afzal",
    "cxlmem-messagefree",
)

#: Backends stored as ``backend-<id>`` artifacts: all but the threshold
#: model, whose stored form is the pipeline's calibrate artifact.
STORED_IDS = tuple(b for b in EXPECTED_IDS if b != "threshold")


def scalar_reference(model: PlacementModel, n: int, m_comp: int, m_comm: int):
    """Equations 6/7 replayed through the scalar oracle — the original
    implementation the backend indirection must match bit for bit."""
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


@pytest.fixture(scope="module")
def tournament_thresholds(all_experiments, seeded_config):
    """The threshold entry each platform's tournament scores."""
    return {
        name: run_platform_tournament(
            experiment, config=seeded_config
        ).calibrated["threshold"]
        for name, experiment in all_experiments.items()
    }


@pytest.fixture(scope="module")
def calibrated_roster(henri_experiment):
    """Every registered backend calibrated on the henri archive."""
    platform = henri_experiment.platform
    return {
        backend_id: backend.calibrate(henri_experiment.dataset, platform)
        for backend_id, backend in BACKENDS.items()
    }


class TestRegistry:
    def test_roster(self):
        assert backend_ids() == EXPECTED_IDS
        assert len(BACKENDS) >= 5  # the tournament acceptance floor

    def test_threshold_registered_first(self):
        assert next(iter(BACKENDS)) == "threshold"

    def test_get_backend(self):
        assert get_backend("overlap-afzal").backend_id == "overlap-afzal"

    def test_unknown_backend_lists_the_registry(self):
        with pytest.raises(ModelError, match="overlap-afzal"):
            get_backend("bogus")

    def test_ids_and_versions_are_stable_types(self):
        for backend in BACKENDS.values():
            assert isinstance(backend.backend_id, str) and backend.backend_id
            assert isinstance(backend.version, int) and backend.version >= 1
            json.dumps(dict(backend.config()))  # must be JSON-able

    def test_fingerprint_depends_on_config_fp(self):
        backend = BACKENDS["threshold"]
        assert backend.fingerprint("a") != backend.fingerprint("b")
        assert backend.fingerprint("a") == backend.fingerprint("a")


class TestThresholdBitIdentity:
    """The acceptance property: the threshold entry the tournament
    scores is the pipeline's model, and it answers bit for bit like the
    scalar oracle."""

    def test_matches_scalar_oracle_on_every_platform(
        self, all_experiments, tournament_thresholds
    ):
        for name, experiment in all_experiments.items():
            model = tournament_thresholds[name]
            assert model is experiment.model
            k = model.n_numa_nodes
            queries = [
                (n, mc, mm)
                for n in range(N_MAX + 1)
                for mc in range(k)
                for mm in range(k)
            ]
            points = model.predict_batch(queries)
            for (n, mc, mm), point in zip(queries, points):
                comp, comm, alone, comm_alone = scalar_reference(
                    model, n, mc, mm
                )
                assert point.comp_parallel == comp, (name, n, mc, mm)
                assert point.comm_parallel == comm, (name, n, mc, mm)
                assert point.comp_alone == alone, (name, n, mc, mm)
                assert point.comm_alone == comm_alone, (name, n, mc, mm)

    def test_scalar_queries_match_the_oracle(self, tournament_thresholds):
        for name, model in tournament_thresholds.items():
            k = model.n_numa_nodes
            for n in range(0, N_MAX + 1, 7):
                for mc in range(k):
                    for mm in range(k):
                        comp, comm, alone, comm_alone = scalar_reference(
                            model, n, mc, mm
                        )
                        where = (name, n, mc, mm)
                        assert model.comp_parallel(n, mc, mm) == comp, where
                        assert model.comm_parallel(n, mc, mm) == comm, where
                        assert model.comp_alone(n, mc) == alone, where
                        assert model.comm_alone(mm) == comm_alone, where

    def test_calibrate_equals_the_pipeline_model(self, all_experiments):
        """The backend's own calibration is the pipeline's calibration:
        it answers exactly like the experiment's model."""
        for experiment in all_experiments.values():
            calibrated = ThresholdBackend().calibrate(
                experiment.dataset, experiment.platform
            )
            k = experiment.model.n_numa_nodes
            queries = [(n, n % k, (n + 1) % k) for n in range(N_MAX + 1)]
            expected = experiment.model.predict_batch(queries)
            assert calibrated.predict_batch(queries) == expected

    def test_predict_matches_the_live_model(self, henri_experiment):
        calibrated = ThresholdBackend().calibrate(
            henri_experiment.dataset, henri_experiment.platform
        )
        ns = np.arange(1, N_MAX + 1)
        live = henri_experiment.model.predict_grid(ns)
        behind = calibrated.predict_grid(ns)
        assert set(live) == set(behind)
        for key in live:
            assert np.array_equal(
                live[key].comp_parallel, behind[key].comp_parallel
            )
            assert np.array_equal(
                live[key].comm_parallel, behind[key].comm_parallel
            )
            assert np.array_equal(
                live[key].comp_alone, behind[key].comp_alone
            )
            assert live[key].comm_alone == behind[key].comm_alone


class TestStateRoundTrip:
    """state_dict -> JSON -> from_state reproduces every prediction
    exactly, for every stored backend; every backend's from_state
    rejects a malformed state."""

    @pytest.mark.parametrize("backend_id", STORED_IDS)
    def test_round_trip_is_identical(
        self, backend_id, henri_experiment, calibrated_roster
    ):
        backend = BACKENDS[backend_id]
        calibrated = calibrated_roster[backend_id]
        state = json.loads(json.dumps(calibrated.state_dict()))
        restored = backend.from_state(state)
        assert type(restored.local) is type(calibrated.local)
        assert restored.nodes_per_socket == calibrated.nodes_per_socket
        assert restored.n_numa_nodes == calibrated.n_numa_nodes
        k = calibrated.n_numa_nodes
        queries = [
            (n, mc, mm)
            for n in range(0, 25, 3)
            for mc in range(k)
            for mm in range(k)
        ]
        assert restored.predict_batch(queries) == calibrated.predict_batch(
            queries
        )

    @pytest.mark.parametrize("backend_id", EXPECTED_IDS)
    def test_malformed_state_raises_model_error(self, backend_id):
        with pytest.raises(ModelError):
            BACKENDS[backend_id].from_state({})

    @pytest.mark.parametrize("backend_id", STORED_IDS)
    def test_state_is_json_able(self, backend_id, calibrated_roster):
        json.dumps(calibrated_roster[backend_id].state_dict())


class TestLiteratureBackends:
    """Sanity of the two new backends (overlap-afzal, cxlmem-messagefree):
    physical plausibility on a real archive, not curve-exact claims."""

    @pytest.mark.parametrize(
        "backend_id", ["overlap-afzal", "cxlmem-messagefree"]
    )
    def test_predictions_are_finite_and_nonnegative(
        self, backend_id, calibrated_roster
    ):
        calibrated = calibrated_roster[backend_id]
        ns = np.arange(1, N_MAX + 1)
        for pred in calibrated.predict_grid(ns).values():
            for curve in (
                pred.comp_parallel,
                pred.comm_parallel,
                pred.comp_alone,
            ):
                assert np.all(np.isfinite(curve))
                assert np.all(curve >= 0.0)
            assert np.isfinite(pred.comm_alone) and pred.comm_alone > 0.0

    @pytest.mark.parametrize(
        "backend_id", ["overlap-afzal", "cxlmem-messagefree"]
    )
    def test_contention_reduces_communication(
        self, backend_id, calibrated_roster
    ):
        """At high core counts the contended communication bandwidth
        must not exceed the uncontended nominal."""
        calibrated = calibrated_roster[backend_id]
        assert (
            calibrated.comm_parallel(N_MAX, 0, 0)
            <= calibrated.comm_alone(0) + 1e-9
        )

    @pytest.mark.parametrize(
        "backend_id", ["overlap-afzal", "cxlmem-messagefree"]
    )
    def test_error_report_is_a_table2_breakdown(
        self, backend_id, henri_experiment, calibrated_roster
    ):
        report = placement_errors(
            henri_experiment.dataset,
            calibrated_roster[backend_id],
            henri_experiment.sample_keys,
        )
        assert isinstance(report, ErrorBreakdown)
        assert np.isfinite(report.average)
        assert report.average >= 0.0

    def test_paper_model_beats_both_on_henri(
        self, henri_experiment, calibrated_roster
    ):
        """The ablation extends to the literature backends: on the
        contended platform the paper's model has the smaller Table II
        average."""
        dataset = henri_experiment.dataset
        keys = henri_experiment.sample_keys
        reference = placement_errors(
            dataset, calibrated_roster["threshold"], keys
        )
        for backend_id in ("overlap-afzal", "cxlmem-messagefree"):
            challenger = placement_errors(
                dataset, calibrated_roster[backend_id], keys
            )
            assert reference.average < challenger.average, backend_id


class TestProtocolValidation:
    def test_node_bounds_enforced(self, calibrated_roster):
        calibrated = calibrated_roster["overlap-afzal"]
        with pytest.raises(PlacementError, match="out of range"):
            calibrated.comm_parallel(4, 0, 99)
        with pytest.raises(PlacementError):
            calibrated.predict([1, 2], 99, 0)

    def test_non_integral_core_counts_rejected(self, calibrated_roster):
        with pytest.raises(PlacementError):
            calibrated_roster["naive"].predict([1.5], 0, 0)

    def test_batch_preserves_query_order(self, calibrated_roster):
        calibrated = calibrated_roster["queueing-ps"]
        queries = [(8, 0, 1), (2, 0, 0), (8, 0, 1), (1, 1, 1)]
        points = calibrated.predict_batch(queries)
        assert [(p.n, p.m_comp, p.m_comm) for p in points] == queries
        assert points[0] == points[2]

    @pytest.mark.parametrize("backend_id", STORED_IDS)
    def test_repeated_core_counts_are_evaluated_once(
        self, calibrated_roster, backend_id, monkeypatch
    ):
        """A sweep fills each distinct core count's column once, with
        one curves call per side, and answers every position that
        repeats it from that column; a second sweep evaluates nothing."""
        calibrated = calibrated_roster[backend_id]
        model = BACKENDS[backend_id].from_state(calibrated.state_dict())
        ns = [4, 1, 4, 4, 1, 9, 0, 9]
        expected = {
            "comp_parallel": [calibrated.comp_parallel(n, 0, 1) for n in ns],
            "comm_parallel": [calibrated.comm_parallel(n, 0, 1) for n in ns],
            "comp_alone": [calibrated.comp_alone(n, 0) for n in ns],
        }
        side = type(model.local)
        curves = side.curves
        calls = []

        def counted(self, points):
            calls.append(points.tolist())
            return curves(self, points)

        monkeypatch.setattr(side, "curves", counted)
        pred = model.predict(ns, 0, 1)
        # Local, remote and equation 6's substituted side.
        assert calls == [sorted(set(ns))] * 3
        for name, values in expected.items():
            assert getattr(pred, name).tolist() == values, name
        assert pred.core_counts.tolist() == ns
        model.predict(ns, 1, 0)
        assert len(calls) == 3

    def test_threads_filling_one_model_answer_alike(self, calibrated_roster):
        """Threads that fill the same columns at once answer like one
        thread that fills them alone."""
        backend = BACKENDS["langguth-threadfair"]
        state = calibrated_roster["langguth-threadfair"].state_dict()
        k = calibrated_roster["langguth-threadfair"].n_numa_nodes
        rng = np.random.default_rng(7)
        queries = np.array(
            [(n, mc, mm) for n in range(257) for mc in range(k) for mm in range(k)]
        )[rng.permutation(257 * k * k)]
        expected = backend.from_state(state).predict_columns(queries)
        model = backend.from_state(state)
        parts = [slice(i, None, 8) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(model.predict_columns, queries[part])
                    for part in parts
                ]
                answers = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for part, columns in zip(parts, answers):
            for name, column in columns.items():
                assert column.tobytes() == expected[name][part].tobytes()

    @pytest.mark.parametrize("backend_id", STORED_IDS)
    def test_array_batch_answers_like_tuples(
        self, calibrated_roster, backend_id
    ):
        """The service hands a parsed bulk over as an int64 array."""
        calibrated = calibrated_roster[backend_id]
        queries = [(8, 0, 1), (2, 0, 0), (8, 0, 1), (1, 1, 1), (0, 1, 0)]
        as_array = calibrated.predict_columns(np.array(queries))
        as_tuples = calibrated.predict_columns(queries)
        assert list(as_array) == list(as_tuples)
        for name, column in as_tuples.items():
            assert as_array[name].dtype == column.dtype, name
            assert as_array[name].tobytes() == column.tobytes(), name

    def test_malformed_batch_query_rejected(self, calibrated_roster):
        with pytest.raises(PlacementError, match="triple"):
            calibrated_roster["naive"].predict_batch([(1, 0)])

    def test_two_instantiation_needs_two_sockets(self, calibrated_roster):
        side = calibrated_roster["naive"].local
        with pytest.raises(ModelError, match="two sockets"):
            PlacementModel(side, side, nodes_per_socket=2, n_numa_nodes=2)

    def test_sample_curves_names_the_missing_placement(
        self, henri_experiment
    ):
        platform = get_platform("henri")

        class _OnePlacement:
            platform_name = "henri"

            def __init__(self, sweep):
                self.sweep = sweep

        class _Sweep:
            def __init__(self, inner):
                self._inner = inner

            def __contains__(self, key):
                return key == (0, 0)

            def __getitem__(self, key):
                return self._inner[key]

            def placements(self):
                return [(0, 0)]

        dataset = _OnePlacement(_Sweep(henri_experiment.dataset.sweep))
        with pytest.raises(ModelError, match="lacks the sample"):
            sample_curves(dataset, platform)

