"""The cross-model tournament: scoring, artifact caching (second run =
all hits), the winner table, and the per-regime router."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import BACKENDS, render_winner_table
from repro.backends.tournament import (
    PlatformTournament,
    RegimeScore,
    TournamentRouter,
    decode_tournament,
    encode_tournament,
    run_platform_tournament,
    run_tournament,
    score_backends,
    tournament_key,
)
from repro.bench.config import SweepConfig
from repro.errors import ModelError, PipelineError
from repro.pipeline import ArtifactStore
from repro.pipeline.fingerprint import config_fingerprint


@pytest.fixture(scope="module")
def henri_run(henri_experiment, seeded_config):
    """One storeless tournament over the henri archive."""
    return run_platform_tournament(henri_experiment, config=seeded_config)


class TestScoring:
    def test_covers_every_regime(self, henri_experiment, henri_run):
        tournament = henri_run.tournament
        dataset = henri_experiment.dataset
        placements = set(dataset.sweep.placements())
        seen = {(r.m_comp, r.m_comm) for r in tournament.regimes}
        assert seen == placements
        # Multi-point sweeps split at the median: two bands each.
        assert len(tournament.regimes) == 2 * len(placements)
        for regime in tournament.regimes:
            assert regime.band in ("low", "high")
            assert regime.n_min <= regime.n_max

    def test_roster_covers_the_registry(self, henri_run):
        assert henri_run.tournament.roster == tuple(BACKENDS)
        assert len(henri_run.tournament.roster) >= 5

    def test_winner_has_the_lowest_finite_score(self, henri_run):
        for regime in henri_run.tournament.regimes:
            finite = {
                b: s for b, s in regime.scores.items() if not np.isnan(s)
            }
            assert finite, "every henri regime must be scorable"
            assert regime.winner == min(finite, key=finite.get)

    def test_threshold_dominates_henri(self, henri_run):
        """The paper's model wins the majority of regimes on the
        platform the paper builds its case on."""
        counts = henri_run.tournament.win_counts()
        assert sum(counts.values()) == len(henri_run.tournament.regimes)
        assert counts["threshold"] > sum(counts.values()) / 2

    def test_empty_roster_rejected(self, henri_experiment):
        with pytest.raises(ModelError, match="at least one"):
            score_backends(henri_experiment, {})

    def test_win_counts_zero_filled(self, henri_run):
        counts = henri_run.tournament.win_counts()
        assert set(counts) >= set(BACKENDS)


class TestArtifactCaching:
    def test_second_run_is_all_cache_hits(
        self, tmp_path, henri_experiment, seeded_config
    ):
        store = ArtifactStore(tmp_path / "cache")
        first = run_platform_tournament(
            henri_experiment, config=seeded_config, store=store
        )
        assert first.cached is False
        # One calibration, one stored form: the threshold entry is the
        # model the pipeline calibrated, and the store holds no copy.
        assert first.calibrated["threshold"] is henri_experiment.model
        assert set(first.backend_cached) == set(BACKENDS) - {"threshold"}
        assert not any(first.backend_cached.values())
        stages = {e.key.stage for e in store.entries()}
        assert stages == {
            *(f"backend-{b}" for b in first.backend_cached),
            "tournament",
        }
        second = run_platform_tournament(
            henri_experiment, config=seeded_config, store=store
        )
        # The acceptance criterion: every calibration AND the winner
        # table itself come from the store on the second run.
        assert second.cached is True
        assert all(second.backend_cached.values())
        # Payload comparison, not dataclass equality: a NaN score is
        # serialized as null and NaN != NaN would hide a real match.
        assert encode_tournament(second.tournament) == encode_tournament(
            first.tournament
        )

    def test_fingerprint_covers_the_roster(self, seeded_config):
        config_fp = config_fingerprint(seeded_config)
        full = tournament_key("henri", config_fp, BACKENDS)
        partial = tournament_key(
            "henri", config_fp, {"threshold": BACKENDS["threshold"]}
        )
        assert full.fingerprint != partial.fingerprint
        other = tournament_key("henri", "other-config", BACKENDS)
        assert full.fingerprint != other.fingerprint

    def test_roster_change_reruns_but_keeps_calibrations(
        self, tmp_path, henri_experiment, seeded_config
    ):
        store = ArtifactStore(tmp_path / "cache")
        run_platform_tournament(
            henri_experiment, config=seeded_config, store=store
        )
        partial_roster = {
            b: BACKENDS[b] for b in ("threshold", "naive")
        }
        shrunk = run_platform_tournament(
            henri_experiment,
            config=seeded_config,
            store=store,
            backends=partial_roster,
        )
        # New fingerprint -> the table recomputes; the stored
        # calibration the rosters share is still a hit.
        assert shrunk.cached is False
        assert shrunk.backend_cached == {"naive": True}
        assert shrunk.tournament.roster == ("threshold", "naive")

    def test_payload_round_trip(self, henri_run, tmp_path, seeded_config):
        store = ArtifactStore(tmp_path / "cache")
        key = tournament_key(
            "henri", config_fingerprint(seeded_config), BACKENDS
        )
        store.save(key, encode_tournament(henri_run.tournament))
        loaded = decode_tournament(store.load(key), "henri", tuple(BACKENDS))
        assert encode_tournament(loaded) == encode_tournament(
            henri_run.tournament
        )

    def test_nan_scores_survive_serialization(self):
        regime = RegimeScore(
            m_comp=0,
            m_comm=1,
            band="low",
            n_min=1,
            n_max=4,
            scores={"a": 1.5, "b": float("nan")},
            winner="a",
        )
        tournament = PlatformTournament(
            platform="henri", roster=("a", "b"), regimes=(regime,)
        )
        reloaded = decode_tournament(
            encode_tournament(tournament), "henri", ("a", "b")
        )
        back = reloaded.regimes[0].scores
        assert back["a"] == 1.5
        assert np.isnan(back["b"])


class TestFullTournament:
    def test_run_tournament_over_selected_platforms(
        self, tmp_path, seeded_config
    ):
        runs = run_tournament(
            platforms=["henri"],
            config=seeded_config,
            cache_dir=str(tmp_path / "cache"),
        )
        assert set(runs) == {"henri"}
        assert runs["henri"].tournament.platform == "henri"

    def test_store_and_cache_dir_are_refused_together(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(PipelineError, match="not both"):
            run_tournament(
                platforms=["occigen"],
                store=store,
                cache_dir=str(tmp_path / "cache"),
            )
        assert store.entries() == []
        assert not (tmp_path / "cache").exists()

    def test_winner_table_lists_every_regime(self, henri_run):
        text = render_winner_table({"henri": henri_run})
        lines = text.splitlines()
        assert "platform" in lines[0] and "winner" in lines[0]
        n_regimes = len(henri_run.tournament.regimes)
        assert sum(line.startswith("henri") for line in lines) == n_regimes
        assert f"{n_regimes} regimes; wins:" in lines[-1]
        assert "threshold=" in lines[-1]

    def test_winner_table_counts_exact_ties(self):
        """A shared best score is a tie, however the winner was picked;
        a margin too small to print is not."""

        def regime(band: str, scores: dict, winner: str) -> RegimeScore:
            return RegimeScore(
                m_comp=0, m_comm=1, band=band, n_min=1, n_max=4,
                scores=scores, winner=winner,
            )

        tournament = PlatformTournament(
            platform="henri",
            roster=("a", "b", "c"),
            regimes=(
                regime("low", {"a": 2.0, "b": 2.0, "c": 3.0}, "a"),
                regime("high", {"a": 2.0, "b": 2.0 + 1e-12, "c": 3.0}, "a"),
                regime("mid", {"a": float("nan"), "b": 1.0, "c": 1.0}, "b"),
                regime("top", {"a": 1.0, "b": float("nan"), "c": 5.0}, "a"),
            ),
        )
        last = render_winner_table({"henri": tournament}).splitlines()[-1]
        assert last.startswith("4 regimes; wins: a=3, b=1; 2 exact ties")

    def test_winner_table_accepts_bare_tournaments(self, henri_run):
        from_run = render_winner_table({"henri": henri_run})
        from_tournament = render_winner_table(
            {"henri": henri_run.tournament}
        )
        assert from_run == from_tournament


class TestRouter:
    @pytest.fixture(scope="class")
    def router(self, henri_run):
        return TournamentRouter(
            henri_run.tournament, dict(henri_run.calibrated)
        )

    def test_backend_id(self, router):
        assert router.backend_id == "tournament"

    def test_routes_follow_the_winner_table(self, henri_run, router):
        for regime in henri_run.tournament.regimes:
            for n in (regime.n_min, regime.n_max):
                assert (
                    router.winner_for(n, regime.m_comp, regime.m_comm)
                    == regime.winner
                )

    def test_scalar_queries_answer_with_the_winner(self, henri_run, router):
        regime = henri_run.tournament.regimes[0]
        n, mc, mm = regime.n_min, regime.m_comp, regime.m_comm
        winner = henri_run.calibrated[regime.winner]
        assert router.comp_parallel(n, mc, mm) == winner.comp_parallel(
            n, mc, mm
        )
        assert router.comm_parallel(n, mc, mm) == winner.comm_parallel(
            n, mc, mm
        )

    def test_route_counts_accumulate(self, henri_run):
        router = TournamentRouter(
            henri_run.tournament, dict(henri_run.calibrated)
        )
        assert router.route_counts == {}
        regime = henri_run.tournament.regimes[0]
        for _ in range(3):
            router.comm_parallel(
                regime.n_min, regime.m_comp, regime.m_comm
            )
        assert router.route_counts[regime.winner] == 3

    def test_predict_splices_the_band_winners(self, henri_run):
        """A sweep crossing the band split equals the low winner's
        curve below the knee and the high winner's above it."""
        router = TournamentRouter(
            henri_run.tournament, dict(henri_run.calibrated)
        )
        by_band = {
            (r.m_comp, r.m_comm, r.band): r
            for r in henri_run.tournament.regimes
        }
        key = next((mc, mm) for mc, mm, band in by_band if band == "high")
        low = by_band[(*key, "low")]
        high = by_band[(*key, "high")]
        ns = np.arange(low.n_min, high.n_max + 1)
        spliced = router.predict(ns, *key)
        low_pred = henri_run.calibrated[low.winner].predict(ns, *key)
        high_pred = henri_run.calibrated[high.winner].predict(ns, *key)
        for i, n in enumerate(ns):
            expected = low_pred if n <= low.n_max else high_pred
            assert spliced.comm_parallel[i] == expected.comm_parallel[i]
            assert spliced.comp_parallel[i] == expected.comp_parallel[i]
        assert sum(router.route_counts.values()) == ns.size

    def test_comm_alone_follows_the_scalar_rule_on_every_surface(
        self, henri_run
    ):
        """Band winners that differ in ``b_comm_seq``: every surface
        answers ``comm_alone`` like the scalar query, from the low
        band's winner of ``(m_comm, m_comm)``, whatever the query order."""
        naive = henri_run.calibrated["naive"]
        state = naive.state_dict()
        for side in ("local", "remote"):
            state[side] = {
                **state[side], "b_comm_seq": 2 * state[side]["b_comm_seq"]
            }
        roster = {"a": naive, "b": BACKENDS["naive"].from_state(state)}
        regimes = tuple(
            RegimeScore(
                m_comp=m_comp,
                m_comm=1,
                band=band,
                n_min=n_min,
                n_max=n_max,
                scores={"a": 1.0, "b": 1.0},
                winner=winner,
            )
            for m_comp in (0, 1)
            for band, n_min, n_max, winner in (
                ("low", 1, 30, "a"),
                ("high", 31, 64, "b"),
            )
        )
        router = TournamentRouter(
            PlatformTournament(
                platform="henri", roster=("a", "b"), regimes=regimes
            ),
            roster,
        )
        expected = roster["a"].comm_alone(1)
        assert roster["b"].comm_alone(1) != expected
        assert router.comm_alone(1) == expected
        assert router.predict([1, 60], 0, 1).comm_alone == expected
        assert router.predict([60, 1], 0, 1).comm_alone == expected
        columns = router.predict_columns([(60, 0, 1), (1, 0, 1), (60, 1, 1)])
        assert columns["comm_alone"].tolist() == [expected] * 3

    def test_unmeasured_placement_falls_back_to_top_winner(
        self, henri_run, router
    ):
        counts = henri_run.tournament.win_counts()
        top = max(counts, key=counts.get)
        assert router.winner_for(4, 10**6, 10**6) == top

    def test_router_is_derived_state(self, router):
        with pytest.raises(ModelError, match="derived state"):
            router.state_dict()

    def test_roster_must_be_fully_calibrated(self, henri_run):
        partial = dict(henri_run.calibrated)
        partial.pop("naive")
        with pytest.raises(ModelError, match="naive"):
            TournamentRouter(henri_run.tournament, partial)
