"""Cross-model tournament: score every backend on every regime.

A *regime* is one cell of the evaluation grid the service actually
routes queries into: ``platform × (m_comp, m_comm) placement ×
core-count band`` (``low``/``high`` — below and above the measured
sweep's median core count; saturation behaviour differs qualitatively
across that knee, and so do the backends' strengths).  The tournament

1. takes the paper's threshold model as the pipeline calibrated it
   (``result.model``) and calibrates every other registered backend
   from the archived sweep through the
   :class:`~repro.pipeline.store.ArtifactStore`
   (:func:`~repro.backends.base.load_or_calibrate` — second run: all
   cache hits),
2. scores each backend on each regime with the paper's Table II
   methodology (:func:`~repro.evaluation.metrics.mape`; the regime
   score is ``0.5·(comm MAPE + 0.5·(comp_par MAPE + comp_alone
   MAPE))``, lower is better),
3. emits a per-regime winner table, persisted as its own versioned
   artifact (stage ``"tournament"``, fingerprinted by the sweep config
   *and* the full roster, so adding a backend re-runs the tournament;
   :func:`encode_tournament`/:func:`decode_tournament` are its codec).

:class:`TournamentRouter` serves the result: a composite
:class:`~repro.core.placement.PlacementModel` that answers every query
from the tables of the winning backend of the query's regime — what
the service's ``backend=tournament`` mode runs on.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.backends.base import SideBackend, load_or_calibrate
from repro.backends.registry import BACKENDS
from repro.core.placement import PlacementModel
from repro.errors import ModelError
from repro.evaluation.metrics import mape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.config import SweepConfig
    from repro.bench.results import ModeCurves
    from repro.core.placement import PlacementPrediction
    from repro.evaluation.experiments import ExperimentResult
    from repro.pipeline.store import ArtifactStore, StageKey

__all__ = [
    "PlatformTournament",
    "RegimeScore",
    "TOURNAMENT_FORMAT_VERSION",
    "TOURNAMENT_STAGE",
    "TOURNAMENT_STAGE_VERSION",
    "TournamentRouter",
    "decode_tournament",
    "encode_tournament",
    "render_winner_table",
    "run_tournament",
    "score_backends",
    "tournament_key",
]

log = logging.getLogger("repro.backends")

TOURNAMENT_FORMAT_VERSION = 1
TOURNAMENT_STAGE = "tournament"
TOURNAMENT_STAGE_VERSION = 1

_RESULT_FILE = "tournament.json"

BANDS = ("low", "high")


@dataclass(frozen=True)
class RegimeScore:
    """All backends' scores on one regime, and who won it.

    ``scores`` maps backend id to the regime error (percent, lower is
    better); an unscorable backend (a zero measured bandwidth makes the
    MAPE undefined) carries NaN and cannot win.
    """

    m_comp: int
    m_comm: int
    band: str
    n_min: int
    n_max: int
    scores: Mapping[str, float]
    winner: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "m_comp": self.m_comp,
            "m_comm": self.m_comm,
            "band": self.band,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "scores": {
                k: (None if np.isnan(v) else v)
                for k, v in self.scores.items()
            },
            "winner": self.winner,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegimeScore":
        scores = {
            str(k): (float("nan") if v is None else float(v))
            for k, v in dict(data["scores"]).items()
        }
        return cls(
            m_comp=int(data["m_comp"]),
            m_comm=int(data["m_comm"]),
            band=str(data["band"]),
            n_min=int(data["n_min"]),
            n_max=int(data["n_max"]),
            scores=scores,
            winner=str(data["winner"]),
        )


@dataclass(frozen=True)
class PlatformTournament:
    """One platform's full tournament result."""

    platform: str
    roster: tuple[str, ...]
    regimes: tuple[RegimeScore, ...]

    def winners(self) -> dict[tuple[int, int, str], str]:
        """``(m_comp, m_comm, band) -> winning backend id``."""
        return {
            (r.m_comp, r.m_comm, r.band): r.winner for r in self.regimes
        }

    def win_counts(self) -> dict[str, int]:
        """Regimes won per backend (zero-filled over the roster)."""
        counts = {backend_id: 0 for backend_id in self.roster}
        for regime in self.regimes:
            counts[regime.winner] = counts.get(regime.winner, 0) + 1
        return counts


# ---- scoring ----------------------------------------------------------------------


def _band_indices(core_counts: np.ndarray) -> dict[str, np.ndarray]:
    """Split a measured sweep into the low/high core-count bands.

    The low band is everything up to (and including) the median core
    count; a single-point sweep has only a low band.
    """
    median = float(np.median(core_counts))
    low = np.flatnonzero(core_counts <= median)
    high = np.flatnonzero(core_counts > median)
    bands = {"low": low}
    if high.size:
        bands["high"] = high
    return bands


def _regime_error(
    curves: "ModeCurves", pred: "PlacementPrediction", idx: np.ndarray
) -> float:
    """Table II weighting of one backend on one regime's points."""
    comm_err = mape(curves.comm_parallel[idx], pred.comm_parallel[idx])
    comp_err = 0.5 * (
        mape(curves.comp_parallel[idx], pred.comp_parallel[idx])
        + mape(curves.comp_alone[idx], pred.comp_alone[idx])
    )
    return 0.5 * (comm_err + comp_err)


def score_backends(
    result: "ExperimentResult",
    calibrated: Mapping[str, PlacementModel],
) -> PlatformTournament:
    """Score calibrated backends over every regime of one platform."""
    if not calibrated:
        raise ModelError("a tournament needs at least one backend")
    regimes: list[RegimeScore] = []
    dataset = result.dataset
    for key in dataset.sweep:
        curves = dataset.sweep[key]
        predictions = {}
        for backend_id, backend in calibrated.items():
            try:
                predictions[backend_id] = backend.predict(
                    curves.core_counts, *key
                )
            except ModelError as exc:
                log.warning(
                    "backend %s cannot predict placement %s on %s: %s",
                    backend_id,
                    key,
                    dataset.platform_name,
                    exc,
                )
                predictions[backend_id] = None
        for band, idx in _band_indices(curves.core_counts).items():
            scores: dict[str, float] = {}
            for backend_id, pred in predictions.items():
                if pred is None:
                    scores[backend_id] = float("nan")
                    continue
                try:
                    scores[backend_id] = _regime_error(curves, pred, idx)
                except ModelError:
                    # A zero measured bandwidth in this band: the
                    # paper's metric is undefined, nobody can win on it.
                    scores[backend_id] = float("nan")
            finite = {
                b: s for b, s in scores.items() if not np.isnan(s)
            }
            winner = (
                min(finite, key=finite.get)
                if finite
                else next(iter(calibrated))
            )
            regimes.append(
                RegimeScore(
                    m_comp=key[0],
                    m_comm=key[1],
                    band=band,
                    n_min=int(curves.core_counts[idx[0]]),
                    n_max=int(curves.core_counts[idx[-1]]),
                    scores=scores,
                    winner=winner,
                )
            )
    return PlatformTournament(
        platform=dataset.platform_name,
        roster=tuple(calibrated),
        regimes=tuple(regimes),
    )


# ---- artifact-store glue ----------------------------------------------------------


def tournament_key(
    platform: str, config_fp: str, backends: Mapping[str, SideBackend]
) -> "StageKey":
    """The store address of one platform's winner table.  Its
    fingerprint covers the sweep config and the full roster (ids and
    code versions): any change to either re-runs the tournament."""
    from repro.pipeline.fingerprint import fingerprint_mapping
    from repro.pipeline.store import StageKey

    roster = {b.backend_id: b.version for b in backends.values()}
    return StageKey(
        platform=platform,
        stage=TOURNAMENT_STAGE,
        version=str(TOURNAMENT_STAGE_VERSION),
        fingerprint=fingerprint_mapping(
            {"config_fp": config_fp, "roster": roster}
        ),
    )


def _envelope(platform: str, roster: Sequence[str]) -> dict[str, Any]:
    return {
        "format_version": TOURNAMENT_FORMAT_VERSION,
        "platform": platform,
        "roster": list(roster),
    }


def encode_tournament(tournament: PlatformTournament) -> dict[str, str]:
    """The ``tournament.json`` payload of one winner table."""
    from repro.pipeline.store import json_payload

    return json_payload(
        _RESULT_FILE,
        **_envelope(tournament.platform, tournament.roster),
        regimes=[r.to_dict() for r in tournament.regimes],
    )


def decode_tournament(
    payloads: Mapping[str, str], platform: str, roster: Sequence[str]
) -> PlatformTournament:
    """Rebuild the winner table :func:`encode_tournament` stored for
    ``platform`` and ``roster`` (in order); any skew raises."""
    from repro.pipeline.store import json_member

    data = json_member(payloads, _RESULT_FILE, **_envelope(platform, roster))
    return PlatformTournament(
        platform=platform,
        roster=tuple(roster),
        regimes=tuple(RegimeScore.from_dict(r) for r in data["regimes"]),
    )


# ---- the runner -------------------------------------------------------------------


@dataclass(frozen=True)
class TournamentRun:
    """One platform's tournament plus how it was obtained."""

    tournament: PlatformTournament
    #: the scored roster; its ``threshold`` entry is ``result.model``
    calibrated: Mapping[str, PlacementModel]
    #: backend id -> calibration served from the store, for every
    #: stored calibration (the roster without ``threshold``)
    backend_cached: Mapping[str, bool]
    #: the winner table itself came from the store
    cached: bool


def run_platform_tournament(
    result: "ExperimentResult",
    *,
    config: "SweepConfig | None" = None,
    store: "ArtifactStore | None" = None,
    backends: Mapping[str, SideBackend] | None = None,
) -> TournamentRun:
    """Calibrate the roster and score it on one platform's archive.

    The threshold entry is the pipeline's own model (``result.model``):
    the paper calibrates once per machine (§IV-A2).  Every other
    calibration and the winner table itself go through the artifact
    store when one is given; a second run over an unchanged archive is
    pure cache hits.
    """
    from repro.bench.config import SweepConfig
    from repro.pipeline.fingerprint import config_fingerprint
    from repro.pipeline.store import load_or_compute

    roster = dict(backends if backends is not None else BACKENDS)
    config_fp = config_fingerprint(config or SweepConfig())
    platform = result.platform

    calibrated: dict[str, PlacementModel] = {}
    backend_cached: dict[str, bool] = {}
    for backend_id, backend in roster.items():
        if backend_id == "threshold":
            calibrated[backend_id] = result.model
            continue
        calibrated[backend_id], backend_cached[backend_id] = (
            load_or_calibrate(
                store, backend, result.dataset, platform, config_fp
            )
        )

    tournament, cached = load_or_compute(
        store,
        tournament_key(platform.name, config_fp, roster),
        compute=lambda: score_backends(result, calibrated),
        encode=encode_tournament,
        decode=lambda payloads: decode_tournament(
            payloads, platform.name, tuple(roster)
        ),
        provenance={"platform": platform.name, "roster": list(roster)},
    )
    return TournamentRun(
        tournament=tournament,
        calibrated=calibrated,
        backend_cached=backend_cached,
        cached=cached,
    )


def run_tournament(
    *,
    platforms: Sequence[str] | None = None,
    config: "SweepConfig | None" = None,
    cache_dir: "str | None" = None,
    store: "ArtifactStore | None" = None,
    backends: Mapping[str, SideBackend] | None = None,
) -> dict[str, TournamentRun]:
    """The full tournament: every archived platform, every backend."""
    from repro.bench.config import SweepConfig
    from repro.evaluation.experiments import (
        _resolve_store,
        run_platform_experiment,
    )
    from repro.topology.platforms import platform_names

    store = _resolve_store(store, cache_dir)
    config = config or SweepConfig()
    names = list(platforms) if platforms is not None else list(platform_names())
    runs: dict[str, TournamentRun] = {}
    for name in names:
        result = run_platform_experiment(name, config=config, store=store)
        runs[name] = run_platform_tournament(
            result, config=config, store=store, backends=backends
        )
    return runs


# ---- reporting --------------------------------------------------------------------


def render_winner_table(runs: Mapping[str, TournamentRun | PlatformTournament]) -> str:
    """The per-regime winner table, one row per regime.

    The last line counts the regimes each backend won and the exact ties
    among them: a regime whose best score several backends share goes to
    the first of them in roster order.
    """
    header = (
        f"{'platform':<16} {'placement':<10} {'band':<5} "
        f"{'cores':<9} {'winner':<22} {'score%':>8}  margin"
    )
    lines = [header, "-" * len(header)]
    totals: dict[str, int] = {}
    n_regimes = ties = 0
    for name in sorted(runs):
        run = runs[name]
        tournament = run.tournament if isinstance(run, TournamentRun) else run
        for regime in tournament.regimes:
            n_regimes += 1
            totals[regime.winner] = totals.get(regime.winner, 0) + 1
            finite = sorted(
                v for v in regime.scores.values() if not np.isnan(v)
            )
            best = regime.scores.get(regime.winner, float("nan"))
            if len(finite) > 1 and finite[0] == finite[1]:
                ties += 1
            margin = (
                f"+{finite[1] - finite[0]:.1f}" if len(finite) > 1 else "-"
            )
            placement = f"({regime.m_comp},{regime.m_comm})"
            cores = f"{regime.n_min}-{regime.n_max}"
            score = f"{best:.2f}" if not np.isnan(best) else "n/a"
            lines.append(
                f"{tournament.platform:<16} {placement:<10} "
                f"{regime.band:<5} {cores:<9} {regime.winner:<22} "
                f"{score:>8}  {margin}"
            )
    lines.append("")
    won = ", ".join(
        f"{backend}={count}"
        for backend, count in sorted(totals.items(), key=lambda kv: -kv[1])
    )
    lines.append(
        f"{n_regimes} regimes; wins: {won}; {ties} exact ties, each won "
        "by the first tied backend in roster order"
    )
    return "\n".join(lines)


# ---- the router -------------------------------------------------------------------


class TournamentRouter(PlacementModel):
    """A composite model answering each query with its regime's winner.

    Built from one platform's tournament result plus the calibrated
    roster.  Each placement row keeps the winner of its low band, the
    winner of its high band and the band split; a query goes to the
    winner of its band and is answered from that model's tables, in one
    lookup per winner.  ``comm_alone`` does not depend on ``n``, so it
    is the low band's winner's on every surface.  Query counts per
    routed backend accumulate in :attr:`route_counts` (the service
    merges them into ``/metrics``).
    """

    def __init__(
        self,
        tournament: PlatformTournament,
        calibrated: Mapping[str, PlacementModel],
    ) -> None:
        winners = [r.winner for r in tournament.regimes]
        missing = [
            b for b in dict.fromkeys([*tournament.roster, *winners])
            if b not in calibrated
        ]
        if missing:
            raise ModelError(
                f"tournament roster lacks calibrated backends: {missing}"
            )
        # No sides of its own, so no tables: PlacementModel's constructor
        # does not run, and every query goes to the members' tables.
        some = next(iter(calibrated.values()))
        self._nodes_per_socket = some.nodes_per_socket
        self._n_numa_nodes = k = some.n_numa_nodes
        self._tournament = tournament
        self._names = list(calibrated)
        self._models = list(calibrated.values())
        index = {name: i for i, name in enumerate(self._names)}
        #: fallback for unmeasured placements: the roster's overall
        #: most-winning backend.
        counts = tournament.win_counts()
        self._default = max(counts, key=counts.get)
        # Per placement row: the low band's last core count, and the
        # index of each band's winner (the low one where a row has no
        # high band, the fallback where it has no regime).
        self._low_n_max = np.zeros(k * k, dtype=np.int64)
        self._low = np.full(k * k, index[self._default])
        high = np.full(k * k, -1)
        for regime in tournament.regimes:
            if not (0 <= regime.m_comp < k and 0 <= regime.m_comm < k):
                continue
            row = regime.m_comp * k + regime.m_comm
            if regime.band == "low":
                self._low_n_max[row] = regime.n_max
                self._low[row] = index[regime.winner]
            else:
                high[row] = index[regime.winner]
        self._high = np.where(high < 0, self._low, high)
        # Row m_comp * k + m_comm answers comm_alone(m_comm): the low
        # band's winner of (m_comm, m_comm), as a scalar query routes.
        self._comm_alone = np.tile(
            [
                self._models[self._low[m * k + m]].comm_alone(m)
                for m in range(k)
            ],
            k,
        )
        self.route_counts: dict[str, int] = {}

    @property
    def tournament(self) -> PlatformTournament:
        return self._tournament

    # ---- routing ---------------------------------------------------------------

    def _winners(self, ns: np.ndarray | int, rows: np.ndarray | int):
        """The roster index of the winner of each ``(n, row)`` query:
        the high band's past the low band's last core count."""
        return np.where(
            ns > self._low_n_max[rows], self._high[rows], self._low[rows]
        )

    def winner_for(self, n: int, m_comp: int, m_comm: int) -> str:
        """The backend id serving one ``(n, m_comp, m_comm)`` query."""
        k = self._n_numa_nodes
        if not (0 <= m_comp < k and 0 <= m_comm < k):
            return self._default
        return self._names[self._winners(n, m_comp * k + m_comm)]

    def _lookup(
        self, ns: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each query from its winner's tables, one lookup per winner."""
        winners = self._winners(ns, rows)
        answers = np.empty((3, ns.size))
        present = np.bincount(winners, minlength=len(self._models))
        for winner in np.flatnonzero(present).tolist():
            at = np.flatnonzero(winners == winner)
            answers[:, at] = self._models[winner]._lookup(ns[at], rows[at])[:3]
            name = self._names[winner]
            self.route_counts[name] = self.route_counts.get(name, 0) + at.size
        return answers[0], answers[1], answers[2], self._comm_alone[rows]

    def state_dict(self) -> dict[str, Any]:
        raise ModelError(
            "the tournament router is derived state; persist the "
            "tournament artifact and the roster calibrations instead"
        )
