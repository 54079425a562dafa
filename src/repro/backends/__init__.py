"""Pluggable contention-model backends and the cross-model tournament.

Every analytic treatment of memory contention the suite knows — the
paper's threshold model, the §II-D / §V baselines, and competing
formulations from the literature — is one
:class:`~repro.backends.base.SideBackend` of its side class: calibrated
from the two sample placements, every backend is a
:class:`~repro.core.placement.PlacementModel`.  Around it: artifact-store
persistence through the store's shared cache policy
(:func:`~repro.backends.base.load_or_calibrate`), a registry
(:data:`~repro.backends.registry.BACKENDS`), and a per-regime
tournament (:mod:`repro.backends.tournament`).  See
``docs/BACKENDS.md``.
"""

from repro.backends.base import SideBackend, backend_key, load_or_calibrate
from repro.backends.registry import BACKENDS, get_backend
from repro.backends.tournament import (
    PlatformTournament,
    RegimeScore,
    TournamentRouter,
    render_winner_table,
    run_tournament,
    score_backends,
)

__all__ = [
    "BACKENDS",
    "PlatformTournament",
    "RegimeScore",
    "SideBackend",
    "TournamentRouter",
    "backend_key",
    "get_backend",
    "load_or_calibrate",
    "render_winner_table",
    "run_tournament",
    "score_backends",
]
