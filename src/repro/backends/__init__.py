"""Pluggable contention-model backends and the cross-model tournament.

Every analytic treatment of memory contention the suite knows — the
paper's threshold model, the §II-D / §V baselines, and competing
formulations from the literature — behind one protocol
(:class:`~repro.backends.base.ModelBackend`; calibrated, every backend
is a :class:`~repro.core.placement.PlacementModel`), with artifact-store
persistence through the store's shared cache policy
(:func:`~repro.backends.base.load_or_calibrate`), a registry
(:data:`~repro.backends.registry.BACKENDS`), and a per-regime
tournament (:mod:`repro.backends.tournament`).  See
``docs/BACKENDS.md``.
"""

from repro.backends.base import (
    ModelBackend,
    SideBackend,
    backend_key,
    load_or_calibrate,
)
from repro.backends.registry import BACKENDS, backend_ids, get_backend
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
    "ModelBackend",
    "PlatformTournament",
    "RegimeScore",
    "SideBackend",
    "TournamentRouter",
    "backend_ids",
    "backend_key",
    "get_backend",
    "load_or_calibrate",
    "render_winner_table",
    "run_tournament",
    "score_backends",
]
