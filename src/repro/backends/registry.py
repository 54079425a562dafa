"""The backend registry: every contention model the suite knows.

The registry is the single source of truth for ``--backend`` CLI
flags, the service's ``backend=`` selector, and the tournament roster.
Registered ids (one :class:`~repro.backends.base.ModelBackend` each):

* ``threshold`` — the paper's §III model (the reference backend);
* ``naive`` / ``queueing-ps`` / ``langguth-threadfair`` — the §II-D /
  §V baselines;
* ``overlap-afzal`` — Afzal/Hager/Wellein shared saturation curve;
* ``cxlmem-messagefree`` — CXL.mem-style leftover-bandwidth model.

Every backend but ``threshold`` is a
:class:`~repro.backends.base.SideBackend` of its side class.
"""

from __future__ import annotations

from repro.backends.base import ModelBackend, SideBackend
from repro.backends.baseline import LangguthSide, NaiveSide, QueueingSide
from repro.backends.cxlmem import LeftoverSide
from repro.backends.overlap import SaturationSide
from repro.backends.threshold import ThresholdBackend
from repro.errors import ModelError

__all__ = ["BACKENDS", "backend_ids", "get_backend"]


def _build_registry() -> dict[str, ModelBackend]:
    backends: dict[str, ModelBackend] = {}
    for backend in (
        ThresholdBackend(),
        SideBackend("naive", NaiveSide),
        SideBackend("queueing-ps", QueueingSide),
        SideBackend("langguth-threadfair", LangguthSide),
        SideBackend("overlap-afzal", SaturationSide),
        SideBackend("cxlmem-messagefree", LeftoverSide),
    ):
        if backend.backend_id in backends:
            raise ModelError(
                f"duplicate backend id {backend.backend_id!r}"
            )  # pragma: no cover - registry construction bug
        backends[backend.backend_id] = backend
    return backends


#: id -> backend, in registration order (threshold first).
BACKENDS: dict[str, ModelBackend] = _build_registry()


def backend_ids() -> tuple[str, ...]:
    """Every registered backend id, registration order."""
    return tuple(BACKENDS)


def get_backend(backend_id: str) -> ModelBackend:
    """Look a backend up by id, listing the valid ids on a miss."""
    try:
        return BACKENDS[backend_id]
    except KeyError:
        raise ModelError(
            f"unknown backend {backend_id!r}; registered: "
            f"{', '.join(BACKENDS)}"
        ) from None
