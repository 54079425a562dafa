"""The backend registry: every contention model the suite knows.

The registry is the single source of truth for ``--backend`` CLI
flags, the service's ``backend=`` selector, and the tournament roster.
Registered ids, each a :class:`~repro.backends.base.SideBackend` of its
side class:

* ``threshold`` — the paper's §III model (the reference backend; its
  sides are :class:`~repro.core.parameters.ModelParameters`);
* ``naive`` / ``queueing-ps`` / ``langguth-threadfair`` — the §II-D /
  §V baselines;
* ``overlap-afzal`` — Afzal/Hager/Wellein shared saturation curve;
* ``cxlmem-messagefree`` — CXL.mem-style leftover-bandwidth model.
"""

from __future__ import annotations

from repro.backends.base import SideBackend
from repro.backends.baseline import LangguthSide, NaiveSide, QueueingSide
from repro.backends.cxlmem import LeftoverSide
from repro.backends.overlap import SaturationSide
from repro.core.parameters import ModelParameters
from repro.errors import ModelError

__all__ = ["BACKENDS", "get_backend"]


def _build_registry() -> dict[str, SideBackend]:
    backends: dict[str, SideBackend] = {}
    for backend in (
        SideBackend("threshold", ModelParameters),
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
BACKENDS: dict[str, SideBackend] = _build_registry()


def get_backend(backend_id: str) -> SideBackend:
    """Look a backend up by id, listing the valid ids on a miss."""
    try:
        return BACKENDS[backend_id]
    except KeyError:
        raise ModelError(
            f"unknown backend {backend_id!r}; registered: "
            f"{', '.join(BACKENDS)}"
        ) from None
