"""Why a golden digest can move on another host: numpy's tie order.

``repro.memsim.policies.waterfill`` hands out shares in ``np.argsort``
order, and tied offers get shares that differ in the last bit.  numpy
picks its SIMD sort at run time from the CPU's features, and its sorts
return tied values in different orders, so every golden digest holds
only where ``np.argsort`` orders ties as it did where the digests were
recorded (x86 with AVX2 or AVX-512).  :func:`digest_hint` says which
case a failing digest assertion is in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RECORDED_TIE_ORDER", "digest_hint", "tie_order"]

#: ``np.argsort(np.ones(20))`` where the golden digests were recorded.
RECORDED_TIE_ORDER = tuple(range(20))


def tie_order() -> tuple[int, ...]:
    """The order in which this host's ``np.argsort`` returns 20 ties."""
    return tuple(np.argsort(np.ones(20)).tolist())


def digest_hint() -> str:
    """The message of a golden-digest assertion: whether this host
    orders ties as the recording host did, and so what a mismatch
    means."""
    order = tie_order()
    if order == RECORDED_TIE_ORDER:
        return (
            "numpy's argsort orders ties here as where the digests were "
            "recorded, so the answer itself changed"
        )
    return (
        f"numpy's argsort returns 20 ties here in the order {list(order)}, "
        f"not {list(RECORDED_TIE_ORDER)} as where the digests were "
        "recorded: the digest may have moved with the host's SIMD sort, "
        "not with the code (ROADMAP.md item 2)"
    )
