"""Cache-key fingerprints for pipeline stages.

An artifact is reusable only if *everything* that influenced it is part
of its key:

* the platform name (topology + contention profile registry entry),
* the full :class:`~repro.bench.config.SweepConfig` (any field change —
  seed, noise switch, repetitions, even a label — must invalidate),
* the stage's code version (bumped whenever a stage's outputs change
  for the same inputs).

Fingerprints are hex prefixes of a SHA-256 over canonical JSON, so they
are stable across processes, platforms, and Python versions.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.bench.config import SweepConfig

__all__ = ["config_fingerprint", "fingerprint_mapping"]

#: Length of the hex fingerprint kept in keys and directory names.  64
#: bits of a SHA-256 prefix: collisions would need ~10^9 distinct
#: configurations in one store.
_FINGERPRINT_HEX_CHARS = 16


def fingerprint_mapping(data: Mapping[str, Any]) -> str:
    """Canonical-JSON SHA-256 prefix of an arbitrary JSON-able mapping."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest[:_FINGERPRINT_HEX_CHARS]


def config_fingerprint(config: SweepConfig) -> str:
    """The fingerprint of one sweep configuration.

    Derived from every field of the config via
    :meth:`SweepConfig.to_dict`, so two configs share a fingerprint iff
    they are value-equal.
    """
    return fingerprint_mapping({"sweep_config": config.to_dict()})
