"""Consistent-hash shard map: which workers own a ``(platform, seed)`` model.

Models are content-addressed calibration artifacts, so "placement" of a
model on a worker is just an ownership claim: the owning workers preload
(or lazily hydrate) the calibration from the shared artifact store and
answer queries for it from their in-process registry.  The map's job is
to make that claim *stable*:

* **minimal movement** — workers are hashed onto a ring at
  ``vnodes`` virtual points each; a key is owned by the next
  ``replication`` distinct workers clockwise from its own hash.  Adding
  a worker therefore moves only the ~1/N of keys that now hash to it;
  removing one moves only the keys it owned.  Everything else keeps its
  warm registry entries.
* **replication** — each key lists ``replication`` distinct owners (as
  many as the fleet allows), ordered primary-first; the router walks
  that order on failover, so a dead primary costs a fallback hop, not
  an error.
* **determinism** — hashing is ``blake2b`` over stable strings; two
  processes building a map from the same :meth:`spec` agree on every
  owner without coordination.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Mapping

from repro.errors import ClusterError

__all__ = ["ShardMap"]

#: Virtual points per worker on the ring.  64 keeps the largest/smallest
#: ownership arc within ~2x of each other for small fleets while the
#: ring stays tiny (N*64 entries).
DEFAULT_VNODES = 64


def _hash64(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class ShardMap:
    """Deterministic consistent-hash ring over named workers."""

    def __init__(
        self,
        workers: Iterable[str] = (),
        *,
        replication: int = 2,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if replication < 1:
            raise ClusterError(
                f"replication must be >= 1, got {replication}"
            )
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self._replication = replication
        self._vnodes = vnodes
        self._workers: set[str] = set()
        #: Parallel arrays sorted by point hash: bisect on the hashes,
        #: index into the names.
        self._ring_hashes: list[int] = []
        self._ring_names: list[str] = []
        self._version = 0
        for worker in workers:
            self.add_worker(worker)

    # ---- membership ------------------------------------------------------------

    @property
    def workers(self) -> tuple[str, ...]:
        return tuple(sorted(self._workers))

    @property
    def replication(self) -> int:
        return self._replication

    @property
    def vnodes(self) -> int:
        return self._vnodes

    @property
    def version(self) -> int:
        """Bumped on every membership change (client cache invalidation)."""
        return self._version

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker: str) -> bool:
        return worker in self._workers

    def add_worker(self, worker: str) -> None:
        if not worker or not isinstance(worker, str):
            raise ClusterError(f"invalid worker name {worker!r}")
        if worker in self._workers:
            raise ClusterError(f"worker {worker!r} already in the shard map")
        self._workers.add(worker)
        self._rebuild()

    def remove_worker(self, worker: str) -> None:
        if worker not in self._workers:
            raise ClusterError(f"worker {worker!r} not in the shard map")
        self._workers.remove(worker)
        self._rebuild()

    def _rebuild(self) -> None:
        points = sorted(
            (_hash64(f"{worker}#{v}"), worker)
            for worker in self._workers
            for v in range(self._vnodes)
        )
        self._ring_hashes = [h for h, _ in points]
        self._ring_names = [w for _, w in points]
        self._version += 1

    # ---- ownership -------------------------------------------------------------

    def owners(
        self,
        platform: str,
        seed: int = 0,
        *,
        alive: "set[str] | None" = None,
    ) -> tuple[str, ...]:
        """Distinct owning workers of one key, primary first.

        Returns ``min(replication, workers)`` names — replica sets never
        collapse onto one worker while the fleet can still hold them
        apart.  With ``alive`` given, live owners are listed first (in
        ring order) and dead ones appended after, so a failover walk
        tries live replicas before gambling on a restarting primary.
        """
        if not self._ring_hashes:
            raise ClusterError("shard map has no workers")
        key_hash = _hash64(f"{platform}:{seed}")
        start = bisect_right(self._ring_hashes, key_hash)
        found: list[str] = []
        for i in range(len(self._ring_hashes)):
            worker = self._ring_names[(start + i) % len(self._ring_hashes)]
            if worker not in found:
                found.append(worker)
                if len(found) == min(self._replication, len(self._workers)):
                    break
        if alive is None:
            return tuple(found)
        return tuple(
            [w for w in found if w in alive]
            + [w for w in found if w not in alive]
        )

    def primary(self, platform: str, seed: int = 0) -> str:
        return self.owners(platform, seed)[0]

    # ---- wire form -------------------------------------------------------------

    def spec(self) -> dict:
        """A JSON-stable description a peer can rebuild the map from."""
        return {
            "workers": list(self.workers),
            "replication": self._replication,
            "vnodes": self._vnodes,
            "version": self._version,
        }

    @classmethod
    def from_spec(cls, spec: Mapping) -> "ShardMap":
        """Rebuild an identical map (same owners for every key)."""
        try:
            workers = spec["workers"]
            replication = int(spec["replication"])
            vnodes = int(spec["vnodes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(f"malformed shard-map spec: {exc}") from exc
        if not isinstance(workers, (list, tuple)):
            raise ClusterError(
                f"shard-map spec workers must be a list, got {workers!r}"
            )
        return cls(workers, replication=replication, vnodes=vnodes)
