#!/usr/bin/env python3
"""Pipeline cache smoke test: warm runs hit, corruption degrades cleanly.

Drives the real CLI (``python -m repro``) as subprocesses against a
temporary cache directory and checks the load-bearing guarantees of the
staged pipeline end to end, across process boundaries:

1. a cold ``figure`` run populates the cache (measure + calibrate),
2. a warm rerun is bit-identical and provably served from the cache
   (the persistent per-entry hit counters advance),
3. ``cache ls`` / ``cache info`` / ``cache clear`` work,
4. a corrupted manifest degrades to a clean recompute — exit 0, same
   output, entry re-stored,
5. backend calibrations and the tournament winner table go through the
   same cache: a second ``tournament run`` serves all of them from the
   store, and a corrupted backend payload is recalibrated and
   republished bit-identically, with the same winner table.

CI runs this exact script as its pipeline smoke test; run it yourself
with::

    PYTHONPATH=src python examples/pipeline_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURE = ["figure", "fig6"]  # occigen
PLATFORM = "occigen"
TOURNAMENT = ["tournament", "run", PLATFORM]
ALL_SERVED = "6/6 calibrations and 1/1 winner tables served from the store"


def repro(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
    )


def check(proc: subprocess.CompletedProcess, label: str) -> str:
    if proc.returncode != 0:
        sys.exit(
            f"FAIL {label}: exit {proc.returncode}\n"
            f"stdout: {proc.stdout[-2000:]}\nstderr: {proc.stderr[-2000:]}"
        )
    print(f"ok: {label}")
    return proc.stdout


def entry_hits(ls_output: str) -> dict[str, int]:
    hits = {}
    for line in ls_output.splitlines():
        if line.startswith(f"{PLATFORM}/"):
            fields = line.split()
            hits[fields[0]] = int(fields[-1])
    return hits


def winner_table(tournament_output: str) -> str:
    """``tournament run`` output without its cache-statistics line."""
    return "\n".join(tournament_output.splitlines()[:-1])


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache = ["--cache-dir", tmp]

        # 1. Cold run populates the cache.
        cold = check(repro(*FIGURE, *cache), "cold figure run")
        ls_cold = check(repro("cache", "ls", *cache), "cache ls (cold)")
        hits_cold = entry_hits(ls_cold)
        if len(hits_cold) != 2 or any(hits_cold.values()):
            sys.exit(f"FAIL: expected 2 unhit entries after cold run: {ls_cold}")

        # 2. Warm rerun: bit-identical output, hit counters advance.
        warm = check(repro(*FIGURE, *cache), "warm figure run")
        if warm != cold:
            sys.exit("FAIL: warm run output differs from cold run")
        hits_warm = entry_hits(check(repro("cache", "ls", *cache), "cache ls"))
        missed = [e for e, h in hits_warm.items() if h < 1]
        if missed:
            sys.exit(f"FAIL: warm run did not hit {missed}: {hits_warm}")
        print("ok: warm run bit-identical and served from cache")

        # 3. cache info renders the manifest of a listed entry.
        entry_id = next(e for e in hits_warm if "/calibrate-" in e)
        info = check(repro("cache", "info", entry_id, *cache), "cache info")
        manifest = json.loads(info)
        if manifest["key"]["stage"] != "calibrate":
            sys.exit(f"FAIL: unexpected manifest {manifest['key']}")

        # 4. Corrupt a manifest: the next run must recompute cleanly.
        measure_id = next(e for e in hits_warm if "/measure-" in e)
        manifest_path = Path(tmp) / measure_id / "manifest.json"
        manifest_path.write_text(manifest_path.read_text()[:30])
        recovered = check(repro(*FIGURE, *cache), "run with corrupt manifest")
        if recovered != cold:
            sys.exit("FAIL: recomputed output differs after corruption")
        hits_after = entry_hits(
            check(repro("cache", "ls", *cache), "cache ls (recovered)")
        )
        if measure_id not in hits_after:
            sys.exit(f"FAIL: corrupted entry was not re-stored: {hits_after}")
        print("ok: corrupted manifest degraded to a clean recompute")

        # 5. Backend and tournament artifacts: warm run is all hits.
        cold_tour = check(repro(*TOURNAMENT, *cache), "cold tournament run")
        warm_tour = check(repro(*TOURNAMENT, *cache), "warm tournament run")
        if ALL_SERVED not in warm_tour:
            sys.exit(f"FAIL: warm tournament run missed: {warm_tour}")
        if winner_table(warm_tour) != winner_table(cold_tour):
            sys.exit("FAIL: warm winner table differs from the cold one")
        print("ok: warm tournament run served every artifact from the store")

        # 6. Corrupt one backend payload: recalibrated and republished.
        hits = entry_hits(check(repro("cache", "ls", *cache), "cache ls"))
        backend_id = next(e for e in hits if "/backend-" in e)
        payload = Path(tmp) / backend_id / "backend.json"
        original = payload.read_bytes()
        flipped = bytearray(original)
        flipped[len(flipped) // 2] ^= 0x01
        payload.write_bytes(bytes(flipped))
        recovered_tour = check(
            repro(*TOURNAMENT, *cache), "tournament run with corrupt backend"
        )
        if winner_table(recovered_tour) != winner_table(cold_tour):
            sys.exit("FAIL: winner table differs after backend corruption")
        hits_after = entry_hits(
            check(repro("cache", "ls", *cache), "cache ls (republished)")
        )
        if hits_after.get(backend_id) != 0 or payload.read_bytes() != original:
            sys.exit(f"FAIL: {backend_id} was not republished: {hits_after}")
        print("ok: corrupted backend payload recalibrated and republished")

        # 7. clear empties the store.
        out = check(repro("cache", "clear", *cache), "cache clear")
        if "removed" not in out:
            sys.exit(f"FAIL: unexpected clear output: {out}")

    print("pipeline smoke test passed")


if __name__ == "__main__":
    main()
