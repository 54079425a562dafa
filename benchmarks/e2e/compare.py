"""Repeat the benchmark, or compare two checkouts of the repository.

Spread of one checkout (how the bounds in BENCHMARK.json were derived)::

    python3 benchmarks/e2e/compare.py repeat --workload scalar --runs 10

runs the workload ``--runs`` times with seeds ``--seed``, ``--seed + 1``,
... and prints, per end-to-end metric, the median, the quartiles and the
spread: the inter-quartile range over the median, as
``statistics.quantiles(values, n=4)`` gives it.  A spread above a third
of the metric's bound is flagged.

Paired comparison of a parent and a change::

    python3 benchmarks/e2e/compare.py paired --parent ../parent \\
        --change . --workload bulk-hol --pairs 10

runs the same seed on both sides, alternating which side runs first,
and gives each metric a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: a side's spread exceeds the bound, and not every
  change run beats every parent run;
* ``no change`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def benchmark_spec(checkout: Path) -> dict:
    return json.loads((checkout / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run in ``checkout``; its end-to-end metric values."""
    spec = benchmark_spec(checkout)
    command = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=300
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} failed "
            f"(exit {done.returncode}): {done.stderr.strip()[-500:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed}: wrong answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def repeat(args) -> dict:
    spec = benchmark_spec(ROOT)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = [
        run_once(ROOT, args.workload, args.seed + i, args.seconds)
        for i in range(args.runs)
    ]
    out = {}
    for name, bound in bounds.items():
        stats = summary([run[name] for run in runs])
        stats["bound"] = bound
        stats["steady"] = stats["spread"] <= bound / 3
        stats["values"] = [run[name] for run in runs]
        out[name] = stats
    return {"workload": args.workload, "runs": args.runs, "metrics": out}


def paired(args) -> dict:
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    spec = benchmark_spec(parent)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(
                run_once(checkout, args.workload, seed, args.seconds)
            )
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        before = [run[name] for run in runs["parent"]]
        after = [run[name] for run in runs["change"]]
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        p, c = summary(before), summary(after)
        worse_by = sign * (p["median"] - c["median"]) / p["median"]
        if (
            wins >= 0.9 * args.pairs
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        ):
            verdict = "gain"
        elif worse_by > bound:
            verdict = "regression"
        elif max(p["spread"], c["spread"]) > bound and not (
            min(sign * a for a in after) > max(sign * b for b in before)
        ):
            verdict = "unresolved"
        else:
            verdict = "no change"
        out[name] = {
            "parent": p,
            "change": c,
            "wins": wins,
            "pairs": args.pairs,
            "verdict": verdict,
        }
    return {"workload": args.workload, "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, count in (("repeat", "--runs"), ("paired", "--pairs")):
        p = sub.add_parser(mode)
        p.add_argument("--workload", required=True)
        p.add_argument(count, type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--seconds", type=int, default=None,
            help="run length (default: run_seconds of BENCHMARK.json)",
        )
        if mode == "paired":
            p.add_argument("--parent", required=True)
            p.add_argument("--change", default=str(ROOT))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec(ROOT)["run_seconds"]
    report = repeat(args) if args.mode == "repeat" else paired(args)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
