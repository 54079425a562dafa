"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``platforms``
    List the testbed platforms (Table I).
``topo <platform>``
    Render a platform's topology tree.
``sweep <platform> [--placement MC MM] [--csv PATH]``
    Run the benchmark sweep and print/export the curves.
``calibrate <platform>``
    Print the calibrated local/remote model parameters.
``predict <platform> -n N --comp MC --comm MM [--backend B]``
    Predict bandwidths for one configuration (optionally through a
    registered model backend or the ``tournament`` winner router).
``tournament run|report [PLATFORM ...]``
    Cross-model tournament: calibrate every registered model backend,
    score each on every platform × placement × core-band regime, and
    print the per-regime winner table (docs/BACKENDS.md).
``figure <figN> [--csv PATH] [--svg PATH]``
    Regenerate a paper figure as ASCII, or write its series as CSV
    and/or its plot as SVG (``fig2`` is drawn as ASCII only).
``table1`` / ``table2``
    Regenerate the paper tables.
``advise <platform> --comp-bytes B --comm-bytes B``
    Recommend core count and placement for an overlapped workload.
``advise <platform> --victim``
    Rank communication-data placements by worst-case degradation
    under noisy co-tenants (docs/TENANTS.md).
``overlap <platform> -n N --comp MC --comm MM --comp-bytes B --comm-bytes B``
    Estimate the overlap efficiency of one configuration.
``bottleneck <platform> -n N --comp MC --comm MM``
    Locate the contention bottleneck of one scenario.
``sensitivity <platform>``
    Rank model parameters by their influence on the predictions.
``diagnose <platform>``
    Model-limits diagnosis: where and why the model errs (§IV-C1).
``intensity <platform> [-n N]``
    Contention versus kernel arithmetic intensity.
``export-platform <platform> --output PATH``
    Save a platform description (topology + contention profile) as JSON.
``check``
    Run all platforms and verify the structural Table II claims.
``report [--output PATH]``
    Generate the full EXPERIMENTS.md report.
``serve [--host H] [--port P] [--cache-dir D] [--preload P[:S] ...]``
    Run the contention-prediction service (docs/SERVICE.md).
``query <endpoint> ...``
    Query a running prediction service over HTTP.
``cluster serve|status|loadgen``
    Scale-out serving: a supervised multi-worker fleet behind a
    sharding router, plus the SLO load harness (docs/CLUSTER.md).
``cache ls|info|clear``
    Inspect or clear the pipeline artifact cache (docs/PIPELINE.md).
``trace summarize <path>``
    Per-span time/percentage table of a ``--trace`` file
    (docs/OBSERVABILITY.md).
``bench run|compare``
    Run the performance-trajectory benchmarks, emit/refresh
    ``BENCH_<area>.json``, and gate on regressions against the
    committed baselines (docs/BENCHMARKS.md).

Experiment-running commands (``calibrate``, ``predict``, ``figure``,
``table2``, ``advise``, ``overlap``, ``sensitivity``, ``diagnose``,
``check``, ``report``) accept ``--cache-dir`` (reuse sweep/calibration
artifacts across invocations; defaults to ``$REPRO_CACHE_DIR`` when
set), ``--jobs`` (parallel workers; 0 = one per CPU), and ``--trace
PATH`` (write a structured trace of the run: JSONL, or Chrome
trace-event JSON when the path ends in ``.json``).  ``serve`` accepts
``--trace`` too, exporting on shutdown.  The global ``--log-level``
flag configures the root ``repro`` logger once, surfacing the
``repro.<package>`` subsystem logs.

Every ``--csv``, ``--svg`` and ``--output`` path is checked before the
command runs, and written by one helper: a path that cannot be written
ends the command on an ``error:`` line with exit code 1, before any
experiment when the check can tell.

Exit codes
----------
``0`` success; every :class:`~repro.errors.ReproError` subclass maps to
its own code (see :data:`EXIT_CODES`) so scripts can tell a bad
placement (7) from an unreachable service (11) or a misused artifact
cache (12) without parsing stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.advisor import Advisor, Workload
from repro.bench import SweepConfig, run_placement_grid
from repro.bench.results import PlacementSweep, PlatformDataset
from repro.bench.runner import measure_curves
from repro.core import calibrate_placement_model
from repro.errors import (
    AdvisorError,
    ArbitrationError,
    BenchmarkError,
    BenchTrackError,
    CalibrationError,
    ClusterError,
    CommunicationError,
    ModelError,
    ObsError,
    PipelineError,
    PlacementError,
    ReproError,
    ServiceError,
    SimulationError,
    TopologyError,
)
from repro.obs import LOG_LEVELS, configure_logging
from repro.evaluation import (
    EXPERIMENTS,
    render_table1,
    render_table2,
    run_all_experiments,
    run_platform_experiment,
)
from repro.evaluation.figures import (
    figure_series,
    render_figure_ascii,
    series_to_csv,
)
from repro.evaluation.experiments import figure_platform
from repro.evaluation.report import generate_experiments_report
from repro.topology import get_platform, platform_names, render_text

__all__ = ["main", "build_parser", "EXIT_CODES", "exit_code_for"]

#: Process exit code of each error family.  Subclass entries win over
#: their bases (:func:`exit_code_for` walks the MRO), so e.g. a
#: :class:`PlacementError` exits 7 even though it is a ``ModelError``.
EXIT_CODES: dict[type, int] = {
    ReproError: 1,
    TopologyError: 2,
    SimulationError: 3,
    ArbitrationError: 4,
    CalibrationError: 5,
    ModelError: 6,
    PlacementError: 7,
    BenchmarkError: 8,
    CommunicationError: 9,
    AdvisorError: 10,
    ServiceError: 11,
    PipelineError: 12,
    ObsError: 13,
    BenchTrackError: 14,
    ClusterError: 15,
}


def exit_code_for(exc: ReproError) -> int:
    """The exit code of an error: its most-derived mapped class."""
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return 1


def _resolve_cache_dir(args: argparse.Namespace) -> Path | None:
    """``--cache-dir`` if given, else ``$REPRO_CACHE_DIR``, else None."""
    if args.cache_dir is not None:
        return args.cache_dir
    env = os.environ.get("REPRO_CACHE_DIR")
    return Path(env) if env else None


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse, before the command runs, an output flag's path that
    cannot be written: a directory, or a file in a missing or read-only
    directory."""
    for flag in ("csv", "svg", "output"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        if path.is_dir():
            reason = "it is a directory"
        elif not path.parent.is_dir():
            reason = f"no directory {path.parent}"
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            reason = "permission denied"
        else:
            continue
        raise ReproError(f"cannot write --{flag} {path}: {reason}")


def _write_output(path: Path, text: str) -> str:
    """Write one ``--csv``/``--svg``/``--output`` file.  An
    :class:`OSError` becomes a :class:`~repro.errors.ReproError`, so the
    command ends on an ``error:`` line, not a traceback."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ReproError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return f"wrote {path}"


def _pipeline_kwargs(args: argparse.Namespace) -> dict:
    """The pipeline keyword arguments an experiment-running command carries."""
    return {"cache_dir": _resolve_cache_dir(args), "jobs": args.jobs}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memcontend",
        description=(
            "Reproduction of 'Modeling Memory Contention between "
            "Communications and Computations in Distributed HPC Systems' "
            "(IPDPS-W 2022)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help="configure the root 'repro' logger (default: library "
        "logging stays unconfigured)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The structured-trace flag every traced command shares.
    trace_opts = argparse.ArgumentParser(add_help=False)
    trace_opts.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a structured trace of this run (JSONL; a .json "
        "suffix selects Chrome trace-event format)",
    )

    # Shared by every command that runs the pipeline.
    pipeline_opts = argparse.ArgumentParser(add_help=False, parents=[trace_opts])
    pipeline_opts.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="pipeline artifact cache directory "
        "(defaults to $REPRO_CACHE_DIR when set)",
    )
    pipeline_opts.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers (0 = one per CPU)",
    )

    sub.add_parser("platforms", help="list testbed platforms")

    p_topo = sub.add_parser("topo", help="render a platform topology")
    p_topo.add_argument("platform", choices=platform_names())

    p_sweep = sub.add_parser(
        "sweep", parents=[trace_opts], help="run the benchmark sweep"
    )
    p_sweep.add_argument("platform", choices=platform_names())
    p_sweep.add_argument(
        "--placement",
        nargs=2,
        type=int,
        metavar=("M_COMP", "M_COMM"),
        help="single placement (defaults to the full grid)",
    )
    p_sweep.add_argument("--csv", type=Path, help="write curves to CSV")

    p_cal = sub.add_parser(
        "calibrate", parents=[pipeline_opts], help="print calibrated parameters"
    )
    p_cal.add_argument("platform", choices=platform_names())

    p_pred = sub.add_parser(
        "predict", parents=[pipeline_opts], help="predict one configuration"
    )
    p_pred.add_argument("platform", choices=platform_names())
    p_pred.add_argument("-n", "--cores", type=int, required=True)
    p_pred.add_argument("--comp", type=int, required=True, metavar="M_COMP")
    p_pred.add_argument("--comm", type=int, required=True, metavar="M_COMM")
    p_pred.add_argument(
        "--backend",
        default=None,
        metavar="BACKEND",
        help="answer with a registered model backend, or 'tournament' "
        "for the per-regime winner (default: the threshold model)",
    )

    p_tour = sub.add_parser(
        "tournament",
        help="cross-model tournament: score every backend per regime",
    )
    tsub_t = p_tour.add_subparsers(dest="tournament_command", required=True)
    t_run = tsub_t.add_parser(
        "run", parents=[pipeline_opts],
        help="calibrate every backend and emit the per-regime winner table",
    )
    t_run.add_argument(
        "platforms",
        nargs="*",
        metavar="PLATFORM",
        help="platforms to contest (default: every archived platform)",
    )
    t_rep = tsub_t.add_parser(
        "report", parents=[pipeline_opts],
        help="render the winner table from stored tournament artifacts",
    )
    t_rep.add_argument(
        "platforms",
        nargs="*",
        metavar="PLATFORM",
        help="platforms to report (default: every archived platform)",
    )

    p_fig = sub.add_parser(
        "figure", parents=[pipeline_opts], help="regenerate a paper figure"
    )
    p_fig.add_argument(
        "figure_id",
        choices=[k for k in EXPERIMENTS if k.startswith("fig")],
    )
    p_fig.add_argument("--csv", type=Path, help="write figure series to CSV")
    p_fig.add_argument("--svg", type=Path, help="render the figure to an SVG file")

    sub.add_parser("table1", help="regenerate Table I")
    sub.add_parser(
        "table2", parents=[pipeline_opts], help="regenerate Table II"
    )

    p_adv = sub.add_parser(
        "advise", parents=[pipeline_opts], help="recommend cores and placement"
    )
    p_adv.add_argument("platform", choices=platform_names())
    p_adv.add_argument("--comp-bytes", type=float)
    p_adv.add_argument("--comm-bytes", type=float)
    p_adv.add_argument("--top", type=int, default=5)
    p_adv.add_argument(
        "--victim",
        action="store_true",
        help="rank communication-data placements by worst-case "
        "degradation under noisy co-tenants instead of by workload "
        "makespan (--comp-bytes/--comm-bytes do not apply)",
    )

    p_ovl = sub.add_parser(
        "overlap", parents=[pipeline_opts], help="estimate overlap efficiency"
    )
    p_ovl.add_argument("platform", choices=platform_names())
    p_ovl.add_argument("-n", "--cores", type=int, required=True)
    p_ovl.add_argument("--comp", type=int, required=True, metavar="M_COMP")
    p_ovl.add_argument("--comm", type=int, required=True, metavar="M_COMM")
    p_ovl.add_argument("--comp-bytes", type=float, required=True)
    p_ovl.add_argument("--comm-bytes", type=float, required=True)

    p_bot = sub.add_parser("bottleneck", help="locate the contention bottleneck")
    p_bot.add_argument("platform", choices=platform_names())
    p_bot.add_argument("-n", "--cores", type=int, required=True)
    p_bot.add_argument("--comp", type=int, required=True, metavar="M_COMP")
    p_bot.add_argument("--comm", type=int, required=True, metavar="M_COMM")

    p_sens = sub.add_parser(
        "sensitivity", parents=[pipeline_opts],
        help="rank parameters by prediction influence",
    )
    p_sens.add_argument("platform", choices=platform_names())

    p_diag = sub.add_parser(
        "diagnose", parents=[pipeline_opts],
        help="model-limits diagnosis for a platform",
    )
    p_diag.add_argument("platform", choices=platform_names())

    p_int = sub.add_parser(
        "intensity", help="contention vs kernel arithmetic intensity"
    )
    p_int.add_argument("platform", choices=platform_names())
    p_int.add_argument("-n", "--cores", type=int, default=None)

    p_exp = sub.add_parser(
        "export-platform", help="save a platform description as JSON"
    )
    p_exp.add_argument("platform", choices=platform_names())
    p_exp.add_argument("--output", type=Path, help="write to file instead of stdout")

    sub.add_parser(
        "check", parents=[pipeline_opts],
        help="verify structural claims vs the paper",
    )

    p_rep = sub.add_parser(
        "report", parents=[pipeline_opts], help="generate EXPERIMENTS.md"
    )
    p_rep.add_argument("--output", type=Path, help="write to file instead of stdout")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the pipeline artifact cache"
    )
    cache_opts = argparse.ArgumentParser(add_help=False)
    cache_opts.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="pipeline artifact cache directory "
        "(defaults to $REPRO_CACHE_DIR when set)",
    )
    csub = p_cache.add_subparsers(dest="cache_command", required=True)
    csub.add_parser("ls", parents=[cache_opts], help="list cached artifacts")
    c_info = csub.add_parser(
        "info", parents=[cache_opts], help="show one entry's manifest"
    )
    c_info.add_argument(
        "entry_id", metavar="ENTRY_ID", help="an id printed by `cache ls`"
    )
    csub.add_parser(
        "clear", parents=[cache_opts], help="remove every cached artifact"
    )

    p_bench = sub.add_parser(
        "bench", help="performance-trajectory benchmarks and regression gate"
    )
    bench_opts = argparse.ArgumentParser(add_help=False)
    bench_opts.add_argument(
        "areas",
        nargs="*",
        metavar="AREA",
        help="benchmark areas (default: all registered areas)",
    )
    bench_opts.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("."),
        help="directory of the committed BENCH_<area>.json baselines "
        "(default: current directory)",
    )
    bench_opts.add_argument(
        "--band",
        type=float,
        default=None,
        help="default relative noise band for metrics that do not carry "
        "their own (default: 0.25)",
    )
    bsub = p_bench.add_subparsers(dest="bench_command", required=True)
    b_run = bsub.add_parser(
        "run", parents=[bench_opts],
        help="run the benchmarks and write fresh BENCH_<area>.json files",
    )
    b_run.add_argument(
        "--output-dir",
        type=Path,
        default=Path("bench-results"),
        help="where fresh reports are written (default: bench-results/)",
    )
    b_run.add_argument(
        "--compare",
        action="store_true",
        help="also diff the fresh run against the committed baselines "
        "and fail on out-of-band changes",
    )
    b_run.add_argument(
        "--bless",
        action="store_true",
        help="write the fresh run over the committed baselines instead",
    )
    b_cmp = bsub.add_parser(
        "compare", parents=[bench_opts],
        help="run the benchmarks and gate against the committed baselines",
    )
    b_cmp.add_argument(
        "--fresh-dir",
        type=Path,
        default=None,
        help="compare previously saved BENCH_<area>.json files from this "
        "directory instead of re-running the benchmarks",
    )
    b_cmp.add_argument(
        "--markdown",
        action="store_true",
        help="emit the per-metric verdict table as GitHub-flavored "
        "markdown (for CI to post as a PR comment)",
    )

    p_trace = sub.add_parser(
        "trace", help="inspect structured traces written by --trace"
    )
    tsub = p_trace.add_subparsers(dest="trace_command", required=True)
    t_sum = tsub.add_parser(
        "summarize", help="per-span time/percentage table of a trace file"
    )
    t_sum.add_argument(
        "trace_file", type=Path, metavar="PATH",
        help="a JSONL or Chrome trace file written by --trace",
    )

    p_serve = sub.add_parser(
        "serve", parents=[trace_opts],
        help="run the contention-prediction service",
    )
    p_serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="back calibrations with a pipeline artifact cache "
        "(defaults to $REPRO_CACHE_DIR when set)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    p_serve.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (s)"
    )
    p_serve.add_argument(
        "--max-concurrency", type=int, default=64,
        help="in-flight requests beyond this are answered 503",
    )
    p_serve.add_argument(
        "--no-batching", action="store_true",
        help="disable coalescing of concurrent scalar predictions",
    )
    p_serve.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="PLATFORM[:SEED]",
        help="hydrate a model before accepting traffic (repeatable); "
        "with --cache-dir this is a warm start from the artifact store",
    )

    p_cluster = sub.add_parser(
        "cluster", help="sharded multi-worker serving tier"
    )
    clsub = p_cluster.add_subparsers(dest="cluster_command", required=True)
    cl_serve = clsub.add_parser(
        "serve", help="run N supervised workers behind a sharding router"
    )
    cl_serve.add_argument("--host", default="127.0.0.1")
    cl_serve.add_argument(
        "--port", type=int, default=8080,
        help="router port (0 picks an ephemeral port)",
    )
    cl_serve.add_argument(
        "--workers", type=int, default=3, help="worker process count"
    )
    cl_serve.add_argument(
        "--replication", type=int, default=2,
        help="owners per (platform, seed) shard key",
    )
    cl_serve.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="shared pipeline artifact cache (required: it is the "
        "warm-restart medium; defaults to $REPRO_CACHE_DIR when set)",
    )
    cl_serve.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="PLATFORM[:SEED]",
        help="models each owning worker hydrates before taking traffic "
        "(repeatable)",
    )
    cl_serve.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request timeout inside each worker (s)",
    )
    cl_serve.add_argument(
        "--max-concurrency", type=int, default=64,
        help="per-worker in-flight limit; beyond it workers shed with 503",
    )
    cl_serve.add_argument(
        "--max-restarts", type=int, default=3,
        help="restarts before a crash-looping worker is retired",
    )
    cl_status = clsub.add_parser(
        "status", help="summarize a running cluster via its router"
    )
    cl_status.add_argument("--host", default="127.0.0.1")
    cl_status.add_argument("--port", type=int, default=8080)
    cl_status.add_argument("--timeout", type=float, default=10.0)
    cl_load = clsub.add_parser(
        "loadgen", help="drive load at a service and grade it against an SLO"
    )
    cl_load.add_argument("--host", default="127.0.0.1")
    cl_load.add_argument("--port", type=int, default=8080)
    cl_load.add_argument(
        "--platform", default="occigen", choices=platform_names()
    )
    cl_load.add_argument(
        "--total", type=int, default=200, help="total requests to send"
    )
    cl_load.add_argument(
        "--concurrency", type=int, default=8, help="parallel request streams"
    )
    cl_load.add_argument("--timeout", type=float, default=30.0)
    cl_load.add_argument(
        "--p99-ms", type=float, default=250.0, help="SLO: p99 latency bound"
    )
    cl_load.add_argument(
        "--error-budget", type=float, default=0.01,
        help="SLO: tolerated failed-request fraction",
    )
    cl_load.add_argument(
        "--max-shed-rate", type=float, default=0.25,
        help="SLO: tolerated 503 (load-shed) fraction",
    )
    cl_load.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the SLO verdict fails",
    )
    cl_load.add_argument(
        "--overload", action="store_true",
        help="deliberate-overload mode: grade shedding behaviour instead "
        "of the serving SLO (sheds must happen, failures must not)",
    )
    cl_load.add_argument(
        "--min-shed-rate", type=float, default=0.01,
        help="overload mode: the shed fraction the run must reach to "
        "prove back-pressure engaged",
    )

    p_query = sub.add_parser("query", help="query a running service")
    remote = argparse.ArgumentParser(add_help=False)
    remote.add_argument("--host", default="127.0.0.1")
    remote.add_argument("--port", type=int, default=8080)
    remote.add_argument("--timeout", type=float, default=30.0)
    qsub = p_query.add_subparsers(dest="query_command", required=True)
    qsub.add_parser("healthz", parents=[remote], help="service liveness")
    qsub.add_parser("metrics", parents=[remote], help="service metrics JSON")
    q_cal = qsub.add_parser(
        "calibrate", parents=[remote], help="calibrate (or hit the cache)"
    )
    q_cal.add_argument("platform", choices=platform_names())
    q_pred = qsub.add_parser(
        "predict", parents=[remote], help="predict one configuration"
    )
    q_pred.add_argument("platform", choices=platform_names())
    q_pred.add_argument("-n", "--cores", type=int, required=True)
    q_pred.add_argument("--comp", type=int, required=True, metavar="M_COMP")
    q_pred.add_argument("--comm", type=int, required=True, metavar="M_COMM")
    q_pred.add_argument(
        "--backend",
        default=None,
        metavar="BACKEND",
        help="server-side model backend, or 'tournament' for the "
        "per-regime winner (default: the threshold model)",
    )
    q_adv = qsub.add_parser(
        "advise", parents=[remote], help="recommend cores and placement"
    )
    q_adv.add_argument("platform", choices=platform_names())
    q_adv.add_argument("--comp-bytes", type=float)
    q_adv.add_argument("--comm-bytes", type=float)
    q_adv.add_argument("--top", type=int, default=5)
    q_adv.add_argument(
        "--victim",
        action="store_true",
        help="rank communication-data placements by worst-case "
        "degradation under noisy co-tenants",
    )
    q_adv.add_argument(
        "--backend",
        default=None,
        metavar="BACKEND",
        help="server-side model backend, or 'tournament' for the "
        "per-regime winner (default: the threshold model)",
    )

    return parser


def _cmd_platforms(_args: argparse.Namespace) -> str:
    return render_table1()


def _cmd_topo(args: argparse.Namespace) -> str:
    return render_text(get_platform(args.platform).machine)


def _cmd_sweep(args: argparse.Namespace) -> str:
    platform = get_platform(args.platform)
    config = SweepConfig(seed=args.seed)
    if args.placement:
        m_comp, m_comm = args.placement
        curves = measure_curves(
            platform.machine,
            platform.profile,
            m_comp=m_comp,
            m_comm=m_comm,
            config=config,
        )
        if args.csv:
            sweep = PlacementSweep({(m_comp, m_comm): curves})
            return _write_output(
                args.csv, PlatformDataset(platform.name, sweep).to_csv()
            )
        lines = [
            f"{'n':>3} {'comp_alone':>11} {'comm_alone':>11} "
            f"{'comp_par':>9} {'comm_par':>9}"
        ]
        for i, n in enumerate(curves.core_counts):
            lines.append(
                f"{int(n):>3} {curves.comp_alone[i]:>11.2f} "
                f"{curves.comm_alone[i]:>11.2f} {curves.comp_parallel[i]:>9.2f} "
                f"{curves.comm_parallel[i]:>9.2f}"
            )
        return "\n".join(lines)
    dataset = run_placement_grid(platform, config=config)
    if args.csv:
        return _write_output(args.csv, dataset.to_csv())
    return dataset.to_csv()


def _cmd_calibrate(args: argparse.Namespace) -> str:
    platform = get_platform(args.platform)
    result = run_platform_experiment(
        platform, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    return (
        f"platform {platform.name}\n"
        f"local : {result.model.local.summary()}\n"
        f"remote: {result.model.remote.summary()}"
    )


def _calibrated_backend_model(args: argparse.Namespace, result):
    """The ``--backend`` model of a local prediction command.

    ``tournament`` builds the per-regime winner router (scoring the
    pipeline's model and calibrating the rest of the roster); any other
    name calibrates just that backend.  Both go through the artifact
    store when a cache dir is configured.
    """
    from repro.backends import get_backend, load_or_calibrate
    from repro.backends.tournament import (
        TournamentRouter,
        run_platform_tournament,
    )
    from repro.pipeline.fingerprint import config_fingerprint
    from repro.pipeline.store import ArtifactStore

    cache_dir = _resolve_cache_dir(args)
    store = ArtifactStore(cache_dir) if cache_dir is not None else None
    config = SweepConfig(seed=args.seed)
    if args.backend == "tournament":
        run = run_platform_tournament(result, config=config, store=store)
        return TournamentRouter(run.tournament, run.calibrated)
    backend = get_backend(args.backend)
    calibrated, _ = load_or_calibrate(
        store,
        backend,
        result.dataset,
        result.platform,
        config_fingerprint(config),
    )
    return calibrated


def _cmd_predict(args: argparse.Namespace) -> str:
    platform = get_platform(args.platform)
    result = run_platform_experiment(
        platform, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    model = result.model
    note = ""
    if args.backend is not None and args.backend != "threshold":
        model = _calibrated_backend_model(args, result)
        note = f" [backend {args.backend}]"
        if args.backend == "tournament":
            winner = model.winner_for(args.cores, args.comp, args.comm)
            note = f" [backend tournament -> {winner}]"
    comp = model.comp_parallel(args.cores, args.comp, args.comm)
    comm = model.comm_parallel(args.cores, args.comp, args.comm)
    alone = model.comp_alone(args.cores, args.comp)
    return (
        f"{platform.name}: n={args.cores}, comp data on node {args.comp}, "
        f"comm data on node {args.comm}{note}\n"
        f"  predicted computation bandwidth (overlapped): {comp:.2f} GB/s\n"
        f"  predicted communication bandwidth (overlapped): {comm:.2f} GB/s\n"
        f"  predicted computation bandwidth (alone): {alone:.2f} GB/s"
    )


def _cmd_tournament(args: argparse.Namespace) -> str:
    from repro.backends import BACKENDS, render_winner_table
    from repro.backends.tournament import (
        decode_tournament,
        run_tournament,
        tournament_key,
    )
    from repro.pipeline.fingerprint import config_fingerprint
    from repro.pipeline.store import ArtifactStore, load_decoded

    cache_dir = _resolve_cache_dir(args)
    config = SweepConfig(seed=args.seed)
    platforms = list(args.platforms) or list(platform_names())
    for name in platforms:
        if name not in platform_names():
            get_platform(name)  # raises TopologyError listing valid names

    if args.tournament_command == "run":
        runs = run_tournament(
            platforms=platforms,
            config=config,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
        table = render_winner_table(runs)
        cached = sum(1 for run in runs.values() if run.cached)
        hits = sum(
            sum(1 for c in run.backend_cached.values() if c)
            for run in runs.values()
        )
        total = sum(len(run.backend_cached) for run in runs.values())
        status = (
            f"{len(runs)} platform(s), {len(BACKENDS)} backends; "
            f"{hits}/{total} calibrations and {cached}/{len(runs)} "
            f"winner tables served from the store"
            if cache_dir is not None
            else f"{len(runs)} platform(s), {len(BACKENDS)} backends "
            "(no --cache-dir: nothing persisted)"
        )
        return table + "\n" + status
    if args.tournament_command == "report":
        if cache_dir is None:
            raise PipelineError(
                "tournament report reads stored artifacts: pass "
                "--cache-dir or set $REPRO_CACHE_DIR"
            )
        store = ArtifactStore(cache_dir)
        config_fp = config_fingerprint(config)
        stored = {}
        for name in platforms:
            tournament = load_decoded(
                store,
                tournament_key(name, config_fp, BACKENDS),
                lambda payloads: decode_tournament(
                    payloads, name, tuple(BACKENDS)
                ),
            )
            if tournament is not None:
                stored[name] = tournament
        if not stored:
            raise PipelineError(
                f"no stored tournament for seed {args.seed} in "
                f"{store.root}: run `repro tournament run --cache-dir "
                f"{cache_dir}` first"
            )
        missing = [name for name in platforms if name not in stored]
        table = render_winner_table(stored)
        if missing:
            table += "\nnot yet contested: " + ", ".join(missing)
        return table
    raise ModelError(
        f"unknown tournament command {args.tournament_command!r}"
    )


def _cmd_figure(args: argparse.Namespace) -> str:
    if args.figure_id == "fig2":
        if args.csv or args.svg:
            raise ReproError(
                "figure fig2 is drawn as ASCII only: it takes no --csv or --svg"
            )
        result = run_platform_experiment(
            "henri-subnuma",
            config=SweepConfig(seed=args.seed),
            **_pipeline_kwargs(args),
        )
        from repro.evaluation.figures import ascii_chart, stacked_figure

        view = stacked_figure(result)
        chart = ascii_chart(
            view.core_counts,
            {
                "comp_par": view.comp_parallel,
                "stacked_total": view.stacked_top(),
                "comp_alone": view.comp_alone,
            },
            title="Figure 2 — stacked memory bandwidth (model view)",
        )
        points = "\n".join(
            f"  {label}: n={x:.0f}, {y:.1f} GB/s"
            for label, (x, y) in view.points.items()
        )
        return chart + "\nAnnotated points:\n" + points
    platform_name = figure_platform(args.figure_id)
    result = run_platform_experiment(
        platform_name, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    written = []
    if args.csv:
        csv = series_to_csv(figure_series(result))
        written.append(_write_output(args.csv, csv))
    if args.svg:
        from repro.evaluation.svg import figure_svg

        written.append(_write_output(args.svg, figure_svg(result)))
    return "\n".join(written) if written else render_figure_ascii(result)


def _cmd_table1(_args: argparse.Namespace) -> str:
    return render_table1()


def _cmd_table2(args: argparse.Namespace) -> str:
    results = run_all_experiments(
        config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    return render_table2(results)


def _cmd_advise(args: argparse.Namespace) -> str:
    platform = get_platform(args.platform)
    if args.victim:
        if args.comp_bytes is not None or args.comm_bytes is not None:
            raise AdvisorError(
                "--comp-bytes/--comm-bytes do not apply to --victim "
                "(victim mode stress-tests placements, not a workload)"
            )
        from repro.advisor import advise_victim_placement

        placements = advise_victim_placement(
            platform.machine, platform.profile, top=args.top
        )
        lines = [
            f"Victim placements for {platform.name} "
            "(worst case over the stressor roster):"
        ]
        lines += [
            f"  {i + 1}. {p.describe()}" for i, p in enumerate(placements)
        ]
        return "\n".join(lines)
    if args.comp_bytes is None or args.comm_bytes is None:
        raise AdvisorError(
            "advise needs --comp-bytes and --comm-bytes (or --victim)"
        )
    result = run_platform_experiment(
        platform, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    advisor = Advisor(result.model, platform.machine)
    workload = Workload(comp_bytes=args.comp_bytes, comm_bytes=args.comm_bytes)
    recs = advisor.recommend(workload, top=args.top)
    lines = [f"Top {len(recs)} configurations for {platform.name}:"]
    lines += [f"  {i + 1}. {rec.describe()}" for i, rec in enumerate(recs)]
    return "\n".join(lines)


def _cmd_overlap(args: argparse.Namespace) -> str:
    from repro.advisor import Workload, estimate_overlap

    platform = get_platform(args.platform)
    result = run_platform_experiment(
        platform, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    estimate = estimate_overlap(
        result.model,
        Workload(comp_bytes=args.comp_bytes, comm_bytes=args.comm_bytes),
        n_cores=args.cores,
        m_comp=args.comp,
        m_comm=args.comm,
    )
    return (
        f"{platform.name}: {estimate.describe()}\n"
        f"  computation alone  {estimate.comp_alone_s * 1e3:8.2f} ms\n"
        f"  communication alone{estimate.comm_alone_s * 1e3:8.2f} ms\n"
        f"  serial             {estimate.serial_s * 1e3:8.2f} ms\n"
        f"  overlapped         {estimate.overlapped_s * 1e3:8.2f} ms\n"
        f"  savings            {estimate.savings_s * 1e3:8.2f} ms "
        f"({estimate.efficiency * 100:.0f} % of the hideable time)"
    )


def _cmd_bottleneck(args: argparse.Namespace) -> str:
    from repro.memsim import Scenario, bottleneck_report, solve_scenario

    platform = get_platform(args.platform)
    result = solve_scenario(
        platform.machine,
        platform.profile,
        Scenario(args.cores, args.comp, args.comm),
    )
    return bottleneck_report(result)


def _cmd_sensitivity(args: argparse.Namespace) -> str:
    import numpy as np

    from repro.core import parameter_sensitivity

    platform = get_platform(args.platform)
    result = run_platform_experiment(
        platform, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    ns = np.arange(1, platform.cores_per_socket + 1)
    sensitivity = parameter_sensitivity(result.model.local, core_counts=ns)
    lines = [
        f"{platform.name}: prediction sensitivity to a "
        f"{sensitivity.relative_step * 100:.0f} % parameter perturbation",
        f"{'parameter':<12} {'comm curve':>11} {'comp curve':>11}",
    ]
    for name, comm_value in sensitivity.ranked(curve="comm"):
        comp_value = sensitivity.comp_sensitivity[name]
        lines.append(
            f"{name:<12} {comm_value * 100:>10.2f}% {comp_value * 100:>10.2f}%"
        )
    return "\n".join(lines)


def _cmd_diagnose(args: argparse.Namespace) -> str:
    from repro.evaluation import render_diagnosis

    result = run_platform_experiment(
        args.platform, config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    return render_diagnosis(result)


def _cmd_intensity(args: argparse.Namespace) -> str:
    from repro.kernels import intensity_sweep

    platform = get_platform(args.platform)
    n = args.cores if args.cores is not None else platform.cores_per_socket
    points = intensity_sweep(
        platform,
        intensities=[0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
        n_cores=n,
    )
    lines = [
        f"{platform.name}: contention vs arithmetic intensity ({n} cores, "
        "local/local placement)",
        f"{'flops/byte':>10} {'core GB/s':>10} {'comm kept':>10} {'comp kept':>10}",
    ]
    for p in points:
        lines.append(
            f"{p.intensity_flops_per_byte:>10.2f} "
            f"{p.per_core_demand_gbps:>10.2f} "
            f"{p.comm_retained * 100:>9.1f}% "
            f"{p.comp_retained * 100:>9.1f}%"
        )
    return "\n".join(lines)


def _cmd_export_platform(args: argparse.Namespace) -> str:
    from repro.topology import platform_to_json

    text = platform_to_json(get_platform(args.platform))
    if args.output:
        return _write_output(args.output, text)
    return text


def _cmd_check(args: argparse.Namespace) -> str:
    from repro.evaluation.compare import render_comparison

    results = run_all_experiments(
        config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    return render_comparison(results)


def _cmd_report(args: argparse.Namespace) -> str:
    results = run_all_experiments(
        config=SweepConfig(seed=args.seed), **_pipeline_kwargs(args)
    )
    report = generate_experiments_report(results)
    if args.output:
        return _write_output(args.output, report)
    return report


def _cmd_cache(args: argparse.Namespace) -> str:
    from repro.pipeline.store import ArtifactStore

    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        raise PipelineError(
            "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    store = ArtifactStore(cache_dir)
    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            return f"cache {store.root}: empty"
        lines = [
            f"cache {store.root}: {len(entries)} entries",
            f"{'entry':<56} {'files':>5} {'bytes':>9} {'hits':>5}",
        ]
        for info in entries:
            lines.append(
                f"{info.entry_id:<56} {info.n_files:>5} "
                f"{info.payload_bytes:>9} {info.hits:>5}"
            )
        return "\n".join(lines)
    if args.cache_command == "info":
        import json as _json

        key = store.find(args.entry_id)
        manifest = store.manifest(key)
        manifest["hits_recorded"] = store.hits_recorded(key)
        return _json.dumps(manifest, indent=2, sort_keys=True)
    if args.cache_command == "clear":
        removed = store.clear()
        return f"cache {store.root}: removed {removed} entries"
    raise PipelineError(f"unknown cache command {args.cache_command!r}")


def _cmd_bench(args: argparse.Namespace) -> str:
    from repro.benchtrack import (
        AREAS,
        DEFAULT_BAND,
        BenchReport,
        compare_reports,
        load_report,
        render_comparison,
        render_comparison_markdown,
        run_areas,
        write_report,
    )

    render = (
        render_comparison_markdown
        if getattr(args, "markdown", False)
        else render_comparison
    )

    if args.band is not None and args.band < 0:
        raise BenchTrackError(f"--band must be non-negative, got {args.band}")
    default_band = DEFAULT_BAND if args.band is None else args.band
    for area in args.areas:
        if area not in AREAS:
            raise BenchTrackError(
                f"unknown benchmark area {area!r} "
                f"(known: {', '.join(sorted(AREAS))})"
            )
    names = list(args.areas) or list(AREAS)

    def gate(fresh: dict) -> str:
        lines, failures = [], []
        for name, report in fresh.items():
            baseline_path = args.baseline_dir / BenchReport.filename(name)
            if not baseline_path.exists():
                write_report(report, baseline_path)
                lines.append(
                    f"{BenchReport.filename(name)}: no baseline yet — "
                    f"blessed this run as the first one ({baseline_path})"
                )
                continue
            comparison = compare_reports(
                load_report(baseline_path), report, default_band=default_band
            )
            lines.append(render(comparison))
            failures.extend(
                f"{name}:{diff.name} ({diff.status})"
                for diff in comparison.failures
            )
        if failures:
            # The per-metric report still reaches the user: the error
            # path prints only the exception message.
            print("\n".join(lines), flush=True)
            raise BenchTrackError(
                "benchmark gate failed: " + ", ".join(failures)
            )
        return "\n".join(lines)

    if args.bench_command == "run":
        fresh = run_areas(names)
        lines = []
        for name, report in fresh.items():
            path = write_report(
                report, args.output_dir / BenchReport.filename(name)
            )
            lines.append(f"wrote {path}")
            if args.bless:
                blessed = write_report(
                    report, args.baseline_dir / BenchReport.filename(name)
                )
                lines.append(f"blessed {blessed}")
        if args.compare:
            lines.append(gate(fresh))
        return "\n".join(lines)
    if args.bench_command == "compare":
        if args.fresh_dir is not None:
            fresh = {
                name: load_report(
                    args.fresh_dir / BenchReport.filename(name)
                )
                for name in names
            }
        else:
            fresh = run_areas(names)
        return gate(fresh)
    raise BenchTrackError(f"unknown bench command {args.bench_command!r}")


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.obs import summarize_trace_file

    if args.trace_command == "summarize":
        return summarize_trace_file(args.trace_file)
    raise ObsError(f"unknown trace command {args.trace_command!r}")


def _parse_preload_keys(values: list[str]) -> list[tuple[str, int]]:
    """``PLATFORM[:SEED]`` strings -> ``(platform, seed)`` keys."""
    keys: list[tuple[str, int]] = []
    for value in values:
        platform, _, seed_text = value.partition(":")
        if not platform:
            raise ServiceError(f"malformed --preload value {value!r}")
        try:
            seed = int(seed_text) if seed_text else 0
        except ValueError:
            raise ServiceError(
                f"malformed --preload seed in {value!r}"
            ) from None
        keys.append((platform, seed))
    return keys


def _cmd_serve(args: argparse.Namespace) -> str:
    import asyncio
    import signal

    from repro.service.server import ContentionService

    cache_dir = _resolve_cache_dir(args)
    preload_keys = _parse_preload_keys(args.preload)

    async def _serve() -> None:
        service = ContentionService(
            host=args.host,
            port=args.port,
            request_timeout_s=args.timeout,
            max_concurrency=args.max_concurrency,
            batching=not args.no_batching,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
        if preload_keys:
            # Before start(): the first request must already be a hit.
            loaded = service.registry.preload(preload_keys)
            print(
                f"preloaded {len(loaded)} model(s): "
                + ", ".join(f"{p}:{s}" for p, s in preload_keys),
                flush=True,
            )
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, service.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loop; Ctrl-C still raises
        print(
            f"serving contention predictions on "
            f"http://{service.host}:{service.port} "
            f"(seed-keyed registry, batching "
            f"{'off' if args.no_batching else 'on'})",
            flush=True,
        )
        try:
            await service.run_until_shutdown()
        except KeyboardInterrupt:
            pass
        await service.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return "shutdown complete"


def _cmd_cluster(args: argparse.Namespace) -> str:
    import json as _json

    if args.cluster_command == "serve":
        return _cmd_cluster_serve(args)
    if args.cluster_command == "status":
        from repro.service.client import ServiceClient

        client = ServiceClient(args.host, args.port, timeout=args.timeout)
        health = client.healthz()
        lines = [
            f"cluster at http://{args.host}:{args.port}: {health['status']} "
            f"({health['workers_alive']} alive, shard-map "
            f"v{health['shard_version']})",
            f"{'worker':<8} {'address':<22} {'pid':>7} {'state':<8} "
            f"{'restarts':>8}",
        ]
        for worker in health["workers"]:
            state = (
                "retired"
                if worker["retired"]
                else ("up" if worker["alive"] else "down")
            )
            lines.append(
                f"{worker['worker_id']:<8} "
                f"{worker['host']}:{worker['port']:<16} "
                f"{worker['pid'] or '-':>7} {state:<8} "
                f"{worker['restarts']:>8}"
            )
        return "\n".join(lines)
    if args.cluster_command == "loadgen":
        from repro.cluster import (
            OverloadTarget,
            PredictWorkload,
            SloTarget,
            run_load,
        )

        workload = PredictWorkload(
            host=args.host,
            port=args.port,
            platform=args.platform,
            seed=args.seed,
            timeout_s=args.timeout,
        )
        report = run_load(
            workload, total=args.total, concurrency=args.concurrency
        )
        if args.overload:
            label = "overload"
            verdict = report.overload_verdict(
                OverloadTarget(
                    min_shed_rate=args.min_shed_rate,
                    error_budget=args.error_budget,
                    p99_ms=args.p99_ms,
                )
            )
        else:
            label = "slo"
            verdict = report.slo_verdict(
                SloTarget(
                    p99_ms=args.p99_ms,
                    error_budget=args.error_budget,
                    max_shed_rate=args.max_shed_rate,
                )
            )
        output = _json.dumps(
            {"load": report.summary(), label: verdict}, indent=2
        )
        if args.check and not verdict["ok"]:
            print(output, flush=True)
            failed = [
                name
                for name, check in verdict["checks"].items()
                if not check["ok"]
            ]
            raise ClusterError(
                f"{label.upper()} violated: " + ", ".join(failed)
            )
        return output
    raise ClusterError(f"unknown cluster command {args.cluster_command!r}")


def _cmd_cluster_serve(args: argparse.Namespace) -> str:
    import asyncio
    import signal

    from repro.cluster import ClusterRouter, Supervisor

    cache_dir = _resolve_cache_dir(args)
    if cache_dir is None:
        raise ClusterError(
            "cluster serve needs a shared artifact cache: pass --cache-dir "
            "or set $REPRO_CACHE_DIR"
        )
    supervisor = Supervisor(
        workers=args.workers,
        replication=args.replication,
        cache_dir=cache_dir,
        host=args.host,
        preload=_parse_preload_keys(args.preload),
        request_timeout_s=args.timeout,
        max_concurrency=args.max_concurrency,
        max_restarts=args.max_restarts,
    )
    supervisor.start()
    try:
        supervisor.wait_ready()

        async def _serve() -> None:
            router = ClusterRouter(
                supervisor, host=args.host, port=args.port
            )
            await router.start()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, router.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-Unix event loop; Ctrl-C still raises
            print(
                f"routing {len(supervisor.shardmap)} workers "
                f"(replication {args.replication}) on "
                f"http://{router.host}:{router.port}",
                flush=True,
            )
            try:
                await router.run_until_shutdown()
            except KeyboardInterrupt:
                pass
            await router.shutdown()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass
    finally:
        supervisor.stop()
    return "cluster shutdown complete"


def _cmd_query(args: argparse.Namespace) -> str:
    import json as _json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    if args.query_command == "healthz":
        return _json.dumps(client.healthz(), indent=2)
    if args.query_command == "metrics":
        return _json.dumps(client.metrics(), indent=2)
    if args.query_command == "calibrate":
        result = client.calibrate(args.platform, seed=args.seed)
        return _json.dumps(result, indent=2)
    if args.query_command == "predict":
        result = client.predict(
            args.platform,
            n=args.cores,
            m_comp=args.comp,
            m_comm=args.comm,
            seed=args.seed,
            backend=args.backend,
        )
        note = f" [backend {args.backend}]" if args.backend else ""
        return (
            f"{args.platform}: n={args.cores}, comp data on node "
            f"{args.comp}, comm data on node {args.comm}{note}\n"
            f"  predicted computation bandwidth (overlapped): "
            f"{result['comp_parallel']:.2f} GB/s\n"
            f"  predicted communication bandwidth (overlapped): "
            f"{result['comm_parallel']:.2f} GB/s\n"
            f"  predicted computation bandwidth (alone): "
            f"{result['comp_alone']:.2f} GB/s"
        )
    if args.query_command == "advise":
        if args.victim:
            if args.comp_bytes is not None or args.comm_bytes is not None:
                raise ServiceError(
                    "--comp-bytes/--comm-bytes do not apply to --victim"
                )
            if args.backend is not None:
                raise ServiceError("--backend does not apply to --victim")
            result = client.advise(
                args.platform, victim=True, top=args.top, seed=args.seed
            )
            lines = [
                f"Victim placements for {args.platform} "
                "(worst case over the stressor roster):"
            ]
            for i, p in enumerate(result["placements"]):
                lines.append(
                    f"  {i + 1}. comm data on node {p['m_comm']}: worst case "
                    f"{p['worst_gbps']:.1f}/{p['baseline_gbps']:.1f} GB/s "
                    f"(-{p['degradation'] * 100.0:.0f}% under "
                    f"{p['worst_stressor']})"
                )
            return "\n".join(lines)
        if args.comp_bytes is None or args.comm_bytes is None:
            raise ServiceError(
                "query advise needs --comp-bytes and --comm-bytes "
                "(or --victim)"
            )
        result = client.advise(
            args.platform,
            comp_bytes=args.comp_bytes,
            comm_bytes=args.comm_bytes,
            top=args.top,
            seed=args.seed,
            backend=args.backend,
        )
        recs = result["recommendations"]
        lines = [f"Top {len(recs)} configurations for {args.platform}:"]
        for i, rec in enumerate(recs):
            lines.append(
                f"  {i + 1}. {rec['n_cores']} cores, comp data on node "
                f"{rec['m_comp']}, comm data on node {rec['m_comm']}: "
                f"makespan {rec['makespan_s'] * 1e3:.2f} ms "
                f"(comp {rec['comp_gbps']:.1f} GB/s, "
                f"comm {rec['comm_gbps']:.1f} GB/s)"
            )
        return "\n".join(lines)
    raise ServiceError(f"unknown query command {args.query_command!r}")


_COMMANDS = {
    "platforms": _cmd_platforms,
    "topo": _cmd_topo,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "predict": _cmd_predict,
    "tournament": _cmd_tournament,
    "figure": _cmd_figure,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "advise": _cmd_advise,
    "overlap": _cmd_overlap,
    "bottleneck": _cmd_bottleneck,
    "sensitivity": _cmd_sensitivity,
    "diagnose": _cmd_diagnose,
    "intensity": _cmd_intensity,
    "export-platform": _cmd_export_platform,
    "check": _cmd_check,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "query": _cmd_query,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro import obs

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        configure_logging(args.log_level)
    trace_path: Path | None = getattr(args, "trace", None)
    tracer = obs.enable() if trace_path is not None else None
    try:
        _check_outputs(args)
        output = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    finally:
        if tracer is not None:
            obs.disable()
            try:
                # Written even when the command failed: the trace of a
                # failed run is exactly what you want to look at.
                obs.write_trace(tracer, trace_path)
                print(f"wrote trace to {trace_path}", file=sys.stderr)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
    try:
        print(output)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
