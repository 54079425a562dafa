"""CLI tests (argument parsing, command outputs, exit codes)."""

import json
import logging

import pytest

from repro import errors, obs
from repro.cli import EXIT_CODES, build_parser, exit_code_for, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_platform_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topo", "bogus"])

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_compile_is_not_a_command(self, capsys):
        # Models are built with their tables; there is nothing to compile.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "occigen"])
        assert "invalid choice: 'compile'" in capsys.readouterr().err


class TestCommands:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "henri" in out and "occigen" in out

    def test_topo(self, capsys):
        assert main(["topo", "diablo"]) == 0
        out = capsys.readouterr().out
        assert "Infinity Fabric" in out

    def test_sweep_single_placement(self, capsys):
        assert main(["sweep", "occigen", "--placement", "0", "0"]) == 0
        out = capsys.readouterr().out
        assert "comp_alone" in out
        assert len(out.strip().splitlines()) == 15  # header + 14 cores

    def test_sweep_grid_csv_stdout(self, capsys):
        assert main(["sweep", "occigen"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("platform,m_comp,m_comm")

    def test_sweep_csv_file(self, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        assert main(["sweep", "occigen", "--csv", str(target)]) == 0
        assert target.exists()
        assert "occigen" in target.read_text()

    def test_calibrate(self, capsys):
        assert main(["calibrate", "occigen"]) == 0
        out = capsys.readouterr().out
        assert "local" in out and "remote" in out and "alpha" in out

    def test_predict(self, capsys):
        assert main(
            ["predict", "occigen", "-n", "8", "--comp", "0", "--comm", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "predicted computation bandwidth" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_figure_ascii(self, capsys):
        assert main(["figure", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "occigen" in out
        assert "comm_par(meas)" in out

    def test_figure_csv(self, tmp_path, capsys):
        target = tmp_path / "fig6.csv"
        assert main(["figure", "fig6", "--csv", str(target)]) == 0
        assert target.read_text().startswith("m_comp,m_comm,series")

    def test_figure_svg(self, tmp_path, capsys):
        target = tmp_path / "fig6.svg"
        assert main(["figure", "fig6", "--svg", str(target)]) == 0
        import xml.etree.ElementTree as ET

        ET.fromstring(target.read_text())

    def test_fig2(self, capsys):
        assert main(["figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Annotated points" in out
        assert "Tpar_max" in out

    def test_advise(self, capsys):
        assert main(
            [
                "advise",
                "occigen",
                "--comp-bytes",
                "1e9",
                "--comm-bytes",
                "1e8",
                "--top",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Top 2 configurations" in out

    def test_predict_error_reported(self, capsys):
        """Out-of-range NUMA node -> clean error, PlacementError exit code."""
        code = main(
            ["predict", "occigen", "-n", "2", "--comp", "9", "--comm", "0"]
        )
        assert code == EXIT_CODES[errors.PlacementError] == 7
        assert "error:" in capsys.readouterr().err

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(target)]) == 0
        text = target.read_text()
        assert "# EXPERIMENTS" in text
        assert "pyxis" in text

    def test_bottleneck(self, capsys):
        assert main(["bottleneck", "henri", "-n", "16", "--comp", "0", "--comm", "0"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck: ctrl:0" in out

    def test_bottleneck_contention_free(self, capsys):
        assert main(["bottleneck", "henri", "-n", "2", "--comp", "0", "--comm", "1"]) == 0
        assert "contention-free" in capsys.readouterr().out

    def test_overlap(self, capsys):
        assert main(
            [
                "overlap", "occigen", "-n", "8", "--comp", "0", "--comm", "1",
                "--comp-bytes", "1e10", "--comm-bytes", "2e9",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "efficiency" in out and "overlapped" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "occigen"]) == 0
        out = capsys.readouterr().out
        assert "b_comm_seq" in out and "alpha" in out

    def test_intensity(self, capsys):
        assert main(["intensity", "occigen", "-n", "14"]) == 0
        out = capsys.readouterr().out
        assert "flops/byte" in out
        assert "comm kept" in out

    def test_export_platform(self, tmp_path, capsys):
        target = tmp_path / "henri.json"
        assert main(["export-platform", "henri", "--output", str(target)]) == 0
        from repro.topology import platform_from_json

        restored = platform_from_json(target.read_text())
        assert restored.name == "henri"

    def test_diagnose(self, capsys):
        assert main(["diagnose", "occigen"]) == 0
        out = capsys.readouterr().out
        assert "model-limits diagnosis" in out

    def test_export_platform_stdout(self, capsys):
        assert main(["export-platform", "diablo"]) == 0
        out = capsys.readouterr().out
        assert '"format_version"' in out

    def test_check(self, capsys):
        assert main(["--seed", "1", "check"]) == 0
        out = capsys.readouterr().out
        assert "7/7 structural claims hold" in out


class TestExitCodes:
    """Every ReproError subclass maps to its own process exit code."""

    def test_every_subclass_has_a_distinct_code(self):
        subclasses = [
            getattr(errors, name)
            for name in errors.__all__
        ]
        codes = [exit_code_for(cls("boom")) for cls in subclasses]
        assert len(set(codes)) == len(subclasses), (
            "exit codes collide: "
            f"{dict(zip([c.__name__ for c in subclasses], codes))}"
        )
        assert all(1 <= code <= 125 for code in codes)

    def test_most_derived_class_wins(self):
        # PlacementError is a ModelError; ArbitrationError a SimulationError.
        assert exit_code_for(errors.PlacementError("x")) == 7
        assert exit_code_for(errors.ModelError("x")) == 6
        assert exit_code_for(errors.ArbitrationError("x")) == 4
        assert exit_code_for(errors.SimulationError("x")) == 3

    def test_unmapped_subclass_falls_back_to_base(self):
        class CustomError(errors.CalibrationError):
            pass

        assert exit_code_for(CustomError("x")) == EXIT_CODES[
            errors.CalibrationError
        ]

    def test_generic_repro_error_exits_1(self):
        assert exit_code_for(errors.ReproError("x")) == 1

    def test_advisor_error_exit_code(self, capsys):
        code = main(
            [
                "advise", "occigen",
                "--comp-bytes", "0", "--comm-bytes", "0",
            ]
        )
        assert code == EXIT_CODES[errors.AdvisorError] == 10
        assert "nothing to advise" in capsys.readouterr().err

    def test_unreachable_service_exit_code(self, capsys):
        # Port 1 is never listening; the client maps it to ServiceError.
        code = main(
            ["query", "healthz", "--port", "1", "--timeout", "0.5"]
        )
        assert code == EXIT_CODES[errors.ServiceError] == 11
        assert "cannot reach service" in capsys.readouterr().err


class TestCacheCommand:
    def test_missing_cache_dir_exits_12(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["cache", "ls"])
        assert code == EXIT_CODES[errors.PipelineError] == 12
        assert "no cache directory" in capsys.readouterr().err

    def test_ls_empty(self, tmp_path, capsys):
        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_ls_info_clear_round_trip(self, tmp_path, capsys):
        # Populate the cache through an experiment-running command.
        assert main(
            ["calibrate", "henri", "--cache-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()

        assert main(["cache", "ls", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "henri/measure-v" in out and "henri/calibrate-v" in out
        entry_id = next(
            line.split()[0]
            for line in out.splitlines()
            if line.startswith("henri/calibrate")
        )

        assert main(
            ["cache", "info", entry_id, "--cache-dir", str(tmp_path)]
        ) == 0
        manifest = out = capsys.readouterr().out
        assert '"stage": "calibrate"' in manifest
        assert '"sweep_config"' in manifest

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_info_unknown_entry_exits_12(self, tmp_path, capsys):
        code = main(
            ["cache", "info", "nope/measure-v1-feed", "--cache-dir", str(tmp_path)]
        )
        assert code == 12
        assert "no cache entry" in capsys.readouterr().err

    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_warm_cli_run_is_identical(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(["predict", "henri", "-n", "8", "--comp", "0",
                     "--comm", "1", *cache]) == 0
        cold = capsys.readouterr().out
        assert main(["predict", "henri", "-n", "8", "--comp", "0",
                     "--comm", "1", *cache]) == 0
        assert capsys.readouterr().out == cold

    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["table2", "--jobs", "0"])
        assert args.jobs == 0
        assert args.cache_dir is None


class TestTraceFlag:
    """``--trace PATH`` around experiment commands + ``trace summarize``."""

    @pytest.fixture(autouse=True)
    def _no_tracer_leaks(self):
        obs.disable()
        yield
        obs.disable()

    def test_trace_writes_jsonl_covering_stages(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["calibrate", "occigen", "--cache-dir", str(tmp_path / "c"),
             "--trace", str(trace)]
        ) == 0
        assert "wrote trace" in capsys.readouterr().err
        assert not obs.is_enabled()  # switch restored after the command
        _meta, spans, counters = obs.load_jsonl(trace.read_text())
        names = {s["name"] for s in spans}
        for stage in ("measure", "calibrate", "predict", "score"):
            assert f"pipeline.{stage}" in names
        assert {c["name"] for c in counters} >= {"store.miss", "store.store"}

    def test_trace_json_suffix_writes_chrome(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["calibrate", "occigen", "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e["ph"] == "X" for e in events)

    def test_summarize_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["calibrate", "occigen", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.calibrate" in out
        assert "wall %" in out

    def test_summarize_missing_file_exits_13(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_CODES[errors.ObsError] == 13
        assert "error:" in capsys.readouterr().err

    def test_trace_written_even_when_command_fails(self, tmp_path, capsys):
        trace = tmp_path / "fail.jsonl"
        code = main(
            ["predict", "occigen", "-n", "2", "--comp", "9", "--comm", "0",
             "--trace", str(trace)]
        )
        assert code == EXIT_CODES[errors.PlacementError]
        assert trace.exists()


class TestLogLevelFlag:
    def test_parses_and_configures(self):
        assert main(["--log-level", "debug", "platforms"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "platforms"])

    def test_debug_run_emits_subsystem_records(self, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            assert main(["--log-level", "debug", "topo", "henri"]) == 0
        assert any(r.name == "repro.topology" for r in caplog.records)


class TestServeQueryParsing:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8080 and args.host == "127.0.0.1"
        assert not args.no_batching
        assert args.cache_dir is None

    def test_query_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_query_predict_args(self):
        args = build_parser().parse_args(
            [
                "query", "predict", "henri",
                "-n", "14", "--comp", "0", "--comm", "1",
                "--port", "9999",
            ]
        )
        assert args.query_command == "predict"
        assert (args.cores, args.comp, args.comm) == (14, 0, 1)
        assert args.port == 9999

    def test_query_unknown_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "calibrate", "bogus"])


class TestClusterParsing:
    def test_cluster_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_cluster_serve_defaults(self):
        args = build_parser().parse_args(["cluster", "serve"])
        assert args.cluster_command == "serve"
        assert args.workers == 3 and args.replication == 2
        assert args.max_restarts == 3
        assert args.preload == []

    def test_cluster_serve_preload_repeatable(self):
        args = build_parser().parse_args(
            [
                "cluster", "serve",
                "--workers", "4",
                "--preload", "occigen",
                "--preload", "henri:7",
            ]
        )
        assert args.workers == 4
        assert args.preload == ["occigen", "henri:7"]

    def test_serve_preload_flag(self):
        args = build_parser().parse_args(["serve", "--preload", "occigen:2"])
        assert args.preload == ["occigen:2"]

    def test_preload_key_parsing(self):
        from repro.cli import _parse_preload_keys

        assert _parse_preload_keys(["occigen", "henri:7"]) == [
            ("occigen", 0),
            ("henri", 7),
        ]
        with pytest.raises(errors.ServiceError, match="malformed"):
            _parse_preload_keys([":3"])
        with pytest.raises(errors.ServiceError, match="seed"):
            _parse_preload_keys(["occigen:x"])

    def test_cluster_loadgen_platform_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "loadgen", "--platform", "bogus"])

    def test_cluster_loadgen_overload_flags(self):
        args = build_parser().parse_args(["cluster", "loadgen"])
        assert not args.overload
        assert args.min_shed_rate == 0.01
        args = build_parser().parse_args(
            ["cluster", "loadgen", "--overload", "--min-shed-rate", "0.2"]
        )
        assert args.overload
        assert args.min_shed_rate == 0.2

    def test_cluster_serve_without_cache_dir_fails(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["cluster", "serve"])
        assert code == EXIT_CODES[errors.ClusterError] == 15
        assert "cache" in capsys.readouterr().err

    def test_cluster_status_unreachable_router(self, capsys):
        code = main(
            ["cluster", "status", "--port", "1", "--timeout", "0.5"]
        )
        assert code == EXIT_CODES[errors.ServiceError] == 11
        assert "cannot reach service" in capsys.readouterr().err


class TestTournamentCommand:
    def test_run_then_report_from_the_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["tournament", "run", "henri", "--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "winner" in first and "regimes; wins:" in first
        assert "threshold" in first
        # Second run: every calibration and winner table is a hit.
        assert main(["tournament", "run", "henri", "--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "6/6 calibrations and 1/1 winner tables" in second
        # Report renders from artifacts without recomputing.
        assert main(
            ["tournament", "report", "henri", "--cache-dir", cache]
        ) == 0
        report = capsys.readouterr().out
        assert "regimes; wins:" in report

    def test_report_without_store_exits_12(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(["tournament", "report", "henri"])
        assert code == EXIT_CODES[errors.PipelineError] == 12
        assert "stored artifacts" in capsys.readouterr().err

    def test_report_uncontested_platform_noted(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["tournament", "run", "henri", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(
            ["tournament", "report", "henri", "occigen", "--cache-dir", cache]
        ) == 0
        out = capsys.readouterr().out
        assert "not yet contested: occigen" in out


class TestPredictBackendFlag:
    def test_named_backend_noted(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(
            [
                "predict", "occigen", "-n", "8", "--comp", "0", "--comm", "1",
                "--backend", "naive",
            ]
        ) == 0
        assert "[backend naive]" in capsys.readouterr().out

    def test_tournament_backend_names_the_winner(self, tmp_path, capsys):
        assert main(
            [
                "predict", "occigen", "-n", "8", "--comp", "0", "--comm", "1",
                "--backend", "tournament",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        assert "[backend tournament -> " in capsys.readouterr().out

    def test_unknown_backend_exits_6(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        code = main(
            [
                "predict", "occigen", "-n", "8", "--comp", "0", "--comm", "1",
                "--backend", "resnet",
            ]
        )
        assert code == EXIT_CODES[errors.ModelError] == 6
        assert "registered" in capsys.readouterr().err
