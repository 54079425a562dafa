"""Run ``repro serve`` or ``repro cluster serve`` with per-layer spans.

    python benchmarks/e2e/traced_serve.py SPANS_DIR serve --port 0 ...
    python benchmarks/e2e/traced_serve.py SPANS_DIR cluster serve ...

Installs the span wrappers of :mod:`layers`, then hands the remaining
arguments to ``repro.cli.main`` unchanged.  Under ``cluster serve`` the
supervisor starts its workers through this same launcher.  Each process
writes ``SPANS_DIR/<role>-<pid>.jsonl`` when its command returns, which
for a server is after SIGTERM has drained it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import layers


def _launch_workers_traced(spans_dir: Path) -> None:
    """Make ``cluster serve`` start each worker through this launcher."""
    import repro.cluster
    from repro.cluster.supervisor import Supervisor

    class TracedSupervisor(Supervisor):
        def worker_command(self, handle):
            command = super().worker_command(handle)
            # [python, -m, repro, serve, ...] -> [python, launcher, dir, serve, ...]
            launcher = str(Path(__file__).resolve())
            return [command[0], launcher, str(spans_dir), *command[3:]]

    repro.cluster.Supervisor = TracedSupervisor


def main(argv: list[str]) -> int:
    spans_dir, command = Path(argv[0]), argv[1:]
    tracer, epoch_s = layers.install()
    role = "router" if command[:2] == ["cluster", "serve"] else "server"
    if role == "router":
        _launch_workers_traced(spans_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(command)
    finally:
        layers.dump(
            tracer, epoch_s, spans_dir / f"{role}-{os.getpid()}.jsonl", role
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
