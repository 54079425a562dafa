"""End-to-end benchmark of the prediction service and the simulator.

    python3 benchmarks/e2e/run.py --workload scalar --seed 1 --seconds 12 --trace 0

Runs one workload (see README.md for why each exists):

* ``scalar``    -- ``repro serve``; two connections, scalar ``/predict``.
* ``bulk-hol``  -- same server; one connection sends 10k-row bulk
  requests while the other sends scalar ones (head-of-line blocking).
* ``routed``    -- ``repro cluster serve`` with one worker; scalar
  requests beside 4k-row bulk requests, through the router.
* ``reproduce`` -- Table II cold then warm, plus the tournaments.
* ``tenants``   -- seeded multi-tenant LLC scenarios.

The served workloads start the shipped entry points as child processes
and drive them in a closed loop, so the load generator never shares an
interpreter lock with the server.  The offline ones run in a child
process too (``offline.py``), so set-up can be timed from launch.

``--trace 0`` prints the end-to-end metrics, with every process on one
CPU and times scaled to a reference CPU (``window_metrics``).
``--trace 1`` runs the workload untraced and traced (``layers.py``),
taking turns on one CPU, and prints the per-layer metrics.
Every answer is checked; the last line of stdout is the result as one
JSON object.  The process exits non-zero if any answer was wrong.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import queue
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch files; ``bench-results/`` is ignored by git.
OUT = ROOT / "bench-results" / "e2e"

SERVED = ("scalar", "bulk-hol", "routed")
OFFLINE = ("reproduce", "tenants")
WORKLOADS = SERVED + OFFLINE
#: Each end-to-end metric with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)
#: Printed in the detail line only: too unsteady to bound (README.md,
#: "Bounds").
DIAGNOSTICS = (("latency_p99_ms", "ms"),)
SETUP_REPEATS = 3
WARMUP_S = 2.0
BOOT_TIMEOUT_S = 90.0
RUN_TIMEOUT_S = 170
PRELOADS = ("occigen:0", "henri-subnuma:0")
SCALAR_POOL = 256
BULK_POOL = 3
BULK_ROWS = {"bulk-hol": 10_000, "routed": 4_000}
#: Every bulk response's status is checked; every n-th one's answers.
CHECK_EVERY_BULK = 10
#: Times are scaled to the reference CPU by the host speed sampled
#: every ``PROBE_EVERY_S`` during them (``HostSpeed``).
PROBE_EVERY_S = 0.04
PROBE_MARGIN_S = 0.1
#: Turn length when two servers take turns (traced runs).  A bulk turn
#: holds several bulk requests, so the scalar connection still waits
#: behind them as it does untraced.
TURN_S = {"scalar": 0.05, "bulk-hol": 0.5, "routed": 0.5}
OFFLINE_TURN_S = 0.5


class BenchError(Exception):
    """The benchmark could not run the workload."""


def _interrupted(signum, _frame):
    """Turn the alarm and SIGTERM into an error, so children get stopped."""
    if signum == signal.SIGALRM:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")
    raise BenchError(f"stopped by signal {signum}")


#: Every child started, so none outlives the run whatever fails.
_children: list["Child"] = []


# ---- child processes -------------------------------------------------------------


class Child:
    """A process under test, read line by line, stopped with SIGTERM."""

    def __init__(self, command: list[str], *, stdin: bool = False) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        # A random hash seed lays dicts out differently in every process:
        # two identical servers then differed in speed by up to 11 %.
        env["PYTHONHASHSEED"] = "0"
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        _children.append(self)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_line(self, pattern: str, timeout: float) -> re.Match:
        """The first stdout line matching ``pattern``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except queue.Empty:
                raise BenchError(f"no {pattern!r} within {timeout:g} s") from None
            if line is None:
                raise BenchError(
                    f"{self.proc.args[1:4]} exited with code "
                    f"{self.proc.wait()} before printing {pattern!r}"
                )
            match = re.search(pattern, line)
            if match:
                return match

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM, wait, then kill whatever is left of its session."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=10)
        if self.proc.stdin is not None:
            self.proc.stdin.close()


@dataclass
class Server:
    child: Child
    port: int
    ready_at: float  # perf_counter seconds
    scratch: Path | None

    def stop(self) -> None:
        self.child.stop()
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

    @property
    def launched(self) -> tuple[float, float]:
        """When it was started and when it accepted requests."""
        return self.child.started, self.ready_at

    def pids(self) -> list[int]:
        """The server's process, then its children (a router's workers)."""
        pid = self.child.proc.pid
        children = []
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit() and _stat(int(entry.name))[1:2] == [str(pid)]:
                children.append(int(entry.name))
        return [pid, *children]

    def cpu_s(self) -> float:
        """CPU seconds the server's processes have used so far."""
        ticks = 0
        for pid in self.pids():
            fields = _stat(pid)
            ticks += int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name, from
    the state; [] for a process that is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return []
    return text.rsplit(")", 1)[1].split()


class HostSpeed:
    """How slow the run's CPU was, sampled by ``hostspeed.py``.

    A sample's slowness is the CPU time of the reference loop over
    ``REFERENCE_S``: 1 on the reference CPU, 1.6 on one 1.6 times
    slower.  While the CPU is ``s`` times slower, the program advances
    ``1/s`` as far per second as it would on the reference CPU.  So
    ``reference_s(start, end)`` is the interval's length times the mean
    of ``1/slowness`` over the samples taken in it, or within
    ``PROBE_MARGIN_S`` of it.  When the CPU flips between two speeds,
    this harmonic mean moves with the share of time spent at each,
    where a median jumps from one speed to the other.
    """

    def __init__(self) -> None:
        self._child = Child(
            [sys.executable, str(HERE / "hostspeed.py"), repr(PROBE_EVERY_S)]
        )
        self._starts: list[float] = []
        self._speed_sums = [0.0]  # prefix sums of 1/slowness

    def stop(self) -> None:
        self._child.stop()
        samples = json.loads(self._child.wait_line(r"^\[", 10).string)
        if not samples:
            raise BenchError("the speed sampler took no sample")
        self._starts = [start for start, _ in samples]
        for _, cpu_s in samples:
            self._speed_sums.append(self._speed_sums[-1] + REFERENCE_S / cpu_s)
        self.slowness = len(samples) / self._speed_sums[-1]

    def reference_s(self, start: float, end: float) -> float:
        """How long [start, end] would have taken on the reference CPU."""
        lo = bisect.bisect_left(self._starts, start - PROBE_MARGIN_S)
        hi = bisect.bisect_left(self._starts, end + PROBE_MARGIN_S)
        if hi == lo:
            return (end - start) / self.slowness
        speed = (self._speed_sums[hi] - self._speed_sums[lo]) / (hi - lo)
        return (end - start) * speed

    def launch_s(self, launches: list[tuple[float, float]]) -> tuple[float, float]:
        """The median time from start to ready of ``launches``, scaled
        to the reference CPU and as measured."""
        return (
            statistics.median(
                self.reference_s(start, ready) for start, ready in launches
            ),
            statistics.median(ready - start for start, ready in launches),
        )


def boot(workload: str, spans_dir: Path | None = None) -> Server:
    """Start the workload's server and wait until it accepts requests."""
    args = ["serve", "--port", "0"]
    scratch = None
    if workload == "routed":
        scratch = Path(tempfile.mkdtemp(prefix="cluster-", dir=OUT))
        args = ["cluster", "serve", "--port", "0", "--workers", "1",
                "--replication", "1", "--cache-dir", str(scratch)]
    for key in PRELOADS:
        args += ["--preload", key]
    launcher = ["-m", "repro"]
    if spans_dir is not None:
        launcher = [str(HERE / "traced_serve.py"), str(spans_dir)]
    child = Child([sys.executable, *launcher, *args])
    match = child.wait_line(r"on http://[\d.]+:(\d+)", BOOT_TIMEOUT_S)
    return Server(child, int(match.group(1)), time.perf_counter(), scratch)


# ---- served load -----------------------------------------------------------------


@dataclass
class Sample:
    """One request of a closed-loop connection."""

    kind: str  # "scalar" or "bulk"
    index: int  # into that kind's input pool
    start: float
    connected: float
    end: float
    status: int = 0
    raw: bytes | None = None
    error: str | None = None
    phase: int = 0  # which server answered, when a run drives two


def _exchange(port: int, wire: bytes) -> tuple[float, float, bytes]:
    """One request on a fresh connection, read up to its last byte."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        connected = time.perf_counter()
        sock.sendall(wire)
        buf = bytearray()
        expected = None
        while expected is None or len(buf) < expected:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            buf += chunk
            if expected is None and (head := buf.find(b"\r\n\r\n")) >= 0:
                length = re.search(rb"(?i)content-length:\s*(\d+)", buf[:head])
                expected = head + 4 + int(length.group(1)) if length else None
        end = time.perf_counter()
    if expected is not None and len(buf) < expected:
        raise ConnectionError(f"response cut at {len(buf)} of {expected} bytes")
    return connected, end, bytes(buf)


def _status(raw: bytes) -> int:
    try:
        return int(raw[:16].split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0


def _body(raw: bytes) -> bytes:
    return raw.split(b"\r\n\r\n", 1)[1]


def http_post(payload: bytes) -> bytes:
    head = (
        "POST /predict HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + payload


def _request(port, kind, index, wire, keep, phase=0) -> Sample:
    """One request; its raw response is kept only when ``keep``."""
    sample = Sample(kind, index, time.perf_counter(), 0.0, 0.0, phase=phase)
    try:
        sample.connected, sample.end, raw = _exchange(port, wire)
    except OSError as exc:
        sample.error = repr(exc)
    else:
        sample.status = _status(raw)
        sample.raw = raw if keep else None
    return sample


def _closed_loop(ports, kind, wires, offset, stop_at, turns, turn_s,
                 out) -> None:
    """Send the next request only after the previous one is answered.

    With several ports the servers take turns of ``turn_s``, so they
    see the same host conditions.  Every connection finishes its
    request and waits for the others at the ``turns`` barrier before
    all move on together: moving one while the other's bulk request
    runs would spare the first the wait behind it.  A turn therefore
    holds at least one request of each connection.
    """
    i = phase = 0
    turn_end = time.perf_counter() + turn_s
    while (now := time.perf_counter()) < stop_at:
        if len(ports) > 1 and now >= turn_end:
            try:
                turns.wait()
            except threading.BrokenBarrierError:
                break  # another connection reached the end
            phase = (phase + 1) % len(ports)
            turn_end = time.perf_counter() + turn_s
        index = (offset + i) % len(wires)
        keep = kind == "scalar" or i < len(wires) or i % CHECK_EVERY_BULK == 0
        out.append(
            _request(ports[phase], kind, index, wires[index], keep, phase)
        )
        i += 1
    turns.abort()


def sweep(port: int, payloads: dict) -> list[Sample]:
    """Every pooled input once more, so each run checks the same answers."""
    return [
        _request(port, kind, index, http_post(payload), True)
        for kind, bodies in payloads.items()
        for index, payload in enumerate(bodies)
    ]


def drive(ports: list[int], streams, seconds: float,
          turn_s: float = 0.0) -> dict:
    """Warm up, for no longer than the window, then run both
    connections for ``seconds``; several servers take turns of
    ``turn_s``."""
    samples: list[list[Sample]] = [[] for _ in streams]
    warm_until = time.perf_counter() + min(WARMUP_S, seconds)
    window = (warm_until, warm_until + seconds)
    turns = threading.Barrier(len(streams))
    threads = [
        threading.Thread(
            target=_closed_loop,
            args=(ports, kind, wires, offset, window[1], turns, turn_s,
                  samples[n]),
        )
        for n, (kind, wires, offset) in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    time.sleep(max(0.0, window[0] - time.perf_counter()))
    cpu_start = time.process_time()
    time.sleep(max(0.0, window[1] - time.perf_counter()))
    cpu_share = (time.process_time() - cpu_start) / seconds
    for thread in threads:
        thread.join()
    return {
        "samples": [s for stream in samples for s in stream],
        "window": window,
        "cpu_share": cpu_share,
    }


def served_ops(load: dict, rows: int, phase: int = 0) -> list[tuple]:
    """(start, end, items, is a latency sample) of each request that
    server ``phase`` answered.  The requests that carry the items, the
    bulk ones where there are any, are the latency samples."""
    work = "bulk" if rows else "scalar"
    return [
        (s.start, s.end, 1 if s.kind == "scalar" else rows, s.kind == work)
        for s in load["samples"]
        if s.error is None and s.status == 200 and s.phase == phase
    ]


def get_metrics(port: int) -> list[dict]:
    """``/metrics`` of the server, or of the router and its workers."""
    wire = (
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    snapshot = json.loads(_body(_exchange(port, wire)[2]))
    if "router" in snapshot:
        return [snapshot["router"], *snapshot["workers"].values()]
    return [snapshot]


# ---- served inputs and their check -----------------------------------------------


def served_inputs(workload: str, seed: int) -> dict:
    """The seeded request pools of one served workload."""
    from repro.topology import get_platform

    rng = random.Random(seed)
    shapes = {}
    for key in PRELOADS:
        machine = get_platform(key.split(":")[0]).machine
        shapes[key.split(":")[0]] = (machine.cores_per_socket, machine.n_numa_nodes)

    def query(platform: str) -> dict:
        cores, nodes = shapes[platform]
        return {
            "n": rng.randint(1, cores),
            "m_comp": rng.randrange(nodes),
            "m_comm": rng.randrange(nodes),
        }

    scalar = []
    for _ in range(SCALAR_POOL):
        platform = "occigen" if rng.random() < 0.8 else "henri-subnuma"
        scalar.append({"platform": platform, "seed": 0, **query(platform)})
    bulk = [
        {
            "platform": "occigen",
            "seed": 0,
            "queries": [query("occigen") for _ in range(BULK_ROWS[workload])],
        }
        for _ in range(BULK_POOL if workload in BULK_ROWS else 0)
    ]
    return {"scalar": scalar, "bulk": bulk}


def expected_answers(inputs: dict) -> dict:
    """What a correct server answers, from the compiled model in process."""
    from repro.bench.config import SweepConfig
    from repro.core.compiled import CompiledModel
    from repro.evaluation.experiments import run_platform_experiment

    models = {}

    def model(platform: str):
        if platform not in models:
            result = run_platform_experiment(platform, config=SweepConfig(seed=0))
            models[platform] = CompiledModel.compile(result.model)
        return models[platform]

    scalar = []
    for body in inputs["scalar"]:
        query = (body["n"], body["m_comp"], body["m_comm"])
        answer = model(body["platform"]).predict_batch([query])[0].to_dict()
        scalar.append({**answer, "platform": body["platform"], "seed": 0})
    bulk = []
    for body in inputs["bulk"]:
        queries = [(q["n"], q["m_comp"], q["m_comm"]) for q in body["queries"]]
        columns = model(body["platform"]).predict_columns(queries)
        names = list(columns)
        rows = zip(*(columns[name].tolist() for name in names))
        bulk.append(
            {
                "platform": body["platform"],
                "seed": 0,
                "results": [dict(zip(names, row)) for row in rows],
            }
        )
    return {"scalar": scalar, "bulk": bulk}


def check_served(samples: list[Sample], expected: dict) -> dict:
    """Status of every response, answers of every kept one, and a digest.

    The digest covers the first verified answer to each pooled input,
    in pool order, so the same seed reproduces it.
    """
    failed, failures, first = 0, [], {}
    for s in samples:
        problem = s.error
        if problem is None and s.status != 200:
            problem = f"HTTP {s.status}"
        if problem is None and s.raw is not None:
            try:
                answer = json.loads(_body(s.raw))
            except (IndexError, ValueError) as exc:
                answer = f"undecodable: {exc}"
            if answer != expected[s.kind][s.index]:
                problem = f"wrong answer to {s.kind} input {s.index}"
            else:
                first.setdefault((s.kind, s.index), answer)
        if problem is not None:
            failed += 1
            failures.append(problem)
    digest = hashlib.sha256()
    for key in sorted(first):
        digest.update(json.dumps(first[key], sort_keys=True).encode())
    return {
        "attempted": len(samples),
        "failed": failed,
        "failures": failures[:20],
        "output_digest": digest.hexdigest()[:16],
        "digest_inputs": len(first),
    }


# ---- workloads -------------------------------------------------------------------


def window_metrics(
    ops: list, window: tuple[float, float], speed: HostSpeed
) -> tuple[dict, dict, int]:
    """Throughput and latency over the window, scaled to the reference
    CPU and as measured, and the number of latency samples.

    The CPU under the 2-vCPU VM this benchmark was built on ran, for
    seconds at a time, at full speed or up to twice slower, so plain
    wall-clock rates of the same run moved by half from one minute to
    the next.  So every time is replaced by ``speed.reference_s``: the
    window's, which divides the items done in it, and each operation's,
    which is its latency.  The items of an operation that overlaps an
    end of the window are spread evenly over its duration.  ``ops``
    holds ``(start, end, items, is_latency_sample)``.
    """
    start, end = window
    done = 0.0
    measured, scaled = [], []
    for op_start, op_end, items, is_sample in ops:
        overlap = min(op_end, end) - max(op_start, start)
        if overlap > 0:
            done += items * overlap / (op_end - op_start)
        if is_sample and start <= op_start < end:
            measured.append((op_end - op_start) * 1e3)
            scaled.append(speed.reference_s(op_start, op_end) * 1e3)
    if not measured:
        raise BenchError("no operation started inside the window")

    def metrics(latencies: list[float], window_s: float) -> dict:
        # "inclusive": with ten rounds of ``reproduce``, the default
        # method reports a p99 above the slowest one.
        return {
            "items_per_s": done / window_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p99_ms": (
                statistics.quantiles(latencies, n=100, method="inclusive")[98]
                if len(latencies) > 1
                else latencies[0]
            ),
        }

    return (
        metrics(scaled, speed.reference_s(start, end)),
        metrics(measured, end - start),
        len(measured),
    )


def end_to_end(speed: HostSpeed, launches, ops, window) -> dict:
    """The end-to-end metrics of an untraced run, scaled and as measured."""
    scaled, measured, samples = window_metrics(ops, window, speed)
    setup_s, setup_measured_s = speed.launch_s(launches)
    return {
        "metrics": {"setup_s": setup_s, **scaled},
        "measured": {"setup_s": setup_measured_s, **measured},
        "samples": {"setup_s": len(launches), "latency": samples},
        "slowness": speed.slowness,
    }


def _streams(workload: str, payloads: dict):
    """(kind, wire requests, start offset) of each connection, and the
    trace stream of each kind (see ``breakdown.ClientOp``)."""
    wires = {
        kind: [http_post(payload) for payload in bodies]
        for kind, bodies in payloads.items()
    }
    if workload == "scalar":
        half = SCALAR_POOL // 2
        streams = [("scalar", wires["scalar"], 0), ("scalar", wires["scalar"], half)]
        return streams, {"scalar": "op"}
    streams = [("bulk", wires["bulk"], 0), ("scalar", wires["scalar"], 0)]
    return streams, {"bulk": "op", "scalar": "side"}


def run_served(
    workload: str, seed: int, seconds: float, trace: bool, setups: int,
    cpus: list[int],
) -> dict:
    """One served run; it and its children use ``cpus[0]``, except the
    load generator of a traced run."""
    inputs = served_inputs(workload, seed)
    payloads = {
        kind: [json.dumps(body).encode() for body in bodies]
        for kind, bodies in inputs.items()
    }
    rows = BULK_ROWS.get(workload, 0)
    streams, labels = _streams(workload, payloads)
    result: dict = {}
    # Every process of a run shares one CPU, the one HostSpeed samples.
    # Waking a process on the other vCPU of the VM this was built on
    # took unpredictably long: unpinned, the p99 of ``scalar`` ranged
    # from 2.1 to 9.6 ms over eight runs, pinned from 2.1 to 3.1 ms.
    os.sched_setaffinity(0, {cpus[0]})
    if not trace:
        speed = HostSpeed()
        launches = []
        for attempt in range(setups):
            server = boot(workload)
            launches.append(server.launched)
            if attempt < setups - 1:
                server.stop()
        try:
            load = drive([server.port], streams, seconds)
            speed.stop()
            checked = sweep(server.port, payloads)
        finally:
            server.stop()
        result.update(
            end_to_end(speed, launches, served_ops(load, rows), load["window"])
        )
    else:
        # The untraced and the traced server take turns on the same CPU.
        # The load generator moves to another one, where there is one:
        # sharing theirs, it made their overhead on ``scalar`` range from
        # 2 % to 11 %, instead of from 5 % to 8 %.
        spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=OUT))
        try:
            servers = [boot(workload)]
            try:
                servers.append(boot(workload, spans_dir))
                os.sched_setaffinity(0, {cpus[-1]})
                before = [server.cpu_s() for server in servers]
                load = drive([s.port for s in servers], streams, seconds,
                             TURN_S[workload])
                cpu = [s.cpu_s() - b for s, b in zip(servers, before)]
                checked = sweep(servers[0].port, payloads)
                snapshots = get_metrics(servers[1].port)
            finally:
                for server in servers:
                    server.stop()
            _exited_cleanly(servers[1].child)
            items = [
                sum(op[2] for op in served_ops(load, rows, phase))
                for phase in (0, 1)
            ]
            result["metrics"] = _served_layers(
                load, labels, payloads, spans_dir, snapshots, rows,
                trace_overhead_pct(cpu, items),
            )
        finally:
            shutil.rmtree(spans_dir, ignore_errors=True)
    result["cpu_share"] = load["cpu_share"]
    result.update(
        check_served(load["samples"] + checked, expected_answers(inputs))
    )
    return result


def _exited_cleanly(child: Child) -> None:
    """A traced process writes its spans as it exits; a failure there
    must not pass as a run without spans."""
    if child.proc.returncode != 0:
        raise BenchError(
            f"the traced process exited with code {child.proc.returncode}"
        )


def trace_overhead_pct(cpu_s: list[float], items: list[float]) -> float:
    """Extra CPU time per item of the traced side over the untraced one,
    in percent.  CPU time leaves out the spells in which the host ran
    neither server; taking short turns on one CPU exposes both to the
    same speed."""
    untraced, traced = (c / n for c, n in zip(cpu_s, items))
    return 100.0 * (traced / untraced - 1.0)


def _served_layers(load, labels, payloads, spans_dir, snapshots, rows,
                   overhead_pct):
    import breakdown
    import layers

    keys = {
        kind: [layers.traced_key(payload) for payload in bodies]
        for kind, bodies in payloads.items()
    }
    start, end = load["window"]
    ops = [
        breakdown.ClientOp(
            labels[s.kind], s.start, s.connected, s.end, keys[s.kind][s.index]
        )
        for s in load["samples"]
        if s.phase == 1
        and s.error is None
        and keys[s.kind][s.index] is not None
        and start <= s.start < s.end <= end
    ]
    untraced = defaultdict(list)  # kind -> latencies on the untraced server
    for s in load["samples"]:
        if s.phase == 0 and s.error is None and start <= s.start < end:
            untraced[s.kind].append(s.end - s.start)
    # Head-of-line blocking: the scalar requests beside the bulk ones.
    beside = untraced["scalar"] if rows else []
    spans, counters, idle = breakdown.load_trace(
        sorted(spans_dir.glob("*.jsonl"))
    )
    return breakdown.layer_metrics(
        spans,
        counters,
        idle,
        ops,
        snapshots,
        {
            "loadgen.cpu_share": load["cpu_share"],
            "server.hol_p50_ms": (
                statistics.median(beside) * 1e3 if beside else 0.0
            ),
            "trace_overhead_pct": overhead_pct,
        },
        statistics.median(untraced["bulk" if rows else "scalar"] or [0.0]),
    )


def _offline_child(workload, seed, seconds, turn_s=0.0, spans_file=None):
    command = [sys.executable, str(HERE / "offline.py"), workload, str(seed),
               repr(seconds), repr(turn_s)]
    if spans_file is not None:
        command.append(str(spans_file))
    return Child(command, stdin=True)


def _offline_run(children: list[Child], seconds: float):
    """Start ready children, taking turns if they were told to, until
    each has printed its result; the results and our CPU share."""
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    results: list[dict | None] = [None] * len(children)
    turn = 0
    while None in results:
        children[turn].send("go")
        line = children[turn].wait_line(
            r"^(turn$|\{)", WARMUP_S + seconds + 120
        ).string
        if line.startswith("{"):
            results[turn] = json.loads(line)
        after = [(turn + k) % len(children) for k in range(1, len(children))]
        turn = next((i for i in after if results[i] is None), turn)
    cpu_share = (time.process_time() - cpu_start) / (
        time.perf_counter() - wall_start
    )
    return results, cpu_share


def run_offline(
    workload: str, seed: int, seconds: float, trace: bool, setups: int,
    cpus: list[int],
) -> dict:
    """One offline run; it and its children use ``cpus[0]``."""
    os.sched_setaffinity(0, {cpus[0]})
    result: dict = {}
    if not trace:
        speed = HostSpeed()
        launches = []
        for attempt in range(setups):
            child = _offline_child(workload, seed, seconds)
            child.wait_line(r"^ready", BOOT_TIMEOUT_S)
            launches.append((child.started, time.perf_counter()))
            if attempt < setups - 1:
                child.send("stop")
                child.proc.wait(timeout=BOOT_TIMEOUT_S)  # it cleans up
                child.stop()
        try:
            runs, cpu_share = _offline_run([child], seconds)
        finally:
            child.stop()
        speed.stop()
        result.update(
            end_to_end(
                speed,
                launches,
                [(start, end, items, True) for start, end, items in runs[0]["ops"]],
                runs[0]["window"],
            )
        )
    else:
        import breakdown

        # The untraced and the traced child take turns, each for half of
        # the window.
        spans_file = Path(tempfile.mkstemp(suffix=".jsonl", dir=OUT)[1])
        half = seconds / 2
        try:
            children = [
                _offline_child(workload, seed, half, OFFLINE_TURN_S),
                _offline_child(workload, seed, half, OFFLINE_TURN_S,
                               spans_file),
            ]
            try:
                for child in children:
                    child.wait_line(r"^ready", BOOT_TIMEOUT_S)
                runs, cpu_share = _offline_run(children, seconds)
            finally:
                for child in children:
                    child.stop()
            spans, counters, idle = breakdown.load_trace([spans_file])
        finally:
            spans_file.unlink(missing_ok=True)
        untraced, traced = runs
        shared = min(len(r["op_cpu_s"]) for r in runs)
        result["metrics"] = breakdown.layer_metrics(
            spans,
            counters,
            idle,
            [],
            [],
            {
                "loadgen.cpu_share": cpu_share,
                "server.hol_p50_ms": 0.0,
                # Both ran the same operations in the same order: compare
                # those both finished.
                "trace_overhead_pct": trace_overhead_pct(
                    [sum(r["op_cpu_s"][:shared]) for r in runs],
                    [shared, shared],
                ),
            },
        )
        if untraced["output_digest"] != traced["output_digest"]:
            runs[0]["failed"] += 1
            runs[0]["failures"].append("traced run computed other answers")
    result["cpu_share"] = cpu_share
    result["attempted"] = sum(r["attempted"] for r in runs)
    result["failed"] = sum(r["failed"] for r in runs)
    result["failures"] = [f for r in runs for f in r["failures"]][:20]
    result["output_digest"] = runs[0]["output_digest"]
    result["digest_inputs"] = runs[0]["digest_ops"]
    return result


# ---- the command -----------------------------------------------------------------


def environment(load_at_start: float, cpu: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "loadavg_at_start": load_at_start,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A run shorter than its warm-up is a smoke test: one launch will do.
    setups = SETUP_REPEATS if args.seconds >= WARMUP_S else 1
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()[0]
    cpus = sorted(os.sched_getaffinity(0))
    OUT.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _interrupted)
    signal.signal(signal.SIGTERM, _interrupted)
    signal.alarm(RUN_TIMEOUT_S)
    runner = run_served if args.workload in SERVED else run_offline
    try:
        result = runner(
            args.workload, args.seed, args.seconds, bool(args.trace),
            setups, cpus,
        )
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for child in _children:
            child.stop(timeout=5.0)

    env = environment(load_at_start, cpus[0])
    env["loadgen_cpu_share"] = result["cpu_share"]
    if "slowness" in result:
        env["cpu_slowness"] = result["slowness"]
    invalid = []
    if result["cpu_share"] > 0.9:
        invalid.append("load generator used more than 0.9 of a core")
    if load_at_start > env["nproc"]:
        invalid.append("load average at start exceeded nproc")
    if args.trace:
        import breakdown

        units = {name: unit for name, unit, _ in breakdown.LAYER_METRICS}
        diagnostics = {}
    else:
        units = dict(END_TO_END)
        diagnostics = dict(DIAGNOSTICS)
    samples = result.get("samples", {})
    measured = result.get("measured", {})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "valid": not invalid,
        "invalid_because": invalid,
        "metrics": [
            {
                "name": name,
                "value": result["metrics"][name],
                "unit": unit,
                "measured": measured.get(name),
                "samples": samples.get(
                    "setup_s" if name == "setup_s" else "latency"
                ),
                "diagnostic": name in diagnostics,
            }
            for name, unit in {**units, **diagnostics}.items()
        ],
        "output_digest": result["output_digest"],
        "digest_inputs": result["digest_inputs"],
        "failures": result["failures"],
    }
    correct = result["failed"] == 0
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
