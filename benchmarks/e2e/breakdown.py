"""Per-layer metrics of a traced run.

A served request leaves spans in up to three processes: the load
generator (``loadgen.request`` and its ``loadgen.connect``), the router
and the worker.  They are joined into one tree per request:

* a client request adopts the front process's request (router, or the
  worker when there is no router) whose body matches and whose
  ``read_request`` returned while the client waited;
* a router's ``pool.request`` adopts the worker request it forwarded,
  by the same rule.

An offline operation is one ``e2e.op`` span with its descendants.

A span's self time is its duration minus the part its children cover,
each child clipped to its parent.  The self times of one tree therefore
sum to the root's duration, and the per-layer split of a request adds
up to its latency as the client saw it.  A client request's own self
time, the part no server span covers, is split by the front process's
event loop: while the loop ran, the request waited behind other work
(``server.queue_ms``); while it waited in ``select``, the request was
in the network stack or the client (``server.unaccounted_ms``).

Layer times are medians per call over the workload's operations (the
requests carrying its predictions, the pipelines or the segments, as
the end-to-end metrics count them) plus spans outside any request, such
as the calibration a server runs at set-up.  The scalar requests sent
beside bulk ones are joined too, so that no other request adopts their
server spans, but not counted.  A layer with no call in the workload
reads 0.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path


#: Every metric a traced run prints, as (name, unit, better), in
#: BENCHMARK.json order.  README.md maps each layer to the end-to-end
#: metric it should move.
LAYER_METRICS = (
    ("loadgen.connect_ms", "ms", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("http11.read_request.ms", "ms", "lower"),
    ("http11.write_response.ms", "ms", "lower"),
    ("http11.json_encode.ms", "ms", "lower"),
    ("server.json_decode.ms", "ms", "lower"),
    ("server.handle_predict.self_ms", "ms", "lower"),
    ("server.request.ms", "ms", "lower"),
    ("server.queue_ms", "ms", "lower"),
    ("server.unaccounted_ms", "ms", "lower"),
    ("server.hol_p50_ms", "ms", "lower"),
    ("protocol.parse_predict.ms", "ms", "lower"),
    ("registry.get.ms", "ms", "lower"),
    ("registry.hit_ratio", "ratio", "higher"),
    ("registry.lookups", "count", "higher"),
    ("registry.calibrate.ms", "ms", "lower"),
    ("batching.wait_ms", "ms", "lower"),
    ("batching.queries_per_batch", "count", "higher"),
    ("batching.batches", "count", "higher"),
    ("compiled.predict_columns.ms", "ms", "lower"),
    ("compiled.predict_batch.ms", "ms", "lower"),
    ("compiled.evaluator_queries", "count", "lower"),
    ("router.request.self_ms", "ms", "lower"),
    ("router.json_decode.ms", "ms", "lower"),
    ("router.write_response.ms", "ms", "lower"),
    ("pool.request.ms", "ms", "lower"),
    ("pool.reuse_ratio", "ratio", "higher"),
    ("pool.exchanges", "count", "higher"),
    ("pipeline.measure.ms", "ms", "lower"),
    ("pipeline.calibrate.ms", "ms", "lower"),
    ("pipeline.predict.ms", "ms", "lower"),
    ("pipeline.score.ms", "ms", "lower"),
    ("store.load.ms", "ms", "lower"),
    ("store.save.ms", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.lookups", "count", "higher"),
    ("tournament.run.ms", "ms", "lower"),
    ("arbiter.solve.ms", "ms", "lower"),
    ("arbiter.solve.calls_per_op", "count", "lower"),
    ("llc.filter_dram_demand.ms", "ms", "lower"),
    ("llc.filter_dram_demand.calls_per_op", "count", "lower"),
    ("scenario.build_tenant_streams.ms", "ms", "lower"),
    ("scenario.solve_tenant_scenario.ms", "ms", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("trace.joined_ratio", "ratio", "higher"),
    ("trace.accounted_ratio", "ratio", "higher"),
)

#: metric -> (span name, "dur" or "self").  Median per call.
_SPAN_METRICS = {
    "loadgen.connect_ms": ("loadgen.connect", "dur"),
    "http11.read_request.ms": ("http11.read_request", "dur"),
    "http11.write_response.ms": ("http11.write_response", "dur"),
    "http11.json_encode.ms": ("http11.json_encode", "dur"),
    "server.json_decode.ms": ("server.json_decode", "dur"),
    "server.handle_predict.self_ms": ("server.handle_predict", "self"),
    "server.request.ms": ("server.request", "dur"),
    "server.queue_ms": ("server.queue", "dur"),
    "server.unaccounted_ms": ("server.unaccounted", "dur"),
    "protocol.parse_predict.ms": ("protocol.parse_predict", "dur"),
    "registry.get.ms": ("registry.get", "dur"),
    "registry.calibrate.ms": ("service.calibrate", "dur"),
    "batching.wait_ms": ("batching.predict", "self"),
    "compiled.predict_columns.ms": ("compiled.predict_columns", "dur"),
    "compiled.predict_batch.ms": ("compiled.predict_batch", "dur"),
    "router.request.self_ms": ("router.request", "self"),
    "router.json_decode.ms": ("router.json_decode", "dur"),
    "router.write_response.ms": ("router.write_response", "dur"),
    "pool.request.ms": ("pool.request", "dur"),
    "pipeline.measure.ms": ("pipeline.measure", "dur"),
    "pipeline.calibrate.ms": ("pipeline.calibrate", "dur"),
    "pipeline.predict.ms": ("pipeline.predict", "dur"),
    "pipeline.score.ms": ("pipeline.score", "dur"),
    "store.load.ms": ("store.load", "dur"),
    "store.save.ms": ("store.save", "dur"),
    "tournament.run.ms": ("tournament.run", "dur"),
    "arbiter.solve.ms": ("arbiter.solve", "dur"),
    "llc.filter_dram_demand.ms": ("llc.filter_dram_demand", "dur"),
    "scenario.build_tenant_streams.ms": (
        "scenario.build_tenant_streams", "dur"),
    "scenario.solve_tenant_scenario.ms": (
        "scenario.solve_tenant_scenario", "dur"),
}

#: metric -> span name counted per operation (median over operations).
_CALLS_PER_OP = {
    "arbiter.solve.calls_per_op": "arbiter.solve",
    "llc.filter_dram_demand.calls_per_op": "llc.filter_dram_demand",
}


@dataclass
class ClientOp:
    """One request as the load generator saw it (perf_counter seconds)."""

    stream: str  # "op", or "side" for a scalar request beside bulk ones
    start: float
    connected: float
    end: float
    body: str  # layers.traced_key of the request body


@dataclass(eq=False)
class _Node:
    name: str
    start: float
    end: float
    role: str = ""
    rid: str | None = None
    body: str | None = None
    children: list = field(default_factory=list)


def load_trace(paths) -> tuple[list[list], Counter, dict[str, list]]:
    """Spans (as ``layers.dump`` writes them), summed counters, and the
    idle spells of each role's event loop, in time order."""
    spans: list[list] = []
    counters: Counter = Counter()
    idle: dict[str, list] = defaultdict(list)
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if isinstance(record, list):
                spans.append(record)
            elif "counter" in record:
                counters[record["counter"]] += record["value"]
            else:
                idle[record["role"]] += record["idle"]
    for spells in idle.values():
        spells.sort()
    return spans, counters, idle


def _uncovered(lo: float, hi: float, children) -> list[tuple[float, float]]:
    """The parts of [lo, hi] that no child covers."""
    gaps, reach = [], lo
    for start, end in sorted(
        (max(c.start, lo), min(c.end, hi)) for c in children
    ):
        if end <= start:
            continue
        if start > reach:
            gaps.append((reach, start))
        reach = max(reach, end)
    if hi > reach:
        gaps.append((reach, hi))
    return gaps


def _overlap(gaps, spells: list) -> float:
    """How much of ``gaps`` the time-ordered, disjoint ``spells`` cover."""
    total = 0.0
    for lo, hi in gaps:
        i = max(0, bisect.bisect_right(spells, [lo, float("inf")]) - 1)
        while i < len(spells) and spells[i][0] < hi:
            total += max(0.0, min(hi, spells[i][1]) - max(lo, spells[i][0]))
            i += 1
    return total


def _walk(node, lo, hi, stream, records, calls, seen):
    """Clip ``node`` to [lo, hi] and record its duration and self time."""
    seen.add(node)
    start, end = max(node.start, lo), min(node.end, hi)
    if end <= start and node.end > node.start:
        return  # wholly outside its parent, like a reader that hit EOF
    end = max(end, start)
    self_time = sum(b - a for a, b in _uncovered(start, end, node.children))
    records[(stream, node.name)].append((end - start, self_time))
    calls[node.name] += 1
    for child in node.children:
        _walk(child, start, end, stream, records, calls, seen)


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(
    spans: list[list],
    counters: Counter,
    idle: dict[str, list],
    client_ops: list[ClientOp],
    snapshots: list[dict],
    measured: dict[str, float],
    untraced_p50_s: float = 0.0,
) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for one traced run.

    ``snapshots`` are the ``/metrics`` bodies of every server (workers
    under a router included) and of the router, if any.  ``measured``
    holds the metrics the caller measured outside the trace.
    ``untraced_p50_s`` is the median latency of the same client
    operations on the untraced server; ``trace.accounted_ratio`` is the
    median of what the traced operations' layers account for, the
    latency less ``server.unaccounted_ms``, over it.
    """
    nodes: dict[tuple[int, int], _Node] = {}
    for role, pid, span_id, _, name, start, end, rid, body in spans:
        nodes[(pid, span_id)] = _Node(name, start, end, role, rid, body)
    roots = []
    for _, pid, span_id, parent_id, *_ in spans:
        node = nodes[(pid, span_id)]
        parent = nodes.get((pid, parent_id))
        (parent.children if parent is not None else roots).append(node)

    # Requests: the root spans of one request id, joined by their reader.
    groups: dict[str, list[_Node]] = defaultdict(list)
    for node in roots:
        if node.rid is not None:
            groups[node.rid].append(node)
    readers: dict[tuple[str, str], list[tuple[float, str]]] = defaultdict(list)
    for rid, members in groups.items():
        for node in members:
            if node.body is not None and node.name.endswith("read_request"):
                readers[(node.role, node.body)].append((node.end, rid))
    for entries in readers.values():
        entries.sort()
    claimed: set[str] = set()

    def adopt(role: str, body: str, start: float, end: float) -> list:
        """The matching request: its reader, then a ``<role>.request``
        span from the reader's return to its last span's end."""
        entries = readers.get((role, body), [])
        i = bisect.bisect_left(entries, (start, ""))
        while i < len(entries) and entries[i][0] <= end:
            read_end, rid = entries[i]
            if rid not in claimed:
                claimed.add(rid)
                members = groups[rid]
                reader = next(
                    n for n in members if n.name.endswith("read_request")
                )
                rest = [n for n in members if n is not reader]
                request = _Node(
                    f"{role}.request",
                    read_end,
                    max((n.end for n in rest), default=read_end),
                    children=rest,
                )
                return [reader, request]
            i += 1
        return []

    for node in nodes.values():
        if node.name == "pool.request":
            node.children += adopt("server", node.body, node.start, node.end)

    front = "router" if any(s[0] == "router" for s in spans) else "server"
    records: dict[tuple[str, str], list] = defaultdict(list)
    ops = []  # (stream, root node, joined)
    accounted = []
    for op in client_ops:
        root = _Node("loadgen.request", op.start, op.end)
        root.children.append(_Node("loadgen.connect", op.start, op.connected))
        adopted = adopt(front, op.body, op.start, op.end)
        root.children += adopted
        ops.append((op.stream, root, bool(adopted)))
        gaps = _uncovered(root.start, root.end, root.children)
        network = _overlap(gaps, idle.get(front, []))
        queued = sum(b - a for a, b in gaps) - network
        records[(op.stream, "server.queue")].append((queued, queued))
        records[(op.stream, "server.unaccounted")].append((network, network))
        if op.stream == "op":
            accounted.append(root.end - root.start - network)
    ops += [("op", node, True) for node in roots if node.name == "e2e.op"]

    seen: set[_Node] = set()
    op_calls = []
    for stream, root, _ in ops:
        calls: Counter = Counter()
        _walk(root, root.start, root.end, stream, records, calls, seen)
        if stream == "op":
            op_calls.append(calls)
    # Spans outside any request: set-up work such as calibration.
    in_requests = {id(n) for members in groups.values() for n in members}
    for node in roots:
        if node not in seen and id(node) not in in_requests:
            _walk(node, node.start, node.end, "setup", records, Counter(),
                  seen)

    def per_call(name: str, kind: str) -> float:
        values = [
            dur if kind == "dur" else self_time
            for stream in ("op", "setup")
            for dur, self_time in records.get((stream, name), ())
        ]
        return _median_ms(values)

    out = {
        name: per_call(*spec) for name, spec in _SPAN_METRICS.items()
    }
    for name, span_name in _CALLS_PER_OP.items():
        counts = [calls[span_name] for calls in op_calls]
        out[name] = statistics.median(counts) if counts else 0

    def total(*path: str) -> float:
        sum_ = 0.0
        for snapshot in snapshots:
            value = snapshot
            for key in path:
                value = value.get(key, {}) if isinstance(value, dict) else {}
            sum_ += value if isinstance(value, (int, float)) else 0
        return sum_

    lookups = total("registry", "hits") + total("registry", "misses")
    batches = total("batching", "batches")
    exchanges = total("connection_pool", "opens") + total(
        "connection_pool", "reuses"
    )
    store_lookups = counters["store.hit"] + counters["store.miss"]
    out.update(measured)
    out.update(
        {
            "registry.hit_ratio": _ratio(total("registry", "hits"), lookups),
            "registry.lookups": lookups,
            "batching.queries_per_batch": _ratio(
                total("batching", "queries"), batches
            ),
            "batching.batches": batches,
            "compiled.evaluator_queries": total(
                "compiled", "evaluator_queries"
            ),
            "pool.reuse_ratio": _ratio(
                total("connection_pool", "reuses"), exchanges
            ),
            "pool.exchanges": exchanges,
            "store.hit_ratio": _ratio(counters["store.hit"], store_lookups),
            "store.lookups": store_lookups,
            "trace.joined_ratio": _ratio(
                sum(joined for *_, joined in ops), len(ops)
            ),
            "trace.accounted_ratio": _ratio(
                statistics.median(accounted) if accounted else 0.0,
                untraced_p50_s,
            ),
        }
    )
    return {name: out[name] for name, _, _ in LAYER_METRICS}
