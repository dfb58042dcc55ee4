"""The traced run: counters, layer shares and the per-layer metric set.

A workload's ``--trace 1`` run times the same requests twice, first
untraced and then inside :func:`traced` (the benchmark's layer wrappers
installed and the ``repro.obs`` tracer enabled), and fills a
:class:`TracedPass`.  :func:`put_layer_metrics` turns it into every
``per_layer`` metric in ``BENCHMARK.json``; a layer a workload never
reaches (no server, no shards) reports 0.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import obs
from repro.graph.pll import pll_build_count

from .harness import Outcome, median, percentile
from .layers import LayerProfile

#: ``repro.obs`` counters the per-layer metrics are derived from.
COUNTERS = (
    "engine_oracle_cached",
    "engine_oracle_incremental",
    "engine_oracle_rebuilt",
    "flat_row_mins_numpy",
    "kernel_queries_numpy",
    "shard_queries_local",
    "shard_queries_cross",
)

SERVED_SOLVERS = ("greedy", "rarest_first", "sa_optimal", "random", "exact", "pareto")

SETUP_STAGES = ("network", "index_build", "snapshot_save", "snapshot_load", "server_start")


def read_counters() -> dict[str, int]:
    snap = obs.global_registry().snapshot()["counters"]
    out = {name: snap.get(name, 0) for name in COUNTERS}
    out["pll_builds"] = pll_build_count()
    return out


def counter_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before[name] for name in before}


@contextmanager
def traced():
    """Install the layer wrappers and enable the obs tracer; undo on exit."""
    tracer = obs.get_tracer()
    profile = LayerProfile().install()
    tracer.enable()
    try:
        yield profile
    finally:
        tracer.disable()
        tracer.clear()
        profile.remove()
    if not profile.restored():
        raise RuntimeError("layer wrappers were not removed")


def under_root(call):
    """``call`` with each request inside its own root span.

    Mirrors what the server does per request: the engine's spans become
    children of the root, so no trace tree is attached to (and encoded
    with) the response.
    """
    tracer = obs.get_tracer()

    def run(wire):
        with tracer.trace("request"):
            return call(wire)

    return run


@dataclass
class TracedPass:
    """What one workload's traced run measured (times in seconds).

    ``counters`` are deltas over the traced pass, its mutation bursts
    included.
    """

    requests: int
    wall: float
    untraced_wall: float
    totals: dict[str, float]
    counters: dict[str, int]
    solve_s: dict[str, list[float]]
    decode_s: list[float]
    encode_s: list[float]
    oracle_entries: int
    server_s: float = 0.0
    server_overhead_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    mutate_s: list[float] = field(default_factory=list)
    bursts: int = 0
    burst_builds: int = 0
    node_cost_per_req: float = 0.0


def collect(profile: LayerProfile) -> dict:
    """The profile's per-call records, grouped for :class:`TracedPass`."""
    return {
        "totals": profile.totals(),
        "solve_s": {
            key.split(":", 1)[1]: [s for _, s in profile.records(key)]
            for key in profile.record_keys()
            if key.startswith("solve:")
        },
        "decode_s": [s for _, s in profile.records("decode")],
        "encode_s": [s for _, s in profile.records("encode")],
        "oracle_entries": profile.oracle_entries(),
    }


def put_layer_metrics(
    out: Outcome, tp: TracedPass, setup_stages: dict[str, float], snapshot_bytes: int
) -> None:
    n = max(tp.requests, 1)
    wall = tp.wall or 1.0
    totals = tp.totals
    c = tp.counters

    # serving.server / server_conn
    out.put("server.overhead_ms.p50", percentile(tp.server_overhead_s, 0.5) * 1e3, "ms")
    out.put("server.overhead_ms.p90", percentile(tp.server_overhead_s, 0.9) * 1e3, "ms")
    out.put("loadgen.late_ms.p90", percentile(tp.late_s, 0.9) * 1e3, "ms")
    # api.messages
    out.put("messages.decode_us.p50", percentile(tp.decode_s, 0.5) * 1e6, "us")
    out.put("messages.encode_us.p50", percentile(tp.encode_s, 0.5) * 1e6, "us")
    # api.engine
    for how in ("cached", "incremental", "rebuilt"):
        out.put(f"engine.oracle.{how}", c[f"engine_oracle_{how}"], "count")
    out.put("engine.mutate_ms.p50", median(tp.mutate_s) * 1e3, "ms")
    # api.solvers
    for name in SERVED_SOLVERS:
        p50 = percentile(tp.solve_s.get(name, []), 0.5)
        out.put(f"solver.{name}.p50_ms", p50 * 1e3, "ms")
    # core
    out.put("core.node_cost_calls.per_req", tp.node_cost_per_req, "1/req")
    # graph
    out.put("oracle.calls.per_req", tp.oracle_entries / n, "1/req")
    out.put("oracle.store_passes.per_req", c["flat_row_mins_numpy"] / n, "1/req")
    queries = c["kernel_queries_numpy"]
    out.put(
        "oracle.hit_ratio",
        1.0 - c["flat_row_mins_numpy"] / queries if queries else 0.0,
        "ratio",
    )
    out.put("oracle.index_builds", c["pll_builds"], "count")
    out.put("shard.queries_local", c["shard_queries_local"] / n, "1/req")
    out.put("shard.queries_cross", c["shard_queries_cross"] / n, "1/req")
    out.put(
        "shard.rebuilds_per_burst",
        tp.burst_builds / tp.bursts if tp.bursts else 0.0,
        "count",
    )
    # storage / setup
    for stage in SETUP_STAGES:
        out.put(f"setup.{stage}_s", setup_stages.get(stage, 0.0), "s")
    out.put("storage.snapshot_bytes", snapshot_bytes, "bytes")
    # layer shares of request wall time (they sum to 1 with unattributed)
    shares = {
        "server.share": tp.server_s,
        "messages.share": totals.get("messages", 0.0),
        "engine.share": totals.get("engine", 0.0),
        "solvers.adapter.share": totals.get("solvers", 0.0),
        "solvers.respond.share": totals.get("respond", 0.0),
        "core.find.self_share": totals.get("core.find", 0.0),
        "core.other.self_share": totals.get("core.other", 0.0),
        "core.materialize.share": totals.get("materialize", 0.0),
        "oracle.share": totals.get("oracle", 0.0),
        "index.share": totals.get("index", 0.0),
    }
    for name, seconds in shares.items():
        out.put(name, seconds / wall, "ratio")
    # obs
    overhead = tp.wall / tp.untraced_wall if tp.untraced_wall else 0.0
    out.put("trace.overhead_ratio", overhead, "ratio")
    out.put("trace.unattributed_share", 1.0 - sum(shares.values()) / wall, "ratio")
