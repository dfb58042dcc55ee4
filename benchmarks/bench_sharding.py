"""Monolithic vs sharded PLL serving (standalone benchmark).

PR-10's sharding bet: cutting the collaboration graph into K shards
along its articulation structure makes each *shard's* index strictly
cheaper to build and hold than the monolithic 2-hop cover — the unit of
(re)build and of memory becomes one shard — while the boundary-distance
summary keeps every answer byte-identical to the monolithic oracle.
This benchmark measures exactly that trade:

* **build**: monolithic index build time vs the worst per-shard build
  time (the unit a rebuild or a scale-out replica actually pays);
* **memory**: monolithic label bytes vs the worst per-shard label
  bytes, plus the boundary-summary overhead;
* **query**: intra-shard and cross-shard query throughput vs the
  monolithic index, over the same source/target pairs;
* an **identity check** on every sampled query: the sharded answer must
  equal the monolithic float exactly (edge weights are quantized to
  multiples of 1/64 so sums are exact and "equal" is well-defined).

Gates (exit 1 on failure):

* ``--min-memory-ratio R`` — at the largest K, worst-shard label bytes
  must be <= R x monolithic label bytes (PR-10 acceptance: 0.6 at K=4,
  small scale), and worst-shard build time strictly below monolithic.
* ``--min-intra-ratio R`` — sharded intra-shard throughput must stay
  within R x monolithic.  Auto-relaxed on hosts with fewer than 4
  usable cores, where scheduling noise dwarfs the effect.

CI runs the tiny smoke::

    PYTHONPATH=src python benchmarks/bench_sharding.py --scale tiny \
        --shards 1 2 4 --sources 12 --json bench-results/sharding.json
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time

from _bench_json import usable_cores, write_json_report
from repro.eval.workload import SCALE_CONFIGS, benchmark_network
from repro.graph import Graph
from repro.graph.partition import plan_shards
from repro.graph.pll import PrunedLandmarkLabeling
from repro.graph.sharded_oracle import ShardedPLLOracle


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}"
        )
    return number


def federated_graph(scale: str, seed: int, communities: int) -> Graph:
    """``communities`` copies of the scale network, bridged in a chain.

    The synthetic ``benchmark_network`` graphs are single biconnected
    blobs — the topology sharding can *not* help with (the partitioner
    correctly refuses to cut them, and the gate run reports 1.00x).
    Real collaboration networks are the opposite: dense communities
    joined through a few connector authors.  This builder models that
    regime — each community is one scale-network instance, consecutive
    communities are joined through a dedicated connector node (an
    articulation point by construction) — so the benchmark measures
    sharding on the workload shape it exists for.

    Weights are snapped to multiples of 1/64: dyadic sums are exact in
    binary floating point, so monolithic and sharded answers are
    comparable with ``==`` instead of a tolerance — the same hard bar
    the engine test suite enforces.
    """
    g = Graph()
    anchors = []
    for c in range(communities):
        source = benchmark_network(scale, seed=seed + c).graph
        first = None
        for node in source.nodes():
            name = f"c{c}:{node}"
            g.add_node(name)
            if first is None:
                first = name
        for u, v, w in source.edges():
            g.add_edge(
                f"c{c}:{u}", f"c{c}:{v}", weight=max(1, round(w * 64)) / 64.0
            )
        anchors.append(first)
    for c in range(communities - 1):
        connector = f"connector{c}"
        g.add_edge(anchors[c], connector, weight=2.0)
        g.add_edge(connector, anchors[c + 1], weight=2.0)
    return g


def sample_pairs(graph: Graph, plan, sources: int):
    """Deterministic (source, target-set) plus intra/cross pair splits."""
    nodes = list(graph.nodes())
    step = max(1, len(nodes) // sources)
    picked = nodes[::step][:sources]
    intra: list[tuple] = []
    cross: list[tuple] = []
    for i, u in enumerate(picked):
        v = picked[(i + 1) % len(picked)]
        if u == v:
            continue
        if set(plan.shards_of(u)) & set(plan.shards_of(v)):
            intra.append((u, v))
        else:
            cross.append((u, v))
    return picked, intra, cross


def best_build_seconds(graph: Graph, trials: int) -> float:
    """Best-of-``trials`` wall time to build one PLL over ``graph``.

    Build times on shared hosts swing 20-30% between identical runs
    (allocator growth, frequency scaling); the *minimum* over a few
    trials is the standard low-noise estimator for a deterministic
    computation.
    """
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        PrunedLandmarkLabeling(graph)
        best = min(best, time.perf_counter() - t0)
    return best


def time_queries(oracle, picked, targets) -> float:
    """Median seconds for one ``distances_from`` sweep per source."""
    times = []
    for u in picked:
        t0 = time.perf_counter()
        oracle.distances_from(u, targets)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) if times else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALE_CONFIGS), default="small"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards",
        type=_positive_int,
        nargs="+",
        default=[1, 2, 4],
        metavar="K",
        help="shard counts to measure (default: 1 2 4)",
    )
    parser.add_argument(
        "--sources",
        type=_positive_int,
        default=24,
        help="identity/throughput sample sources (default: 24)",
    )
    parser.add_argument(
        "--communities",
        type=_positive_int,
        default=6,
        metavar="C",
        help="scale-network communities bridged into the benchmark graph "
        "(default: 6)",
    )
    parser.add_argument(
        "--trials",
        type=_positive_int,
        default=3,
        help="build-time trials; the best is reported (default: 3)",
    )
    parser.add_argument(
        "--min-memory-ratio",
        type=float,
        default=0.0,
        metavar="R",
        help="fail when worst-shard label bytes at the largest K exceed "
        "R x monolithic (0 = report only); also requires worst-shard "
        "build time strictly below monolithic",
    )
    parser.add_argument(
        "--min-intra-ratio",
        type=float,
        default=0.0,
        metavar="R",
        help="fail when sharded intra-shard throughput falls below "
        "R x monolithic (0 = report only; auto-relaxed under 4 cores)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the measured numbers as a JSON report",
    )
    args = parser.parse_args(argv)

    graph = federated_graph(args.scale, args.seed, args.communities)
    print(
        f"scale={args.scale} x {args.communities} communities: "
        f"{graph.num_nodes} nodes, {graph.num_edges} edges "
        "(weights quantized to 1/64)"
    )

    mono_build = best_build_seconds(graph, args.trials)
    mono = PrunedLandmarkLabeling(graph)
    mono_bytes = mono.label_bytes
    nodes = list(graph.nodes())
    print(
        f"  monolithic: build {mono_build * 1e3:8.2f}ms   "
        f"labels {mono_bytes:>10d} B"
    )

    rows = []
    status = 0
    for k in sorted(set(args.shards)):
        plan = plan_shards(graph, k)
        t0 = time.perf_counter()
        sharded = ShardedPLLOracle(graph, plan)
        total_build = time.perf_counter() - t0
        shard_builds = []
        for i in range(k):  # per-shard rebuild cost, measured directly
            shard_nodes = plan.shards[i]
            if not shard_nodes:
                shard_builds.append(0.0)
                continue
            sub = graph.subgraph(shard_nodes)
            shard_builds.append(best_build_seconds(sub, args.trials))
        worst_build = max(shard_builds)
        worst_bytes = max(
            (sharded.label_bytes(i) for i in range(k)), default=0
        )

        picked, intra, cross = sample_pairs(graph, plan, args.sources)
        mismatches = 0
        for u in picked:
            if sharded.distances_from(u, nodes) != mono.distances_from(
                u, nodes
            ):
                mismatches += 1
        sharded_sweep = time_queries(sharded, picked, nodes)
        mono_sweep = time_queries(mono, picked, nodes)

        def qps(oracle, pairs):
            if not pairs:
                return float("nan")
            t0 = time.perf_counter()
            for u, v in pairs:
                oracle.distance(u, v)
            elapsed = time.perf_counter() - t0
            return len(pairs) / elapsed if elapsed > 0 else float("inf")

        intra_qps = qps(sharded, intra)
        cross_qps = qps(sharded, cross)
        mono_intra_qps = qps(mono, intra)
        mono_cross_qps = qps(mono, cross)

        print(
            f"  K={k}: worst shard build {worst_build * 1e3:8.2f}ms "
            f"({worst_build / mono_build:5.2f}x mono)   "
            f"worst labels {worst_bytes:>9d} B "
            f"({worst_bytes / mono_bytes:5.2f}x)   "
            f"boundary {len(plan.boundary)}"
        )
        print(
            f"       intra {intra_qps:10.0f} q/s (mono {mono_intra_qps:10.0f})"
            f"   cross {cross_qps:10.0f} q/s (mono {mono_cross_qps:10.0f})"
            f"   identity {'OK' if not mismatches else 'FAIL'}"
        )
        if mismatches:
            print(
                f"FAIL: K={k}: {mismatches}/{len(picked)} sampled sources "
                "disagree with the monolithic oracle"
            )
            status = 1
        rows.append(
            {
                "shards": k,
                "total_build_seconds": total_build,
                "worst_shard_build_seconds": worst_build,
                "worst_shard_label_bytes": worst_bytes,
                "total_label_bytes": sharded.label_bytes(),
                "boundary_nodes": len(plan.boundary),
                "intra_pairs": len(intra),
                "cross_pairs": len(cross),
                "intra_qps": intra_qps,
                "cross_qps": cross_qps,
                "mono_intra_qps": mono_intra_qps,
                "mono_cross_qps": mono_cross_qps,
                "sweep_seconds": sharded_sweep,
                "mono_sweep_seconds": mono_sweep,
                "identity_ok": not mismatches,
            }
        )

    cores = usable_cores()
    relax_query_gates = cores < 4
    top = max(row["shards"] for row in rows)
    top_row = next(row for row in rows if row["shards"] == top)
    if args.min_memory_ratio and top > 1:
        ratio = top_row["worst_shard_label_bytes"] / mono_bytes
        if ratio > args.min_memory_ratio:
            print(
                f"FAIL: K={top} worst-shard label bytes are {ratio:.2f}x "
                f"monolithic (gate: <= {args.min_memory_ratio})"
            )
            status = 1
        if top_row["worst_shard_build_seconds"] >= mono_build:
            print(
                f"FAIL: K={top} worst-shard build "
                f"({top_row['worst_shard_build_seconds'] * 1e3:.2f}ms) is "
                f"not below the monolithic build ({mono_build * 1e3:.2f}ms)"
            )
            status = 1
    if args.min_intra_ratio and top > 1:
        mono_qps = top_row["mono_intra_qps"]
        got = top_row["intra_qps"]
        if (
            not relax_query_gates
            and not math.isnan(mono_qps)
            and not math.isnan(got)
            and got < args.min_intra_ratio * mono_qps
        ):
            print(
                f"FAIL: K={top} intra-shard throughput {got:.0f} q/s is "
                f"below {args.min_intra_ratio} x monolithic "
                f"({mono_qps:.0f} q/s)"
            )
            status = 1
        elif relax_query_gates:
            print(
                f"  query gates relaxed: only {cores} usable core(s) "
                "(< 4); memory/build gates still apply"
            )

    if args.json:
        write_json_report(
            args.json,
            "sharding",
            {
                "scale": args.scale,
                "communities": args.communities,
                "sources": args.sources,
                "mono_build_seconds": mono_build,
                "mono_label_bytes": mono_bytes,
                "runs": rows,
                "min_memory_ratio": args.min_memory_ratio,
                "min_intra_ratio": args.min_intra_ratio,
                "query_gates_relaxed": relax_query_gates,
                "gate_passed": status == 0,
            },
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
