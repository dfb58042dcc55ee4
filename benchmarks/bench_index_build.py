"""Index build + distance-query-kernel benchmark (standalone).

Measures, per network scale:

* 2-hop-cover (PLL) construction time (best of ``--repeat`` builds);
* batched query throughput per kernel — ``stdlib`` (dense scatter over
  the flat store, the baseline; what an install without numpy runs,
  measured here by hiding numpy while the index is built) and
  ``numpy`` (vectorized over the same store) — with an exact-equality
  check of every probed batched distance against point ``distance()``
  (the merge join), plus point ``distance()`` throughput for reference.

The acceptance gate is a >= ``--min-query-speedup`` batched throughput
win of the ``numpy`` kernel over the ``stdlib`` baseline at the last
(largest) scale given >= 4 usable cores and numpy; on smaller hosts the
throughput gate auto-relaxes to the identity-only check (the PR-5
convention), which always runs and must pass.  Run it directly (it is
intentionally not a pytest module — the CI smoke job uses
``bench_runtime.py``)::

    PYTHONPATH=src python benchmarks/bench_index_build.py \
        --scale small --min-query-speedup 3 --json out.json
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from unittest import mock

from _bench_json import usable_cores, write_json_report
from repro.eval.workload import SCALE_CONFIGS, benchmark_network
from repro.graph.pll import PrunedLandmarkLabeling
from repro.graph.pll_kernel import numpy_available

QUERY_ROUNDS = 20_000

#: Benchmark order: baseline first so the speedup column reads naturally.
KERNELS = ("stdlib", "numpy") if numpy_available() else ("stdlib",)


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return number


def bench_build(graph, repeat: int) -> float:
    """Best-of-``repeat`` build seconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        PrunedLandmarkLabeling(graph)
        best = min(best, time.perf_counter() - t0)
    return best


def _sweeps(graph, rounds: int) -> tuple[list, list[list]]:
    """Deterministic root sweeps mirroring a per-skill candidate scan."""
    rng = random.Random(17)
    nodes = sorted(graph.nodes(), key=repr)
    sweep = 50  # targets per root, mirroring a per-skill candidate sweep
    roots = [rng.choice(nodes) for _ in range(rounds // sweep)]
    targets = [rng.sample(nodes, min(sweep, len(nodes))) for _ in roots]
    return roots, targets


def build_index(graph, kernel: str) -> PrunedLandmarkLabeling:
    """An index answering with ``kernel``: ``"stdlib"`` hides numpy from
    the build, which is what an install without numpy runs."""
    if kernel == "stdlib":
        with mock.patch("repro.graph.pll.numpy_available", return_value=False):
            return PrunedLandmarkLabeling(graph)
    return PrunedLandmarkLabeling(graph)


def bench_query_kernels(graph, rounds: int) -> tuple[float, dict[str, float]]:
    """(point q/s, {kernel: batched q/s}) with a per-kernel identity check.

    Every kernel must answer a fixed probe set (every ~25th node against
    all nodes) with floats *exactly* equal to point ``distance()`` —
    both kernels minimize the same IEEE-754 sums as the merge join, so
    any difference is a bug, not float noise.
    """
    roots, targets = _sweeps(graph, rounds)
    queries = sum(len(ts) for ts in targets)
    nodes = sorted(graph.nodes(), key=repr)
    probe_roots = nodes[:: max(1, len(nodes) // 25)]

    point = PrunedLandmarkLabeling(graph)
    t0 = time.perf_counter()
    for root, ts in zip(roots, targets):
        for t in ts:
            point.distance(root, t)
    point_qps = queries / (time.perf_counter() - t0)
    reference = {
        root: {t: point.distance(root, t) for t in nodes} for root in probe_roots
    }

    batch_qps: dict[str, float] = {}
    for kernel in KERNELS:
        pll = build_index(graph, kernel)
        t0 = time.perf_counter()
        for root, ts in zip(roots, targets):
            pll.distances_from(root, ts)
        batch_qps[kernel] = queries / (time.perf_counter() - t0)
        probes = {root: pll.distances_from(root, nodes) for root in probe_roots}
        if probes != reference:
            raise AssertionError(
                f"kernel={kernel} answered differently than point distance()"
            )
    return point_qps, batch_qps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        nargs="+",
        choices=sorted(SCALE_CONFIGS),
        default=["tiny", "medium", "large"],
    )
    parser.add_argument("--repeat", type=_positive_int, default=3)
    parser.add_argument(
        "--min-query-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) when the numpy kernel's batched throughput win "
        "over the stdlib baseline at the last scale falls below this — "
        "auto-relaxed to the identity-only check under 4 usable cores "
        "or without numpy",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the measured numbers as a JSON report",
    )
    args = parser.parse_args(argv)

    cores = usable_cores()
    print(f"usable cores: {cores}; numpy kernel: {numpy_available()}")
    scales_report: dict[str, dict] = {}
    kernel_speedup = 0.0
    for scale in args.scale:
        network = benchmark_network(scale, seed=0)
        graph = network.graph
        print(
            f"\n[{scale}] n={graph.num_nodes} m={graph.num_edges}",
            flush=True,
        )
        build_s = bench_build(graph, args.repeat)
        print(f"  build             : {build_s:.3f}s")
        point_qps, batch_qps = bench_query_kernels(graph, QUERY_ROUNDS)
        kernel_speedup = batch_qps.get("numpy", 0.0) / batch_qps["stdlib"]
        print(f"  point queries     : {point_qps:,.0f} q/s (merge join)")
        for kernel in KERNELS:
            note = (
                f" (x{batch_qps[kernel] / batch_qps['stdlib']:.2f} vs stdlib)"
                if kernel != "stdlib"
                else " (baseline)"
            )
            print(f"  batched {kernel:<8}  : {batch_qps[kernel]:,.0f} q/s{note}")
        scales_report[scale] = {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "build_seconds": build_s,
            "point_qps": point_qps,
            "batch_qps": dict(batch_qps),
            "numpy_vs_stdlib_speedup": kernel_speedup,
        }

    status = 0
    if args.min_query_speedup > 0:
        gate_scale = args.scale[-1]
        if not numpy_available():
            print("\ngate: relaxed to identity-only (numpy is not installed)")
        elif cores < 4:
            print(
                f"\ngate: relaxed to identity-only ({cores} usable core(s) "
                f"< 4; the {args.min_query_speedup:.1f}x kernel target is "
                f"calibrated for CI-class hosts)"
            )
        elif kernel_speedup < args.min_query_speedup:
            print(
                f"\nFAIL: numpy kernel {kernel_speedup:.2f}x over stdlib at "
                f"scale={gate_scale}, below required "
                f"{args.min_query_speedup:.2f}x"
            )
            status = 1
        else:
            print(
                f"\ngate: numpy kernel {kernel_speedup:.2f}x >= "
                f"{args.min_query_speedup:.1f}x over stdlib at "
                f"scale={gate_scale}"
            )

    if args.json:
        write_json_report(
            args.json,
            "index_build",
            {
                "numpy_kernel": numpy_available(),
                "min_query_speedup": args.min_query_speedup,
                "gate_passed": status == 0,
                "scales": scales_report,
            },
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
