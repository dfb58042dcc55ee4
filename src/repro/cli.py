"""Command-line entry point: serve team queries and re-run experiments.

Examples::

    repro-teams solve --skills graphics dataation --solver greedy
    repro-teams --list-solvers
    repro-teams serve --input requests.jsonl --snapshot ./snapshots --replicas 4
    repro-teams serve --unix /tmp/teams.sock --snapshot ./snapshots \
        --max-pending 64 --default-deadline-ms 5000 --stats-interval 30
    repro-teams mutate --script ops.jsonl
    repro-teams snapshot save --store ./snapshots
    repro-teams solve --snapshot ./snapshots --skills graphics
    repro-teams mutate --snapshot ./snapshots --script ops.jsonl
    repro-teams snapshot info --store ./snapshots
    repro-teams figure4 --scale small
    repro-teams figure3 --scale small --projects 5 --skills 4 6
    repro-teams quality --seed 3
    python -m repro.cli figure6

``solve`` answers one team request through the
:class:`repro.api.TeamFormationEngine`; ``serve`` answers a whole
JSON-lines request batch (stdin or a file) with per-request error
isolation, optionally threaded over the shared engine (``--parallel``)
or fanned out across a pool of snapshot-warmed replica processes
(``--replicas`` + ``--snapshot``) — or, with ``--listen HOST:PORT`` /
``--unix PATH``, runs as a *persistent* server speaking the same NDJSON
protocol over a socket, with a bounded pending queue (``--max-pending``),
per-request deadlines (``--default-deadline-ms``), in-band stats, and
SIGHUP hot reload of the snapshot store's LATEST
(:class:`repro.serving.TeamServer`); ``mutate`` replays a JSON-lines
script of network mutations and interleaved solves against one live
engine (the dynamic-network serving path — each mutation bumps the
network version and the engine reconciles its cached indexes
incrementally where possible); ``snapshot save|load|info|gc`` manage the
durable warm-start store (:mod:`repro.storage`), and ``solve``/``mutate``
accept ``--snapshot PATH`` to serve from a loaded snapshot instead of
rebuilding the synthetic network and its indexes; every other subcommand
regenerates one table/figure of the paper (DESIGN.md §4) on a
reproducible synthetic-DBLP network and prints the result table.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .api import (
    DEFAULT_REGISTRY,
    TeamFormationEngine,
    TeamRequest,
    UnknownSolverError,
)
from .eval.experiments import (
    run_dataset_stats,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_quality,
    run_runtime,
)
from .eval.workload import SCALE_CONFIGS, benchmark_corpus, benchmark_network
from .storage import SnapshotError, SnapshotStore

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return number


class _ListSolversAction(argparse.Action):
    """``--list-solvers``: print the registry's names and exit (like --help)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        for name in DEFAULT_REGISTRY.names():
            print(name)
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for repro-teams."""
    parser = argparse.ArgumentParser(
        prog="repro-teams",
        description="Reproduce experiments from 'Authority-Based Team "
        "Discovery in Social Networks' (EDBT 2017).",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_CONFIGS),
        default="small",
        help="synthetic-DBLP network size (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--gamma", type=float, default=0.6)
    parser.add_argument("--lam", type=float, default=0.6)
    parser.add_argument(
        "--list-solvers",
        action=_ListSolversAction,
        help="print the registered solver names and exit",
    )
    # Only some subcommands define --chart; an explicit parser-level
    # default keeps args.chart present (and False) for all of them.
    parser.set_defaults(chart=False)
    sub = parser.add_subparsers(dest="experiment", required=True)

    psolve = sub.add_parser(
        "solve", help="answer one team request through the engine"
    )
    psolve.add_argument(
        "--skills", nargs="+", required=True, metavar="SKILL",
        help="required skills (the project)",
    )
    psolve.add_argument(
        "--solver", default="greedy",
        help="registered solver name (see --list-solvers)",
    )
    psolve.add_argument(
        "--objective", default="sa-ca-cc",
        help="objective to optimize/rank by (cc|ca|ca-cc|sa-ca-cc)",
    )
    psolve.add_argument(
        "--sa-mode", choices=("per_skill", "distinct"), default="per_skill"
    )
    psolve.add_argument("--oracle", choices=("pll", "dijkstra"), default="pll")
    psolve.add_argument("--k", type=_positive_int, default=1)
    psolve.add_argument(
        "--num-samples", type=_positive_int, default=None,
        help="sample budget for the random solver",
    )
    psolve.add_argument(
        "--json", action="store_true", help="emit the TeamResponse as JSON"
    )
    psolve.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help="warm-start the engine from a snapshot store/file instead of "
        "building the --scale network (see 'snapshot save')",
    )
    psolve.add_argument(
        "--shards", type=_positive_int, default=None, metavar="K",
        help="partition the collaboration graph into K shards and serve "
        "from per-shard PLL indexes plus a boundary summary (answers "
        "are identical to the monolithic index; ignored with "
        "--snapshot, which carries its own shard count)",
    )

    pserve = sub.add_parser(
        "serve",
        help="answer a JSON-lines request batch (one TeamRequest per line)",
    )
    pserve.add_argument(
        "--input", default="-", metavar="FILE",
        help="JSON-lines request file ('-' = stdin, the default); each "
        'line is a TeamRequest dict, e.g. {"skills": ["SN"], "solver": '
        '"greedy"}',
    )
    pserve.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help="serve from a snapshot store/file instead of building the "
        "--scale network (required with --replicas)",
    )
    pserve.add_argument(
        "--replicas", type=_positive_int, default=None, metavar="N",
        help="fan the batch out across N replica worker processes, each "
        "warm-started from --snapshot (cold index groups are pinned so "
        "each index is built at most once pool-wide)",
    )
    pserve.add_argument(
        "--parallel", type=_positive_int, default=None, metavar="N",
        help="thread the batch over the shared in-process engine with N "
        "threads (ignored when --replicas is given)",
    )
    pserve.add_argument(
        "--listen", metavar="HOST:PORT", default=None,
        help="run as a persistent TCP server on HOST:PORT instead of a "
        "one-shot batch (PORT 0 = any free port, printed on startup)",
    )
    pserve.add_argument(
        "--unix", metavar="PATH", default=None,
        help="run as a persistent server on a Unix domain socket at PATH",
    )
    pserve.add_argument(
        "--max-pending", type=_positive_int, default=64, metavar="N",
        help="server mode: bound on admitted-but-unstarted requests; "
        "arrivals beyond it get a typed 'overloaded' response "
        "(default: 64)",
    )
    pserve.add_argument(
        "--default-deadline-ms", type=int, default=None, metavar="M",
        help="server mode: deadline for requests that carry no "
        "deadline_ms of their own (default: no deadline)",
    )
    pserve.add_argument(
        "--workers", type=_positive_int, default=2, metavar="N",
        help="server mode: concurrent solve workers over the backend "
        "(default: 2)",
    )
    pserve.add_argument(
        "--stats-interval", type=float, default=0.0, metavar="SECONDS",
        help="server mode: log a metrics line every SECONDS (0 = off); "
        "stats are always available in-band via {\"op\": \"stats\"}",
    )
    pserve.add_argument(
        "--replicate", action="store_true",
        help="server mode: serve from a live primary engine with "
        "delta-snapshot replication to the --replicas pool; enables the "
        '{"op": "mutate"} admin op (requires --snapshot)',
    )
    pserve.add_argument(
        "--max-lag-ms", type=float, default=None, metavar="M",
        help="with --replicate: reject solves when the replicas are more "
        "than M ms behind the primary (typed 'stale_replica' response; "
        "default: answer at any staleness)",
    )
    pserve.add_argument(
        "--shards", type=_positive_int, default=None, metavar="K",
        help="partition the collaboration graph into K shards (per-shard "
        "PLL indexes + boundary summary, identical answers); ignored "
        "with --snapshot, which carries its own shard count",
    )
    pserve.add_argument(
        "--slow-ms", type=float, default=None, metavar="M",
        help="server mode: log any request slower than M ms as one "
        "structured JSON line (full span tree) on the repro.obs.slow "
        "logger (0 = log every request; default: off)",
    )

    pmut = sub.add_parser(
        "mutate",
        help="replay a JSON-lines mutation/solve script against one engine",
    )
    pmut.add_argument(
        "--script", required=True, metavar="FILE",
        help="JSON-lines ops file ('-' for stdin); each line is an object "
        'with an "op" key: add_expert, remove_expert, update_skills, '
        "update_h_index, add_collaboration, remove_collaboration, solve, "
        "apply_updates",
    )
    pmut.add_argument(
        "--json", action="store_true", help="emit solve responses as JSON"
    )
    pmut.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help="replay the script against an engine loaded from a snapshot "
        "store/file instead of a freshly built --scale network",
    )
    pmut.add_argument(
        "--save-snapshot", metavar="PATH", default=None,
        help="after replaying, save the mutated engine to this snapshot "
        "store/file (round-trips the journal end to end)",
    )

    psnap = sub.add_parser(
        "snapshot", help="manage durable warm-start snapshots"
    )
    snap_sub = psnap.add_subparsers(dest="snapshot_cmd", required=True)
    ps_save = snap_sub.add_parser(
        "save", help="build the --scale engine, warm its indexes, snapshot it"
    )
    ps_save.add_argument(
        "--store", required=True, metavar="PATH",
        help="snapshot store directory (or a single *.snap file path)",
    )
    ps_save.add_argument(
        "--retain", type=_positive_int, default=5,
        help="snapshots kept in the store after saving (default: 5)",
    )
    ps_save.add_argument(
        "--no-warm", action="store_true",
        help="skip prebuilding the default search/raw indexes before saving "
        "(the snapshot then warm-starts the network only)",
    )
    ps_save.add_argument(
        "--shards", type=_positive_int, default=None, metavar="K",
        help="build the engine sharded: K per-shard PLL indexes plus a "
        "boundary summary are persisted, and loaders (solve/serve "
        "--snapshot, replica pools) restore the same sharded layout",
    )
    ps_load = snap_sub.add_parser(
        "load", help="load + verify a snapshot and report what it restores"
    )
    ps_load.add_argument("--store", required=True, metavar="PATH")
    ps_info = snap_sub.add_parser(
        "info", help="list a store's snapshots and the latest manifest"
    )
    ps_info.add_argument("--store", required=True, metavar="PATH")
    ps_gc = snap_sub.add_parser(
        "gc", help="delete all but the newest snapshots of a store"
    )
    ps_gc.add_argument("--store", required=True, metavar="PATH")
    ps_gc.add_argument("--retain", type=_positive_int, default=5)

    p3 = sub.add_parser("figure3", help="SA-CA-CC score vs lambda, all methods")
    p3.add_argument("--projects", type=int, default=10, help="projects per panel")
    p3.add_argument(
        "--skills", type=int, nargs="+", default=[4, 6, 8, 10], help="panel sizes"
    )
    p3.add_argument("--random-samples", type=int, default=2000)
    p3.add_argument("--exact-budget", type=float, default=10.0)
    p3.add_argument(
        "--chart", action="store_true", help="also render ASCII line charts"
    )

    p4 = sub.add_parser("figure4", help="top-5 precision (simulated user study)")
    p4.add_argument("--judges", type=int, default=6)

    p5 = sub.add_parser("figure5", help="sensitivity of team measures to lambda")
    p5.add_argument("--projects", type=int, default=5)
    p5.add_argument(
        "--chart", action="store_true", help="also render an ASCII line chart"
    )

    sub.add_parser("figure6", help="qualitative best-team comparison")

    pq = sub.add_parser("quality", help="Section 4.3 venue-quality statistic")
    pq.add_argument("--projects", type=int, default=5)

    pr = sub.add_parser("runtime", help="Section 4.1 per-query runtime")
    pr.add_argument("--projects", type=int, default=5)

    pst = sub.add_parser(
        "stats",
        help="dataset characterization table (or, with --prom, "
        "Prometheus-format metrics)",
    )
    pst.add_argument(
        "--prom", action="store_true",
        help="print Prometheus text-format metrics instead of the "
        "dataset table (local process registry, or a live server's "
        "with --connect)",
    )
    pst.add_argument(
        "--connect", metavar="ADDR", default=None,
        help="with --prom: scrape a running server via its in-band "
        '{"op": "metrics"} op; ADDR is HOST:PORT or a Unix socket path',
    )

    pp = sub.add_parser("pareto", help="Pareto-optimal teams (future work)")
    pp.add_argument("--num-skills", type=int, default=4)
    pp.add_argument("--k-per-cell", type=int, default=3)

    pe = sub.add_parser(
        "replace", help="replacement options when a team member leaves"
    )
    pe.add_argument("--num-skills", type=int, default=4)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: run one experiment and print its table."""
    args = build_parser().parse_args(argv)
    if args.experiment == "snapshot":
        return _run_snapshot(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "stats" and (args.prom or args.connect):
        # Metrics exposition needs no network build: scrape a live
        # server (--connect) or render this process's own registry.
        return _run_prom_stats(args)
    if args.experiment in ("solve", "mutate") and args.snapshot:
        try:
            engine = TeamFormationEngine.from_snapshot(args.snapshot)
        except SnapshotError as exc:
            print(f"snapshot: {exc}", file=sys.stderr)
            return 2
        print(
            f"engine warm-started from {args.snapshot}: "
            f"{len(engine.network)} experts, {engine.network.num_edges} "
            f"edges, {len(engine.cached_oracle_keys)} cached indexes "
            f"(network version {engine.network.version})\n",
            file=sys.stderr,
        )
        if args.experiment == "solve":
            return _run_solve(engine, args)
        return _run_mutate(engine, args)
    network = benchmark_network(args.scale, seed=args.seed)
    print(
        f"network: {len(network)} experts, {network.num_edges} edges, "
        f"{network.skill_index.num_skills} skills "
        f"(scale={args.scale}, seed={args.seed})\n",
        file=sys.stderr,
    )
    if args.experiment == "solve":
        return _run_solve(
            TeamFormationEngine(network, shards=args.shards), args
        )
    if args.experiment == "mutate":
        return _run_mutate(TeamFormationEngine(network), args)
    if args.experiment == "figure3":
        result = run_figure3(
            network,
            num_skills_list=tuple(args.skills),
            gamma=args.gamma,
            projects_per_size=args.projects,
            random_samples=args.random_samples,
            exact_time_budget=args.exact_budget,
        )
    elif args.experiment == "figure4":
        result = run_figure4(
            network, gamma=args.gamma, lam=args.lam, num_judges=args.judges
        )
    elif args.experiment == "figure5":
        result = run_figure5(
            network, gamma=args.gamma, num_random_projects=args.projects
        )
    elif args.experiment == "figure6":
        result = run_figure6(network, gamma=args.gamma, lam=args.lam)
    elif args.experiment == "quality":
        corpus = benchmark_corpus(args.scale, seed=args.seed)
        ratings = [v.rating for v in corpus.venues.values()]
        result = run_quality(
            network,
            ratings,
            num_projects=args.projects,
            gamma=args.gamma,
            lam=args.lam,
        )
    elif args.experiment == "runtime":
        result = run_runtime(
            network, gamma=args.gamma, lam=args.lam, projects_per_size=args.projects
        )
    elif args.experiment == "stats":
        result = run_dataset_stats(network)
    elif args.experiment == "pareto":
        return _run_pareto(network, args)
    elif args.experiment == "replace":
        return _run_replace(network, args)
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.experiment)
    print(result.format())
    if args.chart:
        if args.experiment == "figure3":
            for num_skills in args.skills:
                print()
                print(result.chart(num_skills))
        elif args.experiment == "figure5":
            print()
            print(result.chart("best"))
    return 0


def _run_snapshot(args) -> int:
    """The ``snapshot save|load|info|gc`` store-management commands."""
    from pathlib import Path

    from .storage import read_meta

    try:
        if args.snapshot_cmd == "save":
            network = benchmark_network(args.scale, seed=args.seed)
            engine = TeamFormationEngine(network, shards=args.shards)
            if not args.no_warm:
                # The default serving indexes: Algorithm 1's folded
                # search graph at --gamma, and RarestFirst's raw graph.
                engine.search_oracle("sa-ca-cc", args.gamma)
                engine.raw_oracle()
            path = engine.save_snapshot(args.store, retain=args.retain)
            print(
                f"saved {path} ({path.stat().st_size} bytes, "
                f"{len(engine.cached_oracle_keys)} indexes, "
                f"network version {network.version})"
            )
            return 0
        if args.snapshot_cmd == "load":
            engine = TeamFormationEngine.from_snapshot(args.store)
            print(
                f"loaded {args.store}: {len(engine.network)} experts, "
                f"{engine.network.num_edges} edges, "
                f"{len(engine.cached_oracle_keys)} warm indexes "
                f"(network version {engine.network.version})"
            )
            return 0
        if args.snapshot_cmd == "info":
            path = Path(args.store)
            if path.is_dir():
                store = SnapshotStore(path)
                infos = store.list()
                if not infos:
                    print(f"snapshot: no snapshots in store {path}", file=sys.stderr)
                    return 2
                for info in infos:
                    print(info.format())
                meta = store.meta()
            else:
                meta = read_meta(path)
            print(
                f"latest manifest: network version {meta.get('network_version')}, "
                f"{meta.get('experts')} experts, {meta.get('edges')} edges, "
                f"{meta.get('oracle_entries')} persisted indexes"
            )
            return 0
        # gc
        removed = SnapshotStore(args.store).gc(retain=args.retain)
        for name in removed:
            print(f"removed {name}")
        print(f"retained {args.retain} newest snapshot(s)")
        return 0
    except SnapshotError as exc:
        print(f"snapshot: {exc}", file=sys.stderr)
        return 2


def _run_serve(args) -> int:
    """Answer a JSON-lines request batch (the ``serve`` subcommand)."""
    from .serving.server import read_requests, serve_batch

    if args.listen is not None or args.unix is not None:
        return _run_server(args)
    if args.replicate:
        print(
            "serve: --replicate needs a persistent server "
            "(--listen or --unix); a one-shot batch has no follower to "
            "keep current",
            file=sys.stderr,
        )
        return 2
    if args.replicas is not None and not args.snapshot:
        print(
            "serve: --replicas requires --snapshot (each replica process "
            "warm-starts from it)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as handle:
                text = handle.read()
        requests = read_requests(text, solver_names=DEFAULT_REGISTRY.names())
    except (OSError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        if args.replicas is not None:
            from .serving.pool import EngineReplicaPool

            with EngineReplicaPool(
                args.snapshot, replicas=args.replicas
            ) as pool:
                print(
                    f"replica pool: {pool.replicas} worker(s) over "
                    f"{pool.snapshot_path.name} "
                    f"({len(pool.warm_bases)} warm indexes)",
                    file=sys.stderr,
                )
                tally = serve_batch(pool.solve_many, requests, sys.stdout)
        else:
            if args.snapshot:
                engine = TeamFormationEngine.from_snapshot(args.snapshot)
            else:
                network = benchmark_network(args.scale, seed=args.seed)
                engine = TeamFormationEngine(network, shards=args.shards)
            tally = serve_batch(
                lambda batch: engine.solve_many(batch, parallel=args.parallel),
                requests,
                sys.stdout,
            )
    except SnapshotError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"served {tally['requests']} request(s): {tally['found']} found, "
        f"{tally['misses']} without a team, {tally['errors']} errors",
        file=sys.stderr,
    )
    return 0


def _run_prom_stats(args) -> int:
    """``stats --prom``: Prometheus text, local registry or a live server."""
    from .obs import global_registry, render_prometheus

    if args.connect:
        from .serving.server_conn import ServingClient

        addr = args.connect
        try:
            if ":" in addr and "/" not in addr:
                host, _, port_text = addr.rpartition(":")
                try:
                    port = int(port_text)
                except ValueError:
                    print(f"stats: invalid port {port_text!r}", file=sys.stderr)
                    return 2
                client = ServingClient.connect_tcp(host, port)
            else:
                client = ServingClient.connect_unix(addr)
        except OSError as exc:
            print(f"stats: cannot connect to {addr}: {exc}", file=sys.stderr)
            return 2
        with client:
            reply = client.round_trip({"op": "metrics"})
        text = reply.get("text")
        if not isinstance(text, str):
            print(f"stats: malformed metrics reply: {reply}", file=sys.stderr)
            return 2
        print(text, end="")
        return 0
    print(render_prometheus(global_registry().snapshot()), end="")
    return 0


def _run_server(args) -> int:
    """Run the persistent server (``serve --listen``/``--unix``)."""
    import asyncio
    import logging
    import signal

    from .serving.server import (
        TeamServer,
        fixed_engine_loader,
        replicated_backend_loader,
        store_backend_loader,
    )

    if args.listen is not None and args.unix is not None:
        print("serve: --listen and --unix are mutually exclusive", file=sys.stderr)
        return 2
    if args.replicas is not None and not args.snapshot:
        print(
            "serve: --replicas requires --snapshot (each replica process "
            "warm-starts from it)",
            file=sys.stderr,
        )
        return 2
    if args.replicate and not args.snapshot:
        print(
            "serve: --replicate requires --snapshot (the primary and every "
            "follower warm-start from the same bytes)",
            file=sys.stderr,
        )
        return 2
    if args.max_lag_ms is not None:
        if not args.replicate:
            print(
                "serve: --max-lag-ms only applies with --replicate",
                file=sys.stderr,
            )
            return 2
        if args.max_lag_ms < 0:
            print("serve: --max-lag-ms must be non-negative", file=sys.stderr)
            return 2
    if args.default_deadline_ms is not None and args.default_deadline_ms < 0:
        print("serve: --default-deadline-ms must be non-negative", file=sys.stderr)
        return 2
    if args.slow_ms is not None and args.slow_ms < 0:
        print("serve: --slow-ms must be non-negative", file=sys.stderr)
        return 2
    host = port = None
    if args.listen is not None:
        host, sep, port_text = args.listen.rpartition(":")
        if not sep or not host:
            print(
                f"serve: --listen expects HOST:PORT, got {args.listen!r}",
                file=sys.stderr,
            )
            return 2
        try:
            port = int(port_text)
        except ValueError:
            print(f"serve: invalid port {port_text!r}", file=sys.stderr)
            return 2
    if args.replicate:
        loader = replicated_backend_loader(
            args.snapshot, replicas=args.replicas, max_lag_ms=args.max_lag_ms
        )
    elif args.snapshot:
        loader = store_backend_loader(args.snapshot, replicas=args.replicas)
    else:
        network = benchmark_network(args.scale, seed=args.seed)
        loader = fixed_engine_loader(
            TeamFormationEngine(network, shards=args.shards)
        )
    # Reload/stats/shutdown events should be visible on stderr even
    # without the caller configuring logging.
    logging.basicConfig(
        level=logging.INFO,
        stream=sys.stderr,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    server = TeamServer(
        loader,
        max_pending=args.max_pending,
        default_deadline_ms=args.default_deadline_ms,
        workers=args.workers,
        stats_interval=args.stats_interval,
        slow_ms=args.slow_ms,
    )

    async def run() -> None:
        address = await server.start(host=host, port=port, unix_path=args.unix)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            # SIGHUP -> reload is wired inside server.start; these two
            # begin the graceful stop that serve_forever waits out.
            # Best effort like SIGHUP: a loop on a non-main thread
            # (in-process tests) cannot own signal handlers.
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                break
        if isinstance(address, tuple):
            print(f"serving on {address[0]}:{address[1]}", file=sys.stderr)
        else:
            print(f"serving on {address}", file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except SnapshotError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"serve: cannot bind {args.listen or args.unix}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass  # signal handler not installable (rare): still a clean exit
    return 0


def _run_solve(engine, args) -> int:
    """Answer one ``solve`` request through the engine."""
    try:
        request = TeamRequest(
            skills=tuple(args.skills),
            solver=args.solver,
            objective=args.objective,
            gamma=args.gamma,
            lam=args.lam,
            sa_mode=args.sa_mode,
            oracle_kind=args.oracle,
            k=args.k,
            seed=args.seed,
            num_samples=args.num_samples,
        )
        response = engine.solve(request)
    except (UnknownSolverError, ValueError) as exc:
        # Malformed request (bad objective/gamma/lam) or unknown solver:
        # a clean usage error, not a traceback.
        print(exc, file=sys.stderr)
        return 2
    print(response.to_json() if args.json else response.format())
    return 0 if response.found else 1


def _read_ops(script: str):
    """Parse a JSON-lines ops script ('-' = stdin; blank/# lines skipped)."""
    import json

    if script == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(script, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    ops = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            op = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(op, dict) or "op" not in op:
            raise ValueError(f'line {lineno}: expected an object with an "op" key')
        ops.append((lineno, op))
    return ops


def _field(op: dict, kind: str, name: str):
    """A required script-op field, with a usage error naming it if absent."""
    try:
        return op[name]
    except KeyError:
        raise ValueError(f"op {kind!r} requires field {name!r}") from None


def _apply_op(engine, op: dict, *, as_json: bool) -> None:
    """Apply one script op to the engine's network (or solve/reconcile).

    Mutations go through ``engine.mutate()`` — the script replay is
    single-threaded, but using the engine's write-side entry point keeps
    the CLI on the same discipline concurrent embedders must follow.
    """
    kind = op["op"]
    if kind == "solve":
        _field(op, kind, "skills")
        request = TeamRequest.from_dict(op)
        response = engine.solve(request)
        print(response.to_json() if as_json else response.format())
        return
    if kind == "apply_updates":
        report = engine.apply_updates()
        print(
            f"apply_updates: cached={report['cached']} "
            f"incremental={report['incremental']} rebuilt={report['rebuilt']}"
        )
        return
    with engine.mutate() as network:
        _apply_mutation_op(network, op, kind)


def _apply_mutation_op(network, op: dict, kind: str) -> None:
    """Dispatch one network-mutation script op.

    The dispatch itself lives in :func:`repro.serving.replication.
    apply_network_op` — the ``{"op": "mutate"}`` server path applies the
    same JSON ops, and the two must never drift apart in field names or
    error text.
    """
    from .serving.replication import apply_network_op

    apply_network_op(network, {**op, "op": kind})


def _run_mutate(engine, args) -> int:
    """Replay a mutation/solve script against one live engine."""
    from .graph.adjacency import GraphError

    network = engine.network
    try:
        ops = _read_ops(args.script)
    except (OSError, ValueError) as exc:
        print(f"mutate: {exc}", file=sys.stderr)
        return 2
    for lineno, op in ops:
        try:
            _apply_op(engine, op, as_json=args.json)
        except (KeyError, GraphError, ValueError, UnknownSolverError) as exc:
            # Unknown experts/edges, malformed ops, unknown solvers: a
            # clean usage error naming the offending line, no traceback.
            print(f"mutate: line {lineno}: {exc}", file=sys.stderr)
            return 2
    print(
        f"replayed {len(ops)} ops; network version {network.version} "
        f"({len(network)} experts, {network.num_edges} edges)",
        file=sys.stderr,
    )
    if args.save_snapshot:
        try:
            path = engine.save_snapshot(args.save_snapshot)
        except SnapshotError as exc:
            print(f"mutate: {exc}", file=sys.stderr)
            return 2
        print(f"saved mutated engine to {path}", file=sys.stderr)
    return 0


def _run_pareto(network, args) -> int:
    import random

    from .eval.workload import sample_project

    project = sample_project(network, args.num_skills, random.Random(args.seed))
    engine = TeamFormationEngine(network)
    frontier = engine.pareto_discovery(
        k_per_cell=args.k_per_cell, oracle_kind="dijkstra"
    ).discover(project)
    print(f"project: {project}")
    print(f"frontier: {len(frontier)} non-dominated teams (CC, CA, SA)")
    for point in frontier:
        print(
            f"  cc={point.cc:.3f}  ca={point.ca:.3f}  sa={point.sa:.3f}  "
            f"members={sorted(point.team.members)}"
        )
    return 0


def _run_replace(network, args) -> int:
    import random

    from .core import ReplacementError, ReplacementRecommender
    from .eval.workload import sample_project

    project = sample_project(network, args.num_skills, random.Random(args.seed))
    engine = TeamFormationEngine(network)
    team = engine.greedy_finder(
        objective="sa-ca-cc", gamma=args.gamma, lam=args.lam
    ).find_team(project)
    print(f"project: {project}")
    print(f"team: {sorted(team.members)}")
    recommender = ReplacementRecommender(
        network, gamma=args.gamma, lam=args.lam
    )
    for member in sorted(team.members):
        try:
            best = recommender.recommend(team, member, k=1)[0]
        except ReplacementError as exc:
            print(f"  if {member} leaves: no replacement ({exc})")
            continue
        who = best.substitute or "(re-route only)"
        print(
            f"  if {member} leaves: {who}  "
            f"score {best.score:.3f} (delta {best.delta:+.3f})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
