"""sharded-federated: the shard layer under reads and writes.

Every ``benchmark_network`` is one biconnected block, so planning it
into 4 shards yields a single shard and the shard layer never runs.
This workload federates 4 ``small`` communities (corpus seeds 0-3)
through skill-less connector experts, with ids prefixed per community
and edge weights snapped to multiples of 1/64 so that sums are exact
and a sharded engine answers byte-identically to a monolithic one.  An
engine with ``shards=4``, warm-started from a snapshot, runs repeated
cycles: one mutation burst inside community ``c1``, then a greedy
lambda sweep (one 4-skill project per lambda, so a run averages over
many projects) and rarest_first reads.  A sharded index absorbs no
mutation incrementally, so the first read of each index after a burst
rebuilds every shard.
"""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

from repro.api import TeamFormationEngine
from repro.expertise.expert import Expert
from repro.expertise.network import ExpertNetwork
from repro.graph.partition import plan_shards

from .harness import (
    LAMBDAS,
    Outcome,
    ProjectSampler,
    SpeedLog,
    apply_burst,
    base_info,
    greedy_wire,
    make_bursts,
    median,
    peak_rss_mb,
    put_latencies,
    read_ok,
    repeat_setup,
    same_answer,
    scale_network,
    seeded_inputs,
    snap64,
    solve_in_process,
    timed_call,
)
from .layers import NodeCostCounter
from .traced import (
    TracedPass,
    collect,
    counter_delta,
    put_layer_metrics,
    read_counters,
    traced,
    under_root,
)

COMMUNITIES = 4
SETUP_REPEATS = 5
SHARDS = 4
BURST_PREFIX = "c1."
#: Cycles generated per run; a run stops at its time limit long before.
MAX_CYCLES = 400
GREEDY_SIZE = 4
RAREST_READS = 2
COUNT_REQUESTS = 2


def federated_network() -> ExpertNetwork:
    """4 ``small`` communities chained by skill-less connector experts."""
    experts: list[Expert] = []
    edges: list[tuple[str, str, float]] = []
    anchors: list[str] = []
    for c in range(COMMUNITIES):
        community = scale_network("small", seed=c)
        prefix = f"c{c}."
        for e in community.experts():
            experts.append(
                Expert(prefix + e.id, name=e.name, skills=e.skills,
                       h_index=e.h_index, num_publications=e.num_publications)
            )
        edges += [(prefix + u, prefix + v, snap64(w)) for u, v, w in community.graph.edges()]
        hub = max(sorted(community.expert_ids()), key=community.graph.degree)
        anchors.append(prefix + hub)
    for c in range(COMMUNITIES - 1):
        link = f"link{c}"
        experts.append(Expert(link, name=f"connector {c}-{c + 1}"))
        edges += [(anchors[c], link, 0.5), (link, anchors[c + 1], 0.5)]
    return ExpertNetwork(experts, edges)


def _setup(tmp: Path, speed: SpeedLog):
    def build(sw):
        with sw.stage("network"):
            network = federated_network()
        with sw.stage("index_build"):
            built = TeamFormationEngine(network, shards=SHARDS)
            built.search_oracle("sa-ca-cc", 0.6)
            built.raw_oracle()
        path = tmp / "federated.snap"
        with sw.stage("snapshot_save"):
            built.save_snapshot(path)
        with sw.stage("snapshot_load"):
            engine = TeamFormationEngine.from_snapshot(path)
        return (engine, path), lambda: None

    return repeat_setup(build, speed, SETUP_REPEATS)


def make_inputs(network, seed: int):
    rng = random.Random(seed)
    sample = ProjectSampler(network)
    cycles = []
    for c in range(MAX_CYCLES):
        lambdas = list(LAMBDAS)
        rng.shuffle(lambdas)
        reads = [greedy_wire(sample(rng, GREEDY_SIZE), lam) for lam in lambdas]
        reads += [
            {"skills": sample(rng, 4), "solver": "rarest_first"} for _ in range(RAREST_READS)
        ]
        cycles.append(reads)
    bursts = make_bursts(network, rng, MAX_CYCLES, prefix=BURST_PREFIX)
    return cycles, bursts


def _cold(reads: list[dict]) -> list[bool]:
    """Which reads of a cycle are the first on their index after the burst."""
    seen: set[str] = set()
    out = []
    for wire in reads:
        out.append(wire["solver"] not in seen)
        seen.add(wire["solver"])
    return out


def run_cycles(
    engine, cycles, bursts, speed: SpeedLog, seconds: float | None, call=None
) -> dict:
    """Burst-then-reads cycles until ``seconds`` have passed (``None``:
    exactly ``len(cycles)`` cycles).

    Per read it records the latency, the cost (the latency, plus the
    burst's ``mutate()`` time for a cycle's first read) and when it
    started; per cycle the freshness time and when its burst started.
    Every burst and read is preceded by a speed probe.
    """
    call = call or functools.partial(solve_in_process, engine)
    keys = ("responses", "latencies", "costs", "starts", "fresh", "fresh_starts", "mutate")
    done: dict[str, list] = {key: [] for key in keys}
    start = time.perf_counter()
    for reads, ops in zip(cycles, bursts):
        speed.probe()
        t0 = time.perf_counter()
        with engine.mutate() as network:
            apply_burst(network, ops)
        mutate = time.perf_counter() - t0
        done["mutate"].append(mutate)
        responses = []
        for i, wire in enumerate(reads):
            if i:
                speed.probe()
            started = time.perf_counter()
            response, elapsed = timed_call(call, wire)
            if i == 0:
                done["fresh"].append(time.perf_counter() - t0)
                done["fresh_starts"].append(t0)
            responses.append(response)
            done["latencies"].append(elapsed)
            done["costs"].append(elapsed + (mutate if i == 0 else 0.0))
            done["starts"].append(started)
        done["responses"].append(responses)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return done


def _check_reads(out: Outcome, cycles, done) -> None:
    """Every read answered, and warm unless first on its index after a burst."""
    for reads, responses in zip(cycles, done["responses"]):
        for wire, cold, response in zip(reads, _cold(reads), responses):
            if not read_ok(response, wire, warm=not cold) or not response.found:
                out.fail()


def _check_monolithic(out: Outcome, engine, cycles, bursts, done) -> None:
    """The first and last cycles against a monolithic engine at the same
    network version."""
    ran = len(done["responses"])
    mono = TeamFormationEngine(federated_network(), scales=engine.scales)
    checked = {0, ran - 1}
    for c in range(ran):
        with mono.mutate() as network:
            apply_burst(network, bursts[c])
        if c in checked:
            for wire, response in zip(cycles[c], done["responses"][c]):
                if not same_answer(response, solve_in_process(mono, wire)):
                    out.fail()


def run(seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    speed = SpeedLog()
    (engine, path), setup_s, stages = _setup(tmp, speed)
    network = engine.network
    plan = plan_shards(network.graph, SHARDS)
    out = Outcome(info=base_info("sharded-federated", seed, "4 x small", len(network)))
    out.info["shard_sizes"] = [len(shard) for shard in plan.shards]
    if sum(1 for shard in plan.shards if shard) < 2:
        raise RuntimeError(f"shard plan collapsed to one shard: {out.info['shard_sizes']}")
    (cycles, bursts), out.checks_ok = seeded_inputs(
        functools.partial(make_inputs, network), seed
    )

    if not trace:
        done = run_cycles(engine, cycles, bursts, speed, seconds)
        rss = peak_rss_mb()
        _check_reads(out, cycles, done)
        _check_monolithic(out, engine, cycles, bursts, done)
        out.attempted = len(done["latencies"]) + len(done["responses"])
        out.info["timed_reads"] = len(done["latencies"])
        costs = [speed.scaled(c, t0) for c, t0 in zip(done["costs"], done["starts"])]
        latencies = [speed.scaled(t, t0) for t, t0 in zip(done["latencies"], done["starts"])]
        fresh = [speed.scaled(f, t0) for f, t0 in zip(done["fresh"], done["fresh_starts"])]
        out.put("setup_s", setup_s, "s")
        out.put("throughput_rps", len(costs) / sum(costs), "1/s")
        put_latencies(out, latencies)
        out.put("mutate_to_fresh_ms", median(fresh) * 1e3, "ms")
        out.put("peak_rss_mb", rss, "MiB")
        out.put("success_ratio", 1.0 - out.failed / out.attempted, "ratio")
        return out

    # Trace run: both passes start from the snapshot, so they see the
    # same network versions and must give the same answers.
    plain = run_cycles(engine, cycles, bursts, speed, seconds / 2)
    ran = len(plain["responses"])
    engine = TeamFormationEngine.from_snapshot(path)
    before = read_counters()
    with traced() as profile:
        done = run_cycles(
            engine, cycles[:ran], bursts[:ran], speed, None,
            under_root(functools.partial(solve_in_process, engine)),
        )
        records = collect(profile)
    counters = counter_delta(before, read_counters())
    counter = NodeCostCounter().install()
    for wire in cycles[0][:COUNT_REQUESTS]:
        solve_in_process(engine, wire)
    node_cost_calls = counter.calls()
    counter.remove()
    out.checks_ok = out.checks_ok and counter.restored()
    for first, second in zip(plain["responses"], done["responses"]):
        for a, b in zip(first, second):
            if not same_answer(a, b):
                out.fail()
    _check_reads(out, cycles, done)
    reads = len(done["latencies"])
    out.attempted = 2 * reads + 2 * ran
    tp = TracedPass(
        requests=reads,
        wall=sum(done["latencies"]),
        untraced_wall=sum(plain["latencies"]),
        counters=counters,
        mutate_s=done["mutate"],
        bursts=ran,
        burst_builds=counters["pll_builds"],
        node_cost_per_req=node_cost_calls / COUNT_REQUESTS,
        **records,
    )
    put_layer_metrics(out, tp, stages, path.stat().st_size)
    return out
