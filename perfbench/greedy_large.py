"""greedy-large: the paper's Algorithm 1 past the 512-source cache cliff.

An in-process engine warm-started from a snapshot of the ``large``
network (n=652) and one closed-loop caller.  Requests are greedy
``sa-ca-cc`` at gamma 0.6 over 4/6/8/10-skill projects crossed with
lambda in {0.2, 0.4, 0.6, 0.8}; the scoring and oracle layers do nearly
all the work.  Before every 4th request the loop also applies one
burst of collaboration inserts and halvings, which the index absorbs
incrementally, and times it until its own read returns
(``mutate_to_fresh_ms``); those bursts and reads are kept out of the
read metrics, so every timed read is warm.
"""

from __future__ import annotations

import functools
import random
from pathlib import Path

from repro.api import TeamFormationEngine

from .harness import (
    LAMBDAS,
    Freshness,
    Outcome,
    ProjectSampler,
    SpeedLog,
    base_info,
    closed_loop,
    greedy_wire,
    make_bursts,
    peak_rss_mb,
    put_latencies,
    read_ok,
    repeat_setup,
    replay_bursts,
    same_answer,
    scale_network,
    seeded_inputs,
    solve_in_process,
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

SCALE = "large"
#: Distinct requests generated per run; the caller cycles through them.
POOL = 256
#: A freshness burst goes before every FRESH_EVERY-th request.
FRESH_EVERY = 4
#: Answered requests re-solved on the directly built (never snapshotted)
#: engine: every one before the first burst.
REFERENCE_CHECKS = FRESH_EVERY - 1
#: Requests in the trace run's node_cost counting pass.
COUNT_REQUESTS = 4


def _setup(tmp: Path, speed: SpeedLog):
    def build(sw):
        with sw.stage("network"):
            network = scale_network(SCALE)
        with sw.stage("index_build"):
            reference = TeamFormationEngine(network)
            reference.search_oracle("sa-ca-cc", 0.6)
        path = tmp / "large.snap"
        with sw.stage("snapshot_save"):
            reference.save_snapshot(path)
        with sw.stage("snapshot_load"):
            engine = TeamFormationEngine.from_snapshot(path)
        return (reference, engine, path), lambda: None

    return repeat_setup(build, speed)


def make_inputs(network, seed: int):
    rng = random.Random(seed)
    sample = ProjectSampler(network)
    requests: list[dict] = []
    while len(requests) < POOL:
        block = [(size, lam) for size in (4, 6, 8, 10) for lam in LAMBDAS]
        rng.shuffle(block)
        requests += [greedy_wire(sample(rng, size), lam) for size, lam in block]
    probe = [greedy_wire(sample(rng, 6), 0.6) for _ in range(POOL)]
    bursts = make_bursts(network, rng, POOL, h_index_every=0)
    return requests, probe, bursts


def _call(engine):
    return lambda wire: solve_in_process(engine, wire)


def timed_phase(
    engine, requests, probe, bursts, speed, *, seconds=None, count=None, call=None
):
    """The closed loop, with a freshness burst and its read before every
    ``FRESH_EVERY``-th request; returns ``(loop, freshness, probe reads)``."""
    call = call or _call(engine)
    fresh = Freshness(engine, bursts, speed)
    probed: list = []

    def between() -> None:
        if fresh.left:
            fresh.apply()
            probed.append(fresh.read(call, probe[len(probed)]))

    loop = closed_loop(
        call, requests, speed, seconds=seconds, count=count, every=FRESH_EVERY, between=between
    )
    return loop, fresh, probed


def _check(out: Outcome, requests, probe, loop, probed) -> None:
    for i, response in enumerate(loop.responses):
        if not read_ok(response, requests[i % len(requests)]) or not response.found:
            out.fail()
    for wire, response in zip(probe, probed):
        if not read_ok(response, wire, warm=False):
            out.fail()


def _check_reference(out: Outcome, reference, requests, probe, bursts, loop, probed) -> None:
    """The first reads against the directly built engine, then the last
    probe read after it received the same bursts."""
    for i in range(min(REFERENCE_CHECKS, len(loop.responses))):
        if not same_answer(loop.responses[i], solve_in_process(reference, requests[i])):
            out.fail()
    if probed:
        replay_bursts(reference, bursts[: len(probed)])
        if not same_answer(probed[-1], solve_in_process(reference, probe[len(probed) - 1])):
            out.fail()


def run(seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    speed = SpeedLog()
    (reference, engine, path), setup_s, stages = _setup(tmp, speed)
    network = reference.network
    out = Outcome(info=base_info("greedy-large", seed, SCALE, len(network)))
    (requests, probe, bursts), out.checks_ok = seeded_inputs(
        functools.partial(make_inputs, network), seed
    )
    if not trace:
        loop, fresh, probed = timed_phase(engine, requests, probe, bursts, speed, seconds=seconds)
        rss = peak_rss_mb()
        _check(out, requests, probe, loop, probed)
        _check_reference(out, reference, requests, probe, bursts, loop, probed)
        out.attempted = len(loop.responses) + len(probed)
        latencies = loop.scaled()
        out.info["timed_reads"] = len(latencies)
        out.put("setup_s", setup_s, "s")
        out.put("throughput_rps", len(latencies) / sum(latencies), "1/s")
        put_latencies(out, latencies)
        out.put("mutate_to_fresh_ms", fresh.median_ms(), "ms")
        out.put("peak_rss_mb", rss, "MiB")
        out.put("success_ratio", 1.0 - out.failed / out.attempted, "ratio")
        return out

    # Trace run: the same requests and bursts untraced, then traced on a
    # second engine from the same snapshot, then counted.
    plain, plain_fresh, plain_probed = timed_phase(
        engine, requests, probe, bursts, speed, seconds=seconds / 2
    )
    count = len(plain.responses)
    engine = TeamFormationEngine.from_snapshot(path)
    before = read_counters()
    with traced() as profile:
        loop, fresh, probed = timed_phase(
            engine, requests, probe, bursts, speed, count=count, call=under_root(_call(engine))
        )
        records = collect(profile)
    counters = counter_delta(before, read_counters())
    counter = NodeCostCounter().install()
    for wire in requests[:COUNT_REQUESTS]:
        solve_in_process(engine, wire)
    node_cost_calls = counter.calls()
    counter.remove()
    out.checks_ok = out.checks_ok and counter.restored()
    _check(out, requests, probe, loop, probed)
    for a, b in zip(plain.responses + plain_probed, loop.responses + probed):
        if not same_answer(a, b):
            out.fail()
    out.attempted = 2 * (count + len(probed))
    tp = TracedPass(
        requests=count + len(probed),
        wall=sum(loop.latencies) + sum(fresh.fresh),
        untraced_wall=sum(plain.latencies) + sum(plain_fresh.fresh),
        counters=counters,
        mutate_s=fresh.mutate,
        bursts=len(probed),
        burst_builds=counters["pll_builds"],
        node_cost_per_req=node_cost_calls / COUNT_REQUESTS,
        **records,
    )
    put_layer_metrics(out, tp, stages, path.stat().st_size)
    return out
