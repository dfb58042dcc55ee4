"""serve-mixed: the wire path under an open loop of six solvers.

A ``TeamServer`` in this process, on a Unix socket, serves an engine
warm-started from a snapshot of the ``small`` network (n=160) through
``fixed_engine_loader``.  One connection receives requests on a fixed
schedule (an open loop at ``RATE_RPS``, far below capacity); a second
thread reads the answers, and each latency is timed from when its
request was due.  The mix is counted exactly, not sampled: rarest_first
fills the bottom 32% of the latency ranks and ``sa_optimal`` ranks
32-68%, so the median sits mid-band; greedy fills ranks 68-97%, so p90
sits inside the greedy band.  ``brute_force`` is left out: it answers
``intractable`` above 14 experts.

Every ``FRESH_EVERY``-th slot of the schedule is a freshness slot
instead: once every earlier request is answered, the benchmark applies
a burst of collaboration inserts and halvings through ``engine.mutate()``
and sends a greedy read, timed until it returns
(``mutate_to_fresh_ms``).  Once that read is answered,
``engine.apply_updates()`` reconciles every other index before the next
slot is due, so the mix's reads stay warm.  Freshness slots are kept
out of the latency percentiles.
"""

from __future__ import annotations

import functools
import json
import random
import socket
import sys
import threading
import time
import traceback
from pathlib import Path

from repro.api import TeamFormationEngine, TeamResponse
from repro.serving.server import BackgroundServer, TeamServer, fixed_engine_loader

from .harness import (
    LAMBDAS,
    Freshness,
    Outcome,
    ProjectSampler,
    SpeedLog,
    base_info,
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
    speed_probe,
)
from .layers import NodeCostCounter
from .traced import (
    TracedPass,
    collect,
    counter_delta,
    put_layer_metrics,
    read_counters,
    traced,
)

SCALE = "small"
SETUP_REPEATS = 5
RATE_RPS = 8.0
#: Requests per solver out of every 120 sent.
MIX = (
    ("rarest_first", 38),
    ("sa_optimal", 44),
    ("greedy", 34),
    ("random", 2),
    ("exact", 1),
    ("pareto", 1),
)
#: Every fold gamma pareto sweeps, so no request in the mix pays a build.
FOLD_GAMMAS = (0.0, 0.25, 0.5, 0.6, 0.75, 1.0)
FRESH_EVERY = 10
COUNT_REQUESTS = 8
#: Seconds to wait for the last answer after the last request was sent.
DRAIN_TIMEOUT = 60.0
#: The speed probe before a request runs this many seconds before it is
#: due, when the server has most likely answered the one before.
PROBE_LEAD = 0.005


class Served:
    """A background ``TeamServer`` plus one client connection to it."""

    def __init__(self, engine, sock_path: Path, *, tracing: bool = False) -> None:
        # A slow-query threshold no request reaches makes the server open
        # a root span per request, so the engine's spans nest under it.
        server = TeamServer(
            fixed_engine_loader(engine), workers=2, slow_ms=1e12 if tracing else None
        )
        self._background = BackgroundServer(server, unix_path=str(sock_path))
        self._background.start()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(str(sock_path))
        self._reader = self._sock.makefile("rb")

    def send(self, line: bytes) -> None:
        self._sock.sendall(line)

    def recv(self) -> str:
        raw = self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw.decode("utf-8")

    def stop(self) -> None:
        self._reader.close()
        self._sock.close()
        self._background.stop()


def _setup(tmp: Path, speed: SpeedLog):
    def build(sw):
        with sw.stage("network"):
            network = scale_network(SCALE)
        with sw.stage("index_build"):
            reference = TeamFormationEngine(network)
            for gamma in FOLD_GAMMAS:
                reference.search_oracle("sa-ca-cc", gamma)
            reference.search_oracle("cc", 0.0)
            reference.raw_oracle()
        path = tmp / "small.snap"
        with sw.stage("snapshot_save"):
            reference.save_snapshot(path)
        with sw.stage("snapshot_load"):
            engine = TeamFormationEngine.from_snapshot(path)
        with sw.stage("server_start"):
            served = Served(engine, tmp / "serve.sock")
        return (reference, engine, path, served), served.stop

    return repeat_setup(build, speed, SETUP_REPEATS)


def mix_counts(total: int) -> list[tuple[str, int]]:
    """``MIX`` scaled to ``total`` requests (largest remainder, each >= 1)."""
    weight = sum(k for _, k in MIX)
    exact = [(name, total * k / weight) for name, k in MIX]
    counts = {name: max(1, int(x)) for name, x in exact}
    by_remainder = sorted(exact, key=lambda item: item[1] - int(item[1]), reverse=True)
    for name, _ in by_remainder[: max(0, total - sum(counts.values()))]:
        counts[name] += 1
    return [(name, counts[name]) for name, _ in MIX]


def is_fresh(slot: int) -> bool:
    return slot % FRESH_EVERY == FRESH_EVERY - 1


def make_inputs(network, total: int, seed: int):
    """The schedule's requests (freshness reads in their slots) and one
    burst per freshness slot."""
    rng = random.Random(seed)
    sample = ProjectSampler(network)
    small_support = ProjectSampler(network, max_support=4)
    fresh_slots = sum(map(is_fresh, range(total)))
    solvers = [name for name, count in mix_counts(total - fresh_slots) for _ in range(count)]
    rng.shuffle(solvers)
    mixed = []
    for name in solvers:
        if name == "greedy":
            wire = greedy_wire(sample(rng, 4), rng.choice(LAMBDAS))
        elif name == "random":
            wire = {"skills": sample(rng, 4), "solver": "random",
                    "num_samples": 100, "seed": rng.randrange(2**31)}
        elif name == "exact":
            wire = {"skills": small_support(rng, 3), "solver": "exact"}
        elif name == "pareto":
            wire = {"skills": sample(rng, 3), "solver": "pareto"}
        else:
            wire = {"skills": sample(rng, 4), "solver": name, "lam": rng.choice(LAMBDAS)}
        mixed.append(wire)
    mixed.reverse()
    requests = [
        greedy_wire(sample(rng, 4), 0.6) if is_fresh(i) else mixed.pop() for i in range(total)
    ]
    return requests, make_bursts(network, rng, fresh_slots, h_index_every=0)


def _line(wire: dict) -> bytes:
    return json.dumps(wire).encode("utf-8") + b"\n"


def open_loop(served: Served, requests: list[dict], rate: float, fresh: Freshness) -> dict:
    """Send ``requests`` on a fixed schedule; read answers on a second thread.

    Before a freshness slot's request the sender waits for every earlier
    answer, then applies the next burst; before the following slot it
    waits for that answer too and reconciles the other indexes.  Just
    before each request is due, a speed probe runs.  Returns per-request
    ``due``/``sent``/``recv`` times and raw answer lines (``None`` where
    none arrived).
    """
    lines = [_line(wire) for wire in requests]
    n = len(lines)
    sent = [0.0] * n
    recv = [0.0] * n
    answers: list[str | None] = [None] * n
    received = threading.Condition()
    count = 0

    def receive() -> None:
        nonlocal count
        for i in range(n):
            try:
                answers[i] = served.recv()
            except (OSError, ConnectionError):
                traceback.print_exc(file=sys.stderr)
                return
            recv[i] = time.perf_counter()
            with received:
                count = i + 1
                received.notify()

    reader = threading.Thread(target=receive, name="perfbench-recv")
    reader.start()
    start = time.perf_counter() + 0.005
    due = [start + i / rate for i in range(n)]
    for i, line in enumerate(lines):
        if i and is_fresh(i - 1):
            # Once the freshness read is answered, reconcile every other
            # index now, so no read of the mix pays for the burst.
            with received:
                received.wait_for(lambda: count >= i, DRAIN_TIMEOUT)
            fresh.engine.apply_updates()
        delay = due[i] - PROBE_LEAD - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        speed_probe()  # warm-up: the logged probe should not include waking up
        fresh.speed.probe()
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if is_fresh(i):
            # The burst lands between two requests in send order, which is
            # the order the reference replays them in.
            with received:
                received.wait_for(lambda: count >= i, DRAIN_TIMEOUT)
            fresh.apply()
        sent[i] = time.perf_counter()
        served.send(line)
    reader.join(DRAIN_TIMEOUT)
    if reader.is_alive():
        served.stop()  # unblocks the reader; its missing answers fail
        reader.join(DRAIN_TIMEOUT)
    for i in filter(is_fresh, range(n)):
        if answers[i] is not None:
            fresh.answered(recv[i])
    return {"due": due, "sent": sent, "recv": recv, "answers": answers}


def _decode(answers: list[str | None]) -> list[TeamResponse | None]:
    out = []
    for line in answers:
        try:
            out.append(TeamResponse.from_json(line) if line is not None else None)
        except (ValueError, KeyError, TypeError):
            out.append(None)
    return out


def _service_times(loop: dict) -> list[float]:
    """Per-request round trip from when the server could start on it: the
    later of its send and the previous answer (one connection is served
    in order)."""
    out, previous = [], 0.0
    for sent, recv in zip(loop["sent"], loop["recv"]):
        out.append(recv - max(sent, previous))
        previous = recv
    return out


def _check(out: Outcome, reference, requests, bursts, responses) -> None:
    """Every answer against the in-process reference engine, which gets
    each burst at the same point of the schedule."""
    burst = 0
    for i, (wire, response) in enumerate(zip(requests, responses)):
        if is_fresh(i):
            replay_bursts(reference, bursts[burst : burst + 1])
            burst += 1
        if not read_ok(response, wire, warm=not is_fresh(i)) or not same_answer(
            response, solve_in_process(reference, wire)
        ):
            out.fail()


def run(seed: int, seconds: float, trace: bool, tmp: Path) -> Outcome:
    speed = SpeedLog()
    (reference, engine, path, served), setup_s, stages = _setup(tmp, speed)
    network = reference.network
    out = Outcome(info=base_info("serve-mixed", seed, SCALE, len(network)))
    total = max(FRESH_EVERY, int(RATE_RPS * seconds))
    (requests, bursts), out.checks_ok = seeded_inputs(
        functools.partial(make_inputs, network, total), seed
    )
    out.info["mix"] = dict(mix_counts(total - len(bursts)))
    out.info["rate_rps"] = RATE_RPS
    try:
        if not trace:
            _measure(out, setup_s, reference, engine, served, requests, bursts, speed)
            return out
        tp = _trace_run(out, engine, served, path, tmp, requests, bursts, speed)
    finally:
        served.stop()
    put_layer_metrics(out, tp, stages, path.stat().st_size)
    return out


def _measure(out, setup_s, reference, engine, served, requests, bursts, speed) -> None:
    fresh = Freshness(engine, bursts, speed)
    loop = open_loop(served, requests, RATE_RPS, fresh)
    rss = peak_rss_mb()
    _check(out, reference, requests, bursts, _decode(loop["answers"]))
    reads = [
        i for i, answer in enumerate(loop["answers"]) if answer is not None and not is_fresh(i)
    ]
    out.info["timed_reads"] = len(reads)
    answered = sum(answer is not None for answer in loop["answers"])
    out.attempted = len(requests)
    out.put("setup_s", setup_s, "s")
    out.put("throughput_rps", answered / (max(loop["recv"]) - loop["due"][0]), "1/s")
    put_latencies(
        out, [speed.scaled(loop["recv"][i] - loop["due"][i], loop["due"][i]) for i in reads]
    )
    out.put("mutate_to_fresh_ms", fresh.median_ms(), "ms")
    out.put("peak_rss_mb", rss, "MiB")
    out.put("success_ratio", 1.0 - out.failed / out.attempted, "ratio")


def _trace_run(out, engine, served, path, tmp, requests, bursts, speed) -> TracedPass:
    """The same schedule untraced, then traced against a second engine
    warm-started from the same snapshot; both at twice the rate, to fit
    in the run's time."""
    plain = open_loop(served, requests, 2 * RATE_RPS, Freshness(engine, bursts, speed))
    engine = TeamFormationEngine.from_snapshot(path)
    fresh = Freshness(engine, bursts, speed)
    before = read_counters()
    with traced() as profile:
        tracing = Served(engine, tmp / "traced.sock", tracing=True)
        try:
            loop = open_loop(tracing, requests, 2 * RATE_RPS, fresh)
        finally:
            tracing.stop()
        records = collect(profile)
        inner = [s for _, s in profile.records("solve:")]
    counters = counter_delta(before, read_counters())
    counter = NodeCostCounter().install()
    for wire in requests[:COUNT_REQUESTS]:
        solve_in_process(engine, wire)
    node_cost_calls = counter.calls()
    counter.remove()
    out.checks_ok = out.checks_ok and counter.restored()
    first, second = _decode(plain["answers"]), _decode(loop["answers"])
    for i, (wire, a, b) in enumerate(zip(requests, first, second)):
        if not read_ok(b, wire, warm=not is_fresh(i)) or not same_answer(a, b):
            out.fail()
    out.attempted = 2 * len(requests)
    service = _service_times(loop)
    overhead = [rt - s for rt, s in zip(service, inner)] if len(inner) == len(service) else []
    return TracedPass(
        requests=len(requests),
        wall=sum(service),
        untraced_wall=sum(_service_times(plain)),
        counters=counters,
        server_s=sum(service) - sum(records["totals"].values()),
        server_overhead_s=overhead,
        late_s=[s - d for s, d in zip(loop["sent"], loop["due"])],
        mutate_s=fresh.mutate,
        bursts=len(fresh.mutate),
        burst_builds=counters["pll_builds"],
        node_cost_per_req=node_cost_calls / COUNT_REQUESTS,
        **records,
    )
