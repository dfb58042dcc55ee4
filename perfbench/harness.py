"""Shared pieces of the end-to-end benchmark: inputs, timing, checks, results.

Everything here runs in the benchmark process against the library's
public API (``repro.api``, ``repro.expertise``, ``repro.dblp``).  A
workload module builds its system in ``setup``, generates every request
and mutation script from the workload seed before timing, runs its timed
phase, checks outputs outside every timed region, and hands a
:class:`Outcome` back to ``run.py``.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy

from repro.api import TeamRequest, TeamResponse
from repro.dblp.builder import build_expert_network
from repro.dblp.synthetic import synthetic_corpus
from repro.eval.workload import SCALE_CONFIGS
from repro.expertise.network import ExpertNetwork

#: Error kinds that are legitimate negative answers, not failures.
ANSWER_KINDS = (None, "uncoverable", "intractable")

#: Setups per run unless a workload asks for more; ``setup_s`` and every
#: ``setup.*`` stage report the median.
SETUP_REPEATS = 3

LAMBDAS = (0.2, 0.4, 0.6, 0.8)

#: Iterations of :func:`speed_probe`'s loop.
PROBE_LOOP = 10_000
#: Seconds the probe loop is taken to last at nominal machine speed.
NOMINAL_PROBE = 0.0005
#: A sample's machine speed is judged from the probes taken within this
#: many seconds of it.
SPEED_SPAN = 1.0
#: Probes taken on each side of a set-up.
SETUP_PROBES = 3


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def scale_network(scale: str, seed: int = 0) -> ExpertNetwork:
    """A fresh (uncached) synthetic network at a named scale."""
    return build_expert_network(synthetic_corpus(SCALE_CONFIGS[scale], seed=seed))


class Stopwatch:
    """Named stage timer: ``with sw.stage("network"): ...``."""

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0


def repeat_setup(build, speed: SpeedLog, repeats: int = SETUP_REPEATS):
    """Run ``build(stopwatch)`` ``repeats`` times; keep the last system.

    ``build`` returns ``(system, release)``; every system but the last is
    released (servers stopped) before the next setup starts.  Returns
    ``(system, setup_s, stage_medians)``: medians over the setups, each
    set-up scaled by the machine speed its surrounding probes read.
    """
    scaled: list[dict[str, float]] = []
    system = None
    for i in range(repeats):
        for _ in range(SETUP_PROBES):
            speed.probe()
        sw = Stopwatch()
        start = time.perf_counter()
        system, release = build(sw)
        end = time.perf_counter()
        for _ in range(SETUP_PROBES):
            speed.probe()
        factor = speed.factor(start, end)
        scaled.append({name: took / factor for name, took in sw.stages.items()})
        if i < repeats - 1:
            release()
    stages = {name: median([s[name] for s in scaled]) for name in scaled[0]}
    return system, median([sum(s.values()) for s in scaled]), stages


class ProjectSampler:
    """Seeded project sampling over a network's skill-support band.

    The same draw as :func:`repro.eval.workload.sample_project`, with the
    eligible-skill list computed once so thousands of projects cost
    microseconds each.
    """

    def __init__(
        self, network: ExpertNetwork, *, min_support: int = 2, max_support: int | None = None
    ) -> None:
        index = network.skill_index
        self.eligible = sorted(
            s
            for s in index.skills()
            if index.support(s) >= min_support
            and (max_support is None or index.support(s) <= max_support)
        )

    def __call__(self, rng: random.Random, num_skills: int) -> list[str]:
        return sorted(rng.sample(self.eligible, num_skills))


def snap64(weight: float) -> float:
    """``weight`` rounded to a positive multiple of 1/64 (exact in binary)."""
    return max(1, round(weight * 64)) / 64


def make_bursts(
    network: ExpertNetwork,
    rng: random.Random,
    count: int,
    *,
    ops_per_burst: int = 2,
    h_index_every: int = 3,
    prefix: str = "",
) -> list[list[tuple]]:
    """``count`` mutation bursts, each a list of concrete network ops.

    Each op inserts a new collaboration (weight a multiple of 1/64) or
    halves an existing one — both only shorten distances, so a
    monolithic index absorbs them incrementally.  With ``h_index_every``
    > 0, every such burst also raises one expert's h-index, which
    reweights the authority-folded graph and forces a fold rebuild.
    ``prefix`` restricts every touched expert to ids starting with it.
    The script is generated against a private copy of the edge weights,
    so halving chains stay exact across bursts.
    """
    experts = sorted(e for e in network.expert_ids() if e.startswith(prefix))
    weights = {
        frozenset((u, v)): w
        for u, v, w in network.graph.edges()
        if u.startswith(prefix) and v.startswith(prefix)
    }
    edges = sorted(tuple(sorted(pair)) for pair in weights)
    h_index = {e: network.expert(e).h_index for e in experts}
    bursts: list[list[tuple]] = []
    for b in range(count):
        ops: list[tuple] = []
        while len(ops) < ops_per_burst:
            if rng.random() < 0.5:
                u, v = rng.sample(experts, 2)
                pair = frozenset((u, v))
                if pair in weights:
                    continue
                w = rng.randint(16, 48) / 64
                weights[pair] = w
                edges.append(tuple(sorted(pair)))
            else:
                u, v = rng.choice(edges)
                pair = frozenset((u, v))
                w = weights[pair] / 2
                weights[pair] = w
            ops.append(("add_collaboration", u, v, w))
        if h_index_every and b % h_index_every == h_index_every - 1:
            e = rng.choice(experts)
            h_index[e] += rng.randint(1, 5)
            ops.append(("update_h_index", e, h_index[e]))
        bursts.append(ops)
    return bursts


def apply_burst(network: ExpertNetwork, ops: list[tuple]) -> None:
    for op in ops:
        if op[0] == "add_collaboration":
            network.add_collaboration(op[1], op[2], weight=op[3])
        else:
            network.update_h_index(op[1], op[2])


def greedy_wire(skills: list[str], lam: float) -> dict:
    """A greedy ``sa-ca-cc`` request at gamma 0.6 in its wire (dict) form."""
    return {"skills": skills, "solver": "greedy", "objective": "sa-ca-cc",
            "gamma": 0.6, "lam": lam}


def solve_in_process(engine, wire: dict) -> TeamResponse:
    """One in-process request: decode the wire dict, solve, encode.

    The encoding is part of what a caller pays for, so it runs inside
    the timed call even though the text itself is not used.
    """
    response = engine.solve(TeamRequest.from_dict(wire))
    response.to_json()
    return response


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop never touches the library, so no change to the library can
    move it; only the machine can.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return time.perf_counter() - t0


class SpeedLog:
    """Speed probes on one timeline, to scale samples to nominal speed.

    The machine is shared: the same request, repeated, took anywhere from
    1x to 2x as long over stretches of seconds, in wall and CPU time
    alike, and the probe loop slowed with it.  Every timed sample is
    divided by the machine's slowdown around it: the median of the probes
    within ``SPEED_SPAN`` seconds, over ``NOMINAL_PROBE``.  The median
    ignores a probe that one short stall (or a busy server thread) hit.
    """

    def __init__(self) -> None:
        self.when: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        took = speed_probe()
        self.when.append(time.perf_counter())
        self.took.append(took)

    def factor(self, start: float, end: float) -> float:
        """The machine's slowdown over ``[start, end]`` (1.0: nominal)."""
        lo = bisect.bisect_left(self.when, start - SPEED_SPAN)
        hi = bisect.bisect_right(self.when, end + SPEED_SPAN)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return median(near) / NOMINAL_PROBE

    def scaled(self, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start``, at nominal speed."""
        return seconds / self.factor(start, start + seconds)


def timed_call(call, wire: dict) -> tuple[TeamResponse | None, float]:
    """``call(wire)`` and its wall time; a raised error becomes ``None``."""
    t0 = time.perf_counter()
    try:
        response = call(wire)
    except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        response = None
    return response, time.perf_counter() - t0


@dataclass
class Loop:
    """Per-request responses, start times and latencies of one loop."""

    speed: SpeedLog
    responses: list[TeamResponse | None] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)

    def add(self, call, wire: dict) -> TeamResponse | None:
        self.speed.probe()
        self.starts.append(time.perf_counter())
        response, elapsed = timed_call(call, wire)
        self.responses.append(response)
        self.latencies.append(elapsed)
        return response

    def scaled(self) -> list[float]:
        """Latencies at nominal machine speed."""
        return [self.speed.scaled(took, t0) for took, t0 in zip(self.latencies, self.starts)]


def closed_loop(
    call,
    requests: list[dict],
    speed: SpeedLog,
    *,
    seconds: float | None = None,
    count: int | None = None,
    every: int = 0,
    between=None,
) -> Loop:
    """One caller cycling through ``requests`` for ``seconds`` (or exactly
    ``count`` requests); request ``i`` is ``requests[i % len(requests)]``.

    With ``between``, it is called (untimed) before every ``every``-th
    request.
    """
    loop = Loop(speed)
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while count is None or len(loop.responses) < count:
        i = len(loop.responses)
        if between is not None and i % every == every - 1:
            between()
        loop.add(call, requests[i % len(requests)])
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return loop


class Freshness:
    """Mutation bursts through ``engine.mutate()`` during a timed phase.

    Each burst is timed from entering ``mutate()`` until the first read
    after it returns; that read pays for lock wait, the write and the
    lazy index reconciliation.
    """

    def __init__(self, engine, bursts: list[list[tuple]], speed: SpeedLog) -> None:
        self.engine = engine
        self.bursts = bursts
        self.speed = speed
        self.started: list[float] = []
        self.mutate: list[float] = []
        self.fresh: list[float] = []

    @property
    def left(self) -> bool:
        return len(self.started) < len(self.bursts)

    def apply(self) -> None:
        """Apply the next burst."""
        self.speed.probe()
        t0 = time.perf_counter()
        with self.engine.mutate() as network:
            apply_burst(network, self.bursts[len(self.started)])
        self.mutate.append(time.perf_counter() - t0)
        self.started.append(t0)

    def read(self, call, wire: dict) -> TeamResponse | None:
        """The first read after the last burst."""
        response, _ = timed_call(call, wire)
        self.answered(time.perf_counter())
        return response

    def answered(self, when: float) -> None:
        """The first read after the next unanswered burst returned at ``when``."""
        self.fresh.append(when - self.started[len(self.fresh)])

    def median_ms(self) -> float:
        """Median freshness at nominal machine speed."""
        scaled = [self.speed.scaled(f, t0) for f, t0 in zip(self.fresh, self.started)]
        return median(scaled) * 1e3


def replay_bursts(engine, bursts: list[list[tuple]]) -> None:
    """Apply ``bursts`` to a reference engine, in one writer section."""
    with engine.mutate() as network:
        for ops in bursts:
            apply_burst(network, ops)


def put_latencies(out: "Outcome", latencies: list[float]) -> None:
    out.put("latency_p50_ms", percentile(latencies, 0.5) * 1e3, "ms")
    out.put("latency_p90_ms", percentile(latencies, 0.9) * 1e3, "ms")


def response_failed(response: TeamResponse) -> bool:
    return response.error_kind not in ANSWER_KINDS


def read_ok(response: TeamResponse | None, wire: dict, *, warm: bool = True) -> bool:
    """A read answered without error, covering its project; a warm read
    must also have paid no index build."""
    if response is None or response_failed(response):
        return False
    if warm and (response.timing is None or response.timing.oracle_builds != 0):
        return False
    if not response.found:
        return True  # a typed negative answer (uncoverable / intractable)
    covered = {skill for skill, _ in response.team.assignments}
    return covered == set(wire["skills"])


def same_answer(response: TeamResponse | None, reference: TeamResponse | None) -> bool:
    return (
        response is not None
        and reference is not None
        and response.canonical_json() == reference.canonical_json()
    )


def seeded_inputs(make_inputs, seed: int):
    """``(make_inputs(seed), ok)``: ``ok`` when the same seed gives an
    identical stream and the next seed a different one."""
    inputs = make_inputs(seed)
    return inputs, inputs == make_inputs(seed) and inputs != make_inputs(seed + 1)


@dataclass
class Outcome:
    """What a workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks_ok: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def fail(self, count: int = 1) -> None:
        self.failed += count

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def base_info(workload: str, seed: int, scale: str, n: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "n": n,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def result_line(outcome: Outcome) -> str:
    correct = outcome.checks_ok and outcome.failed == 0
    return json.dumps(
        {
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in outcome.metrics.items()
            },
        }
    )
