"""What the holder-first greedy sweep costs, records and depends on.

* Store passes scale with the skill holders of a request, not with the
  number of roots, even when the source cache holds only two rows (the
  root-first loop made one pass per root, so its cache stopped hitting
  once there were more roots than cache slots).
* A traced solve shows one ``solver.sweep`` span carrying the holder
  count, and tracing never changes the answer.
* Canonical JSON does not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.api import TeamFormationEngine, TeamRequest
from repro.core import GreedyTeamFinder, ObjectiveScales
from repro.core.greedy import search_graph_for
from repro.graph.pll import PrunedLandmarkLabeling
from repro.graph.pll_kernel import numpy_available

from ..conftest import make_random_network

PROJECT = ("a", "b", "c")


def _holders(network, project) -> int:
    return sum(len(network.experts_with_skill(s)) for s in project)


def _views(teams):
    return [(t.root, t.assignments, list(t.tree.edges())) for t in teams]


@pytest.mark.skipif(not numpy_available(), reason="counts numpy store passes")
def test_store_passes_are_bounded_by_holders_not_roots():
    network = make_random_network(random.Random(7), n=60, p=0.08)
    scales = ObjectiveScales.from_network(network)
    graph = search_graph_for(network, "sa-ca-cc", 0.6, scales)

    def finder(oracle):
        return GreedyTeamFinder(
            network, scales=scales, oracle=oracle, search_graph=graph
        )

    cramped = PrunedLandmarkLabeling(graph)
    cramped.MAX_CACHED_SOURCES = 2
    passes = obs.global_registry().counter("flat_row_mins_numpy")
    before = passes.value
    teams = finder(cramped).find_top_k(PROJECT, k=3)
    used = passes.value - before

    holders = _holders(network, PROJECT)
    assert holders < len(network)  # the bound below is not vacuous
    assert 0 < used <= holders
    assert len(cramped._source_cache) <= 2
    default = finder(PrunedLandmarkLabeling(graph)).find_top_k(PROJECT, k=3)
    assert _views(teams) == _views(default)


def _spans(tree: dict, name: str) -> list[dict]:
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node["name"] == name:
            found.append(node)
        stack.extend(node.get("children", ()))
    return found


def test_traced_solve_records_one_sweep_span():
    network = make_random_network(random.Random(3), n=30, p=0.1)
    request = TeamRequest(skills=PROJECT, solver="greedy", k=3)
    untraced = TeamFormationEngine(network).solve(request)
    assert untraced.timing.trace is None

    tracer = obs.get_tracer()
    tracer.enable()
    try:
        traced = TeamFormationEngine(network).solve(request)
    finally:
        tracer.disable()
        tracer.clear()

    tree = traced.timing.trace
    (sweep,) = _spans(tree, "solver.sweep")
    assert sweep["attrs"] == {
        "roots": len(network),
        "skills": len(PROJECT),
        "holders": _holders(network, PROJECT),
    }
    assert len(_spans(tree, "solver.materialize")) == 1
    assert traced.canonical_json() == untraced.canonical_json()


# Greedy and rarest_first answers on the tiny benchmark network, digested.
_DIGEST_SCRIPT = """
import hashlib, json
from repro.api import TeamFormationEngine, TeamRequest
from repro.eval.workload import benchmark_network, sample_projects

network = benchmark_network("tiny", seed=0)
engine = TeamFormationEngine(network)
digest, edges = hashlib.sha256(), 0
for size in (4, 6):
    for project in sample_projects(network, size, 4, seed=size):
        for solver, lam in (("greedy", 0.2), ("greedy", 0.6), ("rarest_first", 0.6)):
            request = TeamRequest(skills=tuple(project), solver=solver, lam=lam, k=3)
            response = engine.solve(request)
            edges = max(edges, len(response.team.edges))
            digest.update(response.canonical_json().encode())
print(json.dumps({"digest": digest.hexdigest(), "edges": edges}))
"""


def test_canonical_json_is_independent_of_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        runs.append(json.loads(out.stdout))
    # Sums over three or more edges are where insertion order shows.
    assert min(run["edges"] for run in runs) >= 3
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, digests
