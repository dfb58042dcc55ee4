"""Batch distance API, per-source cache, and the batched PLL build.

Four equivalences are pinned down here:

* ``distances_from`` / ``distances_many`` agree with point ``distance()``
  and with plain Dijkstra ground truth, on both oracle kinds;
* ``distance_matrix`` equals ``distances_from`` row for row, bit for
  bit, on every oracle and both PLL kernels, and counts and traces
  like it;
* the doubling batch schedule and the classic ``batch_size=1`` build both
  answer exact distances and paths;
* the Steiner closure answers the same through an oracle as without one.
"""

import random

import pytest

from repro import obs
from repro.graph import (
    DijkstraOracle,
    DistanceOracle,
    Graph,
    GraphError,
    PrunedLandmarkLabeling,
    build_oracle,
    dijkstra,
    mst_steiner_tree,
)
from repro.graph.pll_kernel import numpy_available
from repro.graph.sharded_oracle import ShardedPLLOracle

from ..conftest import PLL_KERNELS, build_pll, make_random_network

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="distance_matrix returns a numpy array"
)

#: Every oracle and kernel ``distance_matrix`` must agree with.
MATRIX_ORACLES = (*PLL_KERNELS, "cramped", "dijkstra", "sharded")


def _random_graph(seed: int, n: int = 40) -> Graph:
    return make_random_network(random.Random(seed), n=n, p=0.15).graph


def _matrix_oracle(name: str, graph: Graph):
    if name == "dijkstra":
        return DijkstraOracle(graph)
    if name == "sharded":
        return ShardedPLLOracle(graph, shards=3)
    if name == "cramped":
        pll = PrunedLandmarkLabeling(graph)
        pll.MAX_CACHED_SOURCES = 2
        return pll
    return build_pll(graph, name)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


# ----------------------------------------------------------------------
# batch API correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["pll", "dijkstra"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distances_many_agrees_with_point_and_dijkstra(kind, seed):
    g = _random_graph(seed)
    g.add_node("island")  # exercise the inf path
    oracle = build_oracle(g, kind)
    nodes = sorted(g.nodes(), key=repr)
    sources, targets = nodes[::3], nodes[::2]
    many = oracle.distances_many(sources, targets)
    assert set(many) == {(s, t) for s in sources for t in targets}
    for s in sources:
        truth, _ = dijkstra(g, s)
        batch = oracle.distances_from(s, targets)
        for t in targets:
            expected = truth.get(t, float("inf"))
            assert many[(s, t)] == batch[t]
            assert batch[t] == pytest.approx(expected)
            assert oracle.distance(s, t) == pytest.approx(expected)


@pytest.mark.parametrize("kind", ["pll", "dijkstra"])
def test_distances_from_unknown_node_raises(kind):
    g = Graph.from_edges([("a", "b", 1.0)])
    oracle = build_oracle(g, kind)
    with pytest.raises(GraphError):
        oracle.distances_from("ghost", ["a"])
    with pytest.raises(GraphError):
        oracle.distances_from("a", ["ghost"])


def test_pll_source_cache_is_bounded_and_correct():
    g = _random_graph(3)
    pll = PrunedLandmarkLabeling(g)
    pll.MAX_CACHED_SOURCES  # class-level bound exists
    nodes = sorted(g.nodes(), key=repr)
    first = pll.distances_from(nodes[0], nodes)
    again = pll.distances_from(nodes[0], nodes)  # served from cache
    assert first == again
    # Evictions must never change answers.
    small_cache = PrunedLandmarkLabeling(g)
    small_cache.MAX_CACHED_SOURCES = 2
    for s in nodes[:6]:
        batch = small_cache.distances_from(s, nodes)
        for t in nodes[:10]:
            assert batch[t] == pll.distance(s, t)
    assert len(small_cache._source_cache) <= 2


@needs_numpy
@pytest.mark.parametrize("name", MATRIX_ORACLES)
def test_distance_matrix_equals_distances_from_bit_for_bit(name):
    g = _random_graph(6)
    g.add_edge("island0", "island1", weight=0.5)  # inf entries
    oracle = _matrix_oracle(name, g)
    nodes = sorted(g.nodes(), key=repr)
    # A repeated source and repeated targets; most sources are targets.
    sources = [*nodes[::4], nodes[0], "island0"]
    targets = [*nodes[::3], nodes[1], nodes[1], "island1"]
    matrix = oracle.distance_matrix(sources, targets)
    assert matrix.shape == (len(sources), len(targets))
    assert matrix.dtype == "float64"
    assert float("inf") in matrix and 0.0 in matrix
    for i, source in enumerate(sources):
        row = oracle.distances_from(source, targets)
        assert _hex(matrix[i].tolist()) == _hex(row[t] for t in targets)
        for j, target in enumerate(targets):
            if target == source:
                assert _hex([matrix[i, j]]) == _hex([0.0])
    assert oracle.distance_matrix([], targets).shape == (0, len(targets))
    assert oracle.distance_matrix(sources, []).shape == (len(sources), 0)


@needs_numpy
@pytest.mark.parametrize("name", MATRIX_ORACLES)
def test_distance_matrix_unknown_node_raises(name):
    g = Graph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)])
    oracle = _matrix_oracle(name, g)
    with pytest.raises(GraphError):
        oracle.distance_matrix(["ghost"], ["a"])
    with pytest.raises(GraphError):
        oracle.distance_matrix(["a"], ["b", "ghost"])


def _kernel_counters() -> list:
    registry = obs.global_registry()
    return [
        registry.counter(f"kernel_{what}_numpy")
        for what in ("queries", "targets", "seconds")
    ]


@needs_numpy
def test_distance_matrix_counts_rows_and_traces_cold_sources():
    g = _random_graph(7)
    pll = PrunedLandmarkLabeling(g)
    nodes = sorted(g.nodes(), key=repr)
    pll.distances_from(nodes[0], nodes)  # warm: no span below
    counters = _kernel_counters()
    before = [c.value for c in counters]
    with obs.trace("test") as root:
        pll.distance_matrix(nodes[:3], nodes)
    queries, targets, seconds = (c.value - b for c, b in zip(counters, before))
    assert (queries, targets) == (3, 3 * len(nodes))
    assert seconds > 0
    assert [child.name for child in root.children] == ["pll.query"] * 2
    for child in root.children:
        assert child.attributes == {"kernel": "numpy", "targets": len(nodes)}


@needs_numpy
def test_sharded_distance_matrix_traces_shard_queries():
    # Two triangles sharing the cut vertex "c": one shard each.
    g = Graph.from_edges(
        [
            ("a", "b", 1.0),
            ("b", "c", 1.0),
            ("a", "c", 2.0),
            ("c", "d", 1.0),
            ("d", "e", 1.0),
            ("c", "e", 2.0),
        ]
    )
    sharded = ShardedPLLOracle(g, shards=2)
    assert sharded.num_shards == 2
    with obs.trace("test") as root:
        sharded.distance_matrix(["a", "e"], ["a", "b", "c", "d", "e"])
    spans = [child for child in root.children if child.name == "pll.query"]
    assert spans
    assert {span.attributes["shard"] for span in spans} == {0, 1}


def test_protocol_includes_batch_api():
    g = Graph.from_edges([("a", "b", 1.0)])
    for kind in ("pll", "dijkstra"):
        assert isinstance(build_oracle(g, kind), DistanceOracle)


# ----------------------------------------------------------------------
# batched build
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [None, 1], ids=["doubling", "classic"])
def test_build_exact_distances_and_paths(batch_size):
    g = _random_graph(4, n=60)
    pll = PrunedLandmarkLabeling(g, batch_size=batch_size)
    rng = random.Random(7)
    nodes = sorted(g.nodes(), key=repr)
    for _ in range(60):
        a, b = rng.choice(nodes), rng.choice(nodes)
        truth, _ = dijkstra(g, a, targets=[b])
        expected = truth.get(b, float("inf"))
        assert pll.distance(a, b) == pytest.approx(expected)
        if a != b and expected < float("inf"):
            path = pll.path(a, b)
            assert path[0] == a and path[-1] == b
            weight = sum(g.weight(u, v) for u, v in zip(path, path[1:]))
            assert weight == pytest.approx(expected)


def test_batched_schedule_grows_labels_only_marginally():
    g = _random_graph(5, n=80)
    classic = PrunedLandmarkLabeling(g, batch_size=1)
    batched = PrunedLandmarkLabeling(g)
    assert batched.total_label_entries >= classic.total_label_entries
    assert batched.total_label_entries <= 1.25 * classic.total_label_entries


def test_invalid_build_parameters():
    g = Graph.from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        PrunedLandmarkLabeling(g, batch_size=0)


# ----------------------------------------------------------------------
# batched consumers
# ----------------------------------------------------------------------
def test_steiner_oracle_closure_matches_plain():
    g = _random_graph(13, n=40)
    terminals = sorted(g.nodes(), key=repr)[:5]
    plain = mst_steiner_tree(g, terminals)
    via_oracle = mst_steiner_tree(g, terminals, oracle=DijkstraOracle(g))
    assert sorted(plain.edges()) == sorted(via_oracle.edges())
