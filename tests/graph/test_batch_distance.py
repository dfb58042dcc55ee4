"""Batch distance API, per-source cache, and the batched PLL build.

Three equivalences are pinned down here:

* ``distances_from`` / ``distances_many`` agree with point ``distance()``
  and with plain Dijkstra ground truth, on both oracle kinds;
* the doubling batch schedule and the classic ``batch_size=1`` build both
  answer exact distances and paths;
* the Steiner closure answers the same through an oracle as without one.
"""

import random

import pytest

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

from ..conftest import make_random_network


def _random_graph(seed: int, n: int = 40) -> Graph:
    return make_random_network(random.Random(seed), n=n, p=0.15).graph


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
