"""Differential tests: the sharded oracle vs the monolithic PLL index.

The hard contract (ISSUE PR-10): for every ``(u, v)`` the sharded
oracle's distance is the *same float* the monolithic index returns, and
its paths are valid shortest paths.  Weights are dyadic (exactly
representable sums) wherever bit-identity is asserted, so float
associativity cannot blur the comparison.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.graph import Graph, GraphError
from repro.graph.distance import DijkstraOracle
from repro.graph.partition import plan_shards
from repro.graph.pll import PrunedLandmarkLabeling, pll_build_count
from repro.graph.sharded_oracle import ShardedPLLOracle


def dyadic_random_graph(
    rng: random.Random, *, n: int = 30, p: float = 0.1
) -> Graph:
    """A random graph whose weights are multiples of 1/64 (exact sums)."""
    g = Graph()
    for i in range(n):
        g.add_node(f"v{i}")
    for i in range(1, n):
        j = rng.randrange(i)
        g.add_edge(f"v{i}", f"v{j}", weight=rng.randint(1, 64) / 64.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(f"v{i}", f"v{j}", weight=rng.randint(1, 64) / 64.0)
    return g


def path_length(g: Graph, path: list) -> float:
    return sum(g.weight(a, b) for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_distances_bit_identical_to_monolithic(seed, k):
    rng = random.Random(seed)
    g = dyadic_random_graph(rng, n=28, p=0.08)
    if seed % 2:  # half the cases: add a disconnected island + isolate
        g.add_edge("isl0", "isl1", weight=0.5)
        g.add_node("alone")
    mono = PrunedLandmarkLabeling(g)
    sharded = ShardedPLLOracle(g, shards=k)
    nodes = list(g.nodes())
    for u in nodes:
        expected = mono.distances_from(u, nodes)
        got = sharded.distances_from(u, nodes)
        assert got == expected  # == is exact: inf == inf, bit-equal floats
        for v in nodes[:6]:
            assert sharded.distance(u, v) == mono.distance(u, v)


@pytest.mark.parametrize("k", [2, 4])
def test_paths_are_valid_shortest_paths(k):
    rng = random.Random(9)
    g = dyadic_random_graph(rng, n=24, p=0.1)
    mono = PrunedLandmarkLabeling(g)
    sharded = ShardedPLLOracle(g, shards=k)
    nodes = list(g.nodes())
    for u in nodes[::3]:
        for v in nodes[::4]:
            d = mono.distance(u, v)
            if math.isinf(d):
                with pytest.raises(GraphError):
                    sharded.path(u, v)
                continue
            path = sharded.path(u, v)
            assert path[0] == u and path[-1] == v
            assert path_length(g, path) == pytest.approx(d, abs=1e-12)


def test_distances_many_matches_monolithic():
    rng = random.Random(5)
    g = dyadic_random_graph(rng, n=20, p=0.12)
    mono = PrunedLandmarkLabeling(g)
    sharded = ShardedPLLOracle(g, shards=3)
    nodes = list(g.nodes())
    sources, targets = nodes[:7], nodes[7:]
    assert sharded.distances_many(sources, targets) == mono.distances_many(
        sources, targets
    )


def test_unknown_nodes_raise():
    g = Graph.from_edges([("a", "b")])
    sharded = ShardedPLLOracle(g, shards=2)
    with pytest.raises(GraphError):
        sharded.distance("a", "ghost")
    with pytest.raises(GraphError):
        sharded.distances_from("ghost", ["a"])
    with pytest.raises(GraphError):
        sharded.path("ghost", "a")


def test_self_distance_is_zero_and_disconnected_is_inf():
    g = Graph.from_edges([("a", "b", 0.5)])
    g.add_node("island")
    sharded = ShardedPLLOracle(g, shards=2)
    assert sharded.distance("a", "a") == 0.0
    assert sharded.distance("island", "island") == 0.0
    assert math.isinf(sharded.distance("a", "island"))


def two_block_graph() -> Graph:
    """Two 4-cycles joined at cut vertex ``m`` (dyadic weights).

    ``plan_shards(g, 2)`` cuts at ``m``: shard 0 holds ``a*`` + ``m``,
    shard 1 holds ``m`` + ``b*``.
    """
    return Graph.from_edges(
        [
            ("a0", "a1", 0.5),
            ("a1", "a2", 0.25),
            ("a2", "m", 1.0),
            ("m", "a0", 0.125),
            ("m", "b0", 0.5),
            ("b0", "b1", 2.0),
            ("b1", "b2", 0.25),
            ("b2", "m", 1.0),
        ]
    )


def assert_exact(oracle, g: Graph) -> None:
    """Every distance equals a plain Dijkstra's over ``g`` (dyadic: ==)."""
    reference = DijkstraOracle(g)
    nodes = list(g.nodes())
    for u in nodes:
        assert oracle.distances_from(u, nodes) == reference.distances_from(
            u, nodes
        )


def test_in_shard_insert_is_absorbed_exactly():
    g = two_block_graph()
    sharded = ShardedPLLOracle(g, shards=2)
    assert sharded.supports_incremental is True
    assert sharded.plan.shards_of("a0") != sharded.plan.shards_of("b0")
    before = pll_build_count()
    updated = sharded.clone(g.copy())
    assert_exact(updated, g)  # memoize some answers before the write
    updated.insert_edge("a0", "a2", 0.125)  # new in-shard chord
    updated.insert_edge("b0", "b1", 0.5)  # weight decrease
    assert pll_build_count() == before
    g2 = g.copy()
    g2.add_edge("a0", "a2", weight=0.125)
    g2.add_edge("b0", "b1", weight=0.5)
    assert_exact(updated, g2)
    # The original is untouched and still answers the old graph.
    assert_exact(sharded, g)
    for i in range(2):
        assert updated.shard_index(i) is not sharded.shard_index(i)
    assert updated.replaced_shards == (0, 1)


def test_insert_between_boundary_nodes_refreshes_the_summary():
    # Three blocks chained at m and n: the middle shard holds both
    # boundary nodes, so its local m-n distance is a summary edge.
    g = Graph.from_edges(
        [
            ("a0", "a1", 0.5), ("a1", "m", 0.25), ("m", "a0", 1.0),
            ("m", "c0", 2.0), ("c0", "n", 2.0), ("n", "c1", 1.0), ("c1", "m", 4.0),
            ("n", "b0", 0.5), ("b0", "b1", 0.25), ("b1", "n", 1.0),
        ]
    )
    sharded = ShardedPLLOracle(g, shards=3)
    assert set(sharded.plan.boundary) == {"m", "n"}
    updated = sharded.clone(g.copy())
    updated.insert_edge("m", "n", 0.5)  # chord across the middle block
    g2 = g.copy()
    g2.add_edge("m", "n", weight=0.5)
    assert_exact(updated, g2)
    assert updated.distance("a0", "b0") == 1.75  # 0.75 + 0.5 + 0.5
    assert_exact(sharded, g)


def test_clone_shares_shards_until_written():
    g = two_block_graph()
    sharded = ShardedPLLOracle(g, shards=2)
    updated = sharded.clone(g.copy())
    a_shard = sharded.plan.home_shard("a1")
    updated.insert_edge("a1", "m", 0.25)
    assert updated.replaced_shards == (a_shard,)
    b_shard = 1 - a_shard
    assert updated.shard_index(b_shard) is sharded.shard_index(b_shard)


def test_rebuild_shards_absorbs_a_weight_increase():
    g = two_block_graph()
    sharded = ShardedPLLOracle(g, shards=2)
    g2 = g.copy()
    g2.add_edge("m", "a0", weight=4.0)  # increase: not PLL-absorbable
    touched = [
        s for s in sharded.plan.shards_of("m") if s in sharded.plan.shards_of("a0")
    ]
    before = pll_build_count()
    updated = sharded.clone(g2)
    updated.rebuild_shards(touched)
    assert pll_build_count() == before + len(touched) == before + 1
    assert_exact(updated, g2)
    assert_exact(sharded, g)
    other = 1 - touched[0]
    assert updated.shard_index(other) is sharded.shard_index(other)


def test_edge_across_shards_is_refused():
    g = two_block_graph()
    sharded = ShardedPLLOracle(g, shards=2)
    updated = sharded.clone(g.copy())
    with pytest.raises(GraphError):
        updated.insert_edge("a1", "b1", 0.25)  # bypasses the cut vertex
    with pytest.raises(GraphError):
        updated.add_node("c")


def test_plan_must_cover_the_graph():
    g = Graph.from_edges([("a", "b"), ("b", "c")])
    partial = plan_shards(Graph.from_edges([("a", "b")]), 2)
    with pytest.raises(GraphError):
        ShardedPLLOracle(g, partial)


def test_introspection_shapes():
    rng = random.Random(2)
    g = dyadic_random_graph(rng, n=18, p=0.1)
    sharded = ShardedPLLOracle(g, shards=3)
    assert sharded.num_shards == 3
    total = 0
    for i in range(3):
        pll = sharded.shard_index(i)
        assert isinstance(pll, PrunedLandmarkLabeling)
        assert sharded.label_bytes(i) == pll.total_label_entries * 16
        total += pll.total_label_entries
    assert sharded.total_label_entries == total
    assert sharded.label_bytes() == total * 16


# ----------------------------------------------------------------------
# persistence: export_state / from_state
# ----------------------------------------------------------------------
def test_state_round_trip_zero_builds():
    rng = random.Random(3)
    g = dyadic_random_graph(rng, n=26, p=0.1)
    sharded = ShardedPLLOracle(g, shards=4)
    shard_labels, boundary = sharded.export_state()
    before = pll_build_count()
    restored = ShardedPLLOracle.from_state(
        g, sharded.plan, shard_labels, boundary
    )
    assert pll_build_count() == before  # zero PLL constructions
    nodes = list(g.nodes())
    for u in nodes[::2]:
        assert restored.distances_from(u, nodes) == sharded.distances_from(
            u, nodes
        )


def test_from_state_rejects_mismatched_shapes():
    g = Graph.from_edges([("a", "b"), ("c", "d")])
    sharded = ShardedPLLOracle(g, shards=2)
    shard_labels, boundary = sharded.export_state()
    with pytest.raises(GraphError):
        ShardedPLLOracle.from_state(g, sharded.plan, shard_labels[:1], boundary)
    bad = dict(boundary, boundary=["a", "ghost-extra"])
    with pytest.raises(GraphError):
        ShardedPLLOracle.from_state(g, sharded.plan, shard_labels, bad)
