"""Unit tests for the DistanceOracle protocol implementations."""

import pytest

from repro.graph import (
    DijkstraOracle,
    DistanceOracle,
    Graph,
    GraphError,
    PrunedLandmarkLabeling,
    build_oracle,
)
from repro.graph.sharded_oracle import ShardedPLLOracle

from ..conftest import PLL_KERNELS, build_pll


@pytest.fixture()
def graph():
    return Graph.from_edges(
        [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0), ("c", "d", 1.0)]
    )


def test_build_oracle_kinds(graph):
    assert isinstance(build_oracle(graph, "pll"), PrunedLandmarkLabeling)
    assert isinstance(build_oracle(graph, "dijkstra"), DijkstraOracle)
    with pytest.raises(ValueError):
        build_oracle(graph, "warp-drive")


def test_both_satisfy_protocol(graph):
    for kind in ("pll", "dijkstra"):
        oracle = build_oracle(graph, kind)
        assert isinstance(oracle, DistanceOracle)


def test_dijkstra_oracle_distance_and_path(graph):
    oracle = DijkstraOracle(graph)
    assert oracle.distance("a", "d") == pytest.approx(4.0)
    path = oracle.path("a", "d")
    assert path == ["a", "b", "c", "d"]


def test_dijkstra_oracle_unreachable(graph):
    graph.add_node("island")
    oracle = DijkstraOracle(graph)
    assert oracle.distance("a", "island") == float("inf")
    with pytest.raises(GraphError):
        oracle.path("a", "island")


def test_dijkstra_oracle_unknown_node(graph):
    oracle = DijkstraOracle(graph)
    with pytest.raises(GraphError):
        oracle.distance("a", "ghost")


@pytest.mark.parametrize("name", [*PLL_KERNELS, "dijkstra", "sharded"])
@pytest.mark.parametrize("u, v", [("a", "zz"), ("zz", "a"), ("zz", "zz")])
def test_path_with_an_unknown_node_raises(graph, name, u, v):
    if name == "dijkstra":
        oracle = DijkstraOracle(graph)
    elif name == "sharded":
        oracle = ShardedPLLOracle(graph, shards=2)
    else:
        oracle = build_pll(graph, name)
    with pytest.raises(GraphError):
        oracle.path(u, v)


def test_cache_eviction_keeps_answers_correct(graph):
    oracle = DijkstraOracle(graph, max_cached_sources=1)
    d1 = oracle.distance("a", "d")
    d2 = oracle.distance("d", "a")  # evicts 'a'
    d3 = oracle.distance("a", "d")  # recomputes
    assert d1 == d3 == d2 == pytest.approx(4.0)
    with pytest.raises(ValueError):
        DijkstraOracle(graph, max_cached_sources=0)


def test_oracles_agree_everywhere(graph):
    pll = build_oracle(graph, "pll")
    dij = build_oracle(graph, "dijkstra")
    nodes = sorted(graph.nodes())
    for a in nodes:
        for b in nodes:
            assert pll.distance(a, b) == pytest.approx(dij.distance(a, b))
