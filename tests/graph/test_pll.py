"""Unit + randomized tests for the pruned-landmark-labeling oracle."""

import random

import networkx as nx
import pytest

from repro.graph import (
    Graph,
    GraphError,
    PrunedLandmarkLabeling,
    assign_random_weights,
    erdos_renyi,
    largest_component,
)


@pytest.fixture()
def small_graph():
    return Graph.from_edges(
        [
            ("a", "b", 1.0),
            ("b", "c", 2.0),
            ("a", "c", 4.0),
            ("c", "d", 1.0),
            ("b", "d", 5.0),
        ]
    )


def test_distance_matches_dijkstra(small_graph):
    pll = PrunedLandmarkLabeling(small_graph)
    assert pll.distance("a", "d") == pytest.approx(4.0)
    assert pll.distance("a", "c") == pytest.approx(3.0)
    assert pll.distance("b", "b") == 0.0


def test_path_endpoints_and_weight(small_graph):
    pll = PrunedLandmarkLabeling(small_graph)
    path = pll.path("a", "d")
    assert path[0] == "a" and path[-1] == "d"
    weight = sum(
        small_graph.weight(u, v) for u, v in zip(path, path[1:])
    )
    assert weight == pytest.approx(pll.distance("a", "d"))


def test_trivial_path_same_node(small_graph):
    pll = PrunedLandmarkLabeling(small_graph)
    assert pll.path("a", "a") == ["a"]


def test_disconnected_pair_is_inf():
    g = Graph.from_edges([("a", "b", 1.0)])
    g.add_node("z")
    pll = PrunedLandmarkLabeling(g)
    assert pll.distance("a", "z") == float("inf")
    with pytest.raises(GraphError):
        pll.path("a", "z")


def test_unknown_node_raises(small_graph):
    pll = PrunedLandmarkLabeling(small_graph)
    with pytest.raises(GraphError):
        pll.distance("a", "ghost")
    with pytest.raises(GraphError):
        pll.distance("ghost", "ghost")


def test_label_of_unknown_node_raises_graph_error(small_graph):
    # Like distance / distances_from / path: a typed miss, not a KeyError.
    pll = PrunedLandmarkLabeling(small_graph)
    with pytest.raises(GraphError, match="'zz' not in index"):
        pll.label_of("zz")


def test_custom_order_must_be_permutation(small_graph):
    with pytest.raises(GraphError):
        PrunedLandmarkLabeling(small_graph, order=["a", "b"])


def test_label_size_bounded_by_n():
    g = largest_component(erdos_renyi(30, 0.2, seed=5))
    pll = PrunedLandmarkLabeling(g)
    assert 1.0 <= pll.average_label_size <= g.num_nodes
    assert pll.total_label_entries >= g.num_nodes  # every node knows itself


def test_label_of_contains_self_landmark(small_graph):
    pll = PrunedLandmarkLabeling(small_graph)
    # The highest-ranked node labels itself at distance 0.
    top = max(small_graph.nodes(), key=lambda n: small_graph.degree(n))
    assert (top, 0.0) in pll.label_of(top)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_against_networkx(seed):
    rng = random.Random(seed)
    g = largest_component(
        assign_random_weights(erdos_renyi(35, 0.12, seed=rng), seed=rng)
    )
    if g.num_nodes < 2:
        pytest.skip("degenerate component")
    ng = nx.Graph()
    for u, v, w in g.edges():
        ng.add_edge(u, v, weight=w)
    pll = PrunedLandmarkLabeling(g)
    nodes = sorted(g.nodes())
    for _ in range(40):
        a, b = rng.choice(nodes), rng.choice(nodes)
        expected = nx.shortest_path_length(ng, a, b, weight="weight")
        assert pll.distance(a, b) == pytest.approx(expected)
        path = pll.path(a, b)
        assert path[0] == a and path[-1] == b
        weight = sum(g.weight(u, v) for u, v in zip(path, path[1:]))
        assert weight == pytest.approx(expected)
