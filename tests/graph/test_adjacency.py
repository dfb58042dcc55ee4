"""Unit tests for the Graph storage substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Graph, GraphError


def test_add_edge_creates_nodes():
    g = Graph()
    g.add_edge("a", "b", weight=2.0)
    assert g.has_node("a") and g.has_node("b")
    assert g.num_nodes == 2
    assert g.num_edges == 1


def test_edge_weight_is_symmetric():
    g = Graph()
    g.add_edge("a", "b", weight=2.5)
    assert g.weight("a", "b") == 2.5
    assert g.weight("b", "a") == 2.5


def test_add_edge_overwrites_weight_without_duplicating():
    g = Graph()
    g.add_edge(1, 2, weight=1.0)
    g.add_edge(1, 2, weight=3.0)
    assert g.num_edges == 1
    assert g.weight(1, 2) == 3.0


def test_self_loop_rejected():
    g = Graph()
    with pytest.raises(GraphError):
        g.add_edge("x", "x")


def test_negative_weight_rejected():
    g = Graph()
    with pytest.raises(GraphError):
        g.add_edge("a", "b", weight=-0.1)


def test_node_data_merges():
    g = Graph()
    g.add_node("a", color="red")
    g.add_node("a", size=3)
    assert g.node_data("a") == {"color": "red", "size": 3}


def test_missing_node_raises():
    g = Graph()
    with pytest.raises(GraphError):
        g.neighbors("ghost")
    with pytest.raises(GraphError):
        g.node_data("ghost")
    with pytest.raises(GraphError):
        g.weight("a", "b")


def test_remove_edge_and_node():
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    g.remove_edge("a", "b")
    assert not g.has_edge("a", "b")
    assert g.num_edges == 2
    g.remove_node("c")
    assert not g.has_node("c")
    assert g.num_edges == 0
    with pytest.raises(GraphError):
        g.remove_edge("a", "b")
    with pytest.raises(GraphError):
        g.remove_node("ghost")


def test_edges_iterates_each_once():
    g = Graph.from_edges([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)])
    edges = list(g.edges())
    assert len(edges) == 3
    assert {frozenset((u, v)) for u, v, _ in edges} == {
        frozenset("ab"),
        frozenset("bc"),
        frozenset("ac"),
    }
    assert g.total_weight() == pytest.approx(6.0)


def test_subgraph_induced():
    g = Graph.from_edges([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)])
    g.add_node("a", role="x")
    sub = g.subgraph(["a", "b"])
    assert sub.num_nodes == 2
    assert sub.num_edges == 1
    assert sub.weight("a", "b") == 1.0
    assert sub.node_data("a") == {"role": "x"}
    with pytest.raises(GraphError):
        g.subgraph(["a", "ghost"])


def test_copy_is_independent():
    g = Graph.from_edges([("a", "b", 1.0)])
    h = g.copy()
    h.add_edge("a", "c")
    assert not g.has_node("c")


def test_reweighted_applies_rule_and_keeps_data():
    g = Graph.from_edges([("a", "b", 2.0)])
    g.add_node("a", tag=1)
    h = g.reweighted(lambda u, v, w: w * 10)
    assert h.weight("a", "b") == 20.0
    assert g.weight("a", "b") == 2.0
    assert h.node_data("a") == {"tag": 1}


def test_degree_and_contains_and_len():
    g = Graph.from_edges([("a", "b"), ("a", "c")])
    assert g.degree("a") == 2
    assert "a" in g
    assert "z" not in g
    assert len(g) == 3


def test_from_edges_mixed_arity():
    g = Graph.from_edges([("a", "b"), ("b", "c", 0.5)])
    assert g.weight("a", "b") == 1.0
    assert g.weight("b", "c") == 0.5


def reference_subgraph(g: Graph, nodes) -> Graph:
    """The edge-by-edge ``Graph.subgraph`` the one-pass build replaced."""
    keep = set(nodes)
    missing = [n for n in keep if n not in g._adj]
    if missing:
        raise GraphError(f"nodes not in graph: {missing!r}")
    ordered = [n for n in g._adj if n in keep]
    sub = Graph()
    for node in ordered:
        sub.add_node(node, **g._node_data[node])
    for node in ordered:
        for neighbor, w in g._adj[node].items():
            if neighbor in keep and not sub.has_edge(node, neighbor):
                sub.add_edge(node, neighbor, weight=w)
    return sub


@st.composite
def graphs_and_subsets(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    g = Graph()
    for node in draw(st.permutations(range(n))):
        if draw(st.booleans()):
            g.add_node(node, tag=draw(st.integers(0, 3)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=40) if pairs else st.just([])):
        if draw(st.booleans()):
            u, v = v, u
        g.add_edge(u, v, weight=draw(st.integers(0, 8)) / 4)
    nodes = list(g.nodes())
    subset = draw(st.lists(st.sampled_from(nodes), unique=True) if nodes else st.just([]))
    return g, subset


@given(graphs_and_subsets())
def test_subgraph_matches_the_edge_by_edge_build(case):
    g, subset = case
    # ``copy`` keeps every row as it is; ``subgraph`` canonicalizes.
    for got, want in (
        (g.subgraph(subset), reference_subgraph(g, subset)),
        (g.copy(), g),
    ):
        assert list(got._adj) == list(want._adj)
        for node in want._adj:
            assert list(got._adj[node].items()) == list(want._adj[node].items())
            assert got._adj[node] is not g._adj[node]
        assert list(got._node_data.items()) == list(want._node_data.items())
        for node in want._node_data:
            assert got._node_data[node] is not g._node_data[node]
        assert got.num_edges == want.num_edges
