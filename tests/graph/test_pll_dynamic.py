"""Differential suite for incremental PLL maintenance.

The property at stake is *exactness under mutation*: after any sequence
of node additions, edge insertions and weight decreases absorbed via
:meth:`PrunedLandmarkLabeling.add_node` / ``insert_edge``, every
pairwise distance must equal (exactly — weights are quarter-integers,
so all path sums are exact binary floats) both

* a fresh Dijkstra on the mutated graph (ground truth), and
* a from-scratch PLL rebuild of the mutated graph,

and every reconstructed path must weigh its reported distance.  Random
graphs and random mutation sequences are generated by hypothesis; the
``ci`` profile (``HYPOTHESIS_PROFILE=ci``) widens the search.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.graph.adjacency import Graph, GraphError
from repro.graph.dijkstra import dijkstra
from repro.graph.pll import PrunedLandmarkLabeling, pll_build_count

from ..conftest import AVAILABLE_PLL_KERNELS, build_pll
from .pll_reference import RowDictReference

#: Quarter-integer weights: closed under addition without rounding, so
#: "exactly equal" below means exactly equal.
WEIGHTS = [0.25 * k for k in range(1, 17)]

weight_st = st.sampled_from(WEIGHTS)


def all_pairs_dijkstra(graph: Graph) -> dict[tuple, float]:
    out = {}
    for source in graph.nodes():
        dist, _ = dijkstra(graph, source)
        for target in graph.nodes():
            out[(source, target)] = dist.get(target, float("inf"))
    return out


def assert_index_exact(pll: PrunedLandmarkLabeling, graph: Graph) -> None:
    """The live index == fresh Dijkstra == fresh PLL rebuild, pairwise."""
    truth = all_pairs_dijkstra(graph)
    rebuilt = PrunedLandmarkLabeling(graph)
    for (source, target), expected in truth.items():
        assert pll.distance(source, target) == expected
        assert rebuilt.distance(source, target) == expected
        if source != target and expected < float("inf"):
            path = pll.path(source, target)
            assert path[0] == source and path[-1] == target
            weight = sum(graph.weight(u, v) for u, v in zip(path, path[1:]))
            assert weight == expected


@given(data=st.data())
def test_mutation_sequences_stay_exact(data):
    """Random graph + random mutation sequence, checked after every step."""
    num_nodes = data.draw(st.integers(min_value=2, max_value=8), label="n")
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if data.draw(st.booleans(), label=f"edge{i}-{j}"):
                graph.add_edge(i, j, weight=data.draw(weight_st, label=f"w{i}-{j}"))
    pll = PrunedLandmarkLabeling(graph)

    num_ops = data.draw(st.integers(min_value=1, max_value=6), label="ops")
    for op in range(num_ops):
        if data.draw(st.booleans(), label=f"op{op}-is-node"):
            pll.add_node(num_nodes)
            num_nodes += 1
        else:
            u = data.draw(
                st.integers(min_value=0, max_value=num_nodes - 1), label=f"u{op}"
            )
            v = data.draw(
                st.integers(min_value=0, max_value=num_nodes - 1), label=f"v{op}"
            )
            if u == v:
                continue
            weight = data.draw(weight_st, label=f"w{op}")
            if graph.has_edge(u, v):
                weight = min(weight, graph.weight(u, v))  # decrease-only
            pll.insert_edge(u, v, weight)
        assert_index_exact(pll, graph)


@given(data=st.data())
def test_incremental_equals_rebuilt_labels_queries(data):
    """Batch of insertions, then one exhaustive equality check.

    Complements the per-step property with longer sequences (cheaper:
    one check at the end), including repeated reweightings of the same
    edge.
    """
    num_nodes = data.draw(st.integers(min_value=3, max_value=10), label="n")
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    pll = PrunedLandmarkLabeling(graph)
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_nodes - 1),
                st.integers(min_value=0, max_value=num_nodes - 1),
                weight_st,
            ),
            min_size=1,
            max_size=20,
        ),
        label="edges",
    )
    for u, v, weight in edges:
        if u == v:
            continue
        if graph.has_edge(u, v):
            weight = min(weight, graph.weight(u, v))
        pll.insert_edge(u, v, weight)
    assert_index_exact(pll, graph)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_randomized_stress_larger_graphs(seed):
    """Seeded medium-size stress: 40 nodes, 25 mutations, sampled checks."""
    rng = random.Random(seed)
    num_nodes = 40
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if rng.random() < 0.08:
                graph.add_edge(i, j, weight=rng.choice(WEIGHTS))
    pll = PrunedLandmarkLabeling(graph)
    for _ in range(25):
        u, v = rng.sample(range(num_nodes), 2)
        weight = rng.choice(WEIGHTS)
        if graph.has_edge(u, v):
            weight = min(weight, graph.weight(u, v))
        pll.insert_edge(u, v, weight)
    truth = all_pairs_dijkstra(graph)
    nodes = list(range(num_nodes))
    for _ in range(300):
        u, v = rng.choice(nodes), rng.choice(nodes)
        assert pll.distance(u, v) == truth[(u, v)]


# ----------------------------------------------------------------------
# deterministic unit behavior
# ----------------------------------------------------------------------
def test_insert_edge_joins_components():
    graph = Graph.from_edges([("a", "b", 1.0), ("c", "d", 2.0)])
    pll = PrunedLandmarkLabeling(graph)
    assert pll.distance("a", "c") == float("inf")
    pll.insert_edge("b", "c", 0.5)
    assert pll.distance("a", "d") == 3.5
    assert pll.path("a", "d") == ["a", "b", "c", "d"]


def test_insert_edge_rejects_weight_increase():
    graph = Graph.from_edges([("a", "b", 1.0)])
    pll = PrunedLandmarkLabeling(graph)
    with pytest.raises(ValueError, match="rebuild"):
        pll.insert_edge("a", "b", 2.0)
    # Equal weight is a no-op repair, not an error.
    pll.insert_edge("a", "b", 1.0)
    assert pll.distance("a", "b") == 1.0


def test_insert_edge_rejects_unknown_node_and_self_loop():
    graph = Graph.from_edges([("a", "b", 1.0)])
    pll = PrunedLandmarkLabeling(graph)
    with pytest.raises(GraphError):
        pll.insert_edge("a", "ghost", 1.0)
    with pytest.raises(GraphError):
        pll.insert_edge("a", "a", 1.0)


def test_add_node_is_idempotent_and_isolated():
    graph = Graph.from_edges([("a", "b", 1.0)])
    pll = PrunedLandmarkLabeling(graph)
    pll.add_node("z")
    pll.add_node("z")
    assert pll.distance("a", "z") == float("inf")
    assert pll.distance("z", "z") == 0.0
    pll.insert_edge("b", "z", 0.25)
    assert pll.distance("a", "z") == 1.25


def test_mutation_invalidates_source_cache():
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    pll = PrunedLandmarkLabeling(graph)
    assert pll.distances_from("a", ["c"]) == {"c": 2.0}  # memoized
    pll.insert_edge("a", "c", 0.5)
    assert pll.distances_from("a", ["c"]) == {"c": 0.5}


def test_incremental_updates_counter():
    graph = Graph.from_edges([("a", "b", 1.0)])
    pll = PrunedLandmarkLabeling(graph)
    assert pll.incremental_updates == 0
    pll.add_node("z")
    pll.insert_edge("a", "z", 1.0)
    assert pll.incremental_updates == 2


def test_apply_publishes_one_store_and_keeps_steps_before_a_failure():
    graph = Graph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    pll = PrunedLandmarkLabeling(graph)
    stores = obs.global_registry().counter("pll_freezes")
    before = stores.value
    pll.apply([("node", "z"), ("edge", "c", "z", 0.5), ("edge", "a", "c", 1.0)])
    assert stores.value == before + 1
    assert pll.incremental_updates == 3
    assert pll.distance("a", "z") == 1.5
    with pytest.raises(GraphError):
        pll.apply([("edge", "a", "z", 0.25), ("edge", "a", "q", 1.0)])
    assert pll.incremental_updates == 4
    assert pll.distance("a", "z") == 0.25
    assert pll.distances_from("z", ["a", "c"]) == {"a": 0.25, "c": 0.5}


# ----------------------------------------------------------------------
# both kernels after mutations, and zero-build round-trips
# ----------------------------------------------------------------------
def _apply_random_mutations(data, indexes, num_nodes: int) -> int:
    """Draw a random add_node / insert_edge sequence; apply it to each index.

    The indexes must hold equal graphs; the first one's graph decides
    which drawn weights are decreases.
    """
    num_ops = data.draw(st.integers(min_value=1, max_value=6), label="ops")
    graph = indexes[0]._graph
    for op in range(num_ops):
        if data.draw(st.booleans(), label=f"op{op}-is-node"):
            for index in indexes:
                index.add_node(num_nodes)
            num_nodes += 1
        else:
            u = data.draw(
                st.integers(min_value=0, max_value=num_nodes - 1), label=f"u{op}"
            )
            v = data.draw(
                st.integers(min_value=0, max_value=num_nodes - 1), label=f"v{op}"
            )
            if u == v:
                continue
            weight = data.draw(weight_st, label=f"w{op}")
            if graph.has_edge(u, v):
                weight = min(weight, graph.weight(u, v))  # decrease-only
            for index in indexes:
                index.insert_edge(u, v, weight)
    return num_nodes


def _random_graph(data) -> tuple[Graph, int]:
    num_nodes = data.draw(st.integers(min_value=2, max_value=7), label="n")
    graph = Graph()
    for i in range(num_nodes):
        graph.add_node(i)
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if data.draw(st.booleans(), label=f"edge{i}-{j}"):
                graph.add_edge(i, j, weight=data.draw(weight_st, label=f"w{i}-{j}"))
    return graph, num_nodes


@given(data=st.data(), kernel=st.sampled_from(AVAILABLE_PLL_KERNELS))
def test_batched_kernels_match_a_fresh_build_after_mutations(data, kernel):
    """Mutated labels == a fresh build's point merge join, on both kernels.

    An index absorbs a random ``insert_edge`` / ``add_node`` sequence
    (each write publishing a new label store), then every batched and
    point distance must exactly equal the point merge join
    (:meth:`~PrunedLandmarkLabeling.distance`) of an index built from
    scratch on the mutated graph.
    """
    graph, num_nodes = _random_graph(data)
    pll = build_pll(graph, kernel)
    nodes = list(graph.nodes())
    pll.distances_from(nodes[0], nodes)  # memoize before the first mutation
    _apply_random_mutations(data, [pll], num_nodes)
    reference = PrunedLandmarkLabeling(graph)
    nodes = list(graph.nodes())
    for source in nodes:
        batch = pll.distances_from(source, nodes)
        for target in nodes:
            expected = reference.distance(source, target)
            assert batch[target] == expected
            assert pll.distance(source, target) == expected


@given(data=st.data())
def test_label_round_trips_are_zero_build_and_bit_identical(data):
    """The export/import path: no rebuild, bit-identical answers.

    After random mutations, ``from_flat_labels(export_flat_labels(x))``
    must restore an index that (a) paid zero PLL builds, (b) exports the
    identical rank, distance and parent columns, and (c) answers every
    batched distance exactly like the original.
    """
    graph, num_nodes = _random_graph(data)
    pll = PrunedLandmarkLabeling(graph)
    _apply_random_mutations(data, [pll], num_nodes)
    nodes = list(graph.nodes())
    expected_state = pll.export_flat_labels()
    expected = {source: pll.distances_from(source, nodes) for source in nodes}

    builds = pll_build_count()
    restored = PrunedLandmarkLabeling.from_flat_labels(
        graph, pll.export_flat_labels()
    )
    assert pll_build_count() == builds
    assert restored.export_flat_labels() == expected_state
    assert restored.incremental_updates == pll.incremental_updates
    for source in nodes:
        assert restored.distances_from(source, nodes) == expected[source]


class _StepRecorder(list):
    """Records ``add_node`` / ``insert_edge`` calls as :meth:`apply` steps."""

    def add_node(self, node):
        self.append(("node", node))

    def insert_edge(self, u, v, weight):
        self.append(("edge", u, v, weight))


def _path_or_none(index, u, v):
    try:
        return index.path(u, v)
    except GraphError:
        return None


@pytest.mark.parametrize("kernel", AVAILABLE_PLL_KERNELS)
@given(data=st.data())
def test_spliced_writes_match_the_row_dict_reference(kernel, data):
    """Store-splicing writes == the row-dict write path, byte for byte.

    Each burst clones the index, applies the same random insertions,
    weight decreases and ``add_node`` calls to the clone (one call per
    step, or the whole burst as one :meth:`apply`) and to a
    :class:`RowDictReference` copied from the clone's source, then
    checks that the order and all three label columns are byte-equal,
    that ``path()`` agrees on every pair, and that the source still
    holds its old store and answers as before.  The next burst clones
    the clone.
    """
    graph, num_nodes = _random_graph(data)
    index = build_pll(graph, kernel)
    num_bursts = data.draw(st.integers(min_value=1, max_value=4), label="bursts")
    for _ in range(num_bursts):
        nodes = list(index._order)
        before = {source: index.distances_from(source, nodes) for source in nodes}
        store = index._flat
        clone = index.clone()
        reference = RowDictReference(index)
        if data.draw(st.booleans(), label="one-apply"):
            steps = _StepRecorder()
            num_nodes = _apply_random_mutations(data, [reference, steps], num_nodes)
            clone.apply(steps)
        else:
            num_nodes = _apply_random_mutations(data, [reference, clone], num_nodes)

        got, expected = clone.export_flat_labels(), reference.export_flat_labels()
        assert got["order"] == expected["order"]
        assert got["counts"] == expected["counts"]
        for column in ("ranks", "dists"):
            assert got[column].tobytes() == expected[column].tobytes(), column
        assert got["incremental_updates"] == expected["incremental_updates"]
        reference_index = reference.index()
        for u in clone._order:
            for v in clone._order:
                assert _path_or_none(clone, u, v) == _path_or_none(
                    reference_index, u, v
                )

        assert index._flat is store
        index.invalidate()  # re-read the store, not the memoized vectors
        for source in nodes:
            assert index.distances_from(source, nodes) == before[source]
        index = clone
