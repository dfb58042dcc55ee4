"""Unit tests for the deterministic shard partitioner."""

from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Graph, GraphError, assign_random_weights, erdos_renyi
from repro.graph.partition import PartitionError, ShardPlan, plan_shards


def chain_of_triangles(blocks: int) -> Graph:
    """``blocks`` triangles glued in a chain at shared cut vertices."""
    g = Graph()
    for b in range(blocks):
        a, mid, c = f"n{2 * b}", f"m{b}", f"n{2 * b + 2}"
        g.add_edge(a, mid, weight=1.0)
        g.add_edge(mid, c, weight=1.0)
        g.add_edge(a, c, weight=1.0)
    return g


# ----------------------------------------------------------------------
# plan validity
# ----------------------------------------------------------------------
def test_rejects_nonpositive_k():
    with pytest.raises(PartitionError):
        plan_shards(Graph(), 0)


def test_empty_graph_yields_empty_shards():
    plan = plan_shards(Graph(), 3)
    assert plan.num_shards == 3
    assert plan.shards == ((), (), ())
    assert plan.boundary == ()
    assert plan.num_nodes == 0


def test_k1_is_the_whole_graph_with_no_boundary():
    g = chain_of_triangles(4)
    plan = plan_shards(g, 1)
    assert plan.num_shards == 1
    assert set(plan.shards[0]) == set(g.nodes())
    assert plan.boundary == ()
    # Shard ordering follows graph insertion order.
    assert list(plan.shards[0]) == list(g.nodes())


def test_covers_every_node_exactly_once_off_boundary():
    g = chain_of_triangles(6)
    plan = plan_shards(g, 3)
    seen: dict[str, int] = {}
    for shard in plan.shards:
        for node in shard:
            seen[node] = seen.get(node, 0) + 1
    assert set(seen) == set(g.nodes())
    for node, count in seen.items():
        if node in plan.boundary:
            assert count >= 1
        else:
            assert count == 1, f"non-boundary node {node} in {count} shards"


def test_boundary_nodes_are_articulation_points():
    from repro.graph import articulation_points

    g = chain_of_triangles(6)
    plan = plan_shards(g, 3)
    assert plan.boundary  # an oversized chain must be cut somewhere
    assert set(plan.boundary) <= articulation_points(g)


def test_oversized_component_is_split_when_cuttable():
    g = chain_of_triangles(8)  # 17 nodes, one component
    plan = plan_shards(g, 4)
    sizes = [len(s) for s in plan.shards]
    assert max(sizes) < g.num_nodes
    assert sum(1 for s in sizes if s) >= 2


def test_biconnected_region_stays_whole():
    g = Graph()
    for i in range(6):  # a 6-cycle: biconnected, no articulation point
        g.add_edge(f"c{i}", f"c{(i + 1) % 6}", weight=1.0)
    plan = plan_shards(g, 3)
    assert plan.boundary == ()
    nonempty = [s for s in plan.shards if s]
    assert len(nonempty) == 1
    assert set(nonempty[0]) == set(g.nodes())


def test_components_bin_pack_balanced():
    g = Graph()
    for c in range(6):  # six 3-node paths, no cutting needed for k=3
        g.add_edge(f"{c}a", f"{c}b", weight=1.0)
        g.add_edge(f"{c}b", f"{c}c", weight=1.0)
    plan = plan_shards(g, 3)
    assert [len(s) for s in plan.shards] == [6, 6, 6]
    assert plan.boundary == ()


def test_k_beyond_regions_leaves_trailing_shards_empty():
    g = Graph.from_edges([("a", "b")])
    plan = plan_shards(g, 5)
    assert len(plan.shards[0]) == 2
    assert all(not s for s in plan.shards[1:])


def test_single_node_components_spread():
    g = Graph()
    for i in range(4):
        g.add_node(f"iso{i}")
    plan = plan_shards(g, 2)
    assert [len(s) for s in plan.shards] == [2, 2]
    assert plan.boundary == ()


# ----------------------------------------------------------------------
# ShardPlan accessors
# ----------------------------------------------------------------------
def test_membership_and_home_shard():
    g = chain_of_triangles(6)
    plan = plan_shards(g, 3)
    for node in g.nodes():
        owners = plan.shards_of(node)
        assert owners == tuple(sorted(owners))
        assert plan.home_shard(node) == owners[0]
        assert plan.has_node(node)
    assert not plan.has_node("ghost")
    with pytest.raises(GraphError):
        plan.shards_of("ghost")
    with pytest.raises(GraphError):
        plan.home_shard("ghost")


def test_plan_hash_distinguishes_plans():
    g = chain_of_triangles(6)
    assert plan_shards(g, 2).plan_hash != plan_shards(g, 3).plan_hash
    assert plan_shards(g, 2).plan_hash == plan_shards(g, 2).plan_hash


def test_shard_plan_accepts_explicit_layout():
    plan = ShardPlan([("a", "b"), ("b", "c")], ("b",))
    assert plan.shards_of("b") == (0, 1)
    assert plan.home_shard("b") == 0
    assert plan.num_nodes == 3


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_graph_same_plan_within_process():
    rng = random.Random(11)
    g = assign_random_weights(erdos_renyi(40, 0.08, seed=rng), seed=rng)
    a = plan_shards(g, 4)
    b = plan_shards(g, 4)
    assert a.shards == b.shards
    assert a.boundary == b.boundary
    assert a.plan_hash == b.plan_hash


_SUBPROCESS_PLAN = """
import json, random, sys
from repro.graph import assign_random_weights, erdos_renyi
from repro.graph.partition import plan_shards

rng = random.Random(11)
g = assign_random_weights(erdos_renyi(40, 0.08, seed=rng), seed=rng)
plan = plan_shards(g, 4)
print(json.dumps({
    "hash": plan.plan_hash,
    "shards": [[repr(n) for n in s] for s in plan.shards],
    "boundary": [repr(n) for n in plan.boundary],
}))
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "424242"])
def test_plan_is_cross_process_deterministic(hashseed):
    """Identical plans (and hashes) regardless of ``PYTHONHASHSEED``.

    The snapshot codec persists only per-shard labels plus the boundary
    summary and *recomputes* the plan at load time, so any hash-seed
    dependence in component discovery, articulation scanning, or
    bin-packing would corrupt every cross-process restore.
    """
    import json
    import os

    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PLAN],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    doc = json.loads(out.stdout)
    rng = random.Random(11)
    g = assign_random_weights(erdos_renyi(40, 0.08, seed=rng), seed=rng)
    local = plan_shards(g, 4)
    assert doc["hash"] == local.plan_hash
    assert doc["shards"] == [[repr(n) for n in s] for s in local.shards]
    assert doc["boundary"] == [repr(n) for n in local.boundary]


# ----------------------------------------------------------------------
# leaf regions: an edge inside one keeps the plan
# ----------------------------------------------------------------------
def block_graph(rng: random.Random, blocks: int, components: int) -> Graph:
    """Random blocks hung off cut vertices, spread over ``components``.

    Each block is a random spanning tree over 2-6 nodes plus random
    chords; every block after a component's first reuses a node of an
    earlier block of that component, which becomes a cut vertex.
    """
    g = Graph()
    members: list[list[list[str]]] = [[] for _ in range(components)]
    for b in range(blocks):
        owned = members[b % components]
        size = rng.randint(2, 6)
        names = [f"c{b % components}b{b}n{i}" for i in range(size)]
        if owned:
            names[0] = rng.choice(rng.choice(owned))
        for i in range(1, size):
            g.add_edge(names[i], names[rng.randrange(i)], weight=1.0)
        for i in range(size):
            for j in range(i + 2, size):
                if rng.random() < 0.3:
                    g.add_edge(names[i], names[j], weight=1.0)
        owned.append(names)
    return g


def test_regions_cover_the_shards_they_were_packed_into():
    g = chain_of_triangles(6)
    plan = plan_shards(g, 3)
    assert plan.regions is not None
    assert set().union(*map(set, plan.regions)) == set(g.nodes())
    order = list(g.nodes())
    for region in plan.regions:
        assert list(region) == [n for n in order if n in set(region)]
        assert any(set(region) <= set(shard) for shard in plan.shards)
        for u in region:
            for v in region:
                assert plan.same_region(u, v)
    # Regions stay out of the hash: a hand-built twin hashes the same.
    twin = ShardPlan(plan.shards, plan.boundary)
    assert twin.regions is None
    assert twin.plan_hash == plan.plan_hash
    assert not twin.same_region(order[0], order[1])
    assert not plan.same_region(order[0], "ghost")


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=1, max_value=10),
    components=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_in_region_edges_keep_the_plan(seed, blocks, components, k, data):
    """Differential: every in-region insertion re-plans to the same plan.

    Edges are drawn one after another and kept in the graph, so a burst
    of in-region edges is checked against the plan it started from.
    """
    g = block_graph(random.Random(seed), blocks, components)
    plan = plan_shards(g, k)
    nodes = list(g.nodes())
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        pool = data.draw(st.sampled_from(plan.regions + (tuple(nodes),)))
        u = data.draw(st.sampled_from(pool))
        v = data.draw(st.sampled_from(pool))
        if u == v or g.has_edge(u, v) or not plan.same_region(u, v):
            continue
        g.add_edge(u, v, weight=1.0)
        fresh = plan_shards(g, k)
        assert fresh.shards == plan.shards
        assert fresh.boundary == plan.boundary
        assert fresh.regions == plan.regions
        assert fresh.plan_hash == plan.plan_hash


#: A k=3 tree where a same-shard insertion still changes the plan.
TREE_EDGES = (
    (0, 1), (0, 11), (1, 2), (1, 3), (1, 4), (2, 5), (2, 7), (3, 6), (4, 8),
    (5, 10), (6, 12), (8, 9), (9, 13),
)


def test_same_shard_is_not_same_region():
    g = Graph.from_edges(TREE_EDGES)
    plan = plan_shards(g, 3)
    assert [sorted(shard) for shard in plan.shards] == [
        [1, 2, 5, 7, 10], [1, 4, 8, 9, 13], [0, 1, 3, 6, 11, 12]
    ]
    assert set(plan.shards_of(0)) & set(plan.shards_of(6)) == {2}
    assert not plan.same_region(0, 6)
    g.add_edge(0, 6, weight=1.0)
    assert plan_shards(g, 3).plan_hash != plan.plan_hash
