"""Differential tests: the sharded oracle vs the monolithic PLL index.

The hard contract (ISSUE PR-10): for every ``(u, v)`` the sharded
oracle's distance is the *same float* the monolithic index returns, and
its paths are valid shortest paths.  Weights are dyadic (exactly
representable sums) wherever bit-identity is asserted, so float
associativity cannot blur the comparison.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.graph import Graph, GraphError
from repro.graph.distance import DijkstraOracle, DistanceOracle
from repro.graph.partition import plan_shards
from repro.graph.pll import PrunedLandmarkLabeling, all_pairs_distances, pll_build_count
from repro.graph.pll_kernel import numpy_available
from repro.graph.sharded_oracle import ShardedPLLOracle
from repro.obs import render_prometheus

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vector memo needs numpy"
)


@contextlib.contextmanager
def numpy_hidden():
    """What an install without numpy builds: dict memo, stdlib shards."""
    with mock.patch(
        "repro.graph.sharded_oracle.numpy_available", return_value=False
    ), mock.patch("repro.graph.pll.numpy_available", return_value=False):
        yield


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


@pytest.mark.parametrize("k", [1, 2, 4])
def test_paths_are_valid_shortest_paths(k):
    rng = random.Random(9)
    for g in (dyadic_random_graph(rng, n=24, p=0.1), federated_graph(rng, 4)):
        sharded = ShardedPLLOracle(g, shards=k)
        # An apply burst on a clone: weight decreases, then in-shard
        # insertions.
        steps = [("edge", u, v, w / 2) for u, v, w in list(g.edges())[::7][:3]]
        g2 = g.copy()
        for _, u, v, w in steps:
            g2.add_edge(u, v, weight=w)
        while len(steps) < 7:
            shard = rng.choice([s for s in sharded.plan.shards if len(s) >= 2])
            u, v = rng.sample(list(shard), 2)
            if not g2.has_edge(u, v):
                steps.append(("edge", u, v, rng.randint(1, 64) / 64.0))
                g2.add_edge(u, v, weight=steps[-1][3])
        updated = sharded.clone(g.copy())
        updated.apply(steps)
        nodes = list(g.nodes())
        for oracle, graph in ((sharded, g), (updated, g2)):
            mono = PrunedLandmarkLabeling(graph)
            for u in nodes[::3]:
                for v in nodes[::4]:
                    d = mono.distance(u, v)
                    if math.isinf(d):
                        with pytest.raises(GraphError):
                            oracle.path(u, v)
                        continue
                    path = oracle.path(u, v)
                    assert path[0] == u and path[-1] == v
                    assert path_length(graph, path) == pytest.approx(d, abs=1e-12)


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
        # 12 bytes per entry: u32 hub rank + f64 distance.
        assert sharded.label_bytes(i) == pll.label_bytes
        assert pll.label_bytes == pll.total_label_entries * 12
        total += pll.total_label_entries
    assert sharded.total_label_entries == total
    assert sharded.label_bytes() == total * 12


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


def test_clone_refuses_a_different_node_set():
    g = two_block_graph()
    sharded = ShardedPLLOracle(g, shards=2)
    renamed = Graph.from_edges(
        [("z" if u == "a0" else u, "z" if v == "a0" else v, w) for u, v, w in g.edges()]
    )
    assert renamed.num_nodes == g.num_nodes
    with pytest.raises(GraphError):
        sharded.clone(renamed)


# ----------------------------------------------------------------------
# the per-source memo: metrics, and the vector path against the dict path
# ----------------------------------------------------------------------
def _counter_values(*names: str) -> list[float]:
    registry = obs.global_registry()
    return [registry.counter(name).value for name in names]


MEMO_COUNTERS = tuple(
    f"shard_source_cache_{what}" for what in ("hits", "misses", "evictions")
)


@pytest.mark.parametrize("hide_numpy", [False, True], ids=["vector", "dict"])
def test_source_memo_counts_hits_misses_and_evictions(monkeypatch, hide_numpy):
    if not hide_numpy and not numpy_available():
        pytest.skip("the vector memo needs numpy")
    monkeypatch.setattr(ShardedPLLOracle, "MAX_CACHED_SOURCES", 2)
    g = two_block_graph()
    with numpy_hidden() if hide_numpy else contextlib.nullcontext():
        sharded = ShardedPLLOracle(g, shards=2)
    nodes = list(g.nodes())
    before = _counter_values(*MEMO_COUNTERS)
    sharded.distance("a0", "b0")  # miss a0
    sharded.distances_from("a0", nodes)  # hit a0
    sharded.distance("a1", "a1")  # answered without the memo
    if not hide_numpy:
        sharded.distance_matrix(["a0", "a1", "m"], nodes)  # hit; 2 misses, evict a0
    else:  # an install without numpy has no distance_matrix
        for source in ("a0", "a1", "m"):
            sharded.distances_from(source, nodes)
    after = _counter_values(*MEMO_COUNTERS)
    assert [a - b for a, b in zip(after, before)] == [2, 3, 1]
    text = render_prometheus(obs.global_registry().snapshot())
    for name in MEMO_COUNTERS:
        assert f"# TYPE repro_{name} counter" in text


def federated_graph(rng: random.Random, blocks: int) -> Graph:
    """Dyadic random blocks, each hung off a node of an earlier block
    (a cut vertex), plus a two-node island."""
    g = Graph()
    members: list[list[str]] = []
    for b in range(blocks):
        size = rng.randint(3, 6)
        names = [f"b{b}n{i}" for i in range(size)]
        if members:
            names[0] = rng.choice(rng.choice(members))
        for i in range(1, size):
            j = rng.randrange(i)
            g.add_edge(names[i], names[j], weight=rng.randint(1, 64) / 64.0)
        for i in range(size):
            for j in range(i + 2, size):
                if rng.random() < 0.3:
                    g.add_edge(names[i], names[j], weight=rng.randint(1, 64) / 64.0)
        members.append(names)
    g.add_edge("isl0", "isl1", weight=0.5)
    return g


def random_burst(rng: random.Random, oracle: ShardedPLLOracle, g: Graph) -> list:
    """In-shard insertions / halvings; weight increases and removals
    to rebuild (a removal can reorder a shard's landmarks)."""
    plan = oracle.plan
    g = g.copy()
    ops = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            shard = rng.choice(plan.shards)
            if len(shard) < 2:
                continue
            u, v = rng.sample(list(shard), 2)
            w = g.weight(u, v) / 2 if g.has_edge(u, v) else rng.randint(1, 64) / 64.0
            ops.append(("insert", u, v, w))
        elif rng.random() < 0.5:
            u, v, w = rng.choice(list(g.edges()))
            ops.append(("increase", u, v, w * 2))
        else:
            u, v, _ = rng.choice(list(g.edges()))
            ops.append(("remove", u, v, None))
            g.remove_edge(u, v)
            continue
        g.add_edge(u, v, weight=ops[-1][3])
    return ops


def apply_burst(oracle: ShardedPLLOracle, g: Graph, ops: list) -> ShardedPLLOracle:
    """``ops`` applied on a clone of ``oracle`` over a copy of ``g``."""
    g = g.copy()
    updated = oracle.clone(g)
    for op, u, v, w in ops:
        if op == "insert":
            updated.insert_edge(u, v, w)
        else:
            if op == "remove":
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v, weight=w)
            of_v = updated.plan.shards_of(v)
            updated.rebuild_shards(s for s in updated.plan.shards_of(u) if s in of_v)
    return updated


def assert_same_answers(vec: ShardedPLLOracle, ref: ShardedPLLOracle, nodes) -> None:
    """Both oracles answer every query alike, counters included."""
    queries = ("shard_queries_local", "shard_queries_cross")
    sources = nodes[::2]
    before = _counter_values(*queries)
    got = vec.distance_matrix(sources, nodes)
    mid = _counter_values(*queries)
    want = ref.distance_matrix(sources, nodes)
    after = _counter_values(*queries)
    assert got.tobytes() == want.tobytes()
    assert [m - b for m, b in zip(mid, before)] == [a - m for a, m in zip(after, mid)]
    for source in nodes:
        got_row = vec.distances_from(source, nodes)
        assert got_row == ref.distances_from(source, nodes)
        assert all(type(d) is float for d in got_row.values())
        for target in nodes[::3]:
            assert vec.distance(source, target) == ref.distance(source, target)


@needs_numpy
@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(2, 6),
    k=st.sampled_from([2, 4]),
    bursts=st.integers(1, 3),
)
def test_vector_memo_matches_the_dict_memo(seed, blocks, k, bursts):
    rng = random.Random(seed)
    g = federated_graph(rng, blocks)
    nodes = list(g.nodes())
    vec = ShardedPLLOracle(g, shards=k)
    with numpy_hidden():
        ref = ShardedPLLOracle(g, vec.plan)
    assert vec._use_numpy and not ref._use_numpy
    assert_same_answers(vec, ref, nodes)
    for _ in range(bursts):
        ops = random_burst(rng, vec, g)
        vec = apply_burst(vec, g, ops)
        with numpy_hidden():
            ref = apply_burst(ref, g, ops)
        g = vec._graph
        assert_same_answers(vec, ref, nodes)
    assert_exact(vec, g)
    labels, doc = vec.export_state()
    restored = ShardedPLLOracle.from_state(g, vec.plan, labels, doc)
    with numpy_hidden():
        restored_ref = ShardedPLLOracle.from_state(g, vec.plan, labels, doc)
    assert_same_answers(restored, restored_ref, nodes)
    live = vec.distance_matrix(nodes, nodes)
    assert restored.distance_matrix(nodes, nodes).tobytes() == live.tobytes()


def all_distances(oracle: ShardedPLLOracle, nodes: list) -> object:
    """Every pairwise distance: matrix bytes with numpy, dict rows without."""
    if oracle._use_numpy:
        return oracle.distance_matrix(nodes, nodes).tobytes()
    return [oracle.distances_from(u, nodes) for u in nodes]


@given(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(2, 6),
    k=st.sampled_from([2, 4]),
)
def test_batched_apply_equals_stepwise_insert_edge(seed, blocks, k):
    """One ``apply`` of a burst leaves exactly what one call per step does."""
    rng = random.Random(seed)
    g = federated_graph(rng, blocks)
    nodes = list(g.nodes())
    sharded = ShardedPLLOracle(g, shards=k)
    original = all_distances(sharded, nodes)
    target = g.copy()
    steps = []
    for _ in range(rng.randint(2, 6)):
        shard = rng.choice([s for s in sharded.plan.shards if len(s) >= 2])
        u, v = rng.sample(list(shard), 2)
        if target.has_edge(u, v):
            w = target.weight(u, v) / 2  # halving
        else:
            w = rng.randint(1, 64) / 64.0  # in-shard insertion
        target.add_edge(u, v, weight=w)
        steps.append(("edge", u, v, w))
    counter = obs.global_registry().counter("shard_updates_incremental")
    batched = sharded.clone(g.copy())
    before = counter.value
    batched.apply(steps)
    batched_updates = counter.value - before
    stepwise = sharded.clone(g.copy())
    before = counter.value
    for _, u, v, w in steps:
        stepwise.insert_edge(u, v, w)
    assert counter.value - before == batched_updates
    assert batched.export_state() == stepwise.export_state()
    assert batched.replaced_shards == stepwise.replaced_shards
    assert all_distances(batched, nodes) == all_distances(stepwise, nodes)
    assert_exact(batched, target)
    assert all_distances(sharded, nodes) == original


def test_sharded_oracle_satisfies_the_protocol():
    g = two_block_graph()
    oracle = ShardedPLLOracle(g, shards=2)
    assert isinstance(oracle, DistanceOracle)
    assert oracle.partial_rebuild(None) is None  # a new node changes the plan
    with pytest.raises(GraphError):
        oracle.clone(g.copy()).apply([("node", "z")])


# ----------------------------------------------------------------------
# vectors carried across a write, patched on their next read
# ----------------------------------------------------------------------
PATCHED = "shard_source_cache_patched"


def boundary_pairs(oracle: ShardedPLLOracle) -> list[dict]:
    """Each shard's local distances between its boundary members."""
    boundary = set(oracle.plan.boundary)
    out = []
    for s, shard in enumerate(oracle.plan.shards):
        members = [node for node in shard if node in boundary]
        out.append(all_pairs_distances(oracle.shard_index(s), members, members))
    return out


def assert_memo_matches_a_cold_build(oracle: ShardedPLLOracle) -> None:
    """Every memoized vector, patched or not, is a cold build's, tallies too."""
    for source, entry in list(oracle._source_cache.items()):
        cold = oracle._vector(source)
        assert entry.vector.tobytes() == cold.vector.tobytes(), source
        assert (entry.local_hits, entry.cross_hits) == (
            cold.local_hits,
            cold.cross_hits,
        ), source


def in_shard_step(rng: random.Random, oracle: ShardedPLLOracle, g: Graph) -> tuple:
    """An insertion or a halving inside one shard of ``oracle``'s plan."""
    shard = rng.choice([s for s in oracle.plan.shards if len(s) >= 2])
    u, v = rng.sample(list(shard), 2)
    w = g.weight(u, v) / 2 if g.has_edge(u, v) else rng.randint(1, 64) / 64.0
    return ("edge", u, v, w)


@needs_numpy
def test_patched_vectors_equal_a_cold_build():
    """Differential: carried vectors, patched on read, against ``_vector``.

    Bursts of in-shard insertions and halvings, applied one step per
    ``insert_edge`` (so a clone folds several applies into its carry),
    with and without reads between bursts (so carries span several
    clones); some bursts end in a shard rebuild or an ``invalidate``.
    A burst that moves a written shard's boundary-pair distance, a
    rebuild and an ``invalidate`` must leave nothing to patch.
    """
    patched = obs.global_registry().counter(PATCHED)
    start = patched.value

    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.integers(2, 6),
        k=st.sampled_from([2, 4]),
        bursts=st.lists(
            st.tuples(
                st.sampled_from(["apply", "apply", "rebuild", "invalidate"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def run(seed, blocks, k, bursts):
        rng = random.Random(seed)
        g = federated_graph(rng, blocks)
        nodes = list(g.nodes())
        oracle = ShardedPLLOracle(g, shards=k)
        oracle.distance_matrix(nodes, nodes)
        for kind, read in bursts:
            g = g.copy()
            oracle = oracle.clone(g)
            pairs = boundary_pairs(oracle)
            written = set()
            for _ in range(rng.randint(1, 3)):
                _, u, v, w = in_shard_step(rng, oracle, g)
                written |= set(oracle.plan.shards_of(u)) & set(oracle.plan.shards_of(v))
                oracle.insert_edge(u, v, w)
            kept = all(boundary_pairs(oracle)[s] == pairs[s] for s in written)
            if kind == "rebuild":
                oracle.rebuild_shards([rng.randrange(k)])
            elif kind == "invalidate":
                oracle.invalidate()
            if not read:
                continue
            before = patched.value
            oracle.distance_matrix(rng.sample(nodes, len(nodes) // 2), nodes)
            if kind != "apply" or not kept:
                assert patched.value == before, (kind, kept)
            assert_memo_matches_a_cold_build(oracle)
        oracle.distance_matrix(nodes, nodes)
        assert_memo_matches_a_cold_build(oracle)
        assert_exact(oracle, g)

    run()
    assert patched.value > start, "no vector was patched"


def test_boundary_pair_change_drops_the_carry():
    # Three blocks chained at m and n; the middle shard holds both.
    g = Graph.from_edges(
        [
            ("a0", "a1", 0.5), ("a1", "m", 0.25), ("m", "a0", 1.0),
            ("m", "c0", 2.0), ("c0", "n", 2.0), ("n", "c1", 1.0), ("c1", "m", 4.0),
            ("n", "b0", 0.5), ("b0", "b1", 0.25), ("b1", "n", 1.0),
        ]
    )
    sharded = ShardedPLLOracle(g, shards=3)
    nodes = list(g.nodes())
    for source in nodes:
        sharded.distances_from(source, nodes)
    counters = (PATCHED, "shard_source_cache_misses")

    def reads_after(u: str, v: str, w: float) -> list[float]:
        g2 = g.copy()
        updated = sharded.clone(g2)
        updated.insert_edge(u, v, w)
        g2.add_edge(u, v, weight=w)
        before = _counter_values(*counters)
        for source in nodes:
            updated.distances_from(source, nodes)
        assert_exact(updated, g2)
        return [a - b for a, b in zip(_counter_values(*counters), before)]

    # m-n drops from 4 to 0.5 inside the middle shard: nothing is carried.
    assert reads_after("m", "n", 0.5) == [0, len(nodes)]
    # A chord behind one cut vertex: every source outside its shard patches.
    patched, misses = reads_after("b0", "n", 0.125)
    assert misses == len(nodes)
    b_shard = sharded.plan.home_shard("b0")
    outside = [n for n in nodes if b_shard not in sharded.plan.shards_of(n)]
    assert patched == (len(outside) if sharded._use_numpy else 0)


@needs_numpy
def test_carry_keeps_the_newest_vectors(monkeypatch):
    monkeypatch.setattr(ShardedPLLOracle, "MAX_CACHED_SOURCES", 2)
    g = two_block_graph()
    sharded = ShardedPLLOracle(g, shards=2)
    for source in ("a0", "a1", "a2"):  # a0 is evicted
        sharded.distance(source, "m")
    clone = sharded.clone(g.copy())
    assert list(clone._carried) == ["a1", "a2"]
    for source in ("b0", "b1"):  # memoized on the clone, newer than its carry
        clone.distance(source, "m")
    assert list(clone.clone(g.copy())._carried) == ["b0", "b1"]


@pytest.mark.parametrize("hide_numpy", [False, True], ids=["vector", "dict"])
def test_clone_while_other_threads_fill_the_memo(hide_numpy):
    """A clone snapshots the memo and the carry that solves are still filling."""
    if not hide_numpy and not numpy_available():
        pytest.skip("the vector memo needs numpy")
    rng = random.Random(5)
    g = federated_graph(rng, 6)
    nodes = list(g.nodes())
    with numpy_hidden() if hide_numpy else contextlib.nullcontext():
        base = ShardedPLLOracle(g, shards=4)
    for source in nodes:
        base.distances_from(source, nodes)
    g = g.copy()
    parent = base.clone(g)  # a parent with carried vectors to pop
    parent.insert_edge(*in_shard_step(rng, parent, g)[1:])
    done = threading.Event()
    errors: list[BaseException] = []

    def reader() -> None:
        try:
            while not done.is_set():
                for source in nodes:  # the memo grows: a clone mid-fill
                    parent.distances_from(source, nodes)  # sees it resize
                parent.invalidate()
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(20):
            step = in_shard_step(rng, parent, g)
            target = g.copy()
            for _ in range(200):  # many snapshots, so some land mid-fill
                clone = parent.clone(target)
            clone.apply([step])
            target.add_edge(*step[1:3], weight=step[3])
            assert_exact(clone, target)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads), "reader hung"
    assert not errors, errors
    assert_exact(parent, g)
