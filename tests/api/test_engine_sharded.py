"""Sharded engine vs monolithic engine: byte-identical responses.

PR-10's hard acceptance bar: ``TeamFormationEngine(..., shards=K)`` must
answer every request with the *same canonical JSON bytes* as the
monolithic engine — for every registered solver and K in {1, 2, 4}.

The deterministic suites use a crafted *dyadic* network (powers-of-two
edge weights and h-indexes, gamma/lam = 0.5) so every folded weight and
every hub-sum is exact in binary floating point: the sharded oracle sums
``local + boundary + local`` in a different association order than the
monolithic two-hop sum, and only exact arithmetic makes "identical
floats" a theorem rather than a coincidence.  The figure-1 suite then
checks the same equality holds on the paper's (non-dyadic) numbers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import TeamFormationEngine, TeamRequest
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll import pll_build_count
from repro.storage import SnapshotStore

from .conftest import PROJECT, build_figure1_network

ALL_SOLVERS = (
    "brute_force",
    "exact",
    "greedy",
    "pareto",
    "random",
    "rarest_first",
    "sa_optimal",
)

KS = (1, 2, 4)


def build_dyadic_network() -> ExpertNetwork:
    """Two components, powers-of-two weights, powers-of-two h-indexes.

    Component one is a bridge-heavy chain (articulation points for the
    partitioner to cut); component two is a triangle plus a pendant;
    plus one isolated expert.  Every edge weight is a power of two and
    every h-index is a power of two, so folded weights at gamma=0.5 and
    all hub sums are exactly representable.
    """
    experts = [
        Expert("a1", skills={"SN"}, h_index=8),
        Expert("a2", h_index=16),
        Expert("a3", skills={"TM"}, h_index=4),
        Expert("a4", h_index=32),
        Expert("a5", skills={"SN", "DB"}, h_index=2),
        Expert("a6", skills={"TM"}, h_index=8),
        Expert("b1", skills={"SN"}, h_index=4),
        Expert("b2", skills={"TM", "DB"}, h_index=16),
        Expert("b3", h_index=2),
        Expert("b4", skills={"DB"}, h_index=8),
        Expert("solo", skills={"SN"}, h_index=1),
    ]
    edges = [
        # chain of small blocks: a2 and a4 are articulation points
        ("a1", "a2", 0.5),
        ("a2", "a3", 0.25),
        ("a3", "a4", 0.5),
        ("a2", "a4", 1.0),
        ("a4", "a5", 2.0),
        ("a5", "a6", 0.5),
        ("a4", "a6", 4.0),
        # second component: triangle + pendant
        ("b1", "b2", 0.5),
        ("b2", "b3", 1.0),
        ("b1", "b3", 2.0),
        ("b3", "b4", 0.25),
    ]
    return ExpertNetwork(experts, edges)


def request_for(solver: str, skills=("SN", "TM")) -> TeamRequest:
    return TeamRequest(
        skills=skills,
        solver=solver,
        gamma=0.5,
        lam=0.5,
        seed=17,
        num_samples=64,
    )


@pytest.mark.parametrize("solver", ALL_SOLVERS)
@pytest.mark.parametrize("k", KS)
def test_all_solvers_byte_identical_on_dyadic_network(solver, k):
    network = build_dyadic_network()
    mono = TeamFormationEngine(network)
    sharded = TeamFormationEngine(network, shards=k)
    for skills in (("SN", "TM"), ("SN", "TM", "DB"), ("DB",)):
        request = request_for(solver, skills)
        assert (
            sharded.solve(request).canonical_json()
            == mono.solve(request).canonical_json()
        ), f"solver={solver} k={k} skills={skills}"


@pytest.mark.parametrize("solver", ALL_SOLVERS)
@pytest.mark.parametrize("k", KS)
def test_all_solvers_identical_on_figure1(solver, k):
    network = build_figure1_network()
    mono = TeamFormationEngine(network)
    sharded = TeamFormationEngine(network, shards=k)
    request = TeamRequest(
        skills=PROJECT, solver=solver, seed=3, num_samples=64
    )
    assert (
        sharded.solve(request).canonical_json()
        == mono.solve(request).canonical_json()
    )


def test_sharded_cache_keys_carry_the_plan_tag():
    network = build_dyadic_network()
    sharded = TeamFormationEngine(network, shards=2)
    mono = TeamFormationEngine(network)
    request = request_for("greedy")
    sharded.solve(request)
    mono.solve(request)
    tagged = [key for key in sharded.cached_oracle_keys if key]
    assert tagged, "solve must cache an index"
    for key in tagged:
        mark = key[-2]  # last element is the network version
        assert isinstance(mark, tuple) and mark[0] == "shards"
        assert mark[1] == 2
    for key in mono.cached_oracle_keys:
        assert not any(
            isinstance(part, tuple) and part and part[0] == "shards"
            for part in key
        ), "monolithic keys must be byte-unchanged"


def test_dijkstra_oracle_kind_is_never_sharded():
    network = build_dyadic_network()
    sharded = TeamFormationEngine(network, shards=2)
    request = TeamRequest(
        skills=("SN", "TM"), solver="greedy", oracle_kind="dijkstra"
    )
    mono = TeamFormationEngine(network)
    assert (
        sharded.solve(request).canonical_json()
        == mono.solve(request).canonical_json()
    )
    for key in sharded.cached_oracle_keys:
        if key[0] == "dijkstra":
            assert not any(
                isinstance(part, tuple) and part and part[0] == "shards"
                for part in key
            )


# ----------------------------------------------------------------------
# randomized identity (dyadic weights keep float sums exact)
# ----------------------------------------------------------------------
def dyadic_network(seed: int, n: int) -> ExpertNetwork:
    rng = random.Random(seed)
    skills = ("SN", "TM", "DB")
    experts = []
    for i in range(n):
        owned = {skills[i % 3]}
        if rng.random() < 0.3:
            owned.add(rng.choice(skills))
        experts.append(
            Expert(f"e{i}", skills=owned, h_index=2 ** rng.randint(0, 6))
        )
    edges = []
    for i in range(1, n):
        if rng.random() < 0.85:  # leave occasional disconnection
            edges.append(
                (f"e{i}", f"e{rng.randrange(i)}", 2.0 ** rng.randint(-3, 2))
            )
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append((f"e{i}", f"e{j}", 2.0 ** rng.randint(-3, 2)))
    return ExpertNetwork(experts, edges)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.sampled_from((2, 3, 4)),
    solver=st.sampled_from(("greedy", "rarest_first")),
)
def test_random_dyadic_networks_identical(seed, k, solver):
    network = dyadic_network(seed, n=16)
    mono = TeamFormationEngine(network)
    sharded = TeamFormationEngine(network, shards=k)
    request = TeamRequest(
        skills=("SN", "TM"), solver=solver, gamma=0.5, lam=0.5
    )
    assert (
        sharded.solve(request).canonical_json()
        == mono.solve(request).canonical_json()
    )


# ----------------------------------------------------------------------
# snapshots: sharded engines round-trip with zero rebuilds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("k", (2, 4))
def test_sharded_snapshot_round_trip_zero_builds(tmp_path, k):
    network = build_dyadic_network()
    engine = TeamFormationEngine(network, shards=k)
    request = request_for("greedy")
    expected = engine.solve(request).canonical_json()
    engine.raw_oracle()  # warm the RarestFirst index too
    store = SnapshotStore(tmp_path / "snaps")
    engine.save_snapshot(store)

    before = pll_build_count()
    loaded = TeamFormationEngine.from_snapshot(store)
    assert pll_build_count() == before, "restore must not build any PLL"
    assert loaded.shards == k
    assert loaded.solve(request).canonical_json() == expected
    assert pll_build_count() == before, "solve after restore must stay warm"


def test_sharded_snapshot_meta_carries_residency(tmp_path):
    network = build_dyadic_network()
    engine = TeamFormationEngine(network, shards=2)
    engine.solve(request_for("greedy"))
    path = engine.save_snapshot(tmp_path / "store")
    from repro.storage import read_meta

    meta = read_meta(path)
    assert meta["shards"] == 2
    residency = meta["shard_residency"]
    assert set(residency) == set(network.skill_index.skills())
    assert all(v in (0, 1) for v in residency.values())


def test_monolithic_snapshot_meta_unchanged(tmp_path):
    network = build_dyadic_network()
    engine = TeamFormationEngine(network)
    engine.solve(request_for("greedy"))
    path = engine.save_snapshot(tmp_path / "store")
    from repro.storage import read_meta

    meta = read_meta(path)
    assert "shards" not in meta
    assert "shard_residency" not in meta


def test_sharded_snapshot_bytes_round_trip(tmp_path):
    network = build_dyadic_network()
    engine = TeamFormationEngine(network, shards=3)
    request = request_for("rarest_first")
    expected = engine.solve(request).canonical_json()
    blob = engine.snapshot_bytes()
    before = pll_build_count()
    loaded = TeamFormationEngine.from_snapshot_bytes(blob)
    assert pll_build_count() == before
    assert loaded.solve(request).canonical_json() == expected


@pytest.mark.parametrize("k", (2, 4))
def test_snapshot_after_per_shard_updates_round_trips(tmp_path, k):
    """Shards that absorbed inserts or were rebuilt alone persist as-is."""
    engine = TeamFormationEngine(build_dyadic_network(), shards=k)
    requests = [request_for("greedy"), request_for("rarest_first")]
    for request in requests:
        engine.solve(request)
    with engine.mutate() as network:
        network.add_collaboration("a4", "a6", weight=1.0)  # decrease: absorbed
        network.add_collaboration("b1", "b3", weight=0.5)  # decrease: absorbed
        network.update_h_index("a5", 1)  # fold: a cut rebuilds a5's shards
    before = pll_build_count()
    assert engine.apply_updates() == {"cached": 0, "incremental": 2, "rebuilt": 0}
    fold = engine.search_oracle("sa-ca-cc", 0.5)
    plan = fold.plan
    touched = set(plan.shards_of("a5"))
    for u, v in (("a4", "a6"), ("b1", "b3")):
        touched |= set(plan.shards_of(u)) & set(plan.shards_of(v))
    # Only the fold index rebuilds, and only the shards the burst touched.
    assert 1 <= pll_build_count() - before <= len(touched)
    assert fold.replaced_shards and engine.raw_oracle().replaced_shards
    # A raise only lightens b4's one edge: replayed in place, no build.
    updates = obs.global_registry().counter("shard_updates_incremental")
    counted = updates.value
    with engine.mutate() as network:
        network.update_h_index("b4", 64)
    before = pll_build_count()
    assert engine.apply_updates() == {"cached": 0, "incremental": 2, "rebuilt": 0}
    assert pll_build_count() == before
    b3_b4 = set(plan.shards_of("b3")) & set(plan.shards_of("b4"))
    assert updates.value - counted == len(b3_b4)
    expected = [engine.solve(request).canonical_json() for request in requests]

    path = engine.save_snapshot(tmp_path / "store")
    before = pll_build_count()
    loaded = TeamFormationEngine.from_snapshot(path)
    assert pll_build_count() == before, "restore must not build any PLL"
    assert [loaded.solve(r).canonical_json() for r in requests] == expected
    assert pll_build_count() == before, "solve after restore must stay warm"
