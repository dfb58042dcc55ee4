"""Sharded engines under mutation: per-shard updates vs the monolithic engine.

A sharded engine absorbs a write shard by shard: insertions and weight
decreases are replayed into the shards holding both endpoints of the
edge, other changes on an unchanged plan rebuild only the shards they
touch, and a plan change rebuilds everything.  Each path lands on a
copy-on-write clone, so an oracle a solve still holds never changes.

The differential suite drives random mutation scripts through
``engine.mutate()`` on a ``shards=K`` engine and on a monolithic one and
compares canonical JSON after every burst.  Identity needs exact,
tie-free distances, so the network is built from *atoms*: every edge
weight is a distinct power of two (edge slot ``s`` weighs ``2**-2s``,
or ``2**-(2s+1)`` once halved), and the authority scale pushes every
folded authority term below the smallest edge atom.  Two different
paths then always differ in length, and every sum is exact in binary
floating point.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.api.engine as engine_module
from repro import obs
from repro.api import TeamFormationEngine, TeamRequest
from repro.core import ObjectiveScales
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll import pll_build_count
from repro.graph.pll_kernel import numpy_available
from repro.serving.server import TeamServer, fixed_engine_loader
from repro.storage import SNAPSHOT_FORMAT_VERSION, decode_container

#: Three 4-cycles chained at the cut vertices n3 and n6, plus a pendant
#: component p0-p1.  Chords stay inside a block (so inside a shard);
#: cross pairs bypass a cut vertex or join the components.
BLOCKS = (("n0", "n1", "n2", "n3"), ("n3", "n4", "n5", "n6"), ("n6", "n7", "n8", "n9"))
CHORDS = tuple((b[0], b[2]) for b in BLOCKS) + tuple((b[1], b[3]) for b in BLOCKS)
CROSS = (("n1", "n5"), ("n2", "n8"), ("n4", "n9"), ("n9", "p0"), ("n0", "p1"))
SKILLS = ("SN", "TM", "DB")
NODE_SKILLS = {
    "n0": {"SN"}, "n1": {"TM"}, "n2": {"DB"}, "n3": set(), "n4": {"SN"},
    "n5": {"TM"}, "n6": set(), "n7": {"DB"}, "n8": {"SN"}, "n9": {"TM"},
    "p0": {"SN", "DB"}, "p1": {"TM"},
}
#: Edge slots available; 2 * SLOTS bits of edge atoms plus the authority
#: atoms below them stay inside a double's 53-bit mantissa.
SLOTS = 20
#: Every h-index is at least 1, so inverse authorities are at most 1;
#: dividing by this puts each folded authority term at or below 2**-43,
#: and a path's whole authority part stays under the smallest edge atom
#: 2**-39.
SCALES = ObjectiveScales(edge_scale=1.0, authority_scale=2.0**43)
GAMMA = 0.5
REQUESTS = (
    TeamRequest(skills=SKILLS, solver="greedy", objective="sa-ca-cc", gamma=GAMMA, lam=0.5),
    TeamRequest(skills=("SN", "TM"), solver="rarest_first"),
    TeamRequest(skills=SKILLS, solver="sa_optimal", gamma=GAMMA, lam=0.5),
)


def base_edges() -> list[tuple[str, str]]:
    edges = []
    for block in BLOCKS:
        for i, u in enumerate(block):
            edges.append((u, block[(i + 1) % len(block)]))
    return edges + [("p0", "p1")]


class Script:
    """Turns abstract ops into concrete network mutations over atoms.

    Tracks each edge's exponent (even when fresh, odd once halved), the
    free edge slots, h-indexes and the unused chord and cross pairs, so
    every concrete op keeps the atom invariant.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        slots = list(range(SLOTS))
        rng.shuffle(slots)
        self.free = slots
        self.exponent: dict[frozenset, int] = {}
        self.edges: list[tuple[str, str]] = []
        for u, v in base_edges():
            self._new_edge(u, v)
        self.h_index = {node: 2 ** rng.randint(0, 5) for node in NODE_SKILLS}
        self.chords = list(CHORDS)
        self.cross = list(CROSS)
        self.experts_added = 0

    def _new_edge(self, u: str, v: str) -> float:
        exponent = 2 * self.free.pop()
        self.exponent[frozenset((u, v))] = exponent
        self.edges.append((u, v))
        return 2.0**-exponent

    def network(self) -> ExpertNetwork:
        experts = [
            Expert(node, skills=skills, h_index=self.h_index[node])
            for node, skills in NODE_SKILLS.items()
        ]
        edges = [
            (u, v, 2.0 ** -self.exponent[frozenset((u, v))]) for u, v in self.edges
        ]
        return ExpertNetwork(experts, edges)

    def concrete(self, kind: str, pick: int) -> list[tuple]:
        """Concrete ops for one abstract ``(kind, pick)``; ``[]`` if none fits."""
        if kind in ("chord", "cross", "expert") and not self.free:
            return []
        if kind in ("chord", "cross"):
            pool = self.chords if kind == "chord" else self.cross
            if not pool:
                return []
            u, v = pool.pop(pick % len(pool))
            return [("edge", u, v, self._new_edge(u, v), False)]
        if kind in ("halve", "raise"):
            parity = 0 if kind == "halve" else 1
            pool = [e for e in self.edges if self.exponent[frozenset(e)] % 2 == parity]
            if not pool:
                return []
            u, v = pool[pick % len(pool)]
            pair = frozenset((u, v))
            self.exponent[pair] += 1 if kind == "halve" else -1
            return [("edge", u, v, 2.0 ** -self.exponent[pair], kind == "raise")]
        nodes = sorted(self.h_index)
        node = nodes[pick % len(nodes)]
        if kind == "h_index":
            old = self.h_index[node]
            self.h_index[node] = 2 ** ((old.bit_length() + pick) % 6)
            return [("h_index", node, self.h_index[node])]
        if kind == "skills":
            return [("skills", node, {SKILLS[pick % 3], SKILLS[pick // 3 % 3]})]
        # expert: a new node joined to an existing one
        self.experts_added += 1
        new = f"x{self.experts_added}"
        self.h_index[new] = 2 ** (pick % 6)
        return [
            ("expert", new, SKILLS[pick % 3], self.h_index[new]),
            ("edge", new, node, self._new_edge(new, node), False),
        ]


def apply(network: ExpertNetwork, ops: list[tuple]) -> None:
    for op in ops:
        if op[0] == "edge":
            network.add_collaboration(op[1], op[2], weight=op[3])
        elif op[0] == "h_index":
            network.update_h_index(op[1], op[2])
        elif op[0] == "skills":
            network.update_skills(op[1], op[2])
        else:
            network.add_expert(Expert(op[1], skills={op[2]}, h_index=op[3]))


def answers(engine: TeamFormationEngine) -> list[str]:
    return [engine.solve(request).canonical_json() for request in REQUESTS]


def assert_same_distances(
    sharded: TeamFormationEngine, mono: TeamFormationEngine
) -> None:
    """Every pairwise distance of each sharded index equals the monolithic one."""
    nodes = sorted(mono.network.expert_ids())
    reference = indexes(mono)
    for flavor, oracle in indexes(sharded).items():
        for u in nodes:
            assert oracle.distances_from(u, nodes) == reference[
                flavor
            ].distances_from(u, nodes), (flavor, u)


def indexes(engine: TeamFormationEngine) -> dict:
    """The sharded fold (greedy) and raw (rarest_first) oracles."""
    return {
        "fold": engine.search_oracle("sa-ca-cc", GAMMA),
        "raw": engine.raw_oracle(),
    }


def touched_shards(plan, ops: list[tuple], *, fold: bool) -> set[int]:
    touched: set[int] = set()
    for op in ops:
        if op[0] == "edge":
            touched |= set(plan.shards_of(op[1])) & set(plan.shards_of(op[2]))
        elif op[0] == "h_index" and fold:
            touched |= set(plan.shards_of(op[1]))
    return touched


OPS = st.tuples(
    st.sampled_from(
        ("chord", "halve", "raise", "h_index", "skills", "cross", "expert")
    ),
    st.integers(min_value=0, max_value=63),
)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    k=st.sampled_from((2, 3, 4)),
    bursts=st.lists(st.lists(OPS, min_size=1, max_size=3), min_size=1, max_size=4),
)
def test_mutation_scripts_match_the_monolithic_engine(seed, k, bursts):
    script = Script(seed)
    mono = TeamFormationEngine(script.network(), scales=SCALES)
    sharded = TeamFormationEngine(script.network(), scales=SCALES, shards=k)
    assert answers(sharded) == answers(mono)
    for abstract in bursts:
        ops = [op for kind, pick in abstract for op in script.concrete(kind, pick)]
        before = indexes(sharded)
        authority = {  # a' of each existing expert an h-index op edits
            op[1]: sharded.network.inverse_authority(op[1])
            for op in ops
            if op[0] == "h_index" and sharded.network.graph.has_node(op[1])
        }
        with mono.mutate() as network:
            apply(network, ops)
        with sharded.mutate() as network:
            apply(network, ops)
        builds = pll_build_count()
        sharded.apply_updates()
        builds = pll_build_count() - builds
        after = indexes(sharded)
        plan = before["fold"].plan
        if after["fold"].plan.plan_hash == plan.plan_hash:
            # Insertions, halvings, skill edits and h-index raises (the
            # fold's weights only drop): no shard is rebuilt.
            raised = all(
                sharded.network.inverse_authority(node) <= was
                for node, was in authority.items()
            )
            absorbable = raised and all(
                op[0] in ("skills", "h_index") or (op[0] == "edge" and not op[4])
                for op in ops
            )
            if absorbable:
                assert builds == 0, ops
            touched = {
                flavor: touched_shards(plan, ops, fold=flavor == "fold")
                for flavor in before
            }
            assert builds <= sum(len(t) for t in touched.values()), ops
            for flavor, oracle in after.items():
                for i in range(plan.num_shards):
                    if i not in touched[flavor]:
                        assert oracle.shard_index(i) is before[flavor].shard_index(i)
        assert answers(sharded) == answers(mono), ops
        assert_same_distances(sharded, mono)
        assert_matches_a_fresh_engine(sharded)



# ----------------------------------------------------------------------
# authority edits under the fold
# ----------------------------------------------------------------------
def assert_matches_a_fresh_engine(engine: TeamFormationEngine) -> None:
    """Answers and every distance equal an engine built from scratch."""
    network = engine.network
    fresh = TeamFormationEngine(
        network.subnetwork(network.expert_ids()), scales=SCALES, shards=engine.shards
    )
    assert answers(engine) == answers(fresh)
    assert_same_distances(engine, fresh)


def builds_to_absorb(engine: TeamFormationEngine, burst) -> int:
    """PLL builds the upgrade after ``burst(network)`` makes."""
    indexes(engine)
    with engine.mutate() as network:
        burst(network)
    builds = pll_build_count()
    engine.apply_updates()
    return pll_build_count() - builds


@pytest.mark.parametrize("shards", (None, 3))
@pytest.mark.parametrize(
    "chain, rebuilds",
    [((64, 4), True), ((2, 16), False), ((64, 8), False)],
    ids=["up-then-down", "down-then-up", "round-trip"],
)
def test_h_index_chain_is_judged_by_its_net_effect(shards, chain, rebuilds):
    """Only the chain's net change of n1's h-index (8) decides the path."""
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=shards)

    def burst(network):
        for h_index in chain:
            network.update_h_index("n1", h_index)

    assert (builds_to_absorb(engine, burst) > 0) == rebuilds
    assert_matches_a_fresh_engine(engine)


@pytest.mark.parametrize("shards", (None, 3))
@pytest.mark.parametrize(
    "edge, exponent, rebuilds",
    [(("n0", "n1"), 9, False), (("n1", "n2"), 35, True)],
    ids=["halved", "doubled"],
)
def test_h_index_raise_with_a_reweight_of_the_experts_edge(
    shards, edge, exponent, rebuilds
):
    """The raise and the raw reweight of one edge net out on its fold weight."""
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=shards)

    def burst(network):
        network.update_h_index("n1", 64)
        network.add_collaboration(*edge, weight=2.0**-exponent)

    assert (builds_to_absorb(engine, burst) > 0) == rebuilds
    assert_matches_a_fresh_engine(engine)


def test_h_index_raise_on_a_cut_vertex_updates_both_shards():
    registry = obs.global_registry()
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=3)
    plan = indexes(engine)["fold"].plan
    assert len(plan.shards_of("n3")) == 2  # n3 joins the first two blocks
    counts = [
        registry.counter(f"shard_updates_{name}").value
        for name in ("incremental", "rebuilt")
    ]
    assert builds_to_absorb(engine, lambda net: net.update_h_index("n3", 64)) == 0
    held = [
        set(plan.shards_of("n3")) & set(plan.shards_of(other))
        for other in engine.network.graph.neighbors("n3")
    ]
    assert registry.counter("shard_updates_incremental").value - counts[0] == sum(
        map(len, held)
    )
    assert registry.counter("shard_updates_rebuilt").value == counts[1]
    assert indexes(engine)["fold"].replaced_shards == plan.shards_of("n3")
    assert_matches_a_fresh_engine(engine)


def test_h_index_raise_derives_no_search_graph(monkeypatch):
    """A raise reweights the expert's edges on a copy: no fold is re-derived."""
    registry = obs.global_registry()
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=3)
    indexes(engine)
    calls: list = []
    real = engine_module.search_graph_for

    def counting(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(engine_module, "search_graph_for", counting)
    rebuilt = registry.counter("shard_updates_rebuilt").value
    assert builds_to_absorb(engine, lambda net: net.update_h_index("n5", 64)) == 0
    assert calls == []
    assert registry.counter("shard_updates_rebuilt").value == rebuilt
    # A cut still derives the fold and rebuilds n5's shard.
    assert builds_to_absorb(engine, lambda net: net.update_h_index("n5", 1)) == 1
    assert calls == [("ca-cc", GAMMA)]
    assert registry.counter("shard_updates_rebuilt").value == rebuilt + 1
    assert_matches_a_fresh_engine(engine)


# ----------------------------------------------------------------------
# the shard plan is reused across topology-free deltas
# ----------------------------------------------------------------------
@pytest.fixture()
def plan_calls(monkeypatch) -> list:
    """Record every call the engine makes to the partitioner."""
    calls: list = []
    real = engine_module.plan_shards

    def counting(graph, k):
        calls.append(k)
        return real(graph, k)

    monkeypatch.setattr(engine_module, "plan_shards", counting)
    return calls


def test_reweight_only_burst_reuses_the_shard_plan(plan_calls):
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=3)
    before = indexes(engine)
    plan_calls.clear()
    with engine.mutate() as network:
        u, v, w = next(iter(network.graph.edges()))
        network.add_collaboration(u, v, weight=w / 2)  # decrease
        network.add_collaboration("n4", "n5", weight=1.0)  # increase
        network.update_h_index("n8", 64)
        network.update_skills("n1", {"DB"})
    assert engine.apply_updates() == {"cached": 0, "incremental": 2, "rebuilt": 0}
    after = indexes(engine)
    assert plan_calls == [], "a reweight-only delta must not re-plan"
    for flavor in before:
        assert after[flavor].plan is before[flavor].plan


def test_cross_region_edge_replans_and_rebuilds(plan_calls):
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=3)
    before = indexes(engine)
    plan_calls.clear()
    with engine.mutate() as network:
        network.add_collaboration("n1", "n5", weight=2.0**-41)  # bypasses n3
    assert engine.apply_updates() == {"cached": 0, "incremental": 0, "rebuilt": 2}
    after = indexes(engine)
    assert plan_calls == [3], "one plan per new topology, shared by every index"
    new_hash = after["fold"].plan.plan_hash
    for flavor in before:
        old, new = before[flavor], after[flavor]
        assert new.plan.plan_hash == new_hash != old.plan.plan_hash
        assert not any(
            new.shard_index(i) is old.shard_index(j)
            for i in range(new.num_shards)
            for j in range(old.num_shards)
        )
    # Entries under the old plan are dropped, not left to age out.
    assert {key[-2][2] for key in engine.cached_oracle_keys} == {new_hash}


def test_in_region_edge_reuses_the_shard_plan(plan_calls, tmp_path):
    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=3)
    before = indexes(engine)
    plan = before["fold"].plan
    assert plan.same_region("n0", "n2") and plan.same_region("n3", "n5")
    plan_calls.clear()
    with engine.mutate() as network:
        network.add_collaboration("n0", "n2", weight=2.0**-41)  # chord
        network.add_collaboration("n3", "n5", weight=2.0**-40)  # chord at a cut
    assert engine.apply_updates() == {"cached": 0, "incremental": 2, "rebuilt": 0}
    after = indexes(engine)
    assert plan_calls == [], "an in-region edge must not re-plan"
    for flavor in before:
        assert after[flavor].plan is plan
    expected = answers(engine)

    path = engine.save_snapshot(tmp_path / "store")
    builds = pll_build_count()
    loaded = TeamFormationEngine.from_snapshot(path)
    assert pll_build_count() == builds, "restore must not build any PLL"
    assert answers(loaded) == expected
    assert pll_build_count() == builds, "solve after restore must stay warm"


def test_shard_plan_memo_misses_are_counted():
    registry = obs.global_registry()
    names = ("engine_shard_plans_reused", "engine_shard_plans_computed")

    def ticks() -> list[int]:
        return [registry.counter(name).value for name in names]

    engine = TeamFormationEngine(Script(1).network(), scales=SCALES, shards=3)
    answers(engine)
    start = ticks()
    answers(engine)  # memo hits: the read path counts nothing
    assert ticks() == start
    with engine.mutate() as network:
        network.add_collaboration("n7", "n9", weight=2.0**-41)  # in region
    answers(engine)
    assert [a - b for a, b in zip(ticks(), start)] == [1, 0]
    with engine.mutate() as network:
        network.add_collaboration("n1", "n5", weight=2.0**-41)  # bypasses n3
    answers(engine)
    assert [a - b for a, b in zip(ticks(), start)] == [1, 1]
    text = obs.render_prometheus(registry.snapshot())
    for name in names:
        assert f"# TYPE repro_{name} counter" in text


def test_in_shard_burst_patches_the_next_reads(tmp_path):
    """Reads after an in-shard burst patch carried vectors, not rebuild them."""
    registry = obs.global_registry()
    names = ("shard_source_cache_patched", "shard_source_cache_misses")
    script = Script(4)
    mono = TeamFormationEngine(script.network(), scales=SCALES)
    engine = TeamFormationEngine(script.network(), scales=SCALES, shards=4)
    assert answers(engine) == answers(mono)
    assert_same_distances(engine, mono)  # memoize every source
    # n0-n2 is a chord of the first block, whose shard holds one cut
    # vertex (n3): no boundary-pair distance can move.
    ops = script.concrete("chord", 0)
    assert ops[0][1:3] == ("n0", "n2")
    for each in (mono, engine):
        with each.mutate() as network:
            apply(network, ops)
    start = [registry.counter(name).value for name in names]
    assert answers(engine) == answers(mono)
    patched, misses = (
        registry.counter(name).value - was for name, was in zip(names, start)
    )
    if numpy_available():
        assert 0 < patched <= misses
    else:
        assert patched == 0  # the dict memo is always rebuilt
    # The metrics op exposes the counter.
    metrics = asyncio.run(TeamServer(fixed_engine_loader(engine)).handle_op("metrics"))
    value = registry.counter(names[0]).value
    assert f"repro_shard_source_cache_patched {value}" in metrics["text"]
    assert_same_distances(engine, mono)
    assert_matches_a_fresh_engine(engine)

    path = engine.save_snapshot(tmp_path / "store")
    builds = pll_build_count()
    loaded = TeamFormationEngine.from_snapshot(path)
    assert answers(loaded) == answers(mono)
    assert pll_build_count() == builds, "restore must not build any PLL"


# ----------------------------------------------------------------------
# snapshots carry labels only
# ----------------------------------------------------------------------
def assert_same_labels(restored, live) -> None:
    """Every shard's exported label state is byte-equal."""
    pairs = list(zip(restored.export_state(), live.export_state(), strict=True))
    assert len(pairs) == live.num_shards
    for got, want in pairs:
        for key in ("order", "counts", "incremental_updates"):
            assert got[key] == want[key], key
        for column in ("ranks", "dists"):
            assert got[column].tobytes() == want[column].tobytes(), column


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    k=st.sampled_from((2, 4)),
    bursts=st.lists(
        st.lists(
            st.tuples(st.sampled_from(("chord", "halve")), st.integers(0, 63)),
            min_size=1,
            max_size=3,
        ),
        max_size=3,
    ),
)
def test_snapshot_round_trip_restores_labels_summary_and_distances(seed, k, bursts):
    """Save then load rebuilds the boundary summary from the labels alone."""
    computed = obs.global_registry().counter("engine_shard_plans_computed")
    script = Script(seed)
    engine = TeamFormationEngine(script.network(), scales=SCALES, shards=k)
    answers(engine)
    for abstract in bursts:  # insertions and halvings, replayed per shard
        ops = [op for kind, pick in abstract for op in script.concrete(kind, pick)]
        with engine.mutate() as network:
            apply(network, ops)
        engine.apply_updates()
    blob = engine.snapshot_bytes()
    assert int.from_bytes(blob[8:10], "little") == SNAPSHOT_FORMAT_VERSION == 3
    _, sections = decode_container(blob)
    assert sections and not [name for name in sections if "boundary" in name]

    before, builds = computed.value, pll_build_count()
    loaded = TeamFormationEngine.from_snapshot_bytes(blob)
    restored, live = indexes(loaded), indexes(engine)
    # One plan across the restore and the first reads of both flavors.
    assert computed.value - before == 1
    assert pll_build_count() == builds
    nodes = sorted(engine.network.expert_ids())
    for flavor, oracle in restored.items():
        assert_same_labels(oracle, live[flavor])
        assert oracle._summary_adj == live[flavor]._summary_adj, flavor
        assert oracle._B == live[flavor]._B, flavor
        if numpy_available():
            got = oracle.distance_matrix(nodes, nodes).tobytes()
            assert got == live[flavor].distance_matrix(nodes, nodes).tobytes()
        else:
            for u in nodes:
                got = oracle.distances_from(u, nodes)
                assert got == live[flavor].distances_from(u, nodes), (flavor, u)
    assert answers(loaded) == answers(engine)
    assert pll_build_count() == builds


@pytest.mark.parametrize("k", (2, 4))
def test_restore_plans_once_and_first_reads_never(plan_calls, tmp_path, k):
    engine = TeamFormationEngine(Script(3).network(), scales=SCALES, shards=k)
    expected = answers(engine)
    path = engine.save_snapshot(tmp_path / "one.snap")
    plan_calls.clear()
    loaded = TeamFormationEngine.from_snapshot(path)
    assert plan_calls == [k]
    assert answers(loaded) == expected
    indexes(loaded)
    assert plan_calls == [k], "reads at the snapshot's version must not re-plan"


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def _spans(node: dict, name: str) -> list[dict]:
    found = [node] if node["name"] == name else []
    for child in node.get("children", ()):
        found += _spans(child, name)
    return found


def test_shard_updates_are_counted_and_traced():
    registry = obs.global_registry()
    engine = TeamFormationEngine(Script(4).network(), scales=SCALES, shards=3)
    old = indexes(engine)
    plan = old["fold"].plan
    counts = {
        name: registry.counter(f"shard_updates_{name}").value
        for name in ("incremental", "rebuilt")
    }
    with engine.mutate() as network:
        network.add_collaboration("n7", "n9", weight=2.0**-41)  # chord
        network.update_h_index("n1", 2)  # fold: a cut rebuilds n1's shards
    for i in range(plan.num_shards):
        registry.gauge(f"shard_label_bytes_{i}").set(-1)  # mark as unrefreshed
    with obs.trace("test") as root:
        assert engine.apply_updates()["incremental"] == 2
    chord = set(plan.shards_of("n7")) & set(plan.shards_of("n9"))
    rebuilt = chord | set(plan.shards_of("n1"))
    # raw absorbs the chord; the fold rebuilds the chord's and n1's shards.
    assert registry.counter("shard_updates_incremental").value - counts[
        "incremental"
    ] == len(chord)
    assert registry.counter("shard_updates_rebuilt").value - counts[
        "rebuilt"
    ] == len(rebuilt)
    new = indexes(engine)
    for flavor, touched in (("raw", chord), ("fold", rebuilt)):
        assert new[flavor].replaced_shards == tuple(sorted(touched))
    replays = _spans(root.to_dict(), "engine.journal_replay")
    assert sorted(span["attrs"]["shards"] for span in replays) == sorted(
        (len(chord), len(rebuilt))
    )
    # The gauges are per shard position, shared by every index: each
    # updated shard shows the size some index just gave it.
    for i in range(plan.num_shards):
        sizes = {new[f].label_bytes(i) for f in new if i in new[f].replaced_shards}
        assert registry.gauge(f"shard_label_bytes_{i}").value in (sizes or {-1})
    # A raise only lightens n1's edges: the fold replays them in place,
    # one update per (edge, shard holding it), and rebuilds nothing.
    counts = {name: registry.counter(f"shard_updates_{name}").value for name in counts}
    with engine.mutate() as network:
        network.update_h_index("n1", 64)
    assert engine.apply_updates()["incremental"] == 2
    held = [
        set(plan.shards_of("n1")) & set(plan.shards_of(other))
        for other in engine.network.graph.neighbors("n1")
    ]
    assert registry.counter("shard_updates_incremental").value - counts[
        "incremental"
    ] == sum(map(len, held))
    assert registry.counter("shard_updates_rebuilt").value == counts["rebuilt"]
    assert indexes(engine)["fold"].replaced_shards == tuple(sorted(set().union(*held)))


# ----------------------------------------------------------------------
# a stale oracle is never mutated by an upgrade
# ----------------------------------------------------------------------
def test_upgrade_never_mutates_the_previous_oracle():
    engine = TeamFormationEngine(Script(2).network(), scales=SCALES, shards=3)
    old = indexes(engine)
    nodes = list(engine.network.graph.nodes())
    recorded = {
        flavor: {u: oracle.distances_from(u, nodes) for u in nodes}
        for flavor, oracle in old.items()
    }
    entries = {
        flavor: [oracle.shard_index(i).total_label_entries for i in range(3)]
        for flavor, oracle in old.items()
    }
    with engine.mutate() as network:
        network.add_collaboration("n0", "n2", weight=2.0**-41)  # chord
        network.add_collaboration("n7", "n9", weight=2.0**-41)  # chord
        network.update_h_index("n5", 64)  # fold: rebuild n5's shards
    new = indexes(engine)
    for flavor, oracle in old.items():
        assert new[flavor] is not oracle
        assert new[flavor].replaced_shards, "the burst touched some shard"
        oracle.invalidate()  # drop memoized maps: re-read the labels
        assert {u: oracle.distances_from(u, nodes) for u in nodes} == recorded[flavor]
        assert [
            oracle.shard_index(i).total_label_entries for i in range(3)
        ] == entries[flavor]
    assert new["raw"].distance("n0", "n2") == 2.0**-41


# ----------------------------------------------------------------------
# solve-vs-mutate race on a sharded engine
# ----------------------------------------------------------------------
RACE_BURSTS = (
    [("edge", "n0", "n2", 2.0**-41, False)],
    [("edge", "n3", "n5", 2.0**-41, False), ("h_index", "n8", 64)],
    [("edge", "n7", "n9", 2.0**-41, False), ("skills", "n1", {"SN"})],
    [("edge", "n4", "n5", 1.0, True)],
    [("h_index", "n2", 1), ("edge", "n1", "n3", 2.0**-41, False)],
)


@pytest.fixture()
def aggressive_thread_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_sharded_mutate_solve_race_matches_monolithic(aggressive_thread_switching):
    mono = TeamFormationEngine(Script(3).network(), scales=SCALES)
    refs = {mono.network.version: answers(mono)}
    for ops in RACE_BURSTS:
        with mono.mutate() as network:
            apply(network, ops)
        refs[mono.network.version] = answers(mono)

    engine = TeamFormationEngine(Script(3).network(), scales=SCALES, shards=3)
    answers(engine)  # warm every index before the race
    observations: list[tuple[int, int, int, str]] = []
    lock = threading.Lock()
    start = threading.Barrier(4)
    done = threading.Event()
    errors: list[BaseException] = []

    def mutator() -> None:
        start.wait()
        for ops in RACE_BURSTS:
            with engine.mutate() as network:
                apply(network, ops)
        done.set()

    def solver(worker: int) -> None:
        start.wait()
        try:
            while True:
                finished = done.is_set()
                for index in range(worker, len(REQUESTS), 2):
                    v_pre = engine.network.version
                    answer = engine.solve(REQUESTS[index]).canonical_json()
                    v_post = engine.network.version
                    with lock:
                        observations.append((index, v_pre, v_post, answer))
                if finished:
                    return
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=mutator, daemon=True)] + [
        threading.Thread(target=solver, args=(i,), daemon=True) for i in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "race test deadlocked"
    assert not errors, errors
    assert engine.network.version == mono.network.version
    final = mono.network.version
    assert any(v_pre == final for _, v_pre, _, _ in observations)
    for index, v_pre, v_post, answer in observations:
        window = {refs[v][index] for v in refs if v_pre <= v <= v_post}
        assert answer in window, f"answer matches no version in [{v_pre}, {v_post}]"
