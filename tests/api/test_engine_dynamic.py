"""Dynamic-network serving: versioned oracle invalidation and updates.

The regression at the heart of PR 3: ``engine.solve(...)``, then a
network mutation, then ``engine.solve(...)`` again must reflect the
mutation — the seed engine kept serving pre-mutation PLL distances.
Every test here compares the long-lived engine against a fresh engine
built over the mutated network with the *same frozen scales*, which is
the definition of "not stale".
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import TeamFormationEngine, TeamRequest
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll import pll_build_count

from .conftest import PROJECT, build_figure1_network


@pytest.fixture()
def network() -> ExpertNetwork:
    """A mutable copy of the figure-1 network (the shared session-scoped
    fixture must stay pristine)."""
    return build_figure1_network()


def assert_not_stale(engine: TeamFormationEngine, request: TeamRequest) -> None:
    """The long-lived engine answers exactly like a fresh one."""
    served = engine.solve(request)
    fresh = TeamFormationEngine(
        engine.network, scales=engine.scales, oracle_kind=engine.oracle_kind
    ).solve(request)
    assert served.team == fresh.team
    assert served.scores == fresh.scores


@pytest.mark.parametrize("oracle_kind", ["pll", "dijkstra"])
def test_regression_mutation_between_solves_is_visible(network, oracle_kind):
    """The stale-oracle bug: a post-solve edge must change the answer."""
    engine = TeamFormationEngine(network, oracle_kind=oracle_kind)
    request = TeamRequest(
        skills=PROJECT, solver="greedy", objective="cc", oracle_kind=oracle_kind
    )
    before = engine.solve(request)
    assert sorted(before.team.members) == ["han", "liu", "ren"]
    # A near-free direct collaboration makes the golshan/kotzias team
    # strictly cheaper in pure communication cost.
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=0.01)
    after = engine.solve(request)
    assert sorted(after.team.members) == ["golshan", "kotzias"]
    assert_not_stale(engine, request)
    assert {key[0] for key in engine.cached_oracle_keys} == {oracle_kind}


def test_edge_insertion_upgrades_incrementally_without_rebuild(network):
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy")
    engine.solve(request)
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=0.01)
    before = pll_build_count()
    assert_not_stale(engine, request)  # fresh engine pays its own build
    served_builds = pll_build_count() - before
    assert served_builds == 1  # only the fresh comparison engine built


def test_add_expert_and_edge_are_incremental_and_visible(network):
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=("SN", "TM", "QC"), solver="greedy")
    assert not engine.solve(request).found  # QC uncovered
    with engine.mutate() as net:
        net.add_expert(Expert("quine", skills={"QC"}, h_index=30))
        net.add_collaboration("quine", "han", weight=0.1)
    before = pll_build_count()
    response = engine.solve(request)
    assert pll_build_count() - before == 0  # absorbed in place
    assert response.found
    assert "quine" in response.team.members
    assert_not_stale(engine, request)


def test_replayed_delta_publishes_one_label_store_per_oracle(network):
    """A multi-step delta reaches each PLL as one ``apply`` call."""
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=("SN", "TM", "QC"), solver="greedy")
    engine.solve(request)
    with engine.mutate() as net:
        net.add_expert(Expert("quine", skills={"QC"}, h_index=30))
        net.add_collaboration("quine", "han", weight=0.1)
        net.add_collaboration("golshan", "kotzias", weight=0.01)
        net.add_collaboration("quine", "ren", weight=0.2)
    registry = obs.global_registry()
    replays = registry.counter("engine_journal_replays").value
    stores = registry.counter("pll_freezes").value
    builds = pll_build_count()
    assert engine.solve(request).found
    replayed = registry.counter("engine_journal_replays").value - replays
    assert replayed >= 1
    assert pll_build_count() == builds
    assert registry.counter("pll_freezes").value - stores == replayed
    assert_not_stale(engine, request)


def test_removal_falls_back_to_rebuild(network):
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy", objective="cc")
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=0.01)
    engine.solve(request)
    with engine.mutate() as net:
        net.remove_collaboration("golshan", "kotzias")
    before = pll_build_count()
    response = engine.solve(request)
    assert pll_build_count() - before == 1  # rebuild, not incremental
    assert sorted(response.team.members) == ["han", "liu", "ren"]
    assert_not_stale(engine, request)


def test_weight_increase_falls_back_to_rebuild(network):
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy", objective="cc")
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=0.01)
    engine.solve(request)
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=4.0)
    before = pll_build_count()
    assert sorted(engine.solve(request).team.members) == ["han", "liu", "ren"]
    assert pll_build_count() - before == 1
    assert_not_stale(engine, request)


def test_insert_then_increase_chain_is_net_insertion(network):
    """A reweighting chain is judged by its net effect, not per link.

    Insert at 0.5 then raise to 2.0 within one delta: the cached index
    never saw the edge, so the chain is a pure insertion at 2.0 and must
    stay on the incremental path.
    """
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy", objective="cc")
    engine.solve(request)
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=0.5)
        net.add_collaboration("golshan", "kotzias", weight=2.0)
    before = pll_build_count()
    engine.solve(request)
    assert pll_build_count() - before == 0  # net insertion: no rebuild
    assert_not_stale(engine, request)


def test_skill_update_reuses_index_untouched(network):
    engine = TeamFormationEngine(network)
    engine.solve(TeamRequest(skills=PROJECT, solver="greedy"))
    with engine.mutate() as net:
        net.update_skills("bridge", {"SN", "TM"})
    before = pll_build_count()
    response = engine.solve(TeamRequest(skills=PROJECT, solver="greedy"))
    assert pll_build_count() - before == 0  # skills never touch distances
    assert response.found
    assert_not_stale(engine, TeamRequest(skills=PROJECT, solver="greedy"))


def test_h_index_update_rebuilds_fold_but_not_cc(network):
    """Under the fold a raise replays as weight decreases; a cut rebuilds."""
    engine = TeamFormationEngine(network)
    fold = TeamRequest(skills=PROJECT, solver="greedy", objective="sa-ca-cc")
    cc = TeamRequest(skills=PROJECT, solver="greedy", objective="cc")
    engine.solve(fold)
    engine.solve(cc)
    incremental = obs.global_registry().counter("engine_oracle_incremental")
    with engine.mutate() as net:
        net.update_h_index("lappas", 200)
    before = pll_build_count()
    engine.solve(cc)
    assert pll_build_count() - before == 0  # cc ignores authority
    upgrades = incremental.value
    engine.solve(fold)
    assert pll_build_count() - before == 0  # lappas's edges only got lighter
    assert incremental.value - upgrades == 1
    assert_not_stale(engine, fold)
    # A cut makes lappas's edges heavier (a new engine: the fresh one
    # above holds the network's mutation guard now).
    engine = TeamFormationEngine(network, scales=engine.scales)
    engine.solve(fold)
    engine.solve(cc)
    with engine.mutate() as net:
        net.update_h_index("lappas", 3)
    before = pll_build_count()
    engine.solve(cc)
    assert pll_build_count() - before == 0
    engine.solve(fold)
    assert pll_build_count() - before == 1  # heavier edges: the fold re-weighs
    assert_not_stale(engine, fold)


def test_remove_expert_referenced_by_pending_request(network):
    """Removing the only holders of a requested skill is an in-band miss."""
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=("DB",), solver="greedy")
    assert engine.solve(request).found
    with engine.mutate() as net:
        net.remove_expert("golshan")
        net.remove_expert("kotzias")
    response = engine.solve(request)
    assert not response.found
    assert response.team is None
    assert "DB" in response.error


def test_cached_oracle_keys_evict_stale_versions(network):
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy")
    for weight in (0.9, 0.8, 0.7, 0.6):
        with engine.mutate() as net:
            net.add_collaboration("liu", "ren", weight=weight)
        engine.solve(request)
    keys = engine.cached_oracle_keys
    assert len(keys) == 1  # one base, stale versions re-keyed away
    assert keys[0][-1] == network.version
    # The finder cache is purged the same way: stale finders would pin
    # replaced indexes past the oracle-cache bound.
    assert {key[-1] for key in engine._finders} == {network.version}


def test_apply_updates_reports_reconciliation(network):
    engine = TeamFormationEngine(network)
    engine.solve(TeamRequest(skills=PROJECT, solver="greedy"))  # fold
    engine.solve(TeamRequest(skills=PROJECT, solver="rarest_first"))  # raw
    assert engine.apply_updates() == {"cached": 2, "incremental": 0, "rebuilt": 0}
    with engine.mutate() as net:
        net.add_collaboration("liu", "lappas", weight=0.2)
    assert engine.apply_updates() == {"cached": 0, "incremental": 2, "rebuilt": 0}
    with engine.mutate() as net:
        net.remove_collaboration("liu", "lappas")
    report = engine.apply_updates()
    assert report == {"cached": 0, "incremental": 0, "rebuilt": 2}
    assert_not_stale(engine, TeamRequest(skills=PROJECT, solver="greedy"))


def test_journal_truncation_forces_correct_rebuild(network, monkeypatch):
    monkeypatch.setattr(ExpertNetwork, "JOURNAL_CAP", 2)
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy")
    engine.solve(request)
    with engine.mutate() as net:
        for weight in (0.9, 0.7, 0.5, 0.3):
            net.add_collaboration("golshan", "kotzias", weight=weight)
    assert network.mutations_since(0) is None  # history gone
    before = pll_build_count()
    engine.solve(request)
    assert pll_build_count() - before == 1  # no delta -> rebuild
    assert_not_stale(engine, request)


def test_refresh_scales_drops_caches_and_rescales(network):
    engine = TeamFormationEngine(network)
    engine.solve(TeamRequest(skills=PROJECT, solver="greedy"))
    with engine.mutate() as net:
        net.add_collaboration("liu", "lappas", weight=50.0)  # new max weight
    old_edge_scale = engine.scales.edge_scale
    scales = engine.refresh_scales()
    assert scales.edge_scale == 50.0 != old_edge_scale
    assert engine.cached_oracle_keys == ()


def test_solve_many_straddling_a_mutation(network):
    """Batch requests see the network as of their own solve call."""
    engine = TeamFormationEngine(network)
    request = TeamRequest(skills=PROJECT, solver="greedy", objective="cc")
    first = engine.solve(request)
    with engine.mutate() as net:
        net.add_collaboration("golshan", "kotzias", weight=0.01)
    second, third = engine.solve_many([request, request])
    assert sorted(first.team.members) == ["han", "liu", "ren"]
    assert second.team == third.team
    assert sorted(second.team.members) == ["golshan", "kotzias"]


@pytest.mark.parametrize("oracle_kind", ["pll", "dijkstra"])
def test_upgrade_never_mutates_the_previous_oracle(network, oracle_kind):
    """A replay lands on a clone: the old oracle and its graph stay as they were."""
    engine = TeamFormationEngine(network, oracle_kind=oracle_kind)
    request = TeamRequest(
        skills=("SN", "TM", "QC"),
        solver="greedy",
        objective="cc",
        oracle_kind=oracle_kind,
    )
    engine.solve(request)
    old_graph, old = engine._search_entry("cc", 0.0)
    nodes = list(old_graph.nodes())
    distances = {u: old.distances_from(u, nodes) for u in nodes}
    edges = sorted(old_graph.edges())
    registry = obs.global_registry()
    replays = registry.counter("engine_journal_replays").value
    with engine.mutate() as net:
        net.add_expert(Expert("quine", skills={"QC"}, h_index=30))
        net.add_collaboration("quine", "han", weight=0.1)  # new edge
        net.add_collaboration("han", "bridge", weight=2.0)  # decrease from 5.0
    assert engine.solve(request).found
    new_graph, new = engine._search_entry("cc", 0.0)
    assert registry.counter("engine_journal_replays").value - replays == 1
    assert new is not old and new_graph is not old_graph
    assert new.distance("quine", "han") < float("inf")
    old.invalidate()  # drop memoized answers: recompute from what it holds
    assert {u: old.distances_from(u, nodes) for u in nodes} == distances
    assert sorted(old_graph.edges()) == edges
    assert_not_stale(engine, request)
