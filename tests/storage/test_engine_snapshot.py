"""Warm-start acceptance tests: snapshot == never-persisted engine.

The contract under test is the PR's acceptance criterion: an engine
restored via ``from_snapshot()`` (including journal-tail replay against
a newer live network) returns *byte-identical* ``TeamResponse`` JSON to
the engine that never touched disk, for every registered solver — and it
does so without paying for a single index build.
"""

from __future__ import annotations

import json

import pytest

from repro.api import DEFAULT_REGISTRY, TeamFormationEngine, TeamRequest
from repro.expertise import Expert
from repro.graph.pll import PrunedLandmarkLabeling, pll_build_count
from repro.storage import (
    CorruptSnapshotError,
    SnapshotStore,
    StaleSnapshotError,
)
from tests.api.conftest import PROJECT, build_figure1_network


def canonical_json(response):
    """Response JSON with wall-clock timing zeroed (the only
    legitimately nondeterministic field)."""
    payload = response.to_dict()
    payload["timing"] = None
    return json.dumps(payload, sort_keys=True)


def request_for(solver: str) -> TeamRequest:
    # seed/num_samples pin the stochastic solver; others ignore them.
    return TeamRequest(skills=PROJECT, solver=solver, seed=11, num_samples=40)


@pytest.fixture()
def engine() -> TeamFormationEngine:
    return TeamFormationEngine(build_figure1_network())


def test_round_trip_identity_all_registered_solvers(engine, tmp_path):
    solvers = DEFAULT_REGISTRY.names()
    assert len(solvers) == 7  # the acceptance bar covers every adapter
    live = {s: engine.solve(request_for(s)) for s in solvers}
    engine.raw_oracle()
    engine.save_snapshot(tmp_path / "store")

    builds_before = pll_build_count()
    warm = TeamFormationEngine.from_snapshot(tmp_path / "store")
    for solver in solvers:
        assert canonical_json(warm.solve(request_for(solver))) == canonical_json(
            live[solver]
        ), solver
    assert pll_build_count() == builds_before  # zero builds end to end


def test_restored_labels_are_bit_identical(engine, tmp_path):
    engine.solve(request_for("greedy"))
    engine.raw_oracle()
    engine.save_snapshot(tmp_path / "store")
    warm = TeamFormationEngine.from_snapshot(tmp_path / "store")
    assert warm.cached_oracle_keys == engine.cached_oracle_keys
    for cache_live, cache_warm in (
        (engine._search_cache, warm._search_cache),
        (engine._raw_oracles, warm._raw_oracles),
    ):
        for key, (_graph, live_oracle) in cache_live.items():
            warm_oracle = cache_warm[key][1]
            assert isinstance(warm_oracle, PrunedLandmarkLabeling)
            assert (
                warm_oracle.export_flat_labels() == live_oracle.export_flat_labels()
            )


def test_network_history_round_trips(engine, tmp_path):
    with engine.mutate() as network:
        network.add_expert(Expert("new", skills={"TM"}, h_index=4))
        network.add_collaboration("new", "han", weight=0.5)
    engine.solve(request_for("greedy"))  # reconcile + warm at version 2
    engine.save_snapshot(tmp_path / "store")
    warm = TeamFormationEngine.from_snapshot(tmp_path / "store")
    assert warm.network.version == network.version
    assert warm.network.journal_floor == network.journal_floor
    assert warm.network.journal_tail() == network.journal_tail()
    # Post-restore mutations replay through the same incremental path.
    for owner in (engine, warm):
        with owner.mutate() as net:
            net.add_collaboration("new", "liu", weight=0.1)
    assert canonical_json(warm.solve(request_for("greedy"))) == canonical_json(
        engine.solve(request_for("greedy"))
    )


def test_snapshot_attaches_to_newer_live_network(engine, tmp_path):
    engine.solve(request_for("greedy"))
    engine.raw_oracle()
    engine.save_snapshot(tmp_path / "store")  # frozen at version 0
    with engine.mutate() as network:
        network.add_expert(Expert("new", skills={"SN"}, h_index=50))
        network.add_collaboration("new", "han", weight=0.05)
        network.update_h_index("kotzias", 9.0)

    warm = TeamFormationEngine.from_snapshot(tmp_path / "store", network=network)
    assert warm.network is network
    for solver in ("greedy", "rarest_first", "sa_optimal"):
        assert canonical_json(warm.solve(request_for(solver))) == canonical_json(
            engine.solve(request_for(solver))
        ), solver


def test_snapshot_ahead_of_live_network_is_stale(engine, tmp_path):
    with engine.mutate() as network:
        network.add_expert(Expert("new", skills={"SN"}))
    engine.save_snapshot(tmp_path / "store")  # frozen at version 1
    other = build_figure1_network()  # version 0: never saw the mutation
    with pytest.raises(StaleSnapshotError, match="ahead of the live network"):
        TeamFormationEngine.from_snapshot(tmp_path / "store", network=other)


def test_snapshot_older_than_journal_floor_is_stale(engine, tmp_path):
    engine.save_snapshot(tmp_path / "store")  # frozen at version 0
    with engine.mutate() as network:
        network.JOURNAL_CAP = 2  # instance override; shrink history brutally
        network.add_collaboration("liu", "golshan", weight=0.9)
        network.add_collaboration("liu", "kotzias", weight=0.9)
        network.add_collaboration("ren", "golshan", weight=0.9)
    assert network.mutations_since(0) is None  # floor moved past v0
    with pytest.raises(StaleSnapshotError, match="journal floor"):
        TeamFormationEngine.from_snapshot(tmp_path / "store", network=network)


def test_divergent_lineage_at_same_version_is_stale(engine, tmp_path):
    """Version numbers alone cannot tell lineages apart; the journal
    overlap can — a same-version network with a *different* mutation
    history must be refused, never silently served wrong distances."""
    with engine.mutate() as network:
        network.add_collaboration("liu", "golshan", weight=0.01)  # v1
    engine.save_snapshot(tmp_path / "store")
    other = build_figure1_network()
    other.add_collaboration("ren", "kotzias", weight=0.01)  # also v1
    with pytest.raises(StaleSnapshotError, match="different lineage"):
        TeamFormationEngine.from_snapshot(tmp_path / "store", network=other)
    # The true continuation of the saved lineage still attaches fine.
    same = build_figure1_network()
    same.add_collaboration("liu", "golshan", weight=0.01)
    same.add_collaboration("ren", "kotzias", weight=0.01)  # moved on to v2
    warm = TeamFormationEngine.from_snapshot(tmp_path / "store", network=same)
    assert warm.network is same


def test_out_of_range_label_ranks_are_corrupt_not_indexerror(engine, tmp_path):
    """A structurally broken label section with valid CRCs (a buggy
    writer) must surface as CorruptSnapshotError, not IndexError."""
    import struct

    from repro.storage import decode_labels_flat, read_container, write_container

    engine.solve(request_for("greedy"))
    path = engine.save_snapshot(tmp_path / "one.snap")
    meta, sections = read_container(path)
    name = next(n for n in sections if n.startswith("labels/"))
    blob = bytearray(sections[name])
    # The last hub rank sits just before the f64 distance column.
    last_rank = len(blob) - 8 * len(decode_labels_flat(sections[name])["ranks"]) - 4
    blob[last_rank : last_rank + 4] = struct.pack("<I", 999_999)  # way out
    sections[name] = bytes(blob)
    write_container(path, meta, sections)  # CRCs recomputed: "valid" file
    with pytest.raises(CorruptSnapshotError, match="hub rank out of range"):
        TeamFormationEngine.from_snapshot(path)


def test_corrupt_snapshot_never_yields_an_engine(engine, tmp_path):
    engine.solve(request_for("greedy"))
    path = engine.save_snapshot(tmp_path / "one.snap")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshotError):
        TeamFormationEngine.from_snapshot(path)


def test_save_accepts_store_object_file_and_directory(engine, tmp_path):
    store = SnapshotStore(tmp_path / "a")
    assert engine.save_snapshot(store).parent == tmp_path / "a"
    assert engine.save_snapshot(tmp_path / "b").parent == tmp_path / "b"
    single = engine.save_snapshot(tmp_path / "c" / "one.snap")
    assert single == tmp_path / "c" / "one.snap"
    for source in (store, tmp_path / "b", single):
        warm = TeamFormationEngine.from_snapshot(source)
        assert len(warm.network) == len(engine.network)


def test_dijkstra_entries_are_skipped_not_persisted(tmp_path):
    engine = TeamFormationEngine(build_figure1_network(), oracle_kind="dijkstra")
    request = request_for("greedy").replace(oracle_kind="dijkstra")
    engine.solve(request)
    assert engine.cached_oracle_keys  # a dijkstra entry exists live...
    engine.save_snapshot(tmp_path / "store")
    warm = TeamFormationEngine.from_snapshot(tmp_path / "store")
    assert warm.oracle_kind == "dijkstra"
    assert warm.cached_oracle_keys == ()  # ...but holds nothing persistable
    assert canonical_json(warm.solve(request)) == canonical_json(
        engine.solve(request)
    )


def test_stale_cache_entries_are_not_persisted(engine, tmp_path):
    engine.solve(request_for("greedy"))
    with engine.mutate() as network:
        network.update_h_index("han", 140.0)  # entries now stale at v1
    engine.save_snapshot(tmp_path / "store")
    warm = TeamFormationEngine.from_snapshot(tmp_path / "store")
    assert warm.cached_oracle_keys == ()
    assert warm.network.version == 1
