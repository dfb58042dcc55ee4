"""Delta-snapshot replication: primary log, follower apply, staleness.

The contract under test is the PR-8 bugfix: replicas must never
*silently* serve stale answers.  Either they advance with the primary
(delta frames replayed through the engine's incremental path, full
snapshot transfer past the journal floor — both byte-identical to a
fresh engine at the same version), or — with a staleness budget set —
they answer with a typed ``stale_replica`` rejection.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TeamFormationEngine, TeamRequest
from repro.expertise import Expert
from repro.graph.pll import pll_build_count
from repro.serving.replication import (
    ReplicaFollower,
    ReplicationLog,
    apply_network_op,
)
from repro.storage import (
    CorruptDeltaError,
    JournalTruncatedError,
    StaleSnapshotError,
)
from repro.storage.delta import FRAME_DELTA, iter_frames

from ..api.conftest import PROJECT, build_figure1_network
from ..conftest import SKILLS, make_random_network

GREEDY = TeamRequest(skills=PROJECT, solver="greedy")
RAREST = TeamRequest(skills=PROJECT, solver="rarest_first")


def canonical(response) -> str:
    return response.canonical_json()


def make_pair(**log_kwargs):
    """A primary engine with a replication log, plus a warm follower."""
    primary = TeamFormationEngine(build_figure1_network())
    primary.solve(GREEDY)  # warm the default index before the transfer
    primary.solve(RAREST)
    log = ReplicationLog(primary, **log_kwargs)
    follower = ReplicaFollower(
        TeamFormationEngine.from_snapshot_bytes(primary.snapshot_bytes())
    )
    return primary, log, follower


# ----------------------------------------------------------------------
# the primary side: enriched capture and delta framing
# ----------------------------------------------------------------------
def test_log_enriches_profile_mutations():
    primary, log, _ = make_pair()
    with primary.mutate() as network:
        network.add_expert(Expert("new", skills={"SN"}, h_index=7))
        network.update_skills("liu", {"SN", "DB"})
        network.update_h_index("ren", 20)
        network.add_collaboration("new", "han", weight=0.5)
    records = list(log._records)
    by_op = {r.mutation.op: r for r in records}
    assert by_op["add_expert"].expert.skills == frozenset({"SN"})
    assert by_op["add_expert"].expert.h_index == 7
    assert by_op["update_skills"].expert.skills == frozenset({"SN", "DB"})
    assert by_op["update_h_index"].h_index == 20
    assert by_op["add_collaboration"].expert is None


def test_delta_since_tip_is_empty_stream():
    primary, log, _ = make_pair()
    assert log.delta_since(primary.network.version) == b""


def test_delta_since_ahead_of_primary_is_a_lineage_error():
    _, log, _ = make_pair()
    with pytest.raises(ValueError, match="different lineage"):
        log.delta_since(log.version + 3)


def test_bounded_log_truncates_with_a_typed_error():
    primary, log, _ = make_pair(capacity=2)
    with primary.mutate() as network:
        for i in range(4):
            network.update_h_index("liu", 10 + i)
    assert log.floor == primary.network.version - 2
    with pytest.raises(JournalTruncatedError) as exc_info:
        log.delta_since(0)
    assert exc_info.value.since_version == 0
    assert exc_info.value.floor == log.floor
    # From the floor onward the delta is still servable.
    assert log.delta_since(log.floor) != b""


def test_lag_ms_prices_staleness():
    primary, log, _ = make_pair()
    tip = primary.network.version
    assert log.lag_ms(tip) == 0.0
    with primary.mutate() as network:
        network.update_h_index("liu", 42)
    assert log.lag_ms(tip) > 0.0
    assert log.lag_ms(primary.network.version) == 0.0


def test_closed_log_stops_capturing():
    primary, log, _ = make_pair()
    log.close()
    log.close()  # idempotent
    with primary.mutate() as network:
        network.update_h_index("liu", 42)
    assert log.version < primary.network.version


def test_incremental_hint_is_conservative():
    primary, log, follower = make_pair()
    with primary.mutate() as network:
        network.update_h_index("liu", 42)  # rebuild under the fold
    ((_, payload),) = iter_frames(log.delta_since(follower.version))
    assert payload["hints"] == {"incremental": False}
    with primary.mutate() as network:
        network.add_collaboration("liu", "golshan", weight=0.4)  # new edge
    payloads = [p for _, p in iter_frames(log.delta_since(log.version - 1))]
    assert payloads[-1]["hints"] == {"incremental": True}


# ----------------------------------------------------------------------
# the follower side: replay semantics
# ----------------------------------------------------------------------
def test_follower_converges_byte_identically():
    primary, log, follower = make_pair()
    with primary.mutate() as network:
        network.add_expert(Expert("new", skills={"TM"}, h_index=8))
        network.add_collaboration("new", "liu", weight=0.2)
        network.update_skills("bridge", {"SN"})
    report = follower.apply(log.delta_since(follower.version))
    assert report["applied"] == 3
    assert report["snapshot_fallbacks"] == 0
    assert follower.version == primary.network.version
    for request in (GREEDY, RAREST):
        assert canonical(follower.engine.solve(request)) == canonical(
            primary.solve(request)
        )


def test_replay_is_idempotent():
    primary, log, follower = make_pair()
    with primary.mutate() as network:
        network.update_h_index("liu", 42)
    data = log.delta_since(follower.version)
    assert follower.apply(data)["applied"] == 1
    again = follower.apply(data)
    assert again["applied"] == 0 and again["skipped"] == 1
    assert follower.version == primary.network.version


def test_gap_in_the_stream_is_a_truncation_error():
    primary, log, follower = make_pair()
    with primary.mutate() as network:
        network.update_h_index("liu", 42)
    missed = log.delta_since(follower.version)  # never applied
    assert missed
    with primary.mutate() as network:
        network.update_h_index("liu", 43)
    late = log.delta_since(primary.network.version - 1)
    with pytest.raises(JournalTruncatedError):
        follower.apply(late)


def test_diverged_follower_journal_mismatch_is_a_lineage_error():
    # A follower whose *state* silently differs (same version number,
    # different liu-han edge weight): the replicated reweight applies,
    # but the follower's own journal records old_weight=2.0 where the
    # primary shipped old_weight=1.0 — caught, never served.
    primary, log, _ = make_pair()
    diverged_network = build_figure1_network()
    diverged_network.add_collaboration("liu", "han", weight=2.0)
    diverged_network.restore_history(version=0, journal=(), journal_floor=0)
    diverged = TeamFormationEngine(diverged_network, scales=primary.scales)
    with primary.mutate() as network:
        network.add_collaboration("liu", "han", weight=0.5)
    with pytest.raises(StaleSnapshotError, match="lineage"):
        ReplicaFollower(diverged).apply(log.delta_since(0))


def test_impossible_replicated_mutation_is_a_lineage_error():
    # Well-formed record, impossible against the follower's state (the
    # expert it touches does not exist there).
    primary, log, _ = make_pair()
    diverged_network = build_figure1_network()
    diverged_network.remove_expert("bridge")
    diverged_network.restore_history(version=0, journal=(), journal_floor=0)
    diverged = TeamFormationEngine(diverged_network, scales=primary.scales)
    with primary.mutate() as network:
        network.update_h_index("bridge", 2)
    with pytest.raises(StaleSnapshotError, match="lineage"):
        ReplicaFollower(diverged).apply(log.delta_since(0))


def test_non_contiguous_records_are_corrupt():
    primary, log, follower = make_pair()
    with primary.mutate() as network:
        network.update_h_index("liu", 42)
        network.update_h_index("liu", 43)
    ((_, payload),) = iter_frames(log.delta_since(follower.version))
    del payload["records"][0]
    with pytest.raises(CorruptDeltaError, match="not contiguous"):
        follower.engine.apply_delta_payload(payload)


def test_snapshot_frame_replaces_the_follower_engine():
    primary, log, follower = make_pair(capacity=1)
    with primary.mutate() as network:
        for i in range(5):
            network.update_h_index("liu", 10 + i)
    with pytest.raises(JournalTruncatedError):
        log.delta_since(follower.version)
    old_engine = follower.engine
    report = follower.apply(log.snapshot_frame())
    assert report["snapshot_fallbacks"] == 1
    assert follower.engine is not old_engine
    assert follower.version == primary.network.version
    assert canonical(follower.engine.solve(GREEDY)) == canonical(
        primary.solve(GREEDY)
    )


# ----------------------------------------------------------------------
# the shared JSON mutation-op vocabulary
# ----------------------------------------------------------------------
def test_apply_network_op_round_trips_every_kind():
    network = build_figure1_network()
    apply_network_op(
        network, {"op": "add_expert", "id": "n", "skills": ["DB"], "h_index": 4}
    )
    apply_network_op(network, {"op": "add_collaboration", "u": "n", "v": "han"})
    apply_network_op(network, {"op": "update_skills", "id": "n", "skills": ["SN"]})
    apply_network_op(network, {"op": "update_h_index", "id": "n", "h_index": 6})
    apply_network_op(network, {"op": "remove_collaboration", "u": "n", "v": "han"})
    apply_network_op(network, {"op": "remove_expert", "id": "n"})
    assert "n" not in network.expert_ids()


def test_apply_network_op_names_the_missing_field():
    network = build_figure1_network()
    with pytest.raises(ValueError, match="requires field 'id'"):
        apply_network_op(network, {"op": "add_expert"})
    with pytest.raises(ValueError, match="unknown op 'frobnicate'"):
        apply_network_op(network, {"op": "frobnicate"})


# ----------------------------------------------------------------------
# differential suite: a follower is indistinguishable from a fresh
# engine at the same version — and the delta path never rebuilds
# ----------------------------------------------------------------------
def apply_decrease_only_mutation(network, rng: random.Random) -> None:
    """One random mutation from the incrementally-applicable family.

    Node adds, new edges, weight *decreases*, and skill updates stream
    into a 2-hop cover without a rebuild; the differential suite sticks
    to them so it can pin ``pll_build_count`` to zero on the delta path.
    """
    ids = list(network.expert_ids())
    op = rng.choice(("add_expert", "add_edge", "decrease", "skills"))
    if op == "add_expert":
        network.add_expert(
            Expert(
                f"x{network.version}_{rng.randrange(1000)}",
                skills={rng.choice(SKILLS)},
                h_index=rng.randint(0, 20),
            )
        )
    elif op == "add_edge":
        u, v = rng.sample(ids, 2)
        if not network.graph.has_edge(u, v):
            network.add_collaboration(u, v, weight=rng.uniform(0.05, 1.0))
        else:
            network.add_collaboration(
                u, v, weight=network.graph.weight(u, v) * rng.uniform(0.3, 0.9)
            )
    elif op == "decrease" and network.num_edges:
        u, v, w = rng.choice(list(network.graph.edges()))
        network.add_collaboration(u, v, weight=w * rng.uniform(0.3, 0.99))
    else:
        network.update_skills(
            rng.choice(ids), {rng.choice(SKILLS), rng.choice(SKILLS)}
        )


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bursts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    fallback_at=st.integers(0, 5),
)
def test_follower_replay_differential(seed, bursts, fallback_at):
    """Any delta stream → byte-identical answers, zero index rebuilds.

    A randomized mutation storm runs on the primary in bursts; after
    each burst the follower catches up from the log (occasionally via a
    mid-stream full-snapshot transfer followed by more deltas) and must
    answer every solver byte-identically to (a) the live primary and
    (b) a fresh engine built at the same version with the primary's
    scales.  The follower's whole catch-up path is pinned to zero PLL
    builds — the point of *delta* replication.
    """
    rng = random.Random(seed)
    network = make_random_network(rng, n=rng.randint(5, 9))
    primary = TeamFormationEngine(network)
    project = tuple(rng.sample(SKILLS, rng.randint(1, 2)))
    reqs = [
        TeamRequest(skills=project, solver="greedy"),
        TeamRequest(skills=project, solver="rarest_first"),
    ]
    for request in reqs:
        primary.solve(request)  # warm both index bases pre-transfer
    log = ReplicationLog(primary)
    follower = ReplicaFollower(
        TeamFormationEngine.from_snapshot_bytes(primary.snapshot_bytes())
    )
    for burst_index, burst in enumerate(bursts):
        with primary.mutate() as net:
            for _ in range(burst):
                apply_decrease_only_mutation(net, rng)
        if burst_index == fallback_at:
            # Mid-stream fallback: a full transfer, then the deltas
            # that accumulate after it — one concatenated stream.  The
            # primary serves continuously, so its indexes are warm at
            # the tip when the snapshot is cut (which is what keeps the
            # restored follower warm too).
            for request in reqs:
                primary.solve(request)
            stream = log.snapshot_frame()
            with primary.mutate() as net:
                apply_decrease_only_mutation(net, rng)
            stream += log.delta_since(primary.network.version - 1)
        else:
            stream = log.delta_since(follower.version)
        builds_before = pll_build_count()
        follower.apply(stream)
        live = [primary.solve(r) for r in reqs]
        replayed = [follower.engine.solve(r) for r in reqs]
        assert pll_build_count() == builds_before, (
            "the delta path must never rebuild an index"
        )
        assert follower.version == primary.network.version
        for a, b in zip(replayed, live):
            assert canonical(a) == canonical(b)
    # A cold engine at the same version (primary's frozen scales — the
    # follower inherited them through the snapshot) agrees too.
    fresh = TeamFormationEngine(follower.engine.network, scales=primary.scales)
    for request in reqs:
        assert canonical(fresh.solve(request)) == canonical(
            follower.engine.solve(request)
        )


def test_delta_stream_hints_survive_framing():
    primary, log, follower = make_pair()
    with primary.mutate() as network:
        network.add_collaboration("liu", "golshan", weight=0.4)
    frames = list(iter_frames(log.delta_since(follower.version)))
    assert [kind for kind, _ in frames] == [FRAME_DELTA]
    assert frames[0][1]["hints"] == {"incremental": True}
    report = follower.apply(log.delta_since(follower.version))
    assert report["reconciled"] is not None  # eager incremental pass ran


# ----------------------------------------------------------------------
# log compaction (PR-10): snapshot GC raises the delta floor
# ----------------------------------------------------------------------
def test_compact_drops_covered_records_and_raises_floor():
    primary, log, _ = make_pair()
    base = primary.network.version
    with primary.mutate() as network:
        for i in range(4):
            network.update_h_index("liu", 10 + i)
    assert log.floor == base
    floor = log.compact(base + 2)
    assert floor == base + 2 == log.floor
    # History at or below the new floor is gone...
    with pytest.raises(JournalTruncatedError):
        log.delta_since(base)
    with pytest.raises(JournalTruncatedError):
        log.delta_since(base + 1)
    # ...and from the floor onward the delta is still exact.
    assert log.delta_since(base + 2) != b""
    assert log.delta_since(log.version) == b""


def test_compact_never_lowers_the_floor_nor_passes_the_tip():
    primary, log, _ = make_pair()
    with primary.mutate() as network:
        network.update_h_index("liu", 42)
    tip = log.version
    assert log.compact(tip + 100) == tip  # clamped to the tip
    assert log.compact(tip - 5) == tip  # never lowered
    assert log.floor == tip


def test_store_gc_compacts_the_attached_log(tmp_path):
    """GC'ing old snapshots truncates the delta history they anchored.

    A follower pinned at a version older than every retained snapshot
    gets the typed JournalTruncatedError on its next sync and repairs
    itself through the full-snapshot fallback -- the same end state a
    capacity eviction produces.
    """
    from repro.storage import SnapshotStore

    primary, log, follower = make_pair()
    store = SnapshotStore(tmp_path / "store", retain=None)
    pinned_version = follower.version
    for i in range(3):
        with primary.mutate() as network:
            network.update_h_index("liu", 20 + i)
        primary.save_snapshot(store)
    removed = store.gc(retain=1, log=log)
    assert len(removed) == 2
    remaining = store.list()
    assert len(remaining) == 1
    assert log.floor == remaining[0].network_version
    # The pinned follower predates the floor: typed truncation...
    with pytest.raises(JournalTruncatedError):
        log.delta_since(pinned_version)
    # ...and the snapshot-frame fallback fully repairs it.
    report = follower.apply(log.snapshot_frame())
    assert report["snapshot_fallbacks"] == 1
    assert follower.version == primary.network.version
    assert canonical(follower.engine.solve(GREEDY)) == canonical(
        primary.solve(GREEDY)
    )


def test_store_gc_without_log_is_unchanged(tmp_path):
    from repro.storage import SnapshotStore

    primary, log, _ = make_pair()
    store = SnapshotStore(tmp_path / "store", retain=None)
    floor_before = log.floor
    for i in range(2):
        with primary.mutate() as network:
            network.update_h_index("liu", 30 + i)
        primary.save_snapshot(store)
    store.gc(retain=1)
    assert log.floor == floor_before
