"""Property-based round trips: ``load(save(x))`` is indistinguishable.

For generated networks carrying generated *mutation histories*, a
snapshot-restored engine must (1) hold bit-identical 2-hop-cover labels
and (2) answer solve requests byte-identically to the live engine — both
for a standalone restore and for a snapshot attached to a live network
that has mutated further since the save (journal-tail replay).

Runs under the suite-wide hypothesis profiles (``dev`` locally, ``ci``
in the coverage job — see ``tests/conftest.py``).
"""

from __future__ import annotations

import json
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import TeamFormationEngine, TeamRequest
from repro.expertise import Expert
from repro.graph.pll import PrunedLandmarkLabeling
from tests.conftest import SKILLS, make_random_network

SOLVERS = ("greedy", "rarest_first", "sa_optimal", "random")


def canonical_json(response) -> str:
    payload = response.to_dict()
    payload["timing"] = None  # wall clock: the one nondeterministic field
    return json.dumps(payload, sort_keys=True)


def apply_random_mutations(network, rng: random.Random, count: int) -> None:
    """A burst of valid random mutations covering every op kind."""
    for _ in range(count):
        ids = list(network.expert_ids())
        op = rng.choice(
            ("add_expert", "add_edge", "reweight", "skills", "h_index", "remove_edge")
        )
        if op == "add_expert":
            network.add_expert(
                Expert(
                    f"x{network.version}_{rng.randrange(1000)}",
                    skills={rng.choice(SKILLS)},
                    h_index=rng.randint(0, 20),
                )
            )
        elif op == "add_edge" and len(ids) >= 2:
            u, v = rng.sample(ids, 2)
            network.add_collaboration(u, v, weight=rng.uniform(0.05, 1.0))
        elif op == "reweight" and network.num_edges:
            u, v, w = rng.choice(list(network.graph.edges()))
            network.add_collaboration(u, v, weight=w * rng.uniform(0.3, 1.5))
        elif op == "skills":
            who = rng.choice(ids)
            network.update_skills(
                who, {rng.choice(SKILLS), rng.choice(SKILLS)}
            )
        elif op == "h_index":
            network.update_h_index(rng.choice(ids), rng.randint(0, 30))
        elif op == "remove_edge" and network.num_edges > 1:
            u, v, _ = rng.choice(list(network.graph.edges()))
            network.remove_collaboration(u, v)


def requests(rng: random.Random) -> list[TeamRequest]:
    project = tuple(rng.sample(SKILLS, rng.randint(1, 3)))
    return [
        TeamRequest(skills=project, solver=s, seed=7, num_samples=25)
        for s in SOLVERS
    ]


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pre_mutations=st.integers(0, 6),
    post_mutations=st.integers(1, 5),
)
def test_load_save_identity_with_mutation_history(
    seed, pre_mutations, post_mutations
):
    rng = random.Random(seed)
    network = make_random_network(rng, n=rng.randint(6, 12))
    engine = TeamFormationEngine(network)
    # A mutation history *before* the save: the journal tail is frozen
    # into the snapshot and must round-trip.
    with engine.mutate() as net:
        apply_random_mutations(net, rng, pre_mutations)
    reqs = requests(rng)
    live = [engine.solve(r) for r in reqs]
    engine.raw_oracle()

    with tempfile.TemporaryDirectory() as root:
        path = engine.save_snapshot(f"{root}/one.snap")

        # Standalone restore: bit-identical labels, identical answers.
        warm = TeamFormationEngine.from_snapshot(path)
        assert warm.network.version == network.version
        assert warm.network.journal_tail() == network.journal_tail()
        assert warm.cached_oracle_keys == engine.cached_oracle_keys
        for cache_live, cache_warm in (
            (engine._search_cache, warm._search_cache),
            (engine._raw_oracles, warm._raw_oracles),
        ):
            for key, (_g, oracle) in cache_live.items():
                if isinstance(oracle, PrunedLandmarkLabeling):
                    assert (
                        cache_warm[key][1].export_flat_labels()
                        == oracle.export_flat_labels()
                    ), key
        for request, expected in zip(reqs, live):
            assert canonical_json(warm.solve(request)) == canonical_json(
                expected
            ), request.solver

        # Live-journal reconcile: mutate the live network further, then
        # attach the (now-old) snapshot to it; answers must match the
        # engine that never left memory.
        with engine.mutate() as net:
            apply_random_mutations(net, rng, post_mutations)
        attached = TeamFormationEngine.from_snapshot(path, network=network)
        for request in requests(rng):
            assert canonical_json(attached.solve(request)) == canonical_json(
                engine.solve(request)
            ), request.solver
