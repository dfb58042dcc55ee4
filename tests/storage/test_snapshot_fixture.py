"""A checked-in snapshot pins old-snapshot loading and build bit-identity.

``fixtures/engine_n40_seed5.snap`` is the snapshot of an engine over
``make_random_network(random.Random(5), n=40, p=0.15)`` taken after one
greedy solve (the first request in the responses file) and
``engine.raw_oracle()``, so it carries two label sections: the folded
search index and the raw-graph index.  It was written by the
release that still carried the per-node-list label codec and the
multiprocess index builder.  ``engine_n40_seed5.responses.json`` holds
the canonical JSON that engine answered for a few requests.  They were
chosen among requests whose answers were the same under 30
``PYTHONHASHSEED`` values: the greedy team materialization walks a
``set`` of holders, so on larger teams the last bit of the
communication-cost sum still depends on the hash seed.

Three contracts follow from it:

* the snapshot loads and serves those requests with zero index builds;
* the answers are byte-identical to the recorded canonical JSON;
* a freshly built index exports exactly the fixture's labels: decoding
  the fixture's format-1 sections (which also carry a parent-rank
  column, skipped on load) gives the same order, counts,
  ``incremental_updates`` and rank and distance bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.api import TeamFormationEngine, TeamRequest
from repro.graph.pll import pll_build_count
from repro.storage import decode_labels_flat, read_container
from tests.conftest import make_random_network

FIXTURES = Path(__file__).parent / "fixtures"
SNAPSHOT = FIXTURES / "engine_n40_seed5.snap"
RESPONSES = FIXTURES / "engine_n40_seed5.responses.json"


def recorded() -> list[tuple[TeamRequest, str]]:
    rows = json.loads(RESPONSES.read_text())
    return [(TeamRequest.from_dict(row["request"]), row["canonical"]) for row in rows]


def test_fixture_loads_and_answers_identically_with_zero_builds():
    builds = pll_build_count()
    engine = TeamFormationEngine.from_snapshot(SNAPSHOT)
    for request, canonical in recorded():
        assert engine.solve(request).canonical_json() == canonical, request
    assert pll_build_count() == builds


def test_fresh_build_encodes_to_the_fixture_label_bytes():
    _, sections = read_container(SNAPSHOT)
    engine = TeamFormationEngine(make_random_network(random.Random(5), n=40, p=0.15))
    first_request, _ = recorded()[0]
    oracles = [
        engine.search_oracle(first_request.objective, first_request.gamma),
        engine.raw_oracle(),
    ]
    for oracle, name in zip(oracles, ("labels/0", "labels/1")):
        fresh = oracle.export_flat_labels()
        pinned = decode_labels_flat(sections[name])
        for key in ("order", "counts", "incremental_updates"):
            assert fresh[key] == pinned[key], (name, key)
        for column in ("ranks", "dists"):
            assert fresh[column].tobytes() == pinned[column].tobytes(), (name, column)
