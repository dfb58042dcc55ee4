"""Checked-in snapshots pin old-snapshot loading and build bit-identity.

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

``fixtures/engine_n40_seed5_k2.snap`` is a *sharded* format-2 snapshot:
an engine with ``shards=2`` over ``make_random_network(random.Random(5),
n=40, p=0.02)`` (ten cut vertices, so both shards hold boundary
members) after the requests in ``engine_n40_seed5_k2.responses.json``
(two greedy, two rarest_first), so it carries the fold and raw indexes
as per-shard label sections plus the boundary-summary sections format 3
no longer writes.  Those answers were the same under 30
``PYTHONHASHSEED`` values.  It pins the same three contracts per shard,
and that the summary rebuilt from the labels equals the persisted one.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.api import TeamFormationEngine, TeamRequest
from repro.graph.pll import pll_build_count
from repro.storage import decode_labels_flat, read_container
from repro.storage.format import SNAPSHOT_MAGIC
from tests.conftest import make_random_network

FIXTURES = Path(__file__).parent / "fixtures"
SNAPSHOT = FIXTURES / "engine_n40_seed5.snap"
RESPONSES = FIXTURES / "engine_n40_seed5.responses.json"
SHARDED = FIXTURES / "engine_n40_seed5_k2.snap"
SHARDED_RESPONSES = FIXTURES / "engine_n40_seed5_k2.responses.json"


def recorded(path: Path = RESPONSES) -> list[tuple[TeamRequest, str]]:
    rows = json.loads(path.read_text())
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


def entry_oracle(engine: TeamFormationEngine, record: dict):
    """The engine's oracle for one snapshot entry record (fold or raw)."""
    if record["flavor"] == "fold":
        return engine.search_oracle("sa-ca-cc", record["gamma"])
    return engine.raw_oracle()


def sharded_fixture() -> tuple[list[dict], dict[str, bytes]]:
    """The sharded fixture's entry records and sections."""
    meta, sections = read_container(SHARDED)
    assert meta["shards"] == 2
    return json.loads(sections["engine"])["entries"], sections


def test_sharded_fixture_loads_and_answers_identically_with_zero_builds():
    builds = pll_build_count()
    engine = TeamFormationEngine.from_snapshot(SHARDED)
    for request, canonical in recorded(SHARDED_RESPONSES):
        assert engine.solve(request).canonical_json() == canonical, request
    assert pll_build_count() == builds


def test_sharded_fixture_is_format_2_with_boundary_sections():
    blob = SHARDED.read_bytes()
    assert blob[:8] == SNAPSHOT_MAGIC
    assert int.from_bytes(blob[8:10], "little") == 2
    records, sections = sharded_fixture()
    assert sorted(record["flavor"] for record in records) == ["fold", "raw"]
    for record in records:
        assert len(record["shard_sections"]) == 2
        assert record["boundary_section"] in sections


def test_sharded_fixture_summary_equals_the_one_rebuilt_from_labels():
    records, sections = sharded_fixture()
    engine = TeamFormationEngine.from_snapshot(SHARDED)
    for record in records:
        oracle = entry_oracle(engine, record)
        doc = json.loads(sections[record["boundary_section"]])
        assert doc["boundary"] == list(oracle.plan.boundary)
        persisted = {(i, j): w for i, j, w in doc["edges"]}
        rebuilt = {
            (i, j): w
            for i, row in enumerate(oracle._summary_adj)
            for j, w in row.items()
        }
        assert persisted and rebuilt == persisted, record["flavor"]


def test_fresh_sharded_build_encodes_to_the_fixture_label_bytes():
    records, sections = sharded_fixture()
    network = make_random_network(random.Random(5), n=40, p=0.02)
    engine = TeamFormationEngine(network, shards=2)
    for request, _ in recorded(SHARDED_RESPONSES):
        engine.solve(request)
    for record in records:
        states = entry_oracle(engine, record).export_state()
        assert len(states) == len(record["shard_sections"])
        for fresh, name in zip(states, record["shard_sections"]):
            pinned = decode_labels_flat(sections[name])
            for key in ("order", "counts", "incremental_updates"):
                assert fresh[key] == pinned[key], (name, key)
            for column in ("ranks", "dists"):
                assert fresh[column].tobytes() == pinned[column].tobytes(), (
                    name,
                    column,
                )
