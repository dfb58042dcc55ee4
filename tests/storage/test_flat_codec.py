"""The flat (zero-copy) label codec.

Queries run from flat columns
(:class:`repro.graph.pll_kernel.FlatLabelStore`), so snapshots travel
``export_flat_labels`` → :func:`encode_flat_labels` →
:func:`decode_labels_flat` → ``from_flat_labels`` with no per-entry
Python work.  The contracts pinned here:

* **round-trip identity** — decode → adopt restores an index that paid
  zero PLL builds and answers bit-identically;
* **corruption rejection** — truncation, leftover bytes and
  insane-but-CRC-valid columns (bad counts, out-of-range hub ranks)
  raise :class:`CorruptSnapshotError`.

Byte identity with snapshots written by earlier versions is pinned by
the checked-in fixture in ``test_snapshot_fixture.py``.
"""

from __future__ import annotations

import struct
from array import array

import pytest

from repro.graph.adjacency import Graph, GraphError
from repro.graph.pll import PrunedLandmarkLabeling, pll_build_count
from repro.storage import CorruptSnapshotError, decode_labels_flat, encode_flat_labels
from repro.storage.codec import _LABEL_HEAD


def sample_index(*, mutate: bool = False) -> PrunedLandmarkLabeling:
    graph = Graph.from_edges(
        [("a", "b", 0.25), ("b", "c", 1.5), ("c", "d", 0.75), ("b", "d", 3.0)]
    )
    graph.add_node("island")
    pll = PrunedLandmarkLabeling(graph)
    if mutate:
        pll.add_node("late")
        pll.insert_edge("late", "island", 0.5)
        pll.insert_edge("a", "d", 2.0)
    return pll


def test_decode_round_trip_is_zero_build_and_bit_identical():
    pll = sample_index(mutate=True)
    graph = pll._graph
    nodes = list(graph.nodes())
    expected = {source: pll.distances_from(source, nodes) for source in nodes}
    blob = encode_flat_labels(pll.export_flat_labels())

    builds = pll_build_count()
    restored = PrunedLandmarkLabeling.from_flat_labels(graph, decode_labels_flat(blob))
    assert pll_build_count() == builds
    assert restored.export_flat_labels() == pll.export_flat_labels()
    for source in nodes:
        assert restored.distances_from(source, nodes) == expected[source]
    # And the restored index re-encodes to the identical bytes.
    assert encode_flat_labels(restored.export_flat_labels()) == blob


# ----------------------------------------------------------------------
# corruption rejection
# ----------------------------------------------------------------------
@pytest.fixture()
def blob() -> bytes:
    return encode_flat_labels(sample_index().export_flat_labels())


def test_truncated_blob_rejected(blob):
    for cut in (1, _LABEL_HEAD.size + 2, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CorruptSnapshotError, match="truncat|shorter"):
            decode_labels_flat(blob[:cut])


def test_counts_disagreeing_with_header_rejected(blob):
    n_nodes, order_len = _LABEL_HEAD.unpack_from(blob)
    counts_at = _LABEL_HEAD.size + order_len + struct.calcsize("<IQ")
    first_count = array("I")
    first_count.frombytes(blob[counts_at : counts_at + 4])
    bumped = array("I", [first_count[0] + 1]).tobytes()
    corrupt = blob[:counts_at] + bumped + blob[counts_at + 4 :]
    with pytest.raises(CorruptSnapshotError, match="counts"):
        decode_labels_flat(corrupt)


def _encode_with_column(pll, column: str, index: int, value: int) -> bytes:
    state = pll.export_flat_labels()
    patched = state[column][:]  # arrays: slicing copies
    patched[index] = value
    state[column] = patched
    return encode_flat_labels(state)


def test_out_of_range_hub_rank_rejected():
    pll = sample_index()
    corrupt = _encode_with_column(pll, "ranks", 0, len(pll._order))
    with pytest.raises(CorruptSnapshotError, match="hub rank out of range"):
        decode_labels_flat(corrupt)


def test_section_length_matching_neither_layout_rejected(blob):
    # Columns span 12 bytes per entry (16 in format 1, with parent
    # ranks); anything else is a broken writer, not padding to ignore.
    total = len(decode_labels_flat(blob)["ranks"])
    for extra in (b"\x00\x01\x02", b"\x00" * 4 * total + b"\x00"):
        with pytest.raises(CorruptSnapshotError, match="overlong"):
            decode_labels_flat(blob + extra)


def test_undecodable_landmark_order_rejected(blob):
    start = _LABEL_HEAD.size
    corrupt = blob[:start] + b"\xff" + blob[start + 1 :]
    with pytest.raises(CorruptSnapshotError, match="landmark order"):
        decode_labels_flat(corrupt)


def test_from_flat_labels_rejects_count_row_mismatch():
    pll = sample_index()
    graph = pll._graph
    state = pll.export_flat_labels()
    state["counts"] = state["counts"][:-1]
    with pytest.raises(GraphError):
        PrunedLandmarkLabeling.from_flat_labels(graph, state)
