"""Unit and differential tests for the flat-array label store.

:class:`repro.graph.pll_kernel.FlatLabelStore` is the PR-6 query-side
representation: CSR-style columns in the snapshot codec's exact layout,
plus three distance kernels (the point merge join, and the two batched
kernels an index picks between: numpy ``minimum.reduceat`` when numpy
imports, stdlib dense-scatter otherwise).  The contract pinned here is
**bit-identity**: every kernel minimizes the identical set of IEEE-754
hub sums, so their answers must be exactly equal — not merely close —
on every store, including degenerate ones (empty rows, empty trailing
rows, all-empty stores) that exercise the ``reduceat`` edge cases.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.graph.adjacency import Graph
from repro.graph.centrality import betweenness_centrality
from repro.graph.pll import PrunedLandmarkLabeling, default_landmark_order
from repro.graph.pll_kernel import (
    DIST_TYPECODE,
    RANK_TYPECODE,
    FlatLabelStore,
    numpy_available,
)

from ..conftest import PLL_KERNELS, build_pll

_INF = float("inf")

#: Quarter-integer distances: closed under addition, so kernel answers
#: can be compared with ``==`` and "bit-identical" is well defined.
DIST_VALUES = [0.25 * k for k in range(0, 17)]


def make_store(rows: list[list[tuple[int, float]]]) -> FlatLabelStore:
    """Build a store from per-row ``[(hub_rank, dist), ...]`` lists."""
    counts = [len(row) for row in rows]
    ranks = array(RANK_TYPECODE, [rank for row in rows for rank, _ in row])
    dists = array(DIST_TYPECODE, [dist for row in rows for _, dist in row])
    return FlatLabelStore.from_columns(counts, ranks, dists)


def reference_min(row_a: list[tuple[int, float]], row_b: list[tuple[int, float]]):
    """Brute-force dict-based hub join — the dict-era kernel's answer."""
    hubs_a = dict(row_a)
    best = _INF
    for rank, dist in row_b:
        if rank in hubs_a:
            best = min(best, hubs_a[rank] + dist)
    return best


def assert_kernels_identical(store: FlatLabelStore, rows) -> None:
    """All kernels == brute force, bitwise, for every (source, target)."""
    n = store.num_rows
    all_rows = list(range(n))
    for src in all_rows:
        batch = store.batch_row_mins(src, all_rows)
        vector = store.row_mins_numpy(src).tolist() if numpy_available() else None
        for dst in all_rows:
            expected = reference_min(rows[src], rows[dst])
            assert store.merge_join_rows(src, dst) == expected
            assert batch[dst] == expected
            if vector is not None:
                assert vector[dst] == expected


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_from_columns_builds_prefix_sum_offsets():
    rows = [[(0, 0.0)], [(0, 1.0), (1, 0.0)], []]
    store = make_store(rows)
    assert store.num_rows == 3
    assert store.total_entries == 3
    assert list(store.offsets) == [0, 1, 3, 3]
    assert store.row_counts() == [1, 2, 0]
    assert store.row_lists(1) == ([0, 1], [1.0, 0.0])


def test_from_columns_rejects_count_column_mismatch():
    with pytest.raises(ValueError, match="columns disagree"):
        FlatLabelStore.from_columns(
            [2],
            array(RANK_TYPECODE, [0]),
            array(DIST_TYPECODE, [0.0]),
        )


def test_from_rows_flattens_rows_in_order():
    order = ["b", "a"]
    store = FlatLabelStore.from_rows(
        order,
        {"b": [0], "a": [0, 1]},
        {"b": [0.0], "a": [1.0, 0.0]},
    )
    assert store.row_lists(0) == ([0], [0.0])
    assert store.row_lists(1) == ([0, 1], [1.0, 0.0])


# ----------------------------------------------------------------------
# kernel identity, including the reduceat edge cases
# ----------------------------------------------------------------------
def test_kernels_agree_on_simple_store():
    rows = [
        [(0, 0.0)],
        [(0, 1.0), (1, 0.0)],
        [(0, 2.0), (1, 1.0), (2, 0.0)],
        [(0, 0.5), (3, 0.0)],
    ]
    assert_kernels_identical(make_store(rows), rows)


def test_kernels_agree_with_empty_middle_and_trailing_rows():
    # Row 1 is empty (reduceat would report a bogus value without the
    # mask) and row 3 is an empty *trailing* row whose start index equals
    # ``total`` — only valid thanks to the sentinel slot.  A clipping
    # implementation instead of the sentinel silently truncates row 2's
    # segment; this store is the regression pin for exactly that bug.
    rows = [[(0, 0.0)], [], [(0, 1.25), (2, 0.0)], []]
    store = make_store(rows)
    assert_kernels_identical(store, rows)
    assert store.batch_row_mins(1, [0, 1, 2, 3]) == [_INF] * 4


def test_kernels_agree_on_all_empty_store():
    rows = [[], [], []]
    store = make_store(rows)
    assert store.total_entries == 0
    assert_kernels_identical(store, rows)


@pytest.mark.skipif(not numpy_available(), reason="numpy kernel only")
def test_numpy_kernel_rejects_a_hub_rank_past_the_last_row():
    # The vectorized gather skips numpy's per-call bounds check; the
    # store checks its ranks once instead.
    store = make_store([[(0, 0.0)], [(0, 1.0), (2, 0.5)]])
    with pytest.raises(ValueError, match="hub rank"):
        store.row_mins_numpy(0)


@given(data=st.data())
def test_kernels_agree_on_random_stores(data):
    """Random sparse stores: all kernels bit-identical to brute force."""
    num_rows = data.draw(st.integers(min_value=1, max_value=7), label="rows")
    rows = []
    for i in range(num_rows):
        hubs = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_rows - 1),
                unique=True,
                max_size=num_rows,
            ),
            label=f"hubs{i}",
        )
        rows.append(
            [(rank, data.draw(st.sampled_from(DIST_VALUES))) for rank in sorted(hubs)]
        )
    assert_kernels_identical(make_store(rows), rows)


# ----------------------------------------------------------------------
# splice: the write path's store publication
# ----------------------------------------------------------------------
#: Rows of a four-row store, as ``(ranks, dists)``; row 2 is empty.
SPLICE_ROWS = [
    ([0], [0.0]),
    ([0, 1], [1.0, 0.0]),
    ([], []),
    ([0, 3], [2.5, 0.0]),
]


def store_of(rows) -> FlatLabelStore:
    """A store whose row ``i`` is ``rows[i]``, via ``from_columns``."""
    return FlatLabelStore.from_columns(
        [len(r) for r, _ in rows],
        array(RANK_TYPECODE, [x for r, _ in rows for x in r]),
        array(DIST_TYPECODE, [x for _, d in rows for x in d]),
    )


def assert_same_columns(got: FlatLabelStore, expected: FlatLabelStore) -> None:
    for column in ("offsets", "ranks", "dists"):
        assert getattr(got, column) == getattr(expected, column), column
        assert getattr(got, column).typecode == getattr(expected, column).typecode


def test_splice_with_no_rows_returns_the_same_store():
    store = store_of(SPLICE_ROWS)
    assert store.splice({}) is store


@pytest.mark.parametrize(
    "replaced",
    [
        {0: ([0], [0.5])},  # first row
        {1: ([0, 1, 2], [1.0, 0.0, 0.75])},  # middle row
        {3: ([3], [0.0])},  # last row
        {2: ([0, 2], [0.25, 0.0])},  # a row that was empty
        {0: ([], []), 3: ([0, 1, 3], [1.0, 2.0, 0.0])},
        {4: ([0, 4], [1.5, 0.0])},  # one row appended
        {1: ([1], [0.0]), 4: ([4], [0.0])},  # replace + append
    ],
    ids=["first", "middle", "last", "was-empty", "two", "append", "both"],
)
def test_splice_equals_a_store_built_from_the_same_rows(replaced):
    old = store_of(SPLICE_ROWS)
    old_columns = [bytes(getattr(old, c)) for c in ("offsets", "ranks", "dists")]
    rows = list(SPLICE_ROWS) + [None] * (max(replaced) + 1 - len(SPLICE_ROWS))
    for row, columns in replaced.items():
        rows[row] = columns
    spliced = old.splice(replaced)
    assert_same_columns(spliced, store_of(rows))
    # The old store is untouched.
    assert [bytes(getattr(old, c)) for c in ("offsets", "ranks", "dists")] == (
        old_columns
    )
    # from_rows over the same rows agrees too.
    order = [f"n{i}" for i in range(len(rows))]
    from_rows = FlatLabelStore.from_rows(
        order,
        {node: rows[i][0] for i, node in enumerate(order)},
        {node: rows[i][1] for i, node in enumerate(order)},
    )
    assert_same_columns(spliced, from_rows)
    # Both kernels answer the spliced store like brute force.
    pairs = [list(zip(r, d)) for r, d in rows]
    assert_kernels_identical(spliced, pairs)


@pytest.mark.skipif(not numpy_available(), reason="numpy kernel only")
def test_spliced_store_computes_its_own_numpy_views():
    old = store_of(SPLICE_ROWS)
    old.row_mins_numpy(0)  # caches the old store's intp ranks
    spliced = old.splice({2: ([0, 2], [0.25, 0.0])})
    assert spliced._np_cols is None
    assert spliced.row_mins_numpy(2).tolist() == [0.25, 1.25, 0.0, 2.75]
    ranks, _, _ = spliced._np_cols
    assert ranks.tolist() == list(spliced.ranks)
    assert old._np_cols[0].tolist() == list(old.ranks)


# ----------------------------------------------------------------------
# the store a real index builds
# ----------------------------------------------------------------------
def test_frozen_index_store_matches_label_semantics():
    graph = Graph.from_edges(
        [("a", "b", 1.0), ("b", "c", 0.5), ("c", "d", 2.0), ("a", "d", 4.0)]
    )
    pll = PrunedLandmarkLabeling(graph)
    nodes = list(graph.nodes())
    store = pll._flat
    assert store.num_rows == len(nodes)
    assert store.row_counts() == [
        len(pll.label_of(node)) for node in pll._order
    ]
    for i, node in enumerate(pll._order):
        ranks, dists = store.row_lists(i)
        assert ranks == sorted(ranks)
        assert [(pll._order[r], d) for r, d in zip(ranks, dists)] == pll.label_of(
            node
        )


# ----------------------------------------------------------------------
# landmark order and the index's kernels
# ----------------------------------------------------------------------
def _star_plus_tail() -> Graph:
    # "hub" has max degree; "mid" has the highest betweenness bridge
    # position on the tail.
    return Graph.from_edges(
        [
            ("hub", "s1", 1.0),
            ("hub", "s2", 1.0),
            ("hub", "s3", 1.0),
            ("hub", "mid", 1.0),
            ("mid", "t1", 1.0),
            ("t1", "t2", 1.0),
        ]
    )


def test_default_landmark_order_degree_sorts_by_degree():
    graph = _star_plus_tail()
    order = default_landmark_order(graph)
    assert order[0] == "hub"
    degrees = [graph.degree(node) for node in order]
    assert degrees == sorted(degrees, reverse=True)


@pytest.mark.parametrize("kernel", PLL_KERNELS)
def test_all_kernels_answer_identical_distances(kernel):
    """Each batched kernel == the point merge join, bit for bit."""
    graph = Graph.from_edges(
        [("a", "b", 0.25), ("b", "c", 1.5), ("c", "d", 0.75), ("b", "d", 3.0)]
    )
    graph.add_node("lonely")
    pll = build_pll(graph, kernel)
    nodes = list(graph.nodes())
    for source in nodes:
        batch = pll.distances_from(source, nodes)
        for target in nodes:
            point = pll.distance(source, target)
            assert batch[target].hex() == point.hex(), (source, target)


def test_centrality_ordered_index_is_exact():
    # Any permutation is a valid landmark order; betweenness ranks the
    # nodes shortest paths actually run through first.
    graph = _star_plus_tail()
    scores = betweenness_centrality(graph)
    order = sorted(graph.nodes(), key=lambda n: (-scores[n], -graph.degree(n), repr(n)))
    pll = PrunedLandmarkLabeling(graph, order=order)
    reference = PrunedLandmarkLabeling(graph)
    nodes = list(graph.nodes())
    for source in nodes:
        assert pll.distances_from(source, nodes) == reference.distances_from(
            source, nodes
        )
