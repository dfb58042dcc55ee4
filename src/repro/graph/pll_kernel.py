"""Flat-array storage and vectorized query kernels for the 2-hop cover.

The snapshot codec (:mod:`repro.storage.codec`) has always written PLL
labels as flat little-endian arrays — per-node entry counts plus two
``T``-long columns (hub ranks and hub distances).  Until this
module existed the runtime immediately re-inflated those columns into
per-node Python lists, so every query paid Python-object dispatch per
label entry.  :class:`FlatLabelStore` keeps the columns *flat at
runtime* in the exact on-disk layout:

* ``offsets[i] .. offsets[i + 1]`` delimit the label of the node at
  landmark rank ``i`` (rows are stored rank-ascending, and hub ranks are
  sorted ascending within a row — the invariant every kernel relies on);
* ``ranks`` / ``dists`` are :mod:`array` columns (u32 / f64), which
  makes snapshot encode/decode a straight ``tobytes`` /
  ``frombytes`` memcpy with no per-entry work.

Point queries (:meth:`FlatLabelStore.merge_join_rows`) run the classic
sorted-hub merge join of two rows.  Two batched kernels answer "one
source against many targets", the shape of every solver hot path
(greedy holder sweeps, Steiner refinement, replacement), and the index
picks one by whether numpy imports:

* :meth:`FlatLabelStore.row_mins_numpy` — with numpy: scatter the
  source row into a dense rank-indexed vector, then *one* vectorized
  gather-add over the whole label store and a ``minimum.reduceat``
  per-row reduction, yielding the source's distance to **every** node
  in a single pass;
* :meth:`FlatLabelStore.batch_row_mins` — stdlib, for installs without
  numpy: the same scatter, then one indexed gather per label entry of
  each target (no per-target merge join).

Both kernels minimize the identical set of IEEE-754 sums the merge join
inspects (a hub missing from the source row contributes ``inf``), so
their answers are bit-identical to each other and to the merge join —
the byte-identity contract the engine, the replica pool and the
snapshot round-trip tests all pin.

The store is immutable.  A PLL build assembles its first store from
per-node lists (:meth:`FlatLabelStore.from_rows`); each later write
call in :mod:`repro.graph.pll` copies the rows it reads into lists and
publishes a new store with the rows it rewrote through
:meth:`FlatLabelStore.splice`, so readers of the old store — and clones
sharing it — never see a change.  Both record one publication in the
``pll_freezes`` counter and the ``pll_freeze`` reservoir (assembly
seconds).
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterable, Sequence

from .. import obs

try:  # optional fast path; the stdlib kernels are always available
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

__all__ = [
    "FlatLabelStore",
    "RANK_TYPECODE",
    "DIST_TYPECODE",
    "OFFSET_TYPECODE",
    "numpy_available",
]

# array typecodes are platform-sized; resolve the 4-byte ones once
# (mirrors repro.storage.codec, which owns the on-disk layout).
RANK_TYPECODE = "I" if array("I").itemsize == 4 else "L"
DIST_TYPECODE = "d"
OFFSET_TYPECODE = "q"

_INF = float("inf")


def numpy_available() -> bool:
    """Whether numpy imports here: a PLL index built while it does
    answers batched queries with the vectorized kernel."""
    return _np is not None


def _record_publication(start: float) -> None:
    """One store publication, assembled since ``start``."""
    registry = obs.global_registry()
    registry.counter("pll_freezes").inc()
    registry.reservoir("pll_freeze").observe(time.perf_counter() - start)


class FlatLabelStore:
    """Immutable flat-array (CSR-style) 2-hop-cover label columns.

    Row ``i`` holds the label of the node at landmark rank ``i``; within
    a row, hub ranks are strictly ascending.  Constructed from a
    build's per-node lists (:meth:`from_rows`), by adopting
    already-flat columns (:meth:`from_columns`, the zero-copy snapshot
    warm-start path), or from another store with some rows replaced
    (:meth:`splice`, the write path).
    """

    __slots__ = ("offsets", "ranks", "dists", "_np_cols")

    def __init__(self, offsets: array, ranks: array, dists: array) -> None:
        self.offsets = offsets
        self.ranks = ranks
        self.dists = dists
        self._np_cols: tuple | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls, order: Sequence, row_ranks: dict, row_dists: dict
    ) -> "FlatLabelStore":
        """Flatten a build's per-node label lists into columns."""
        start = time.perf_counter()
        obs.global_registry().counter("flat_store_from_rows").inc()
        offsets = array(OFFSET_TYPECODE, [0])
        ranks = array(RANK_TYPECODE)
        dists = array(DIST_TYPECODE)
        for node in order:
            ranks.extend(row_ranks[node])
            dists.extend(row_dists[node])
            offsets.append(len(ranks))
        _record_publication(start)
        return cls(offsets, ranks, dists)

    @classmethod
    def from_columns(
        cls, counts: Iterable[int], ranks: array, dists: array
    ) -> "FlatLabelStore":
        """Adopt flat columns as-is (the snapshot decode hands them over).

        Only the prefix-sum offsets are computed; the two columns are
        referenced, not copied, so a warm start performs no per-entry
        work.
        """
        obs.global_registry().counter("flat_store_from_columns").inc()
        offsets = array(OFFSET_TYPECODE, [0])
        total = 0
        for count in counts:
            total += count
            offsets.append(total)
        if total != len(ranks) or total != len(dists):
            raise ValueError(
                f"label columns disagree: counts sum to {total}, columns "
                f"hold {len(ranks)}/{len(dists)} entries"
            )
        return cls(offsets, ranks, dists)

    def splice(
        self, rows: dict[int, tuple[Sequence[int], Sequence[float]]]
    ) -> "FlatLabelStore":
        """A new store with ``rows`` replaced; this one is left untouched.

        ``rows`` maps a row index to its full ``(ranks, dists)`` columns;
        indexes from :attr:`num_rows` on append rows and must leave no
        gap.  The spans between replaced rows are
        copied with one slice copy per column.  An empty ``rows``
        returns this store itself.
        """
        start = time.perf_counter()
        if not rows:
            _record_publication(start)
            return self
        old_offsets, num_rows = self.offsets, self.num_rows
        offsets = array(OFFSET_TYPECODE, [0])
        ranks = array(RANK_TYPECODE)
        dists = array(DIST_TYPECODE)
        copied = 0  # rows below this index are already in the new columns
        for row in [*sorted(rows), None]:
            stop = num_rows if row is None else min(row, num_rows)
            if copied < stop:
                lo, hi = old_offsets[copied], old_offsets[stop]
                shift = len(ranks) - lo
                ranks.extend(self.ranks[lo:hi])
                dists.extend(self.dists[lo:hi])
                span = old_offsets[copied + 1 : stop + 1]
                offsets.extend(span if shift == 0 else (o + shift for o in span))
            if row is None:
                break
            row_ranks, row_dists = rows[row]
            ranks.extend(row_ranks)
            dists.extend(row_dists)
            offsets.append(len(ranks))
            copied = row + 1
        _record_publication(start)
        return type(self)(offsets, ranks, dists)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_entries(self) -> int:
        return len(self.ranks)

    def row_counts(self) -> list[int]:
        """Per-row entry counts, rank-ascending (the codec's layout)."""
        offsets = self.offsets
        return [offsets[i + 1] - offsets[i] for i in range(self.num_rows)]

    def row_lists(self, row: int) -> tuple[list[int], list[float]]:
        """One row's columns as plain lists: the copy a write reads and
        edits before :meth:`splice` (and the inspection path)."""
        start, stop = self.offsets[row], self.offsets[row + 1]
        return self.ranks[start:stop].tolist(), self.dists[start:stop].tolist()

    # ------------------------------------------------------------------
    # query kernels
    # ------------------------------------------------------------------
    def merge_join_rows(self, row_a: int, row_b: int) -> float:
        """Point query: classic sorted-hub merge join of two rows."""
        ranks, dists, offsets = self.ranks, self.dists, self.offsets
        i, len_a = offsets[row_a], offsets[row_a + 1]
        j, len_b = offsets[row_b], offsets[row_b + 1]
        best = _INF
        while i < len_a and j < len_b:
            ra, rb = ranks[i], ranks[j]
            if ra == rb:
                total = dists[i] + dists[j]
                if total < best:
                    best = total
                i += 1
                j += 1
            elif ra < rb:
                i += 1
            else:
                j += 1
        return best

    def batch_row_mins(self, src_row: int, target_rows: list[int]) -> list[float]:
        """Stdlib batched kernel: source scattered once, targets gathered.

        Scatters the source row into a dense rank-indexed vector, then
        answers each target with one indexed add per label entry —
        identical sums to the merge join (a rank the source does not
        carry gathers ``inf``), at roughly half the iterations and none
        of the rank comparisons.
        """
        obs.global_registry().counter("flat_batch_row_mins").inc()
        offsets, ranks, dists = self.offsets, self.ranks, self.dists
        dense = [_INF] * self.num_rows
        for p in range(offsets[src_row], offsets[src_row + 1]):
            dense[ranks[p]] = dists[p]
        out = []
        append = out.append
        for row in target_rows:
            best = _INF
            for p in range(offsets[row], offsets[row + 1]):
                total = dense[ranks[p]] + dists[p]
                if total < best:
                    best = total
            append(best)
        return out

    def _np_views(self) -> tuple:
        """Numpy views over the columns (cached; the store is immutable,
        so they can never go stale).

        Distances and offsets are zero-copy views.  Hub ranks are cast
        once to ``intp``, numpy's native index type: a ``uint32`` index
        would be converted again on every fancy-index gather.  That
        costs ``8 * T`` bytes per store; the on-disk column stays u32.
        The ranks are bounds-checked here, once, so the per-pass gather
        can skip its own check.
        """
        views = self._np_cols
        if views is None:
            ranks = _np.frombuffer(self.ranks, dtype=_np.uint32).astype(_np.intp)
            if len(ranks) and int(ranks.max()) >= self.num_rows:
                raise ValueError("label store holds a hub rank past its last row")
            views = self._np_cols = (
                ranks,
                _np.frombuffer(self.dists, dtype=_np.float64),
                _np.frombuffer(self.offsets, dtype=_np.int64),
            )
        return views

    def row_mins_numpy(self, src_row: int):
        """Vectorized kernel: the source's distance to *every* row.

        One gather-add over the whole store plus a per-row
        ``minimum.reduceat`` — ``O(T)`` C-level work per source,
        amortized across every target the source is ever swept against
        (the caller memoizes the returned vector per source).
        """
        obs.global_registry().counter("flat_row_mins_numpy").inc()
        np_ranks, np_dists, np_offsets = self._np_views()
        n = self.num_rows
        total = len(np_ranks)
        dense = _np.full(n, _np.inf)
        start, stop = self.offsets[src_row], self.offsets[src_row + 1]
        dense[np_ranks[start:stop]] = np_dists[start:stop]
        if total == 0:
            return dense  # every row empty: all-inf is the exact answer
        # A sentinel ``inf`` slot keeps every start index valid for
        # ``reduceat`` (an empty trailing row starts at ``total``, which
        # a bare ``sums`` would reject) without shifting any segment
        # boundary; it can never win a min.
        sums = _np.empty(total + 1)
        gathered = sums[:total]
        _np.take(dense, np_ranks, out=gathered, mode="clip")  # checked in views
        gathered += np_dists
        sums[total] = _np.inf
        starts = np_offsets[:-1]
        # ``reduceat`` returns a bogus single element for an empty row
        # (equal consecutive starts); mask those back to inf.
        mins = _np.minimum.reduceat(sums, starts)
        mins[np_offsets[1:] == starts] = _np.inf
        return mins
