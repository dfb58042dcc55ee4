"""Pruned Landmark Labeling (2-hop cover) for weighted graphs.

The paper answers ``DIST(u, v)`` in (near-)constant time using "distance
labeling, or 2-hop cover" and cites Akiba, Iwata and Yoshida, *Fast Exact
Shortest-path Distance Queries on Large Networks by Pruned Landmark
Labeling*, SIGMOD 2013.  This module implements that index for weighted
undirected graphs:

* Nodes are ordered by descending degree (the standard heuristic: hub
  nodes first cover the most shortest paths and maximize pruning).
* For each node ``l`` (a *landmark*) in that order, a *pruned Dijkstra* is
  run: when a node ``u`` is settled at distance ``d``, the index is
  queried first — if it already certifies ``dist(l, u) <= d``, the visit
  is pruned (no label, no relaxation).  Otherwise ``(l, d)`` is appended
  to ``u``'s label and the search continues through ``u``.
* A query ``query(u, v)`` merge-joins the two sorted label arrays and
  returns ``min_h L[u][h] + L[v][h]``, which is exactly ``dist(u, v)``
  (2-hop cover property, Theorem 4.1 of the SIGMOD paper).

Batch-synchronous construction
------------------------------

Landmarks are processed in rank-order *batches* (sizes 1, 2, 4, ...
capped at :data:`MAX_BATCH`).  Every search in a batch prunes against
the label snapshot from *before* the batch; a merge pass then commits
each batch's results in rank order, dropping any entry already
certified by an earlier same-batch landmark (the in-search prune
already handled all earlier batches, so this *tail filter* only scans
label entries added within the current batch).

Construction runs in one process.  The batch schedule is kept because
it fixes the label bytes that every existing snapshot and canonical
``TeamResponse`` was produced with.  It is also exact — pruning against
a *subset* of the up-to-date index is still a genuine certificate, so
the classic PLL cover argument goes through unchanged: for any pair the
maximum-rank vertex on a shortest path labels both endpoints with exact
distances.  Weaker intra-batch pruning can only add (correct) extra
entries, most of which the tail filter removes.  ``batch_size=1``
reproduces the classic fully sequential algorithm exactly.

A label entry is only ``(hub rank, distance)``: the paper's Algorithm 1
needs ``DIST`` from the index, and the one path a solver needs (to
materialize the winning team) comes from a graph Dijkstra, as
:meth:`PrunedLandmarkLabeling.path` does too.

Incremental maintenance
-----------------------

The index is *dynamic for distance-decreasing changes*: new nodes
(:meth:`PrunedLandmarkLabeling.add_node`), new edges and edge-weight
decreases (:meth:`PrunedLandmarkLabeling.insert_edge`) are folded into
the existing labels without a rebuild, in the style of dynamic
2-hop-cover indexes (Akiba, Iwata and Yoshida, WWW 2014; D'Angelo,
D'Emidio and Frigioni's weighted generalization): inserting ``{a, b}``
resumes one pruned Dijkstra per hub of ``a``'s and ``b``'s labels,
seeded *through* the new edge (hub ``h`` of ``a`` at stored distance
``d`` seeds ``b`` at ``d + w``), pruning against the live index.  Only
pairs whose distance actually decreased are traversed, so a single-edge
update touches a tiny fraction of the label store — measured in
``benchmarks/bench_dynamic_updates.py`` against a full rebuild.  A write
call copies the rows it reads out of the immutable label store, edits
the copies of the rows it rewrites, and splices those into one new
store (:meth:`FlatLabelStore.splice`) when it returns;
:meth:`PrunedLandmarkLabeling.apply` runs a whole delta as one call.

Distance-*increasing* changes (edge removal, weight increase, node
removal) can invalidate labels that certify now-broken paths; callers
must rebuild instead (the engine's version-keyed oracle cache does this
automatically).  Label entries left behind by an update are never
removed, only tightened, so queries stay exact.
"""

from __future__ import annotations

import heapq
import time
from array import array
from bisect import bisect_left
from collections.abc import Iterable

from .. import obs
from .adjacency import Graph, GraphError, Node
from .dijkstra import shortest_path
from .fifo import evict_for_insert
from .pll_kernel import (
    DIST_TYPECODE,
    RANK_TYPECODE,
    FlatLabelStore,
    numpy_available,
)

try:  # optional: distance matrices and the memoized numpy vectors
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

__all__ = [
    "PrunedLandmarkLabeling",
    "MAX_BATCH",
    "all_pairs_distances",
    "distance_matrix_from_rows",
    "default_landmark_order",
    "pll_build_count",
]

# Per-kernel counter instruments, resolved once per process instead of
# three registry lookups per query batch (the query path is hot enough
# that the lookups alone showed up in profiles).  Module-level on
# purpose: oracles are cloned for journal replay, and instrument
# objects hold locks that must not be deep-copied.
_KERNEL_INSTRUMENTS: dict[str, tuple] = {}


def _kernel_instruments(effective: str) -> tuple:
    instruments = _KERNEL_INSTRUMENTS.get(effective)
    if instruments is None:
        registry = obs.global_registry()
        instruments = _KERNEL_INSTRUMENTS[effective] = (
            registry.counter(f"kernel_queries_{effective}"),
            registry.counter(f"kernel_targets_{effective}"),
            registry.counter(f"kernel_seconds_{effective}"),
        )
    return instruments


#: Monotone count of completed PLL index constructions in this process.
#: Oracle-reuse tests snapshot it before a sweep and assert how many
#: builds the sweep actually paid for (see :func:`pll_build_count`).
_build_count = 0


def pll_build_count() -> int:
    """How many :class:`PrunedLandmarkLabeling` indexes this process built."""
    return _build_count


def all_pairs_distances(oracle, sources, targets):
    """All-pairs ``{(source, target): distance}`` via ``distances_from``.

    Shared by every oracle implementation so the batched all-pairs
    semantics (shape, iteration order, error behavior) live in one
    place.  Lives here rather than in :mod:`repro.graph.distance` only
    to avoid a circular import.
    """
    target_list = list(targets)
    out = {}
    for source in sources:
        for target, d in oracle.distances_from(source, target_list).items():
            out[(source, target)] = d
    return out


def distance_matrix_from_rows(oracle, sources, targets):
    """``distance_matrix`` stacked from one ``distances_from`` row per source.

    Returns a ``(len(sources), len(targets))`` float64 ndarray whose row
    ``i`` lists ``sources[i]``'s distances in target order (a repeated
    target repeats its column).  The oracles without a memoized numpy
    vector per source share this fallback, as they share
    :func:`all_pairs_distances`; it needs numpy all the same.
    """
    if _np is None:
        raise RuntimeError("distance_matrix needs numpy")
    target_list = list(targets)
    rows = []
    for source in sources:
        dists = oracle.distances_from(source, target_list)
        rows.append([dists[target] for target in target_list])
    return _np.array(rows, dtype=_np.float64).reshape(len(rows), len(target_list))


_INF = float("inf")

#: Upper bound on the doubling batch schedule.  Larger batches weaken
#: intra-batch pruning (slightly larger labels); 64 keeps the growth
#: measured in single-digit percent.
MAX_BATCH = 64

def _batch_schedule(n: int, batch_size: int | None) -> list[range]:
    """Rank batches for ``n`` landmarks.

    ``None`` selects the doubling schedule 1, 2, 4, ... capped at
    :data:`MAX_BATCH`; an explicit ``batch_size`` gives constant batches
    (``1`` being the classic fully sequential prune discipline).
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be positive")
    batches: list[range] = []
    start, size = 0, (1 if batch_size is None else batch_size)
    while start < n:
        stop = min(start + size, n)
        batches.append(range(start, stop))
        start = stop
        if batch_size is None:
            size = min(size * 2, MAX_BATCH)
    return batches


def default_landmark_order(graph: Graph) -> list[Node]:
    """Degree-descending landmark order for ``graph``.

    The standard 2-hop-cover heuristic: high-degree hubs first cover the
    most shortest paths and maximize pruning.  A deterministic ``repr``
    tie-break keeps builds reproducible across runs and node-id types.
    """
    return sorted(graph.nodes(), key=lambda n: (-graph.degree(n), repr(n)))


def _pruned_dijkstra(
    adj: dict[Node, dict[Node, float]],
    landmark: Node,
    ranks: dict[Node, list[int]],
    dists: dict[Node, list[float]],
) -> list[tuple[Node, float]]:
    """One pruned Dijkstra against a fixed label snapshot.

    Pure function of its arguments: returns the would-be label entries
    ``(node, distance)`` in settle order without mutating the snapshot,
    so every search of a batch sees the same pre-batch labels.
    """
    l_ranks = ranks[landmark]
    l_dists = dists[landmark]
    settled: set[Node] = set()
    results: list[tuple[Node, float]] = []
    heap: list[tuple[float, int, Node]] = [(0.0, 0, landmark)]
    counter = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        # Prune if the snapshot already certifies dist(l, u) <= d.
        if _merge_join_min(l_ranks, l_dists, ranks[u], dists[u]) <= d:
            continue
        settled.add(u)
        results.append((u, d))
        for v, w in adj[u].items():
            if v in settled:
                continue
            heapq.heappush(heap, (d + w, counter, v))
            counter += 1
    return results


class PrunedLandmarkLabeling:
    """A 2-hop cover distance oracle over a weighted graph.

    The index is built once in the constructor; distance queries never
    touch the graph again (:meth:`path` runs one graph Dijkstra).  The
    labels live in one immutable :class:`FlatLabelStore`, which every
    query reads and every write replaces with a new one (so clones can
    share a store).  Batched
    queries run the vectorized numpy kernel when numpy is importable at
    build time and the stdlib dense-scatter kernel otherwise; both
    return bit-identical distances.

    Parameters
    ----------
    graph:
        The weighted undirected graph to index.
    order:
        Optional explicit landmark order (must be a permutation of the
        nodes); defaults to degree-descending.
    batch_size:
        Override the doubling batch schedule with constant batches;
        ``1`` restores the classic fully sequential prune discipline
        (slightly smaller labels).

    >>> g = Graph.from_edges([("a", "b", 1.0), ("b", "c", 2.0)])
    >>> pll = PrunedLandmarkLabeling(g)
    >>> pll.distance("a", "c")
    3.0
    >>> pll.path("a", "c")
    ['a', 'b', 'c']
    """

    #: FIFO bound on memoized per-source distance maps (see
    #: :meth:`distances_from`).
    MAX_CACHED_SOURCES = 512

    #: Shard index stamped on ``pll.query`` spans when this index serves
    #: one shard of a :class:`~repro.graph.sharded_oracle.ShardedPLLOracle`
    #: (a class attribute so clones and snapshot-restored indexes default
    #: to the monolithic behavior without touching every constructor).
    _obs_shard: int | None = None

    #: ``(targets, index array)`` of the last :meth:`distance_matrix`
    #: call: the greedy sweep asks for every skill against the same
    #: roots.  Valid for the index's lifetime, because a node's landmark
    #: rank never changes once assigned (``add_node`` appends).
    _target_cols: tuple | None = None

    def __init__(
        self,
        graph: Graph,
        *,
        order: list[Node] | None = None,
        batch_size: int | None = None,
    ) -> None:
        self._graph = graph
        if order is None:
            order = default_landmark_order(graph)
        elif set(order) != set(graph.nodes()):
            raise GraphError("order must be a permutation of the graph's nodes")
        self._rank: dict[Node, int] = {node: i for i, node in enumerate(order)}
        self._order = order
        self._use_numpy = numpy_available()
        self._source_cache: dict[Node, dict[Node, float] | _np.ndarray] = {}
        #: How many in-place updates this index has absorbed since its
        #: build (diagnostics, persisted with the labels).
        self.incremental_updates = 0
        rows = self._build(batch_size)
        self._flat = FlatLabelStore.from_rows(order, *rows)
        global _build_count
        _build_count += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, batch_size: int | None) -> tuple[dict, dict]:
        """The per-node label rows: ranks ascending, and distances.

        Searching the live rows is valid because a batch is merged only
        after all of its searches returned: until then the live rows
        *are* the pre-batch snapshot.
        """
        nodes = list(self._graph.nodes())
        ranks: dict[Node, list[int]] = {u: [] for u in nodes}
        dists: dict[Node, list[float]] = {u: [] for u in nodes}
        adj = self._graph.adjacency()
        for batch in _batch_schedule(len(self._order), batch_size):
            results = [
                (rank_l, _pruned_dijkstra(adj, self._order[rank_l], ranks, dists))
                for rank_l in batch
            ]
            self._merge_batch(batch.start, results, ranks, dists)
        return ranks, dists

    def _merge_batch(
        self,
        batch_start: int,
        results: list[tuple[int, list[tuple[Node, float]]]],
        ranks: dict[Node, list[int]],
        dists: dict[Node, list[float]],
    ) -> None:
        """Commit one batch's searches in rank order.

        The tail filter drops an entry ``(u, d)`` of landmark ``l`` when
        an earlier *same-batch* landmark already certifies
        ``dist(l, u) <= d``; entries from earlier batches were already
        checked inside the search, so only ranks ``>= batch_start`` need
        scanning (a constant-size suffix of the sorted label arrays).
        """
        for rank_l, settles in results:
            landmark = self._order[rank_l]
            l_ranks = ranks[landmark]
            l_dists = dists[landmark]
            for u, d in settles:
                u_ranks, u_dists = ranks[u], dists[u]
                if _tail_join_min(l_ranks, l_dists, u_ranks, u_dists, batch_start) <= d:
                    continue
                u_ranks.append(rank_l)
                u_dists.append(d)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop memoized per-source query state.

        The labels themselves are kept exact by :meth:`insert_edge` /
        :meth:`add_node` (which call this), so there is nothing else to
        invalidate; the method exists so every oracle implementation
        shares one cache-reset entry point.
        """
        self._source_cache.clear()

    def add_node(self, node: Node) -> None:
        """Register a new (isolated) node without rebuilding.

        The node is appended at the lowest landmark priority and given
        its self-label; subsequent :meth:`insert_edge` calls connect it.
        Idempotent for nodes already indexed.
        """
        self.apply([("node", node)])

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
        """Absorb a new edge ``{u, v}`` (or a weight *decrease*) in place.

        For every hub ``h`` in either endpoint's label, a pruned
        Dijkstra is *resumed* through the new edge: ``h``'s stored
        distance to one endpoint seeds the other endpoint at
        ``stored + weight``, and the search relaxes outward, labelling
        exactly the nodes whose distance from ``h`` improved (pruning
        against the live index stops it everywhere else).  Existing
        entries are tightened in place, so label arrays never grow
        stale-monotonic and queries remain exact.

        Weight *increases* are not supported — they can strand labels
        certifying distances that no longer exist; callers must rebuild
        instead.  ``ValueError`` is raised when an increase is detected,
        but the guard is *best-effort*: it compares against the weight
        currently stored in this index's graph, so a caller that shares
        the graph object and has already written the new weight to it
        (as the engine's raw-graph oracle does) must check old-vs-new
        weight itself before calling — the engine does so from the
        network's mutation journal and rebuilds on any net increase.
        """
        self.apply([("edge", u, v, weight)])

    def apply(self, steps: Iterable[tuple]) -> None:
        """Absorb ``steps`` in order, then publish one new label store.

        A step is ``("node", node)`` (as :meth:`add_node`) or ``("edge",
        u, v, weight)`` (as :meth:`insert_edge`) — the engine replays a
        mutation delta in this form.  All steps edit one
        :class:`_LabelEdit`, so a long delta pays for one
        :meth:`FlatLabelStore.splice`.  A step that raises leaves the
        steps before it applied and published.
        """
        edit = _LabelEdit(self._flat)
        try:
            for step in steps:
                if step[0] == "node":
                    self._add_node(edit, step[1])
                else:
                    self._insert_edge(edit, *step[1:])
        finally:
            self._flat = edit.publish()
            self.invalidate()

    def partial_rebuild(self, touched: Iterable[tuple] | None) -> None:
        """``None``: a change :meth:`apply` cannot absorb needs a full build."""
        return None

    def _add_node(self, edit: _LabelEdit, node: Node) -> None:
        if node in self._rank:
            return
        self._graph.add_node(node)
        rank = len(self._order)
        self._order.append(node)
        self._rank[node] = rank
        edit.append(rank)
        self.incremental_updates += 1

    def _insert_edge(self, edit: _LabelEdit, u: Node, v: Node, weight: float) -> None:
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        for node in (u, v):
            if node not in self._rank:
                raise GraphError(f"node {node!r} not in index")
        if self._graph.has_edge(u, v) and weight > self._graph.weight(u, v):
            raise ValueError(
                "insert_edge only supports insertions and weight "
                f"decreases; ({u!r}, {v!r}) would grow from "
                f"{self._graph.weight(u, v)!r} to {weight!r} — rebuild"
            )
        self._graph.add_edge(u, v, weight=weight)
        # Seed from both endpoint labels as they stand *before* this
        # edge's repair, then resume one search per affected hub in
        # ascending rank (priority) order, merging seeds when the same
        # hub covers both endpoints.
        seeds: dict[int, list[tuple[float, Node]]] = {}
        for a, b in ((u, v), (v, u)):
            a_ranks, a_dists = edit[self._rank[a]]
            for rank_h, d_ha in zip(a_ranks, a_dists):
                seeds.setdefault(rank_h, []).append((d_ha + weight, b))
        for rank_h in sorted(seeds):
            self._resume_pruned_dijkstra(edit, rank_h, seeds[rank_h])
        self.incremental_updates += 1

    def _resume_pruned_dijkstra(
        self,
        edit: _LabelEdit,
        rank_h: int,
        seeds: list[tuple[float, Node]],
    ) -> None:
        """Resume landmark ``rank_h``'s pruned Dijkstra from ``seeds``.

        Seeds are ``(distance, node)`` entries justified by an existing
        label plus the new edge.  The search settles a node
        only when the labels cannot already certify its distance, in
        which case the node's row gets the entry tightened (or
        inserted).
        """
        adj = self._graph.adjacency()
        rank = self._rank
        # The hub's own row never changes here: it holds a zero-distance
        # entry, so it always prunes itself.
        h_ranks, h_dists = edit[rank_h]
        heap: list[tuple[float, int, Node]] = []
        counter = 0
        for d, node in seeds:
            heap.append((d, counter, node))
            counter += 1
        heapq.heapify(heap)
        settled: set[Node] = set()
        while heap:
            d, _, x = heapq.heappop(heap)
            if x in settled:
                continue
            row = rank[x]
            x_ranks, x_dists = edit[row]
            if _merge_join_min(h_ranks, h_dists, x_ranks, x_dists) <= d:
                continue
            settled.add(x)
            edit.set_label(row, rank_h, d)
            for y, w in adj[x].items():
                if y in settled:
                    continue
                heapq.heappush(heap, (d + w, counter, y))
                counter += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def distance(self, u: Node, v: Node) -> float:
        """Exact shortest-path distance; ``inf`` when disconnected."""
        if u == v:
            if u not in self._rank:
                raise GraphError(f"node {u!r} not in index")
            return 0.0
        try:
            return self._flat.merge_join_rows(self._rank[u], self._rank[v])
        except KeyError as exc:
            raise GraphError(f"node {exc.args[0]!r} not in index") from None

    def distances_from(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Batched ``{target: distance}`` from one source (memoized).

        Callers that sweep one source against many targets (Steiner
        refinement, replacement, the sharded oracle's local phase) go
        through this entry point.  With numpy the whole flat store is
        reduced in a single vectorized pass, the source's full distance
        vector is memoized as a float64 ndarray, and the answer is one
        fancy-index gather plus ``.tolist()``.  Without numpy the
        source row is scattered into a dense rank-indexed vector and
        each target costs one indexed gather per label entry, memoized
        per target.  Both kernels minimize the same IEEE-754 sums as
        the point merge join of :meth:`distance`, so their results are
        bit-identical plain Python floats; both memoize per source in a
        bounded FIFO cache, so repeated sweeps from the same source
        (later requests, lambda sweeps) skip the kernel.  A target
        equal to the source reads ``0.0``.

        Instrumented at batch granularity: each call lands in the
        ``kernel_queries_<k>`` / ``kernel_targets_<k>`` /
        ``kernel_seconds_<k>`` counters for the kernel that answered
        (``numpy`` / ``stdlib``).  A ``pll.query`` child
        span is recorded — only when a trace is active — for *cold*
        sources (no memoized state yet): those calls are where the
        kernel actually works, while warm memo probes would flood the
        span tree and dominate the tracing overhead without saying
        anything (they still count in the counters).
        """
        start = time.perf_counter()
        cold = source not in self._source_cache
        if self._use_numpy:
            effective = "numpy"
            out = self._distances_from_vector(source, targets)
        else:
            effective = "stdlib"
            out = self._distances_from_flat(source, targets)
        elapsed = time.perf_counter() - start
        self._count(effective, 1, len(out), elapsed)
        if cold:
            self._record_query(effective, elapsed, len(out))
        return out

    def distance_matrix(self, sources: Iterable[Node], targets: Iterable[Node]):
        """``(len(sources), len(targets))`` float64 distance matrix.

        Row ``i`` is ``sources[i]``'s memoized distance vector gathered
        at the targets' rows, so the greedy sweep scores every holder of
        a skill against every root without building a dict per holder.
        Row for row it is bit-identical to :meth:`distances_from` (the
        same memoized floats; a source among the targets reads
        ``0.0``).  An index built without numpy has no vector to gather
        from and stacks :meth:`distances_from` rows instead
        (:func:`distance_matrix_from_rows`).

        Instrumented like :meth:`distances_from`: one kernel query per
        row, ``S * T`` targets, and a ``pll.query`` span per cold source.
        """
        if not self._use_numpy:
            return distance_matrix_from_rows(self, sources, targets)
        start = time.perf_counter()
        source_list = list(sources)
        key = tuple(targets)
        last = self._target_cols
        if last is not None and last[0] == key:
            cols = last[1]
        else:
            cols = self._rows_of(key)
            self._target_cols = (key, cols)
        out = _np.empty((len(source_list), len(cols)))
        for i, source in enumerate(source_list):
            row_start = time.perf_counter()
            cold = source not in self._source_cache
            out[i] = self._vector(source)[cols]
            if cold:
                elapsed = time.perf_counter() - row_start
                self._record_query("numpy", elapsed, len(cols))
        self._count("numpy", len(source_list), out.size, time.perf_counter() - start)
        return out

    def _count(
        self, effective: str, queries: int, targets: int, elapsed: float
    ) -> None:
        """Land one batch in the ``kernel_*_<effective>`` counters."""
        queries_c, targets_c, seconds = _kernel_instruments(effective)
        queries_c.inc(queries)
        targets_c.inc(targets)
        seconds.inc(elapsed)

    def _record_query(self, effective: str, elapsed: float, targets: int) -> None:
        """A ``pll.query`` span for one cold source (kept only when traced)."""
        if self._obs_shard is None:
            obs.record("pll.query", elapsed, kernel=effective, targets=targets)
        else:
            obs.record(
                "pll.query",
                elapsed,
                kernel=effective,
                targets=targets,
                shard=self._obs_shard,
            )

    def _distances_from_flat(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Stdlib flat kernel: dense scatter of the source row, then one
        indexed gather per target label entry."""
        rank = self._rank
        src_row = rank.get(source)
        if src_row is None:
            raise GraphError(f"node {source!r} not in index")
        cache = self._source_cache.get(source)
        if cache is None:
            evict_for_insert(self._source_cache, self.MAX_CACHED_SOURCES)
            cache = self._source_cache[source] = {}
        out: dict[Node, float] = {}
        pending: list[tuple[Node, int]] = []
        for target in targets:
            d = cache.get(target)
            if d is None:
                if target == source:
                    d = cache[target] = 0.0
                else:
                    row = rank.get(target)
                    if row is None:
                        raise GraphError(f"node {target!r} not in index")
                    out[target] = _INF  # placeholder: batch-filled below
                    pending.append((target, row))
                    continue
            out[target] = d
        if pending:
            mins = self._flat.batch_row_mins(src_row, [row for _, row in pending])
            for (target, _), d in zip(pending, mins):
                out[target] = d
                cache[target] = d
        return out

    def _distances_from_vector(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Numpy kernel: one fancy-index gather from the source's
        memoized distance vector.  ``.tolist()`` converts binary64
        exactly; plain floats keep downstream arithmetic and JSON
        numpy-free."""
        target_list = list(targets)
        gathered = self._vector(source)[self._rows_of(target_list)]
        return dict(zip(target_list, gathered.tolist()))

    def _vector(self, source: Node):
        """``source``'s distance to every row, as a read-only float64
        ndarray memoized per source (one store pass when cold).

        The source's own row reads ``0.0``: its label holds itself at
        distance ``0.0``, or a hub at distance ``0.0`` that pruned it.
        Weights are non-negative and every label distance is a sum
        starting from ``0.0``, so no entry is ``-0.0``.
        """
        vector = self._source_cache.get(source)
        if vector is None:
            src_row = self._rank.get(source)
            if src_row is None:
                raise GraphError(f"node {source!r} not in index")
            evict_for_insert(self._source_cache, self.MAX_CACHED_SOURCES)
            vector = self._flat.row_mins_numpy(src_row)
            vector.flags.writeable = False
            self._source_cache[source] = vector
        return vector

    def distance_vector(self, source: Node):
        """``source``'s memoized distance to every node, indexed by
        landmark rank: the read-only float64 vector :meth:`distances_from`
        gathers from (numpy kernel only).

        The sharded oracle scatters these into its global vectors.
        Instrumented like a :meth:`distances_from` call over every node:
        one kernel query, and a ``pll.query`` span when ``source`` is
        cold.
        """
        start = time.perf_counter()
        cold = source not in self._source_cache
        vector = self._vector(source)
        elapsed = time.perf_counter() - start
        self._count("numpy", 1, len(vector), elapsed)
        if cold:
            self._record_query("numpy", elapsed, len(vector))
        return vector

    def _rows_of(self, targets: Iterable[Node]):
        """Landmark ranks of ``targets`` as an ``intp`` index array."""
        rank = self._rank
        try:
            rows = [rank[target] for target in targets]
        except KeyError as exc:
            raise GraphError(f"node {exc.args[0]!r} not in index") from None
        cols = _np.array(rows, dtype=_np.intp)
        cols.flags.writeable = False
        return cols

    def distances_many(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> dict[tuple[Node, Node], float]:
        """All-pairs ``{(source, target): distance}`` over two node sets."""
        return all_pairs_distances(self, sources, targets)

    def path(self, u: Node, v: Node) -> list[Node]:
        """One exact shortest path ``[u, ..., v]``: a graph Dijkstra.

        The labels hold distances only; a path is needed once per
        answer, to materialize a team, so it comes from the graph.
        """
        for node in (u, v):
            if node not in self._rank:
                raise GraphError(f"node {node!r} not in index")
        _, path = shortest_path(self._graph, u, v)
        return path

    def clone(self, graph: Graph | None = None) -> "PrunedLandmarkLabeling":
        """An independent copy of this index — no build, no validation.

        The engine's concurrent reconciliation replays mutation deltas
        onto a clone so the original — which an in-flight solve may
        still be querying — is never mutated underneath it.  ``graph``
        is the graph the clone should own (defaults to a copy of this
        index's own); it may already carry nodes/edges the labels have
        not absorbed yet, exactly as the shared live graph did on the
        pre-clone in-place path — the caller's :meth:`apply` closes that
        gap.  Unlike :meth:`from_flat_labels` (which guards untrusted
        snapshot bytes), cloning a live in-process index is a trusted
        path, so no permutation check applies.  ``pll_build_count`` is
        not bumped.  The clone shares this index's immutable label store,
        so no label entry is copied; its first write publishes its own
        store.
        """
        index = type(self).__new__(type(self))
        index._graph = self._graph.copy() if graph is None else graph
        index._order = list(self._order)
        index._rank = dict(self._rank)
        index._use_numpy = self._use_numpy
        index._flat = self._flat
        index._source_cache = {}
        index.incremental_updates = self.incremental_updates
        return index

    # ------------------------------------------------------------------
    # persistence hooks (see repro.storage)
    # ------------------------------------------------------------------
    def export_flat_labels(self) -> dict:
        """The complete index state as flat columns — zero-copy.

        Returns ``{"order", "counts", "ranks", "dists",
        "incremental_updates"}`` where ``counts`` holds per-node entry
        counts in landmark-rank order and the two columns are the
        concatenated label rows as :mod:`array` arrays — exactly the
        snapshot codec's on-disk layout, so encoding each column is one ``tobytes``
        memcpy.  The index hands out its store's own columns; callers
        must treat them as read-only.  :meth:`from_flat_labels`
        adopts them back without inflation.
        """
        flat = self._flat
        return {
            "order": list(self._order),
            "counts": flat.row_counts(),
            "ranks": flat.ranks,
            "dists": flat.dists,
            "incremental_updates": self.incremental_updates,
        }

    def export_state(self) -> tuple[dict, ...]:
        """The index as the label states a snapshot entry stores: its
        one :meth:`export_flat_labels` state (a sharded index exports one
        per shard; :func:`repro.graph.distance.restore_oracle` adopts
        either)."""
        return (self.export_flat_labels(),)

    @classmethod
    def from_flat_labels(
        cls, graph: Graph, state: dict
    ) -> "PrunedLandmarkLabeling":
        """Adopt :meth:`export_flat_labels` columns — no build, no inflation.

        The warm-start path: the decoded snapshot
        columns become the live query representation directly, so
        restoring an index performs no per-entry work at all.  The
        same permutation guard applies; column-length disagreement (a
        truncated snapshot) raises :class:`GraphError`.
        ``pll_build_count`` is not bumped.
        """
        order = list(state["order"])
        if set(order) != set(graph.nodes()):
            raise GraphError(
                "snapshot labels do not match the graph: order is not a "
                "permutation of the graph's nodes"
            )
        counts = state["counts"]
        if len(counts) != len(order):
            raise GraphError(
                f"snapshot labels do not match the graph: {len(counts)} "
                f"label rows for {len(order)} nodes"
            )
        ranks_col = state["ranks"]
        if not isinstance(ranks_col, array):
            ranks_col = array(RANK_TYPECODE, ranks_col)
        dists_col = state["dists"]
        if not isinstance(dists_col, array):
            dists_col = array(DIST_TYPECODE, dists_col)
        index = cls.__new__(cls)
        index._graph = graph
        index._order = order
        index._rank = {node: i for i, node in enumerate(order)}
        index._use_numpy = numpy_available()
        try:
            index._flat = FlatLabelStore.from_columns(counts, ranks_col, dists_col)
        except ValueError as exc:
            raise GraphError(str(exc)) from None
        index._source_cache = {}
        index.incremental_updates = int(state["incremental_updates"])
        return index

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def average_label_size(self) -> float:
        """Mean number of label entries per node (index size indicator)."""
        if not self._order:
            return 0.0
        return self.total_label_entries / len(self._order)

    @property
    def total_label_entries(self) -> int:
        return self._flat.total_entries

    @property
    def label_bytes(self) -> int:
        """Label memory: the bytes of the hub-rank and distance columns
        (u32 + f64 per entry, the snapshot's label layout)."""
        ranks, dists = self._flat.ranks, self._flat.dists
        return len(ranks) * ranks.itemsize + len(dists) * dists.itemsize

    def label_of(self, node: Node) -> list[tuple[Node, float]]:
        """Return ``node``'s label as ``[(landmark, distance), ...]``."""
        row = self._rank.get(node)
        if row is None:
            raise GraphError(f"node {node!r} not in index")
        row_ranks, row_dists = self._flat.row_lists(row)
        order = self._order
        return [(order[r], d) for r, d in zip(row_ranks, row_dists)]

    def labels(self) -> dict[Node, list[tuple[Node, float]]]:
        """The whole index as ``{node: [(landmark, distance), ...]}``.

        Used by the equivalence tests (builds must agree entry-for-entry)
        and by index-size diagnostics.
        """
        return {node: self.label_of(node) for node in self._order}


class _LabelEdit(dict):
    """One write call's label rows over an immutable :class:`FlatLabelStore`.

    ``edit[row]`` is the row's ``(hub ranks, distances)`` as lists,
    copied out of the store on first access, so prune checks
    merge-join plain lists at the cost of one dict lookup.
    :meth:`set_label` edits a copy; :meth:`publish` splices only the
    edited rows into a new store.
    """

    def __init__(self, flat: FlatLabelStore) -> None:
        super().__init__()
        self._flat = flat
        self._written: set[int] = set()

    def __missing__(self, row: int) -> tuple[list[int], list[float]]:
        entry = self[row] = self._flat.row_lists(row)
        return entry

    def set_label(self, row: int, rank_h: int, dist: float) -> None:
        """Insert or tighten ``row``'s entry for hub rank ``rank_h``."""
        ranks, dists = self[row]
        self._written.add(row)
        idx = bisect_left(ranks, rank_h)
        if idx < len(ranks) and ranks[idx] == rank_h:
            dists[idx] = dist
        else:
            ranks.insert(idx, rank_h)
            dists.insert(idx, dist)

    def append(self, row: int) -> None:
        """A new row past the store's end holding only its self-label."""
        self[row] = ([row], [0.0])
        self._written.add(row)

    def publish(self) -> FlatLabelStore:
        return self._flat.splice({row: self[row] for row in self._written})


def _merge_join_min(
    ranks_a: list[int],
    dists_a: list[float],
    ranks_b: list[int],
    dists_b: list[float],
) -> float:
    """Minimum ``dists_a[i] + dists_b[j]`` over positions with equal rank."""
    best = _INF
    i = j = 0
    len_a, len_b = len(ranks_a), len(ranks_b)
    while i < len_a and j < len_b:
        ra, rb = ranks_a[i], ranks_b[j]
        if ra == rb:
            total = dists_a[i] + dists_b[j]
            if total < best:
                best = total
            i += 1
            j += 1
        elif ra < rb:
            i += 1
        else:
            j += 1
    return best


def _tail_join_min(
    ranks_a: list[int],
    dists_a: list[float],
    ranks_b: list[int],
    dists_b: list[float],
    min_rank: int,
) -> float:
    """:func:`_merge_join_min` restricted to hub ranks ``>= min_rank``."""
    best = _INF
    i = bisect_left(ranks_a, min_rank)
    j = bisect_left(ranks_b, min_rank)
    len_a, len_b = len(ranks_a), len(ranks_b)
    while i < len_a and j < len_b:
        ra, rb = ranks_a[i], ranks_b[j]
        if ra == rb:
            total = dists_a[i] + dists_b[j]
            if total < best:
                best = total
            i += 1
            j += 1
        elif ra < rb:
            i += 1
        else:
            j += 1
    return best
