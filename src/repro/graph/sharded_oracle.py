"""Sharded 2-hop-cover oracle: per-shard PLL indexes + boundary summary.

One monolithic :class:`~repro.graph.pll.PrunedLandmarkLabeling` holds
labels for the whole graph; past a few million experts that single label
store is the memory and build-time wall (ROADMAP open item 1).  This
module keeps the paper's oracle *per shard* and answers cross-shard
queries through a boundary-distance summary:

* A :class:`~repro.graph.partition.ShardPlan` cuts the graph along its
  articulation/component structure.  Cut vertices are replicated into
  every adjacent shard and form the **boundary**.
* Each shard gets its own ``PrunedLandmarkLabeling`` over the induced
  subgraph, built with the standard builder — label size and
  build time scale with the shard, not the graph.
* A **boundary summary graph** is assembled from shard-local distances
  between boundary pairs co-resident in a shard, and Dijkstra from each
  boundary node over that summary yields exact global boundary-to-
  boundary distances ``B`` (with predecessors, so paths stitch too).

Exactness does not require shard-local distances to equal global ones.
Any global shortest path decomposes at its boundary crossings into
segments whose interiors are non-boundary nodes of a single region; each
segment's endpoints are co-resident in the shard owning that region
(partition invariant: every neighbor of a region-interior node is in the
region, and every edge lies inside at least one region).  Hence

``dist(u, v) = min( local(u, v),
                    min over b1, b2 in boundary of
                        local(u, b1) + B[b1][b2] + local(b2, v) )``

where ``local`` minimizes over shards containing both endpoints, is both
an upper bound (each candidate is a concatenation of subgraph walks) and
a lower bound (the decomposition realizes it).  The boundary term is
always included — a bin-packed shard may hold several disconnected
regions, so co-residency alone does not imply the local answer is
finite, let alone minimal.

Mutations are absorbed per shard, on the same plan.  Every edge lies
inside each shard that holds both of its endpoints, so an edge change
only touches those shards.  :meth:`ShardedPLLOracle.apply` replays
insertions and weight decreases into each of them with the monolithic
index's resumed pruned Dijkstras, one ``apply`` call per shard;
:meth:`ShardedPLLOracle.partial_rebuild` rebuilds just the touched shards
from a new graph (weight increases, removals, authority edits under a
fold).  Either way the boundary summary is then recomputed once.  Both
run on a :meth:`ShardedPLLOracle.clone`, which shares every shard with
the original and replaces a shard only on its first write, so the
original — possibly still serving a solve — is never mutated.  A change
that alters the plan itself (a new node, an edge that bypasses a cut
vertex) is outside this scheme: the caller builds a fresh oracle over
the new plan.

Queries memoize each source's full answer in a bounded FIFO memo.
With numpy the answer is one read-only float64 vector over the graph's
node order, built in the three phases of the formula above: the home
shards' memoized PLL vectors are ``np.minimum``-scattered in through
each shard's map from landmark rank to global column; the boundary
potential ``g = min_i(local(u, b_i) + B[i])`` is one min-plus over the
``(nb, nb)`` summary matrix; and each boundary member ``b`` with finite
``g[b]`` relaxes its shard's columns with ``g[b] + local(b, .)``.  Every
candidate is the same single IEEE add as in the stdlib path and ``min``
is exact, so a ``distance_matrix`` row (one gather) is bit-identical to
the ``{node: distance}`` dict that path builds.  The dict path is the
kernel of installs without numpy, picked at construction as the PLL
picks its own, and the reference the vector path is tested against.

Determinism: shard subgraphs inherit the parent graph's insertion order,
per-shard builds use the standard deterministic batch schedule,
summary edges resolve ties toward the lowest shard index, and
the summary Dijkstra breaks heap ties by boundary position — the same
graph and plan always produce bit-identical answers in every process.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Callable, Iterable

from .. import obs
from .adjacency import Graph, GraphError, Node
from .fifo import evict_for_insert
from .partition import ShardPlan, plan_shards
from .pll import (
    PrunedLandmarkLabeling,
    all_pairs_distances,
    distance_matrix_from_rows,
)
from .pll_kernel import numpy_available

try:  # optional: the vector memo (the dict memo serves without numpy)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

__all__ = ["ShardedPLLOracle"]

_INF = float("inf")


class ShardedPLLOracle:
    """Drop-in :class:`~repro.graph.distance.DistanceOracle` over shards.

    Answers are exactly those of a monolithic
    :class:`PrunedLandmarkLabeling` over the same graph (bit-identical
    on networks whose edge-weight sums are exact in IEEE-754, e.g. the
    dyadic test networks; always equal as real numbers).

    Mutations that keep the plan are absorbed per shard (see the module
    docstring): :meth:`apply` for insertions and weight decreases,
    :meth:`partial_rebuild` for everything else, both meant for a
    :meth:`clone` so the original stays untouched.  A new node is
    refused — it changes the plan.

    Every query reads the per-source memo: a float64 vector with numpy,
    a dict of finite distances without (see the module docstring).  The
    ``shard_source_cache_{hits,misses,evictions}`` counters tally it once
    per query call.
    """

    #: FIFO bound on memoized per-source answers (mirrors the per-source
    #: memo discipline of the monolithic index).
    MAX_CACHED_SOURCES = PrunedLandmarkLabeling.MAX_CACHED_SOURCES

    def __init__(
        self,
        graph: Graph,
        plan: ShardPlan | None = None,
        *,
        shards: int | None = None,
    ) -> None:
        if plan is None:
            if shards is None:
                raise GraphError("ShardedPLLOracle needs a plan or a shard count")
            plan = plan_shards(graph, shards)
        self._init_topology(graph, plan)
        self._shards = [self._build_shard(i) for i in range(plan.num_shards)]
        self._init_columns()
        self._build_boundary_summary()
        self._init_instruments()
        self._publish_label_bytes(range(plan.num_shards))

    def _init_topology(self, graph: Graph, plan: ShardPlan) -> None:
        if set(graph.nodes()) != {
            node for shard in plan.shards for node in shard
        }:
            raise GraphError("shard plan does not cover the graph's node set")
        self._graph = graph
        self.plan = plan
        self._node_set = set(graph.nodes())
        boundary_set = set(plan.boundary)
        self._shard_nodes = [list(shard) for shard in plan.shards]
        self._shard_boundary = [
            [node for node in shard if node in boundary_set]
            for shard in plan.shards
        ]
        self._bindex = {node: i for i, node in enumerate(plan.boundary)}
        #: The query kernel, fixed at construction exactly as the PLL
        #: picks its own: one float64 vector per source over the graph's
        #: node order with numpy, a ``{node: distance}`` dict without.
        self._use_numpy = numpy_available()
        if self._use_numpy:
            self._col = {node: i for i, node in enumerate(graph.nodes())}
            self._boundary_cols = self._cols_of(plan.boundary)

    def _init_columns(self) -> None:
        """Per shard, the global column of each landmark rank (numpy only).

        A map stays valid for its shard PLL's lifetime: ``apply`` never
        changes ranks and this oracle refuses new nodes.
        """
        if self._use_numpy:
            self._shard_cols = [self._cols_of(pll._order) for pll in self._shards]

    def _cols_of(self, nodes: Iterable[Node]):
        """Global columns of ``nodes`` as a read-only ``intp`` array."""
        col = self._col
        try:
            cols = _np.array([col[node] for node in nodes], dtype=_np.intp)
        except KeyError as exc:
            raise GraphError(f"node {exc.args[0]!r} not in index") from None
        cols.flags.writeable = False
        return cols

    def _build_shard(self, i: int) -> PrunedLandmarkLabeling:
        """A fresh PLL over shard ``i``'s induced subgraph."""
        pll = PrunedLandmarkLabeling(self._graph.subgraph(self.plan.shards[i]))
        pll._obs_shard = i
        return pll

    def _init_instruments(self) -> None:
        #: Per-source memo: read-only float64 vectors (numpy) or
        #: ``{node: distance}`` dicts of the finite entries (stdlib).
        self._source_cache: dict = {}
        #: Shards this copy replaced since it was cloned (copy-on-write).
        self._owned: set[int] = set()
        registry = obs.global_registry()
        self._local_counter = registry.counter("shard_queries_local")
        self._cross_counter = registry.counter("shard_queries_cross")
        self._hits_counter = registry.counter("shard_source_cache_hits")
        self._misses_counter = registry.counter("shard_source_cache_misses")
        self._evictions_counter = registry.counter("shard_source_cache_evictions")

    def _publish_label_bytes(self, shards: Iterable[int]) -> None:
        registry = obs.global_registry()
        for i in shards:
            registry.gauge(f"shard_label_bytes_{i}").set(self.label_bytes(i))

    # ------------------------------------------------------------------
    # boundary summary
    # ------------------------------------------------------------------
    def _build_boundary_summary(self) -> None:
        """All-pairs boundary distances via Dijkstra on the summary graph.

        Summary edges are shard-local distances between boundary pairs
        co-resident in a shard (minimum over shards, ties to the lowest
        shard index so path stitching is deterministic).  Dijkstra from
        each boundary node then gives exact global distances ``B`` plus
        predecessor/shard annotations for path reconstruction.
        """
        start = time.perf_counter()
        boundary = self.plan.boundary
        nb = len(boundary)
        adj: list[dict[int, tuple[float, int]]] = [{} for _ in range(nb)]
        edge_count = 0
        with obs.span("shard.boundary_summary", boundary=nb) as span:
            for s, members in enumerate(self._shard_boundary):
                if len(members) < 2:
                    continue
                pairs = all_pairs_distances(self._shards[s], members, members)
                for (b1, b2), d in pairs.items():
                    if b1 == b2 or d == _INF:
                        continue
                    i, j = self._bindex[b1], self._bindex[b2]
                    known = adj[i].get(j)
                    if known is None or d < known[0]:
                        if known is None:
                            edge_count += 1
                        adj[i][j] = (d, s)
            self._summary_adj = adj
            self._apsp()
            if span.is_recording:
                span.set_attribute("edges", edge_count)
        elapsed = time.perf_counter() - start
        obs.record(
            "shard.boundary_summary_build", elapsed, boundary=nb, edges=edge_count
        )
        registry = obs.global_registry()
        registry.counter("shard_boundary_summary_builds").inc()
        registry.counter("shard_boundary_summary_seconds").inc(elapsed)

    def _apsp(self) -> None:
        """Exact boundary-to-boundary distances + predecessor edges.

        Dijkstra from every boundary node over the summary adjacency;
        heap ties break by boundary position, so ``B`` and the
        predecessor annotations are cross-process deterministic.
        """
        adj = self._summary_adj
        nb = len(adj)
        self._B: list[list[float]] = []
        self._pred: list[list[tuple[int, int] | None]] = []
        for i in range(nb):
            dist = [_INF] * nb
            pred: list[tuple[int, int] | None] = [None] * nb
            dist[i] = 0.0
            heap: list[tuple[float, int]] = [(0.0, i)]
            while heap:
                d, j = heapq.heappop(heap)
                if d > dist[j]:
                    continue
                for t, (w, s) in adj[j].items():
                    cand = d + w
                    if cand < dist[t]:
                        dist[t] = cand
                        pred[t] = (j, s)
                        heapq.heappush(heap, (cand, t))
            self._B.append(dist)
            self._pred.append(pred)
        if self._use_numpy:
            B = _np.array(self._B, dtype=_np.float64).reshape(nb, nb)
            B.flags.writeable = False
            self._B_array = B

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require_node(self, node: Node) -> None:
        if node not in self._node_set:
            raise GraphError(f"node {node!r} not in index")

    def _memo(self, sources: Iterable[Node]) -> list:
        """Each source's memoized full answer: a vector or a dict.

        Fills the FIFO memo for cold sources and lands one hit / miss /
        eviction tally per call (not per source) in the
        ``shard_source_cache_*`` counters.
        """
        cache = self._source_cache
        full = self._vector if self._use_numpy else self._full_map
        out = []
        misses = evictions = 0
        for source in sources:
            entry = cache.get(source)
            if entry is None:
                self._require_node(source)
                entry = full(source)
                misses += 1
                evictions += evict_for_insert(cache, self.MAX_CACHED_SOURCES)
                cache[source] = entry
            out.append(entry)
        if len(out) > misses:
            self._hits_counter.inc(len(out) - misses)
        if misses:
            self._misses_counter.inc(misses)
        if evictions:
            self._evictions_counter.inc(evictions)
        return out

    def _vector(self, source: Node):
        """``source``'s global distance vector (read-only float64).

        The same three phases as :meth:`_full_map`, on arrays over the
        graph's node order; each candidate is the same single IEEE add
        and ``min`` is exact, so every entry is bit-identical to the
        dict path's (``inf`` where that one has no entry).
        """
        out = _np.full(len(self._col), _INF)
        # Local phase: scatter each home shard's vector into its columns.
        for s in self.plan.shards_of(source):
            cols = self._shard_cols[s]
            out[cols] = _np.minimum(
                out[cols], self._shards[s].distance_vector(source)
            )
        local_hits = int(_np.count_nonzero(out < _INF))
        cross_hits = 0
        if len(self._boundary_cols):
            # Boundary potential: g[j] = min_i local(source, b_i) + B[i][j].
            d0 = out[self._boundary_cols]
            g = (d0[:, None] + self._B_array).min(axis=0)
            # Cross phase: relax every shard through its boundary members.
            improved = _np.zeros(len(out), dtype=bool)
            for s, members in enumerate(self._shard_boundary):
                if not members:
                    continue
                cols = self._shard_cols[s]
                current = out[cols]
                hit = _np.zeros(len(cols), dtype=bool)
                for b2 in members:
                    base = g[self._bindex[b2]]
                    if base == _INF:
                        continue
                    cand = base + self._shards[s].distance_vector(b2)
                    hit |= cand < current
                    _np.minimum(current, cand, out=current)
                out[cols] = current
                improved[cols[hit]] = True
            cross_hits = int(_np.count_nonzero(improved))
        self._local_counter.inc(local_hits)
        self._cross_counter.inc(cross_hits)
        out.flags.writeable = False
        return out

    def _full_map(self, source: Node) -> dict[Node, float]:
        """``source``'s global distance dict (finite entries only).

        The stdlib kernel, and the reference the vector path is tested
        against.
        """
        out: dict[Node, float] = {}
        # Local phase: shard-resident answers (upper bounds; exact when
        # the shortest path never leaves the shard).
        for s in self.plan.shards_of(source):
            sweep = self._shards[s].distances_from(source, self._shard_nodes[s])
            for node, d in sweep.items():
                if d < out.get(node, _INF):
                    out[node] = d
        local_hits = len(out)
        # Boundary potential: g[j] = min_i local(source, b_i) + B[i][j].
        boundary = self.plan.boundary
        nb = len(boundary)
        cross_hits = 0
        if nb:
            sb = [
                (i, out[b]) for i, b in enumerate(boundary) if b in out
            ]
            g = [_INF] * nb
            for i, d0 in sb:
                row = self._B[i]
                for j in range(nb):
                    cand = d0 + row[j]
                    if cand < g[j]:
                        g[j] = cand
            # Cross phase: relax every shard through its boundary members.
            cross_nodes: set[Node] = set()
            for s in range(self.plan.num_shards):
                for b2 in self._shard_boundary[s]:
                    base = g[self._bindex[b2]]
                    if base == _INF:
                        continue
                    sweep = self._shards[s].distances_from(
                        b2, self._shard_nodes[s]
                    )
                    for node, d in sweep.items():
                        cand = base + d
                        if cand < out.get(node, _INF):
                            cross_nodes.add(node)
                            out[node] = cand
            cross_hits = len(cross_nodes)
        self._local_counter.inc(local_hits)
        self._cross_counter.inc(cross_hits)
        return out

    def distance(self, u: Node, v: Node) -> float:
        """Exact shortest-path distance; ``inf`` when disconnected."""
        self._require_node(u)
        if u == v:
            return 0.0
        self._require_node(v)
        (full,) = self._memo((u,))
        if self._use_numpy:
            return full.item(self._col[v])
        return full.get(v, _INF)

    def distances_from(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Batched ``{target: distance}`` from one source (memoized).

        With numpy one gather from the source's vector plus
        ``.tolist()``, so the values are plain Python floats.
        """
        (full,) = self._memo((source,))
        if self._use_numpy:
            target_list = list(targets)
            gathered = full[self._cols_of(target_list)].tolist()
            return dict(zip(target_list, gathered))
        out: dict[Node, float] = {}
        for target in targets:
            if target == source:
                out[target] = 0.0
                continue
            d = full.get(target)
            if d is None:
                self._require_node(target)
                d = _INF
            out[target] = d
        return out

    def distances_many(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> dict[tuple[Node, Node], float]:
        """All-pairs ``{(source, target): distance}`` over two node sets."""
        return all_pairs_distances(self, sources, targets)

    def distance_matrix(self, sources: Iterable[Node], targets: Iterable[Node]):
        """``(len(sources), len(targets))`` float64 distance matrix.

        With numpy, row ``i`` is one gather from ``sources[i]``'s memoized
        vector; without, :meth:`distances_from` rows are stacked.  Row
        for row it is bit-identical to :meth:`distances_from`.
        """
        if not self._use_numpy:
            return distance_matrix_from_rows(self, sources, targets)
        cols = self._cols_of(targets)
        vectors = self._memo(sources)
        out = _np.empty((len(vectors), len(cols)))
        for i, vector in enumerate(vectors):
            out[i] = vector[cols]
        return out

    # ------------------------------------------------------------------
    # path reconstruction
    # ------------------------------------------------------------------
    def _local_boundary(self, node: Node) -> dict[Node, tuple[float, int]]:
        """``{boundary: (shard-local distance, shard)}`` for ``node``."""
        out: dict[Node, tuple[float, int]] = {}
        for s in self.plan.shards_of(node):
            members = self._shard_boundary[s]
            if not members:
                continue
            for b, d in self._shards[s].distances_from(node, members).items():
                if d == _INF:
                    continue
                known = out.get(b)
                if known is None or d < known[0]:
                    out[b] = (d, s)
        return out

    def _summary_path(self, i: int, j: int) -> list[Node]:
        """Expanded node path between boundary positions ``i`` and ``j``."""
        boundary = self.plan.boundary
        if i == j:
            return [boundary[i]]
        hops: list[tuple[int, int, int]] = []  # (from, to, shard)
        at = j
        while at != i:
            step = self._pred[i][at]
            if step is None:  # pragma: no cover - caller checked B[i][j]
                raise GraphError(
                    f"no path between {boundary[i]!r} and {boundary[j]!r}"
                )
            prev, shard = step
            hops.append((prev, at, shard))
            at = prev
        path = [boundary[i]]
        for prev, to, shard in reversed(hops):
            segment = self._shards[shard].path(boundary[prev], boundary[to])
            path.extend(segment[1:])
        return path

    def path(self, u: Node, v: Node) -> list[Node]:
        """Exact shortest path as a node list (``[u, ..., v]``).

        Picks the minimizing decomposition — shard-local, or
        ``u -> b1 -> ... -> b2 -> v`` through the boundary summary — and
        expands each segment with the owning shard's own
        :meth:`PrunedLandmarkLabeling.path`.  On graphs with unique
        shortest paths (all differential/identity suites) any minimizing
        decomposition concatenates to that unique path, so the result
        matches the monolithic oracle node for node.
        """
        self._require_node(u)
        if u == v:
            return [u]
        self._require_node(v)
        local_best, local_shard = _INF, -1
        shards_v = set(self.plan.shards_of(v))
        for s in self.plan.shards_of(u):
            if s not in shards_v:
                continue
            d = self._shards[s].distance(u, v)
            if d < local_best:
                local_best, local_shard = d, s
        su = self._local_boundary(u)
        sv = self._local_boundary(v)
        cross_best = _INF
        cross_args: tuple | None = None
        for b1, (d1, s1) in su.items():
            i = self._bindex[b1]
            row = self._B[i]
            for b2, (d2, s2) in sv.items():
                j = self._bindex[b2]
                total = d1 + row[j] + d2
                if total < cross_best:
                    cross_best = total
                    cross_args = (b1, s1, i, b2, s2, j)
        if local_best == _INF and cross_best == _INF:
            raise GraphError(f"no path between {u!r} and {v!r}")
        if local_best <= cross_best:
            return self._shards[local_shard].path(u, v)
        b1, s1, i, b2, s2, j = cross_args
        path = self._shards[s1].path(u, b1)
        path.extend(self._summary_path(i, j)[1:])
        path.extend(self._shards[s2].path(b2, v)[1:])
        return path

    # ------------------------------------------------------------------
    # write path (per shard, same plan)
    # ------------------------------------------------------------------
    def clone(self, graph: Graph) -> "ShardedPLLOracle":
        """A copy-on-write copy of this oracle over ``graph``.

        ``graph`` is the graph the copy should own: this oracle's graph
        with the pending delta applied or about to be, over the same
        node set and plan.  Every shard PLL, the topology and the
        boundary summary are shared; :meth:`apply` and
        :meth:`rebuild_shards` replace a shard on the copy the first
        time they write to it, and recompute the summary into fresh
        objects.  The original is never mutated, so a solve still
        holding it keeps its answers.  No PLL is built.
        """
        if set(graph.nodes()) != self._node_set:
            raise GraphError("a sharded clone must keep the plan's node set")
        index = type(self).__new__(type(self))
        index._graph = graph
        index.plan = self.plan
        index._node_set = self._node_set
        index._shard_nodes = self._shard_nodes
        index._shard_boundary = self._shard_boundary
        index._bindex = self._bindex
        index._use_numpy = self._use_numpy
        index._shards = list(self._shards)
        if self._use_numpy:
            index._col = self._col
            index._boundary_cols = self._boundary_cols
            index._shard_cols = list(self._shard_cols)
            index._B_array = self._B_array
        index._summary_adj = self._summary_adj
        index._B = self._B
        index._pred = self._pred
        index._init_instruments()
        return index

    @property
    def replaced_shards(self) -> tuple[int, ...]:
        """Shards this copy no longer shares with the oracle it was cloned from."""
        return tuple(sorted(self._owned))

    def _shards_holding(self, u: Node, v: Node) -> list[int]:
        """Every shard that holds both ``u`` and ``v`` (so the edge ``{u, v}``)."""
        of_v = self.plan.shards_of(v)
        return [s for s in self.plan.shards_of(u) if s in of_v]

    def apply(self, steps: Iterable[tuple]) -> None:
        """Absorb ``("edge", u, v, weight)`` steps, one PLL ``apply`` per shard.

        Each step (an insertion or a weight decrease) goes, in order, to
        every shard holding both endpoints, copied first if still
        shared; the boundary summary is then rebuilt and the memo
        cleared once.  A ``("node", n)`` step or an edge that no shard
        holds changes the plan: it raises :class:`GraphError` before
        anything is written.
        """
        steps = list(steps)
        per_shard: dict[int, list[tuple]] = {}
        for step in steps:
            shards = self._shards_holding(*step[1:3]) if step[0] == "edge" else ()
            if not shards:
                raise GraphError(f"{step!r} changes the shard plan; rebuild instead")
            for s in shards:
                per_shard.setdefault(s, []).append(step)
        for s, shard_steps in per_shard.items():
            self._writable(s).apply(shard_steps)
        for _, u, v, weight in steps:
            self._graph.add_edge(u, v, weight=weight)
        updates = sum(map(len, per_shard.values()))  # one per (step, shard)
        self._after_update(list(per_shard), "shard_updates_incremental", updates)

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
        """Absorb a new edge ``{u, v}`` (or a weight decrease) per shard."""
        self.apply([("edge", u, v, weight)])

    def add_node(self, node: Node) -> None:
        """Refused: a new node changes the shard plan, so callers rebuild."""
        self.apply([("node", node)])

    def partial_rebuild(
        self, touched: Iterable[tuple] | None
    ) -> Callable[[Graph], ShardedPLLOracle] | None:
        """A function that rebuilds, on a clone, the shards ``touched`` reaches.

        An edge ``(u, v)`` reaches every shard holding both endpoints,
        and a reweighted node ``(n,)`` every shard holding it.  ``None``
        when the node set changed or an edge lies in no shard: the plan
        changed, so only a new oracle is exact.
        """
        if touched is None:
            return None
        held = [self._shards_holding(item[0], item[-1]) for item in touched]
        if not all(held):
            return None

        def rebuild(graph: Graph) -> ShardedPLLOracle:
            index = self.clone(graph)
            index.rebuild_shards(set().union(*held))
            return index

        return rebuild

    def rebuild_shards(self, shards: Iterable[int]) -> None:
        """Rebuild the named shards from this oracle's graph.

        For changes a 2-hop cover cannot absorb in place (weight
        increases, removals, reweighted folds) on an unchanged plan:
        each named shard gets a fresh PLL over its induced subgraph of
        the current graph, the rest are kept, and the boundary summary
        is recomputed.  Exact because a shard's subgraph is all its
        labels depend on.
        """
        shards = sorted(set(shards))
        for s in shards:
            self._shards[s] = self._build_shard(s)
            if self._use_numpy:
                self._shard_cols[s] = self._cols_of(self._shards[s]._order)
            self._owned.add(s)
        self._after_update(shards, "shard_updates_rebuilt", len(shards))

    def _writable(self, s: int) -> PrunedLandmarkLabeling:
        """Shard ``s``'s PLL, copied first if still shared with the original."""
        if s not in self._owned:
            pll = self._shards[s].clone()
            pll._obs_shard = s
            self._shards[s] = pll
            self._owned.add(s)
        return self._shards[s]

    def _after_update(self, shards: list[int], counter: str, updates: int) -> None:
        """Recompute what depends on the updated ``shards``.

        Also stamps how many shards this copy has replaced, as
        ``shards``, on the enclosing span (the engine's
        ``engine.journal_replay``).
        """
        if any(len(self._shard_boundary[s]) >= 2 for s in shards):
            # Only shards with two or more boundary nodes feed the summary.
            self._build_boundary_summary()
        self._source_cache.clear()
        self._publish_label_bytes(shards)
        obs.global_registry().counter(counter).inc(updates)
        span = obs.current_span()
        if span is not None:
            span.set_attribute("shards", len(self._owned))

    def invalidate(self) -> None:
        """Drop memoized query state (labels stay valid)."""
        self._source_cache.clear()
        for pll in self._shards:
            pll.invalidate()

    # ------------------------------------------------------------------
    # introspection / persistence hooks
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    def shard_index(self, i: int) -> PrunedLandmarkLabeling:
        """The per-shard PLL (tests, benchmarks, persistence)."""
        return self._shards[i]

    def label_bytes(self, i: int | None = None) -> int:
        """Label memory (16 bytes/entry: u32 rank + f64 dist + i32 parent)."""
        if i is not None:
            return self._shards[i].total_label_entries * 16
        return sum(pll.total_label_entries * 16 for pll in self._shards)

    @property
    def total_label_entries(self) -> int:
        return sum(pll.total_label_entries for pll in self._shards)

    def export_state(self) -> tuple[list[dict], dict]:
        """``(per-shard flat label states, boundary summary document)``.

        The label states are zero-copy
        :meth:`PrunedLandmarkLabeling.export_flat_labels` exports; the
        boundary document carries the boundary node list plus the raw
        summary edges ``[i, j, weight, shard]`` (the all-pairs matrix is
        recomputed deterministically from them on load — a handful of
        tiny Dijkstras, not a label build).
        """
        edges = [
            [i, j, w, s]
            for i, row in enumerate(self._summary_adj)
            for j, (w, s) in sorted(row.items())
        ]
        boundary_doc = {"boundary": list(self.plan.boundary), "edges": edges}
        return [pll.export_flat_labels() for pll in self._shards], boundary_doc

    @classmethod
    def from_state(
        cls,
        graph: Graph,
        plan: ShardPlan,
        shard_labels: Iterable[dict],
        boundary_doc: dict,
    ) -> "ShardedPLLOracle":
        """Reassemble a sharded oracle from persisted state — zero builds.

        Each shard's labels are adopted via
        :meth:`PrunedLandmarkLabeling.from_flat_labels` (which validates
        the landmark order against the shard subgraph, so a plan/label
        mismatch surfaces as :class:`GraphError` rather than wrong
        distances); ``pll_build_count`` is never bumped.
        """
        self = cls.__new__(cls)
        self._init_topology(graph, plan)
        states = list(shard_labels)
        if len(states) != plan.num_shards:
            raise GraphError(
                f"snapshot carries {len(states)} shard label sets for a "
                f"{plan.num_shards}-shard plan"
            )
        boundary = boundary_doc.get("boundary")
        if list(boundary or ()) != list(plan.boundary):
            raise GraphError(
                "snapshot boundary nodes disagree with the shard plan"
            )
        self._shards = []
        for i, (shard, state) in enumerate(zip(plan.shards, states)):
            pll = PrunedLandmarkLabeling.from_flat_labels(
                graph.subgraph(shard), state
            )
            pll._obs_shard = i
            self._shards.append(pll)
        self._init_columns()
        nb = len(plan.boundary)
        adj: list[dict[int, tuple[float, int]]] = [{} for _ in range(nb)]
        try:
            for i, j, w, s in boundary_doc.get("edges", ()):
                i, j, s = int(i), int(j), int(s)
                w = float(w)
                if not (0 <= i < nb and 0 <= j < nb and 0 <= s < plan.num_shards):
                    raise GraphError("boundary summary edge out of range")
                adj[i][j] = (w, s)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"malformed boundary summary ({exc})") from None
        self._summary_adj = adj
        self._apsp()
        self._init_instruments()
        self._publish_label_bytes(range(plan.num_shards))
        return self
