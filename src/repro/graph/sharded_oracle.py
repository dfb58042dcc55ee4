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
only touches those shards.  :meth:`ShardedPLLOracle.insert_edge`
replays an insertion or weight decrease into each of them with the
monolithic index's resumed pruned Dijkstras;
:meth:`ShardedPLLOracle.rebuild_shards` rebuilds just the named shards
from a new graph (weight increases, removals, authority edits under a
fold).  Either way the boundary summary is then recomputed.  Both run
on a :meth:`ShardedPLLOracle.clone`, which shares every shard with the
original and replaces a shard only on its first write, so the original
— possibly still serving a solve — is never mutated.  A change that
alters the plan itself (a new node, an edge that bypasses a cut vertex)
is outside this scheme: the caller builds a fresh oracle over the new
plan.

Determinism: shard subgraphs inherit the parent graph's insertion order,
per-shard builds use the standard deterministic batch schedule,
summary edges resolve ties toward the lowest shard index, and
the summary Dijkstra breaks heap ties by boundary position — the same
graph and plan always produce bit-identical answers in every process.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Iterable

from .. import obs
from .adjacency import Graph, GraphError, Node
from .fifo import evict_for_insert
from .partition import ShardPlan, plan_shards
from .pll import (
    PrunedLandmarkLabeling,
    all_pairs_distances,
    distance_matrix_from_rows,
)

__all__ = ["ShardedPLLOracle"]

_INF = float("inf")


class ShardedPLLOracle:
    """Drop-in :class:`~repro.graph.distance.DistanceOracle` over shards.

    Answers are exactly those of a monolithic
    :class:`PrunedLandmarkLabeling` over the same graph (bit-identical
    on networks whose edge-weight sums are exact in IEEE-754, e.g. the
    dyadic test networks; always equal as real numbers).

    Mutations that keep the plan are absorbed per shard (see the module
    docstring): :meth:`insert_edge` for insertions and weight decreases,
    :meth:`rebuild_shards` for everything else, both meant for a
    :meth:`clone` so the original stays untouched.  :meth:`add_node` is
    refused — a new node changes the plan.
    """

    #: FIFO bound on memoized full distance maps (mirrors the per-source
    #: memo discipline of the monolithic index).
    MAX_CACHED_SOURCES = PrunedLandmarkLabeling.MAX_CACHED_SOURCES

    supports_incremental = True

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

    def _build_shard(self, i: int) -> PrunedLandmarkLabeling:
        """A fresh PLL over shard ``i``'s induced subgraph."""
        pll = PrunedLandmarkLabeling(self._graph.subgraph(self.plan.shards[i]))
        pll._obs_shard = i
        return pll

    def _init_instruments(self) -> None:
        self._source_cache: dict[Node, dict[Node, float]] = {}
        #: Shards this copy replaced since it was cloned (copy-on-write).
        self._owned: set[int] = set()
        registry = obs.global_registry()
        self._local_counter = registry.counter("shard_queries_local")
        self._cross_counter = registry.counter("shard_queries_cross")

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

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require_node(self, node: Node) -> None:
        if node not in self._node_set:
            raise GraphError(f"node {node!r} not in index")

    def _full_map(self, source: Node) -> dict[Node, float]:
        """Memoized global distance map (finite entries) for ``source``."""
        cached = self._source_cache.get(source)
        if cached is not None:
            return cached
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
        evict_for_insert(self._source_cache, self.MAX_CACHED_SOURCES)
        self._source_cache[source] = out
        return out

    def distance(self, u: Node, v: Node) -> float:
        """Exact shortest-path distance; ``inf`` when disconnected."""
        self._require_node(u)
        if u == v:
            return 0.0
        self._require_node(v)
        return self._full_map(u).get(v, _INF)

    def distances_from(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Batched ``{target: distance}`` from one source (memoized)."""
        self._require_node(source)
        full = self._full_map(source)
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
        """``distances_from`` rows stacked into a float64 ndarray."""
        return distance_matrix_from_rows(self, sources, targets)

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
    # mutation protocol (per shard, same plan)
    # ------------------------------------------------------------------
    def clone(self, graph: Graph) -> "ShardedPLLOracle":
        """A copy-on-write copy of this oracle over ``graph``.

        ``graph`` is the graph the copy should own: this oracle's graph
        with the pending delta applied or about to be, over the same
        node set and plan.  Every shard PLL, the topology and the
        boundary summary are shared; :meth:`insert_edge` and
        :meth:`rebuild_shards` replace a shard on the copy the first
        time they write to it, and recompute the summary into fresh
        objects.  The original is never mutated, so a solve still
        holding it keeps its answers.  No PLL is built.
        """
        if graph.num_nodes != len(self._node_set):
            raise GraphError("a sharded clone must keep the plan's node set")
        index = type(self).__new__(type(self))
        index._graph = graph
        index.plan = self.plan
        index._node_set = self._node_set
        index._shard_nodes = self._shard_nodes
        index._shard_boundary = self._shard_boundary
        index._bindex = self._bindex
        index._shards = list(self._shards)
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
        shards = [s for s in self.plan.shards_of(u) if s in of_v]
        if not shards:
            raise GraphError(
                f"edge ({u!r}, {v!r}) lies in no shard; the plan must change"
            )
        return shards

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
        """Absorb a new edge ``{u, v}`` (or a weight decrease) per shard.

        Replays the edge with :meth:`PrunedLandmarkLabeling.insert_edge`
        into every shard holding both endpoints (copying each shard
        first if it is still shared), then recomputes the boundary
        summary.  Raises :class:`GraphError` when no shard holds both
        endpoints: such an edge changes the plan, so the oracle must be
        rebuilt over the new one.
        """
        shards = self._shards_holding(u, v)
        for s in shards:
            self._writable(s).insert_edge(u, v, weight)
        self._graph.add_edge(u, v, weight=weight)
        self._after_update(shards, "shard_updates_incremental")

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
            self._owned.add(s)
        self._after_update(shards, "shard_updates_rebuilt")

    def _writable(self, s: int) -> PrunedLandmarkLabeling:
        """Shard ``s``'s PLL, copied first if still shared with the original."""
        if s not in self._owned:
            pll = self._shards[s].clone()
            pll._obs_shard = s
            self._shards[s] = pll
            self._owned.add(s)
        return self._shards[s]

    def _after_update(self, shards: list[int], counter: str) -> None:
        """Recompute what depends on the updated ``shards``."""
        if any(len(self._shard_boundary[s]) >= 2 for s in shards):
            # Only shards with two or more boundary nodes feed the summary.
            self._build_boundary_summary()
        self._source_cache.clear()
        self._publish_label_bytes(shards)
        obs.global_registry().counter(counter).inc(len(shards))

    def add_node(self, node: Node) -> None:
        """Refused: a new node changes the shard plan, so callers rebuild."""
        raise GraphError(
            "a new node changes the shard plan; build a new sharded oracle"
        )

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
