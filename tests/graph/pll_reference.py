"""Test-only reference: the row-dict PLL write path.

:class:`RowDictReference` keeps the incremental ``add_node`` /
``insert_edge`` this package shipped before writes spliced rows into the
flat label store: every node's label as two Python lists in node-keyed
dicts, tightened in place.  It starts from an index's current labels,
and :meth:`RowDictReference.export_flat_labels` flattens its rows the
way a build does, so a differential test can compare the label columns
of both write paths byte for byte.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

from repro.graph.adjacency import GraphError, Node
from repro.graph.pll import PrunedLandmarkLabeling, _merge_join_min
from repro.graph.pll_kernel import FlatLabelStore


class RowDictReference:
    """Node-keyed label rows, written in place."""

    def __init__(self, index: PrunedLandmarkLabeling) -> None:
        """Copy ``index``'s graph and labels into row dicts."""
        self._graph = index._graph.copy()
        self._order = list(index._order)
        self._rank = dict(index._rank)
        self.incremental_updates = index.incremental_updates
        order = self._order
        self._ranks: dict[Node, list[int]] = {}
        self._dists: dict[Node, list[float]] = {}
        for row, node in enumerate(order):
            row_ranks, row_dists = index._flat.row_lists(row)
            self._ranks[node] = row_ranks
            self._dists[node] = row_dists

    def export_flat_labels(self) -> dict:
        """The rows flattened like a build's, in ``export_flat_labels`` form."""
        flat = FlatLabelStore.from_rows(self._order, self._ranks, self._dists)
        return {
            "order": list(self._order),
            "counts": flat.row_counts(),
            "ranks": flat.ranks,
            "dists": flat.dists,
            "incremental_updates": self.incremental_updates,
        }

    def index(self) -> PrunedLandmarkLabeling:
        """A query index over the reference's graph and labels."""
        return PrunedLandmarkLabeling.from_flat_labels(
            self._graph.copy(), self.export_flat_labels()
        )

    def add_node(self, node: Node) -> None:
        if node in self._rank:
            return
        self._graph.add_node(node)
        rank = len(self._order)
        self._order.append(node)
        self._rank[node] = rank
        self._ranks[node] = [rank]
        self._dists[node] = [0.0]
        self.incremental_updates += 1

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
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
        # Snapshot both endpoint labels *before* any repair, then resume
        # one search per affected hub in ascending rank (priority) order,
        # merging seeds when the same hub covers both endpoints.
        seeds: dict[int, list[tuple[float, Node]]] = {}
        for a, b in ((u, v), (v, u)):
            for rank_h, d_ha in zip(list(self._ranks[a]), list(self._dists[a])):
                seeds.setdefault(rank_h, []).append((d_ha + weight, b))
        for rank_h in sorted(seeds):
            self._resume_pruned_dijkstra(rank_h, seeds[rank_h])
        self.incremental_updates += 1

    def _resume_pruned_dijkstra(
        self, rank_h: int, seeds: list[tuple[float, Node]]
    ) -> None:
        adj = self._graph.adjacency()
        landmark = self._order[rank_h]
        h_ranks, h_dists = self._ranks[landmark], self._dists[landmark]
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
            if _merge_join_min(h_ranks, h_dists, self._ranks[x], self._dists[x]) <= d:
                continue
            settled.add(x)
            self._set_label(x, rank_h, d)
            for y, w in adj[x].items():
                if y in settled:
                    continue
                heapq.heappush(heap, (d + w, counter, y))
                counter += 1

    def _set_label(self, node: Node, rank_h: int, dist: float) -> None:
        ranks = self._ranks[node]
        idx = bisect_left(ranks, rank_h)
        if idx < len(ranks) and ranks[idx] == rank_h:
            self._dists[node][idx] = dist
        else:
            ranks.insert(idx, rank_h)
            self._dists[node].insert(idx, dist)
