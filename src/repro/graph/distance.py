"""Distance oracle abstraction used by the team-search algorithms.

Algorithm 1 is oracle-agnostic: it only needs ``DIST(root, v)`` and, for
materializing the final team, the corresponding path.  Two interchangeable
implementations are provided:

* :class:`DijkstraOracle` — no preprocessing; runs (and caches) one
  Dijkstra per distinct source.  Best for one-off queries and small
  graphs.
* :class:`repro.graph.pll.PrunedLandmarkLabeling` — the paper's 2-hop
  cover; pays an indexing cost once, then answers each query from two
  sorted label rows of one flat store.

Both satisfy :class:`DistanceOracle`, including its *batch* entry points
``distances_from`` / ``distances_many`` / ``distance_matrix``.  The
greedy sweep asks for one ``distance_matrix(holders, roots)`` per
required skill: a float64 ndarray of every holder against every root.
When numpy imports, the 2-hop cover memoizes each source's distance to
every node as a numpy vector, so a row is one fancy-index gather and the
sweep scores a whole skill with array operations instead of Python
loops.  Oracles without such a vector (Dijkstra, the sharded oracle)
stack ``distances_from`` rows.  ``distance_matrix`` needs numpy;
without it the PLL answers with its stdlib kernel and the sweep uses
``distances_from``.  The ablation
benchmark ``benchmarks/bench_ablation_oracle.py`` swaps one
implementation for the other.

Both oracles are also *dynamic* for distance-decreasing changes and
advertise it with ``supports_incremental``: ``insert_edge`` /
``add_node`` absorb a new edge, a weight decrease or a new node without
rebuilding (the PLL index repairs its labels with resumed pruned
Dijkstras; the Dijkstra oracle simply invalidates its cached trees).
Distance-*increasing* changes (removals, weight increases) require a
rebuild — the engine's version-keyed oracle cache decides per mutation
from the network's journal.  That caller-side check matters: when the
oracle was built over a *shared* graph object that has already been
mutated, ``insert_edge`` cannot see the pre-mutation weight and its own
increase guard is best-effort only.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from typing import Protocol, runtime_checkable

from .. import obs
from .adjacency import Graph, GraphError, Node
from .dijkstra import dijkstra, reconstruct_path
from .fifo import evict_for_insert
from .pll import (
    PrunedLandmarkLabeling,
    all_pairs_distances,
    distance_matrix_from_rows,
)

__all__ = [
    "DistanceOracle",
    "DijkstraOracle",
    "build_oracle",
]


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that answers exact shortest-path distance and path queries.

    ``supports_incremental`` advertises whether the implementation can
    absorb *distance-decreasing* graph changes in place via
    ``insert_edge`` / ``add_node`` (plus ``invalidate`` to drop
    memoized query state).  Implementations that cannot should set it to
    ``False``; callers then rebuild on every mutation.
    """

    supports_incremental: bool

    def distance(self, u: Node, v: Node) -> float:
        """Exact shortest-path distance, ``inf`` when disconnected."""
        ...

    def distances_from(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Batched ``{target: distance}`` from one source."""
        ...

    def distances_many(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> dict[tuple[Node, Node], float]:
        """Batched ``{(source, target): distance}`` over two node sets."""
        ...

    def distance_matrix(self, sources: Iterable[Node], targets: Iterable[Node]):
        """``(len(sources), len(targets))`` float64 ndarray (needs numpy).

        Row ``i`` equals ``distances_from(sources[i], targets)`` bit for
        bit, in target order; repeated sources or targets repeat rows or
        columns, and a source among the targets reads ``0.0``.
        """
        ...

    def path(self, u: Node, v: Node) -> list[Node]:
        """One exact shortest path ``[u, ..., v]``."""
        ...

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
        """Absorb a new edge or weight decrease without rebuilding."""
        ...

    def add_node(self, node: Node) -> None:
        """Absorb a new (isolated) node without rebuilding."""
        ...

    def invalidate(self) -> None:
        """Drop memoized query state derived from the graph."""
        ...


class DijkstraOracle:
    """Lazy per-source Dijkstra with memoized shortest-path trees.

    ``max_cached_sources`` bounds memory: the cache evicts in FIFO order
    once more than that many distinct sources have been queried (a
    caller that queries from every node would otherwise retain ``O(n^2)``
    distances on large graphs).
    """

    #: Nothing is precomputed, so graph changes are absorbed by simply
    #: invalidating the cached trees (see :meth:`insert_edge`).
    supports_incremental = True

    def __init__(self, graph: Graph, *, max_cached_sources: int = 1024) -> None:
        if max_cached_sources < 1:
            raise ValueError("max_cached_sources must be positive")
        self._graph = graph
        self._max_cached = max_cached_sources
        self._cache: dict[Node, tuple[dict[Node, float], dict[Node, Node | None]]] = {}

    def _tree(self, source: Node) -> tuple[dict[Node, float], dict[Node, Node | None]]:
        tree = self._cache.get(source)
        if tree is None:
            evict_for_insert(self._cache, self._max_cached)
            tree = self._cache[source] = dijkstra(self._graph, source)
        return tree

    def distance(self, u: Node, v: Node) -> float:
        """Exact shortest-path distance, ``inf`` when disconnected."""
        if not self._graph.has_node(u) or not self._graph.has_node(v):
            raise GraphError("both endpoints must be graph nodes")
        dist, _ = self._tree(u)
        return dist.get(v, float("inf"))

    def distances_from(
        self, source: Node, targets: Iterable[Node]
    ) -> dict[Node, float]:
        """Batched ``{target: distance}`` from one cached source tree."""
        if not self._graph.has_node(source):
            raise GraphError(f"node {source!r} not in graph")
        dist, _ = self._tree(source)
        out: dict[Node, float] = {}
        inf = float("inf")
        for target in targets:
            if not self._graph.has_node(target):
                raise GraphError(f"node {target!r} not in graph")
            out[target] = dist.get(target, inf)
        return out

    def distances_many(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> dict[tuple[Node, Node], float]:
        """All-pairs ``{(source, target): distance}`` over two node sets."""
        return all_pairs_distances(self, sources, targets)

    def distance_matrix(self, sources: Iterable[Node], targets: Iterable[Node]):
        """``distances_from`` rows stacked into a float64 ndarray."""
        return distance_matrix_from_rows(self, sources, targets)

    def path(self, u: Node, v: Node) -> list[Node]:
        """One exact shortest path ``[u, ..., v]`` from the cached tree."""
        dist, parent = self._tree(u)
        if v not in dist:
            raise GraphError(f"no path from {u!r} to {v!r}")
        return reconstruct_path(parent, v)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached shortest-path tree (they may be stale)."""
        self._cache.clear()

    def add_node(self, node: Node) -> None:
        """Absorb a new isolated node (cached trees stay valid)."""
        self._graph.add_node(node)

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
        """Absorb a new edge or reweighting by invalidating the trees."""
        for node in (u, v):
            if not self._graph.has_node(node):
                raise GraphError(f"node {node!r} not in graph")
        self._graph.add_edge(u, v, weight=weight)
        self.invalidate()


def build_oracle(
    graph: Graph,
    kind: str = "pll",
    *,
    shard_plan=None,
) -> DistanceOracle:
    """Factory: ``"pll"`` (paper's index) or ``"dijkstra"`` (lazy).

    ``shard_plan`` (a :class:`~repro.graph.partition.ShardPlan`) turns
    the ``"pll"`` kind into a
    :class:`~repro.graph.sharded_oracle.ShardedPLLOracle`: one PLL per
    shard plus the boundary-distance summary, answering exactly what the
    monolithic index would.  Ignored for ``"dijkstra"`` (a lazy oracle
    has no label store to shard).

    Instrumented: each build opens an ``oracle.build`` span and lands
    in the ``oracle_builds_<kind>`` counter and the ``oracle_build``
    latency reservoir of the process-wide registry.
    """
    if kind not in ("pll", "dijkstra"):
        raise ValueError(
            f"unknown oracle kind {kind!r}; expected 'pll' or 'dijkstra'"
        )
    registry = obs.global_registry()
    start = time.perf_counter()
    attrs = {"kind": kind, "nodes": len(graph)}
    if shard_plan is not None and kind == "pll":
        attrs["shards"] = shard_plan.num_shards
    with obs.span("oracle.build", **attrs):
        if kind == "pll":
            if shard_plan is not None:
                from .sharded_oracle import ShardedPLLOracle

                oracle: DistanceOracle = ShardedPLLOracle(graph, shard_plan)
            else:
                oracle = PrunedLandmarkLabeling(graph)
        else:
            oracle = DijkstraOracle(graph)
    registry.counter(f"oracle_builds_{kind}").inc()
    registry.reservoir("oracle_build").observe(time.perf_counter() - start)
    return oracle
