"""Distance oracle abstraction used by the team-search algorithms.

Algorithm 1 is oracle-agnostic: it only needs ``DIST(root, v)`` and, for
materializing the final team, the corresponding path.  Every oracle's
``path`` is a graph Dijkstra over its own graph (the Dijkstra oracle
reads it from its cached tree); the 2-hop covers store distances only.
Two interchangeable implementations are provided:

* :class:`DijkstraOracle` — no preprocessing; runs (and caches) one
  Dijkstra per distinct source.  Best for one-off queries and small
  graphs.
* :class:`repro.graph.pll.PrunedLandmarkLabeling` — the paper's 2-hop
  cover; pays an indexing cost once, then answers each query from two
  sorted label rows of one flat store.

These two and :class:`repro.graph.sharded_oracle.ShardedPLLOracle` (one
2-hop cover per shard) satisfy :class:`DistanceOracle`, including its
*batch* entry points ``distances_from`` / ``distances_many`` /
``distance_matrix``.  The greedy sweep asks for one
``distance_matrix(holders, roots)`` per required skill: a float64
ndarray of every holder against every root.  When numpy imports, the
2-hop cover and the sharded oracle memoize each source's distance to
every node as a numpy vector, so a row is one fancy-index gather and the
sweep scores a whole skill with array operations instead of Python
loops.  The Dijkstra oracle stacks ``distances_from`` rows.
``distance_matrix`` needs numpy; without it the PLL answers with its
stdlib kernel and the sweep uses ``distances_from``.  The ablation
benchmark ``benchmarks/bench_ablation_oracle.py`` swaps one
implementation for the other.

Every oracle owns its write path.  ``clone(graph)`` returns a copy over
``graph`` whose writes never reach the original, which may still be
serving a solve.  ``apply(steps)`` absorbs ``("node", node)`` and
``("edge", u, v, weight)`` steps (new nodes, new edges, weight
decreases) in place: the PLL repairs its labels with resumed pruned
Dijkstras, the sharded oracle does so per shard, and the Dijkstra oracle
drops its cached trees.  Any other change needs a rebuild, which
``partial_rebuild(touched)`` may narrow (the sharded oracle rebuilds only the
touched shards).  The caller decides which path a change takes: when
the oracle's graph is *shared* and already mutated, ``apply`` cannot see
the pre-mutation weight, so its own increase guard is best-effort only.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
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
from .sharded_oracle import ShardedPLLOracle

__all__ = [
    "DistanceOracle",
    "DijkstraOracle",
    "build_oracle",
    "restore_oracle",
]


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that answers exact shortest-path distance and path queries.

    The write side (``clone``, ``apply``, ``partial_rebuild``) lets a caller
    bring a copy up to date with a changed graph without knowing which
    oracle it holds; see the module docstring.
    """

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

    def clone(self, graph: Graph) -> "DistanceOracle":
        """A copy over ``graph`` whose writes never reach this oracle."""
        ...

    def apply(self, steps: Iterable[tuple]) -> None:
        """Absorb ``("node", n)`` / ``("edge", u, v, w)`` steps in order."""
        ...

    def partial_rebuild(
        self, touched: Iterable[tuple] | None
    ) -> Callable[[Graph], DistanceOracle] | None:
        """How to rebuild a copy after a change ``apply`` cannot absorb.

        ``touched`` names what changed: ``(u, v)`` per changed edge and
        ``(node,)`` per node whose incident edges were all reweighted;
        ``None`` when the node set changed.  Returns a function from the
        new graph to an updated copy that rebuilds only what the change
        reaches, or ``None`` when only a full build is exact.
        """
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

    Nothing is precomputed, so :meth:`apply` absorbs any change by
    writing it to the graph and dropping the cached trees.
    """

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
    # write path
    # ------------------------------------------------------------------
    def clone(self, graph: Graph) -> "DijkstraOracle":
        """A fresh oracle over ``graph`` (no trees to share)."""
        return DijkstraOracle(graph, max_cached_sources=self._max_cached)

    def apply(self, steps: Iterable[tuple]) -> None:
        """Write ``steps`` to the graph, then drop the cached trees."""
        try:
            for step in steps:
                if step[0] == "node":
                    self._graph.add_node(step[1])
                    continue
                _, u, v, weight = step
                for node in (u, v):
                    if not self._graph.has_node(node):
                        raise GraphError(f"node {node!r} not in graph")
                self._graph.add_edge(u, v, weight=weight)
        finally:
            self.invalidate()

    def partial_rebuild(self, touched: Iterable[tuple] | None) -> None:
        """``None``: a lazy oracle has nothing to rebuild in part."""
        return None

    def invalidate(self) -> None:
        """Drop every cached shortest-path tree (they may be stale)."""
        self._cache.clear()

    def add_node(self, node: Node) -> None:
        """Absorb a new isolated node."""
        self.apply([("node", node)])

    def insert_edge(self, u: Node, v: Node, weight: float) -> None:
        """Absorb a new edge or reweighting by invalidating the trees."""
        self.apply([("edge", u, v, weight)])


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
                oracle: DistanceOracle = ShardedPLLOracle(graph, shard_plan)
            else:
                oracle = PrunedLandmarkLabeling(graph)
        else:
            oracle = DijkstraOracle(graph)
    registry.counter(f"oracle_builds_{kind}").inc()
    registry.reservoir("oracle_build").observe(time.perf_counter() - start)
    return oracle


def restore_oracle(
    graph: Graph, states: Iterable[dict], *, shard_plan=None
) -> DistanceOracle:
    """A 2-hop cover adopted from its ``export_state`` label states — no build.

    Picks the class as :func:`build_oracle` does: a
    :class:`~repro.graph.sharded_oracle.ShardedPLLOracle` over
    ``shard_plan`` (one state per shard), else one
    :class:`PrunedLandmarkLabeling` (exactly one state).  States that do
    not fit ``graph`` or the plan raise :class:`GraphError`.
    """
    if shard_plan is not None:
        return ShardedPLLOracle.from_state(graph, shard_plan, states)
    states = tuple(states)
    if len(states) != 1:
        raise GraphError(
            f"a monolithic index has one label state, the entry has {len(states)}"
        )
    return PrunedLandmarkLabeling.from_flat_labels(graph, states[0])
