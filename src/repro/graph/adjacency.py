"""Undirected weighted graph with node attributes.

This module is the storage substrate for the whole library.  It is a
deliberately small, dependency-free adjacency-dict implementation: every
algorithm in :mod:`repro.graph` and :mod:`repro.core` operates on
:class:`Graph`.  ``networkx`` is used only inside the test suite as an
independent oracle, never at runtime.

Nodes may be any hashable value (expert ids are typically ``int`` or
``str``).  Edges are undirected and carry a single ``float`` weight; node
attributes are stored in a per-node ``dict``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

Node = Hashable

__all__ = ["Graph", "GraphError", "Node"]


class GraphError(Exception):
    """Raised on structurally invalid graph operations."""


class Graph:
    """An undirected graph with weighted edges and attributed nodes.

    >>> g = Graph()
    >>> g.add_edge("a", "b", weight=2.5)
    >>> g.weight("b", "a")
    2.5
    >>> sorted(g.neighbors("a"))
    ['b']
    """

    __slots__ = ("_adj", "_node_data", "_num_edges")

    def __init__(self) -> None:
        self._adj: dict[Node, dict[Node, float]] = {}
        self._node_data: dict[Node, dict[str, Any]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **data: Any) -> None:
        """Add ``node`` (idempotent); merge ``data`` into its attributes."""
        if node not in self._adj:
            self._adj[node] = {}
            self._node_data[node] = {}
        if data:
            self._node_data[node].update(data)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}``; replaces an existing weight.

        Self-loops are rejected: a team subgraph is a tree and no algorithm
        in the paper is defined over self-loops.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if weight < 0:
            raise GraphError(f"negative edge weight {weight!r} on ({u!r}, {v!r})")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``; raise :class:`GraphError` if absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adj:
            raise GraphError(f"node {node!r} not in graph")
        for neighbor in list(self._adj[node]):
            self.remove_edge(node, neighbor)
        del self._adj[node]
        del self._node_data[node]

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[Node, Node] | tuple[Node, Node, float]]
    ) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        graph = cls()
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                graph.add_edge(u, v)
            else:
                u, v, w = edge  # type: ignore[misc]
                graph.add_edge(u, v, weight=w)
        return graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge ``{u, v}``; raise if absent."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from None

    def neighbors(self, node: Node) -> dict[Node, float]:
        """Return a read-only view-like dict of ``neighbor -> weight``."""
        try:
            return self._adj[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def adjacency(self) -> dict[Node, dict[Node, float]]:
        """The full ``node -> {neighbor: weight}`` mapping (do not mutate).

        Exposed for tight loops (index construction, shortest paths)
        that would otherwise pay one :meth:`neighbors` call per visit.
        """
        return self._adj

    def degree(self, node: Node) -> int:
        """Number of incident edges of ``node``."""
        return len(self.neighbors(node))

    def node_data(self, node: Node) -> dict[str, Any]:
        """Return the mutable attribute dict of ``node``."""
        try:
            return self._node_data[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Yield each undirected edge exactly once as ``(u, v, weight)``."""
        seen: set[Node] = set()
        for u, nbrs in self._adj.items():
            seen.add(u)
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)

    def edges_in_replay_order(self) -> list[tuple[Node, Node, float]]:
        """Edges in an order whose ``add_edge`` replay rebuilds this graph
        *exactly* — same per-node neighbor iteration order.

        Persistence hook.  Several algorithms break exact-cost ties by
        insertion order (Dijkstra's heap counter follows adjacency
        order; the Steiner edge sort is stable over :meth:`edges`), so a
        faithful snapshot must preserve adjacency order, not just the
        edge *set*.  A plain :meth:`edges` dump does not replay
        faithfully: it interleaves each node's neighbors with earlier
        nodes' lists.

        Adding edge ``{u, v}`` appends ``v`` to ``u``'s list and ``u``
        to ``v``'s at the same instant, so per-node neighbor orders are
        cuts of one global sequence — the original insertion sequence is
        a witness that the induced precedence constraints are acyclic.
        A Kahn-style merge recovers *a* valid sequence: repeatedly emit
        an edge that is at the current front of both endpoints' neighbor
        lists (FIFO over discovery, so the result is deterministic).
        """
        cursor = {u: iter(nbrs) for u, nbrs in self._adj.items()}
        head: dict[Node, Node | None] = {
            u: next(cursor[u], None) for u in self._adj
        }
        ready: list[tuple[Node, Node]] = []
        queued: set[frozenset] = set()
        for u, v in head.items():
            if v is not None and head[v] == u:
                pair = frozenset((u, v))
                if pair not in queued:
                    queued.add(pair)
                    ready.append((u, v))
        out: list[tuple[Node, Node, float]] = []
        index = 0
        while index < len(ready):
            u, v = ready[index]
            index += 1
            out.append((u, v, self._adj[u][v]))
            head[u] = next(cursor[u], None)
            head[v] = next(cursor[v], None)
            for x in (u, v):
                y = head[x]
                if y is not None and head[y] == x:
                    ready.append((x, y))
        if len(out) != self._num_edges:  # pragma: no cover - defensive
            raise GraphError("adjacency orders are inconsistent")
        return out

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def total_weight(self) -> float:
        """Sum of all edge weights (each edge counted once)."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes`` (attributes shared by copy).

        Nodes and edges are inserted in the *parent's* insertion order, not
        the (hash-seed dependent) order of the ``nodes`` iterable, so the
        result is bit-for-bit reproducible across processes — the same
        guarantee PR 4 established for ``ExpertNetwork.subnetwork``.

        Built in one pass over the adjacency dicts: each edge is added
        from its endpoint that comes first in the parent's order, which
        reproduces, per node, the neighbor order of inserting the edges
        one by one in that walk.
        """
        keep = set(nodes)
        missing = [n for n in keep if n not in self._adj]
        if missing:
            raise GraphError(f"nodes not in graph: {missing!r}")
        pos: dict[Node, int] = {}
        for node in self._adj:
            if node in keep:
                pos[node] = len(pos)
        sub = Graph()
        adj = sub._adj
        for node in pos:
            adj[node] = {}
            sub._node_data[node] = dict(self._node_data[node])
        num_edges = 0
        for u, p in pos.items():
            row = adj[u]
            for v, w in self._adj[u].items():
                q = pos.get(v)
                if q is not None and q > p:
                    row[v] = w
                    adj[v][u] = w
                    num_edges += 1
        sub._num_edges = num_edges
        return sub

    def copy(self) -> "Graph":
        """A deep structural copy (attribute dicts copied shallowly).

        Every row is copied as it is, neighbor order included, so the
        copy iterates (and breaks ties) exactly like this graph.  Use
        :meth:`subgraph` for the canonical order of a one-by-one build.
        """
        out = Graph()
        out._adj = {node: dict(row) for node, row in self._adj.items()}
        out._node_data = {node: dict(data) for node, data in self._node_data.items()}
        out._num_edges = self._num_edges
        return out

    def reweighted(self, weight_fn) -> "Graph":
        """Return a copy whose edge ``{u, v}`` weighs ``weight_fn(u, v, w)``.

        This is the primitive behind the paper's ``G -> G'`` transformation
        (Section 3.2.2): node weights are folded into new edge weights.
        """
        out = Graph()
        for node in self.nodes():
            out.add_node(node, **self._node_data[node])
        for u, v, w in self.edges():
            out.add_edge(u, v, weight=weight_fn(u, v, w))
        return out

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
