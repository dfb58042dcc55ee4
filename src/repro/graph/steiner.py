"""Steiner tree solvers: exact Dreyfus–Wagner and an MST 2-approximation.

The paper's ``Exact`` baseline performs exhaustive search for an
(SA-CA-CC)-optimal team.  Once a skill -> expert assignment is fixed, the
optimal remaining choice is the cheapest connected subgraph containing the
chosen skill holders, where "cheapest" charges both edge weights
(communication cost) and *node* weights (connector inverse-authority).
That is exactly the node-weighted Steiner tree problem, solved here with a
Dreyfus–Wagner dynamic program extended with node costs:

``dp[S][v]`` = minimum cost of a tree containing terminal set ``S`` and
node ``v``, where cost = sum of edge weights + sum of ``node_cost(x)``
over tree nodes ``x != v`` (the root's cost is excluded so that merging
two subtrees at ``v`` never double-charges ``v``).

* base:   ``dp[{t}][v]`` = node-cost shortest path from terminal ``t``
  to ``v`` (interior nodes charged, endpoints not);
* merge:  ``dp[S1 | S2][v] <= dp[S1][v] + dp[S2][v]``;
* grow:   one multi-source Dijkstra per mask relaxes
  ``dp[S][v] <= dp[S][u] + w(u, v) + node_cost(u)`` over graph edges.

With ``node_cost = 0`` this is the classic edge-weighted Dreyfus–Wagner.
Terminal node costs are forced to zero: in the team-formation reduction,
skill holders are charged through the SA term by the caller, never as
connectors.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence

from .adjacency import Graph, GraphError, Node
from .dijkstra import dijkstra, dijkstra_with_node_costs, reconstruct_path
from .unionfind import UnionFind

__all__ = [
    "minimum_spanning_tree",
    "mst_steiner_tree",
    "dreyfus_wagner",
    "MAX_DW_TERMINALS",
]

_INF = float("inf")

#: Guard against accidental exponential blow-ups: the DW table has
#: ``2^(t-1) * n`` entries.  The paper's Exact tops out at 6 skills.
MAX_DW_TERMINALS = 12


def minimum_spanning_tree(graph: Graph) -> Graph:
    """Kruskal MST (of a connected graph) as a new :class:`Graph`.

    For disconnected graphs this returns the minimum spanning *forest*.
    Node attributes are copied over.
    """
    forest = Graph()
    for node in graph.nodes():
        forest.add_node(node, **graph.node_data(node))
    uf = UnionFind(graph.nodes())
    for u, v, w in sorted(graph.edges(), key=lambda e: e[2]):
        if uf.union(u, v):
            forest.add_edge(u, v, weight=w)
    return forest


def mst_steiner_tree(
    graph: Graph, terminals: Sequence[Node], *, oracle=None
) -> Graph:
    """Metric-closure MST 2-approximation of the Steiner tree.

    Classic Kou–Markowsky–Berman scheme: build the complete graph on the
    terminals under shortest-path distance, take its MST, expand each MST
    edge back into an actual shortest path, take an MST of the expansion
    and prune non-terminal leaves.

    ``oracle`` optionally supplies the closure's distances and paths from
    a shared :class:`repro.graph.distance.DistanceOracle` over ``graph``.
    Callers that rebuild many trees over one routing graph (local-search
    refinement, replacement ranking) pass a cached oracle so terminal
    shortest-path trees are computed once instead of once per rebuild.
    """
    terminals = list(dict.fromkeys(terminals))
    _validate_terminals(graph, terminals)
    if len(terminals) == 1:
        single = Graph()
        single.add_node(terminals[0], **graph.node_data(terminals[0]))
        return single

    # Metric closure restricted to terminal pairs.
    closure = Graph()
    paths: dict[tuple[Node, Node], list[Node]] = {}
    if oracle is not None:
        for i, t in enumerate(terminals):
            rest = terminals[i + 1 :]
            dist = oracle.distances_from(t, rest)
            for other in rest:
                if dist[other] == _INF:
                    raise GraphError(
                        f"terminals {t!r} and {other!r} are disconnected"
                    )
                closure.add_edge(t, other, weight=dist[other])
                paths[(t, other)] = oracle.path(t, other)
    else:
        for i, t in enumerate(terminals):
            dist, parent = dijkstra(graph, t, targets=terminals[i + 1 :])
            for other in terminals[i + 1 :]:
                if other not in dist:
                    raise GraphError(f"terminals {t!r} and {other!r} are disconnected")
                closure.add_edge(t, other, weight=dist[other])
                paths[(t, other)] = reconstruct_path(parent, other)

    expanded = Graph()
    for u, v, _ in minimum_spanning_tree(closure).edges():
        path = paths.get((u, v)) or paths[(v, u)]
        for a, b in itertools.pairwise(path):
            expanded.add_edge(a, b, weight=graph.weight(a, b))
    pruned = _prune_nonterminal_leaves(minimum_spanning_tree(expanded), terminals)
    for node in pruned.nodes():
        pruned.node_data(node).update(graph.node_data(node))
    return pruned


def dreyfus_wagner(
    graph: Graph,
    terminals: Sequence[Node],
    *,
    node_cost: Callable[[Node], float] | None = None,
) -> tuple[float, Graph]:
    """Exact (node-weighted) Steiner tree.

    Returns ``(cost, tree)`` where ``cost`` charges every edge of the tree
    plus ``node_cost(x)`` for every non-terminal tree node ``x``.  Raises
    :class:`GraphError` for more than :data:`MAX_DW_TERMINALS` terminals or
    disconnected terminals.
    """
    terminals = list(dict.fromkeys(terminals))
    _validate_terminals(graph, terminals)
    if len(terminals) > MAX_DW_TERMINALS:
        raise GraphError(
            f"{len(terminals)} terminals exceed MAX_DW_TERMINALS="
            f"{MAX_DW_TERMINALS}; use mst_steiner_tree instead"
        )
    terminal_set = set(terminals)
    raw_cost = node_cost or (lambda _: 0.0)

    def cost_of(node: Node) -> float:
        return 0.0 if node in terminal_set else raw_cost(node)

    if len(terminals) == 1:
        single = Graph()
        single.add_node(terminals[0], **graph.node_data(terminals[0]))
        return 0.0, single

    root, others = terminals[0], terminals[1:]
    t = len(others)
    full = (1 << t) - 1

    # dp[mask] maps node -> cost; choice records how each entry was formed.
    dp: list[dict[Node, float]] = [dict() for _ in range(full + 1)]
    choice: dict[tuple[int, Node], tuple] = {}
    base_parents: list[dict[Node, Node | None]] = []

    for i, term in enumerate(others):
        dist, parent = dijkstra_with_node_costs(graph, term, cost_of)
        base_parents.append(parent)
        mask = 1 << i
        entries = dp[mask]
        for v, d in dist.items():
            entries[v] = d - cost_of(v)
            choice[(mask, v)] = ("base", i)

    for mask in _masks_by_popcount(full):
        if mask.bit_count() < 2:
            continue
        entries = dp[mask]
        # Merge step over proper submasks containing the lowest set bit
        # (canonical form halves the submask enumeration).
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub > 0:
            if sub & low:
                rest = mask ^ sub
                left, right = dp[sub], dp[rest]
                smaller, larger = (
                    (left, right) if len(left) < len(right) else (right, left)
                )
                for v, dl in smaller.items():
                    dr = larger.get(v)
                    if dr is None:
                        continue
                    total = dl + dr
                    if total < entries.get(v, _INF):
                        entries[v] = total
                        choice[(mask, v)] = ("merge", sub)
            sub = (sub - 1) & mask
        _grow(graph, cost_of, entries, choice, mask)

    if root not in dp[full]:
        raise GraphError("terminals are disconnected")
    best_cost = dp[full][root]

    edges: set[tuple[Node, Node]] = set()
    _reconstruct(full, root, choice, base_parents, others, edges)
    tree = Graph()
    # Insertion order fixes the tree's edge order, and so the last bit of
    # any sum over it: never iterate a set here.
    for node in dict.fromkeys((root, *others)):
        tree.add_node(node, **graph.node_data(node))
    for u, v in sorted(edges, key=repr):
        tree.add_edge(u, v, weight=graph.weight(u, v))
    for node in tree.nodes():
        tree.node_data(node).update(graph.node_data(node))
    return best_cost, tree


def _grow(
    graph: Graph,
    cost_of: Callable[[Node], float],
    entries: dict[Node, float],
    choice: dict[tuple[int, Node], tuple],
    mask: int,
) -> None:
    """Dijkstra relaxation of ``dp[mask]`` over graph edges (in place)."""
    heap: list[tuple[float, int, Node, Node | None]] = []
    counter = 0
    for v, d in entries.items():
        heap.append((d, counter, v, None))
        counter += 1
    heapq.heapify(heap)
    settled: set[Node] = set()
    while heap:
        d, _, u, via = heapq.heappop(heap)
        if u in settled or d > entries.get(u, _INF):
            continue
        settled.add(u)
        if via is not None:
            entries[u] = d
            choice[(mask, u)] = ("grow", via)
        step = cost_of(u)
        for v, w in graph.neighbors(u).items():
            if v in settled:
                continue
            nd = d + w + step
            if nd < entries.get(v, _INF):
                entries[v] = nd
                choice[(mask, v)] = ("grow", u)
                heapq.heappush(heap, (nd, counter, v, u))
                counter += 1


def _reconstruct(
    mask: int,
    v: Node,
    choice: dict[tuple[int, Node], tuple],
    base_parents: list[dict[Node, Node | None]],
    others: Sequence[Node],
    edges: set[tuple[Node, Node]],
) -> None:
    """Collect tree edges for dp[mask][v] by unwinding recorded choices."""
    while True:
        how = choice[(mask, v)]
        if how[0] == "grow":
            u = how[1]
            edges.add(_ordered(u, v))
            v = u
        elif how[0] == "merge":
            sub = how[1]
            _reconstruct(sub, v, choice, base_parents, others, edges)
            mask = mask ^ sub
        else:  # ("base", i): walk the node-cost Dijkstra parents to terminal i
            i = how[1]
            parent = base_parents[i]
            node = v
            while (prev := parent[node]) is not None:
                edges.add(_ordered(prev, node))
                node = prev
            return


def _ordered(u: Node, v: Node) -> tuple[Node, Node]:
    """Canonical undirected edge key (stable across id types)."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


def _masks_by_popcount(full: int) -> list[int]:
    return sorted(range(1, full + 1), key=int.bit_count)


def _validate_terminals(graph: Graph, terminals: Sequence[Node]) -> None:
    if not terminals:
        raise GraphError("at least one terminal is required")
    missing = [t for t in terminals if not graph.has_node(t)]
    if missing:
        raise GraphError(f"terminals not in graph: {missing!r}")


def _prune_nonterminal_leaves(tree: Graph, terminals: Sequence[Node]) -> Graph:
    keep = set(terminals)
    out = tree.copy()
    changed = True
    while changed:
        changed = False
        for node in list(out.nodes()):
            if node not in keep and out.degree(node) <= 1:
                out.remove_node(node)
                changed = True
    return out
