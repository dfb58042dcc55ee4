"""Deterministic graph partitioning for sharded PLL serving.

The collaboration graph is cut into ``K`` shards along its natural
separator structure: whole connected components are bin-packed first,
then oversized components are split recursively at articulation points
(``graph/articulation.py``).  Cutting at an articulation point ``a``
replicates ``a`` into every resulting part, so each region's frontier is
a set of genuine single-vertex separators of the *full* graph — the
property the sharded oracle's boundary-distance summary relies on for
exact cross-shard answers (see :mod:`repro.graph.sharded_oracle`).

Everything here is seed-independent and cross-process deterministic:
components are discovered in graph insertion order, articulation points
are examined in insertion order, parts are re-ordered to the parent
graph's insertion order, and ties in bin-packing break toward the lowest
shard index.  The same graph therefore always yields the same
:class:`ShardPlan` — and the same ``plan_hash`` — in every process, which
is what lets snapshots verify the plan instead of serializing it.

A plan from :func:`plan_shards` also records its **leaf regions**: the
regions the recursion stopped at, each with its cut vertices, listed
in bin-packing order.  They let a writer skip re-planning:
:meth:`ShardPlan.same_region` says whether a new edge ``{u, v}`` has
both endpoints in one leaf region, and such an edge leaves the plan
unchanged — same shards, boundary, regions and hash.  The partitioner
only ever cuts at articulation points, so its output depends on the
block–cut-vertex structure of each region it examines, and an edge
inside one leaf region cannot change that structure where it looks:

* Take any ancestor region ``A`` the partitioner split at cut ``c``.
  The leaf region holding ``u`` and ``v`` lies in one part of
  ``A - c`` plus ``c``, so both endpoints lie in one part of ``A - c``
  or one endpoint is ``c``.  Either way ``c`` stays an articulation
  point of ``A`` with the same parts, and the same worst part.
* Adding an edge only removes articulation points and only merges
  parts.  Every other candidate's worst part grows or stays the same,
  so :func:`_best_cut`'s first strict minimum is still ``c``.
* Regions that do not hold both endpoints induce the same subgraph.
  Node order, component membership, region sizes (the ``target`` test
  and the largest-first pick) and the bin-packing inputs do not change.
* A leaf region kept whole because it is biconnected stays biconnected.

By induction over a burst of such edges the plan stays identical.  "Same
shard" is not enough: a shard can hold several regions that meet at a
cut vertex, and an edge between two of them can remove that cut vertex
and so change the plan.  Regions stay out of ``plan_hash`` and out of
snapshots (a restore re-plans through :func:`plan_shards`), and a
hand-built :class:`ShardPlan` has none, so it never vouches for an edge.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from collections.abc import Iterable

from .adjacency import Graph, GraphError, Node
from .articulation import articulation_points
from .components import connected_components

__all__ = ["PartitionError", "ShardPlan", "plan_shards"]


class PartitionError(GraphError):
    """Raised when a shard plan cannot be produced."""


class ShardPlan:
    """An immutable assignment of graph nodes to ``K`` shards.

    ``shards`` is a tuple of per-shard node tuples (each ordered by the
    source graph's insertion order).  Boundary nodes — the articulation
    points the partitioner cut at — are *replicated* into every shard
    that received one of their adjacent parts, so shard node sets may
    overlap exactly on ``boundary``.  Every non-boundary node lives in
    exactly one shard.

    ``regions`` is the tuple of leaf regions the shards were packed
    from, in packing order (each with its cut vertices, ordered by the
    graph's insertion order), or ``None`` for a hand-built plan.  Any
    edge whose endpoints share a region (:meth:`same_region`) leaves
    :func:`plan_shards`'s answer unchanged (see the module docstring).
    Regions are not part of ``plan_hash``.
    """

    __slots__ = (
        "shards", "boundary", "regions", "_membership", "_home", "_region_of",
        "_hash",
    )

    def __init__(
        self,
        shards: Iterable[Iterable[Node]],
        boundary: Iterable[Node],
        *,
        regions: Iterable[Iterable[Node]] | None = None,
    ) -> None:
        self.shards: tuple[tuple[Node, ...], ...] = tuple(
            tuple(shard) for shard in shards
        )
        self.boundary: tuple[Node, ...] = tuple(boundary)
        membership: dict[Node, tuple[int, ...]] = {}
        for i, shard in enumerate(self.shards):
            for node in shard:
                membership[node] = membership.get(node, ()) + (i,)
        self._membership = membership
        self._home = {node: owners[0] for node, owners in membership.items()}
        self.regions: tuple[tuple[Node, ...], ...] | None = (
            None if regions is None else tuple(tuple(r) for r in regions)
        )
        region_of: dict[Node, tuple[int, ...]] = {}
        for i, region in enumerate(self.regions or ()):
            for node in region:
                region_of[node] = region_of.get(node, ()) + (i,)
        self._region_of = region_of
        self._hash: str | None = None

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_nodes(self) -> int:
        """Distinct nodes covered by the plan (boundary counted once)."""
        return len(self._membership)

    def shards_of(self, node: Node) -> tuple[int, ...]:
        """Every shard index containing ``node`` (lowest first)."""
        try:
            return self._membership[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in shard plan") from None

    def home_shard(self, node: Node) -> int:
        """The canonical owner shard (lowest index containing the node)."""
        try:
            return self._home[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in shard plan") from None

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is covered by any shard in the plan."""
        return node in self._membership

    def same_region(self, u: Node, v: Node) -> bool:
        """Whether ``u`` and ``v`` lie in one leaf region of this plan.

        When true, adding the edge ``{u, v}`` provably keeps the plan.
        ``False`` for a plan without regions and for unknown nodes.
        """
        of_v = self._region_of.get(v, ())
        return any(i in of_v for i in self._region_of.get(u, ()))

    @property
    def plan_hash(self) -> str:
        """Stable SHA-256 over the canonical plan serialization.

        Node identity is canonicalized through ``repr`` (the same
        convention as the landmark-order tie-break), so the hash is
        reproducible across processes regardless of ``PYTHONHASHSEED``.
        """
        if self._hash is None:
            doc = {
                "shards": [[repr(n) for n in shard] for shard in self.shards],
                "boundary": [repr(n) for n in self.boundary],
            }
            payload = json.dumps(doc, separators=(",", ":"), sort_keys=True)
            self._hash = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(s) for s in self.shards]
        return (
            f"ShardPlan(shards={sizes}, boundary={len(self.boundary)}, "
            f"hash={self.plan_hash[:12]})"
        )


def _split_at(sub: Graph, cut: Node) -> list[list[Node]]:
    """Connected parts of ``sub`` minus ``cut``, in insertion order."""
    seen = {cut}
    parts: list[list[Node]] = []
    for start in sub.nodes():
        if start in seen:
            continue
        part = [start]
        seen.add(start)
        queue: deque[Node] = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in sub.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    part.append(neighbor)
                    queue.append(neighbor)
        parts.append(part)
    return parts


def _best_cut(sub: Graph) -> tuple[Node, list[list[Node]]] | None:
    """The articulation point whose removal best balances ``sub``.

    Returns ``(cut, parts)`` minimizing the largest part, or ``None``
    when the region is biconnected (no articulation point).  Candidates
    are examined in insertion order, so ties resolve deterministically.
    """
    points = articulation_points(sub)
    if not points:
        return None
    best: tuple[int, Node, list[list[Node]]] | None = None
    for candidate in sub.nodes():
        if candidate not in points:
            continue
        parts = _split_at(sub, candidate)
        worst = max(len(part) for part in parts)
        if best is None or worst < best[0]:
            best = (worst, candidate, parts)
    if best is None:  # pragma: no cover - points came from the same graph
        return None
    return best[1], best[2]


def plan_shards(graph: Graph, k: int) -> ShardPlan:
    """Cut ``graph`` into ``k`` shards along its separator structure.

    Components are regions to start with; any region larger than
    ``ceil(n / k)`` is recursively split at the articulation point that
    minimizes its largest part (the cut vertex is replicated into each
    part and recorded as a boundary node).  Biconnected regions cannot
    be split and are kept whole.  Finally regions are bin-packed
    largest-first onto the least-loaded shard.

    ``k=1`` degenerates to a single shard holding the whole graph with
    an empty boundary.  ``k`` larger than the number of achievable
    regions leaves trailing shards empty.  The returned plan records
    the leaf regions, so :meth:`ShardPlan.same_region` can vouch for
    edges that keep it.
    """
    if k < 1:
        raise PartitionError(f"shard count must be >= 1, got {k}")
    order_index = {node: i for i, node in enumerate(graph.nodes())}
    n = graph.num_nodes
    shards: list[list[Node]] = [[] for _ in range(k)]
    if n == 0:
        return ShardPlan(shards, (), regions=())
    target = -(-n // k)  # ceil(n / k)
    boundary: list[Node] = []
    boundary_seen: set[Node] = set()

    # Components in deterministic (largest-first, then discovery) order,
    # each re-ordered to the parent graph's insertion order.
    holder: list[list[Node]] = []
    where: dict[Node, int] = {}
    components = connected_components(graph)
    for i, component in enumerate(components):
        holder.append([])
        for node in component:
            where[node] = i
    for node in graph.nodes():
        holder[where[node]].append(node)

    work: list[list[Node]] = holder
    regions: list[list[Node]] = []
    while work:
        # Largest region first; earliest on ties (stable max scan).
        pick = 0
        for i in range(1, len(work)):
            if len(work[i]) > len(work[pick]):
                pick = i
        region = work.pop(pick)
        if k == 1 or len(region) <= target or len(region) < 3:
            regions.append(region)
            continue
        sub = graph.subgraph(region)
        cut = _best_cut(sub)
        if cut is None:
            regions.append(region)  # biconnected: cannot split further
            continue
        cut_node, parts = cut
        if cut_node not in boundary_seen:
            boundary_seen.add(cut_node)
            boundary.append(cut_node)
        for part in parts:
            members = set(part)
            members.add(cut_node)
            work.append([node for node in sub.nodes() if node in members])

    # Bin-pack: largest region first (insertion-order tie-break) onto the
    # least-loaded shard, ties toward the lowest shard index.
    regions.sort(key=lambda r: (-len(r), order_index[r[0]]))
    loads = [0] * k
    packed: list[set[Node]] = [set() for _ in range(k)]
    for region in regions:
        shard = min(range(k), key=lambda i: (loads[i], i))
        loads[shard] += len(region)
        packed[shard].update(region)
    for node in graph.nodes():
        for i in range(k):
            if node in packed[i]:
                shards[i].append(node)
    ordered_boundary = sorted(boundary, key=order_index.__getitem__)
    return ShardPlan(shards, ordered_boundary, regions=regions)
