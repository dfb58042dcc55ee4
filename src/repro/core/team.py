"""The :class:`Team` object (Definition 1) and its structural invariants.

A team is a connected subgraph of the expert network whose nodes cover a
project, together with an explicit skill -> expert assignment
``{<s_1, c_s1>, ..., <s_n, c_sn>}``.  Members that are assigned at least
one skill are *skill holders*; all remaining members are *connectors*
(Definition 3's "all nodes excluding skill holders").
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..graph.adjacency import Graph
from ..graph.components import is_connected
from ..graph.dijkstra import reconstruct_path

__all__ = ["Team", "TeamValidationError", "team_along_parents"]


class TeamValidationError(Exception):
    """Raised when a candidate team violates Definition 1."""


@dataclass(frozen=True)
class Team:
    """A discovered team: its subgraph and skill assignment.

    Parameters
    ----------
    tree:
        The team's subgraph over expert ids, carrying the *original*
        communication-cost edge weights (evaluation normalizes on the
        fly).  Solvers produce trees, but any connected subgraph is
        accepted by Definition 1.
    assignments:
        Mapping from each required skill to the member covering it.
    root:
        The root expert Algorithm 1 grew this team from (diagnostic;
        ``None`` for solvers without a root concept).
    """

    tree: Graph
    assignments: dict[str, str]
    root: str | None = None
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_members", frozenset(self.tree.nodes()))
        if not self._members:
            raise TeamValidationError("a team must have at least one member")

    # ------------------------------------------------------------------
    # membership views
    # ------------------------------------------------------------------
    @property
    def members(self) -> frozenset[str]:
        """All experts in the team (skill holders and connectors)."""
        return self._members

    @property
    def skill_holders(self) -> frozenset[str]:
        """Members assigned at least one required skill."""
        return frozenset(self.assignments.values())

    @property
    def connectors(self) -> frozenset[str]:
        """Members not assigned any skill (Definition 3)."""
        return self._members - self.skill_holders

    @property
    def size(self) -> int:
        return len(self._members)

    def edges(self) -> list[tuple[str, str, float]]:
        """The team subgraph's edges as (u, v, weight) triples."""
        return list(self.tree.edges())

    def holder_of(self, skill: str) -> str:
        """The expert assigned to ``skill``; raises ``KeyError`` if absent."""
        return self.assignments[skill]

    def key(self) -> tuple[frozenset[str], tuple[tuple[str, str], ...]]:
        """Identity for deduplication: member set + sorted assignment."""
        return (self._members, tuple(sorted(self.assignments.items())))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, project: set[str] | frozenset[str], network=None) -> None:
        """Enforce Definition 1; raise :class:`TeamValidationError` if broken.

        Checks: every project skill is assigned; assignees are members;
        the subgraph is connected; and — when ``network`` is given — each
        assignee really holds the skill and every tree edge exists in the
        network with a matching weight.
        """
        missing = set(project) - set(self.assignments)
        if missing:
            raise TeamValidationError(f"unassigned skills: {sorted(missing)}")
        strays = set(self.assignments.values()) - self._members
        if strays:
            raise TeamValidationError(f"assignees outside the team: {sorted(strays)}")
        if not is_connected(self.tree):
            raise TeamValidationError("team subgraph is not connected")
        if network is not None:
            for skill, holder in self.assignments.items():
                if skill not in network.skills_of(holder):
                    raise TeamValidationError(
                        f"{holder!r} is assigned {skill!r} but does not hold it"
                    )
            for u, v, w in self.tree.edges():
                if not network.graph.has_edge(u, v):
                    raise TeamValidationError(
                        f"team edge ({u!r}, {v!r}) missing from the network"
                    )
                if abs(network.graph.weight(u, v) - w) > 1e-9:
                    raise TeamValidationError(
                        f"team edge ({u!r}, {v!r}) weight diverges from network"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Team(size={self.size}, holders={sorted(self.skill_holders)}, "
            f"connectors={sorted(self.connectors)})"
        )


def team_along_parents(
    root: str,
    holders: Iterable[str],
    parent: dict[str, str | None],
    graph: Graph,
    assignment: dict[str, str],
) -> Team:
    """The union of root-to-holder paths along one parent map.

    ``parent`` is one shortest-path tree from ``root`` (a Dijkstra
    parent map), which keeps the union cycle-free; every holder must be
    in it.  Edge weights come from ``graph``, the original network, even
    when the tree was grown on another graph.  ``holders`` fixes the
    order edges enter the team's subgraph, and that order fixes the last
    bit of every sum over it, so each solver passes its own.
    """
    tree = Graph()
    tree.add_node(root)
    for holder in holders:
        path = reconstruct_path(parent, holder)
        for u, v in itertools.pairwise(path):
            if not tree.has_edge(u, v):
                tree.add_edge(u, v, weight=graph.weight(u, v))
    return Team(tree=tree, assignments=dict(assignment), root=root)
