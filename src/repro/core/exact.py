"""The paper's ``Exact`` baseline: exhaustive (SA-CA-CC)-optimal search.

Section 4: "Exact performs exhaustive search to find an (SA-CA-CC)-optimal
solution.  Note, however, that Exact is intractable for large networks or
large projects."

Our implementation decomposes the objective.  For a fixed skill -> expert
assignment with holder set ``H``::

    SA-CA-CC = lam * SA(assignment)
             + (1 - lam) * min over trees containing H of
                   [gamma * CA(tree) + (1 - gamma) * CC(tree)]

The inner minimum is an exact *node-weighted Steiner tree*: edge cost
``(1 - gamma) * w`` plus node cost ``gamma * a'`` for every non-holder
tree node.  We solve it with the Dreyfus–Wagner DP from
:mod:`repro.graph.steiner` (cached per distinct holder set) and enumerate
all assignments.  The optimal team over subgraphs is always achieved by a
tree (removing a cycle edge never increases any objective term), so this
is a true global optimum.

Intractability is surfaced, not hidden: exceeding ``max_assignments`` or
``time_budget`` raises :class:`IntractableError`, which the Figure 3
harness reports as the paper does ("Exact ... did not terminate in
reasonable time for 8 and 10 skills").
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable

from ..expertise.network import ExpertNetwork
from ..graph.adjacency import Graph, GraphError
from ..graph.steiner import dreyfus_wagner
from .objectives import ObjectiveScales, SaMode, TeamEvaluator
from .team import Team

__all__ = ["ExactSolver", "IntractableError"]


class IntractableError(Exception):
    """The exhaustive search would exceed its assignment or time budget."""


class ExactSolver:
    """Exhaustive SA-CA-CC optimizer (assignments x node-weighted Steiner).

    Parameters mirror :class:`repro.core.greedy.GreedyTeamFinder`;
    ``max_assignments`` bounds the assignment product and ``time_budget``
    (seconds) bounds wall-clock time, both raising
    :class:`IntractableError` when exceeded.
    """

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        gamma: float = 0.6,
        lam: float = 0.6,
        scales: ObjectiveScales | None = None,
        sa_mode: SaMode = "per_skill",
        max_assignments: int = 500_000,
        time_budget: float | None = None,
    ) -> None:
        self.network = network
        self.evaluator = TeamEvaluator(
            network, gamma=gamma, lam=lam, scales=scales, sa_mode=sa_mode
        )
        self.gamma = self.evaluator.gamma
        self.lam = self.evaluator.lam
        self.max_assignments = max_assignments
        self.time_budget = time_budget
        # Steiner results depend on gamma but not lambda: one solver can
        # serve a whole lambda sweep and only pay Dreyfus-Wagner once per
        # distinct holder set.
        self._connection_cache: dict[frozenset[str], tuple[float, Graph] | None] = {}
        # Connection search graph: edges pre-scaled by (1 - gamma) on
        # normalized weights; node costs added per holder set below.
        scale = self.evaluator.scales.edge_scale
        self._conn_graph = network.graph.reweighted(
            lambda u, v, w: (1.0 - self.gamma) * (w / scale)
        )

    # ------------------------------------------------------------------
    def find_team(self, project: Iterable[str], *, lam: float | None = None) -> Team:
        """The provably optimal team under SA-CA-CC.

        ``lam`` optionally overrides the constructor's lambda (the
        Steiner cache is lambda-independent, so sweeping lambda on one
        solver instance is cheap).  Raises :class:`IntractableError` when
        over budget and :class:`SkillCoverageError` when the project is
        uncoverable.
        """
        best = self._search(project, k=1, lam=lam)
        return best[0]

    def find_top_k(
        self, project: Iterable[str], k: int = 5, *, lam: float | None = None
    ) -> list[Team]:
        """The ``k`` best distinct teams by exact SA-CA-CC score."""
        return self._search(project, k=k, lam=lam)

    # ------------------------------------------------------------------
    def _search(
        self, project: Iterable[str], k: int, lam: float | None = None
    ) -> list[Team]:
        lam = self.lam if lam is None else lam
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        skills = sorted(set(project))
        if not skills:
            raise ValueError("project must require at least one skill")
        index = self.network.skill_index
        index.require_coverable(skills)
        pools = [sorted(index.experts_with(s)) for s in skills]

        total_assignments = 1
        for pool in pools:
            total_assignments *= len(pool)
            if total_assignments > self.max_assignments:
                raise IntractableError(
                    f"{total_assignments}+ assignments exceed "
                    f"max_assignments={self.max_assignments}"
                )

        deadline = (
            time.monotonic() + self.time_budget
            if self.time_budget is not None
            else None
        )
        # (score, counter, assignment, steiner tree) — counter breaks ties.
        results: list[tuple[float, int, dict[str, str], Graph]] = []
        seen_keys: set = set()

        for counter, combo in enumerate(itertools.product(*pools)):
            if deadline is not None and counter % 64 == 0:
                if time.monotonic() > deadline:
                    raise IntractableError(
                        f"time budget of {self.time_budget}s exhausted after "
                        f"{counter} assignments"
                    )
            assignment = dict(zip(skills, combo))
            holders = frozenset(combo)
            connection = self._connect(holders, self._connection_cache)
            if connection is None:
                continue  # holders mutually disconnected
            conn_cost, steiner = connection
            sa = self._sa_of(assignment)
            score = lam * sa + (1.0 - lam) * conn_cost
            key = (holders, tuple(sorted(assignment.items())))
            if key in seen_keys:
                continue
            seen_keys.add(key)
            results.append((score, counter, assignment, steiner))
            results.sort(key=lambda r: (r[0], r[1]))
            del results[4 * k :]

        if not results:
            raise IntractableError("no assignment yields a connected team")

        teams: list[Team] = []
        team_keys: set = set()
        for score, _, assignment, steiner in results:
            team = self._to_team(assignment, steiner)
            if team.key() in team_keys:
                continue
            team_keys.add(team.key())
            teams.append(team)
            if len(teams) == k:
                break
        return teams

    # ------------------------------------------------------------------
    def _sa_of(self, assignment: dict[str, str]) -> float:
        if self.evaluator.sa_mode == "per_skill":
            experts: Iterable[str] = assignment.values()
        else:
            experts = sorted(set(assignment.values()))
        return sum(self.evaluator.node_cost(c) for c in experts)

    def _connect(
        self,
        holders: frozenset[str],
        cache: dict[frozenset[str], tuple[float, Graph] | None],
    ) -> tuple[float, Graph] | None:
        """Exact min of ``gamma*CA + (1-gamma)*CC`` over trees spanning
        ``holders`` (None when they cannot be connected)."""
        if holders in cache:
            return cache[holders]
        def node_cost(v: str) -> float:
            return self.gamma * self.evaluator.node_cost(v)

        try:
            cost, tree = dreyfus_wagner(
                self._conn_graph, sorted(holders), node_cost=node_cost
            )
        except GraphError:
            cache[holders] = None  # holders span disconnected components
            return None
        cache[holders] = (cost, tree)
        return cost, tree

    def _to_team(self, assignment: dict[str, str], steiner: Graph) -> Team:
        """Rebuild the Steiner tree with original network edge weights."""
        tree = Graph()
        for node in steiner.nodes():
            tree.add_node(node)
        for u, v, _ in steiner.edges():
            tree.add_edge(u, v, weight=self.network.graph.weight(u, v))
        return Team(tree=tree, assignments=dict(assignment), root=None)
