"""Algorithm 1 and its authority-aware modifications (Section 3.2).

The search iterates every expert ``c_r`` as a potential root, picks for
each required skill the holder minimizing a mode-dependent distance score
from the root, and keeps the root(s) with the smallest score sum.  The
three modes differ only in the score and in which graph distances are
measured on:

``cc``        score = ``DIST_G(root, v)`` — Problem 1, prior art.
``ca-cc``     score = ``DIST_G'(root, v) - gamma * a'(v)`` — Problem 3;
              ``gamma = 1`` degenerates to Problem 2 (pure CA).
``sa-ca-cc``  score = ``(1-lam) * (DIST_G'(root, v) - gamma * a'(v))
              + lam * a'(v)`` — Problem 5.

In every authority-aware mode, a root that itself holds the skill is
assigned it at score zero (Section 3.2.2).  ``DIST`` queries go through a
pluggable distance oracle — the paper's 2-hop cover by default.

Final teams are *materialized* from a single Dijkstra tree rooted at the
winning root (all root-to-holder paths then share edges consistently, so
the team subgraph is a tree) and re-scored with the literal Definitions
2-6 by a :class:`TeamEvaluator`.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections.abc import Iterable, Sequence

from ..expertise.network import ExpertNetwork
from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra, reconstruct_path
from ..graph.distance import DistanceOracle, build_oracle
from .objectives import ObjectiveScales, SaMode, TeamEvaluator
from .team import Team
from .transform import authority_fold_transform

__all__ = ["GreedyTeamFinder", "OBJECTIVES", "search_graph_for"]

OBJECTIVES = ("cc", "ca", "ca-cc", "sa-ca-cc")

_INF = float("inf")


def search_graph_for(
    network: ExpertNetwork,
    objective: str,
    gamma: float,
    scales: ObjectiveScales,
) -> Graph:
    """The graph Algorithm 1 measures distances on for ``objective``.

    ``cc`` searches plain ``G`` with normalized weights (a monotone
    rescale, so teams are unchanged); every authority-aware mode searches
    the folded graph ``G'``.  Shared between :class:`GreedyTeamFinder`
    and the engine's oracle cache so an injected oracle is always built
    over the exact graph the finder would have built itself.
    """
    if objective == "cc":
        return network.graph.reweighted(lambda u, v, w: w / scales.edge_scale)
    if objective == "ca":
        gamma = 1.0
    return authority_fold_transform(network, gamma, scales=scales)


class GreedyTeamFinder:
    """The paper's greedy solver for Problems 1, 2, 3 and 5.

    Parameters
    ----------
    network:
        The expert network ``G``.
    objective:
        One of ``"cc"``, ``"ca"``, ``"ca-cc"``, ``"sa-ca-cc"``.  ``"ca"``
        is ``"ca-cc"`` with ``gamma`` forced to 1 (Problem 2).
    gamma, lam:
        Tradeoff parameters of Definitions 4 and 6.
    oracle_kind:
        ``"pll"`` (2-hop cover, the paper's choice) or ``"dijkstra"``.
    batch_queries:
        When true (default), each (root, skill) sweep issues one batched
        ``distances_from`` call instead of per-candidate point lookups.
        Scores — and therefore teams — are identical either way; the
        point-query path remains for oracles without a batch API and as
        the reference in the equivalence tests.
    root_candidates:
        Optional restriction of the root loop (Algorithm 1 line 3); by
        default every expert is tried, as in the paper.
    scales:
        Normalization constants; derived from the network when omitted.
    """

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        objective: str = "sa-ca-cc",
        gamma: float = 0.6,
        lam: float = 0.6,
        oracle_kind: str = "pll",
        root_candidates: Iterable[str] | None = None,
        scales: ObjectiveScales | None = None,
        sa_mode: SaMode = "per_skill",
        oracle: DistanceOracle | None = None,
        search_graph: Graph | None = None,
        batch_queries: bool = True,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; expected {OBJECTIVES}")
        if objective == "ca":
            gamma = 1.0
        self.network = network
        self.objective = objective
        self.evaluator = TeamEvaluator(
            network, gamma=gamma, lam=lam, scales=scales, sa_mode=sa_mode
        )
        self.gamma = self.evaluator.gamma
        self.lam = self.evaluator.lam
        # An injected search graph must come from `search_graph_for` with
        # this finder's (objective, gamma, scales) — the engine passes it
        # alongside the matching oracle so neither is built twice.
        self._search_graph = (
            search_graph if search_graph is not None else self._build_search_graph()
        )
        # An injected oracle lets a lambda sweep share one index: the
        # search graph depends only on (network, gamma, scales), never on
        # lambda, so `finder.oracle` can be handed to the next finder.
        self._oracle: DistanceOracle = (
            oracle
            if oracle is not None
            else build_oracle(self._search_graph, oracle_kind)
        )
        self._batch_queries = batch_queries and hasattr(
            self._oracle, "distances_from"
        )
        self._roots = (
            list(root_candidates)
            if root_candidates is not None
            else list(network.expert_ids())
        )
        unknown = [r for r in self._roots if r not in network]
        if unknown:
            raise KeyError(f"root candidates outside the network: {unknown[:5]!r}")

    @property
    def oracle(self) -> DistanceOracle:
        """The distance oracle over the search graph (shareable, see init)."""
        return self._oracle

    @property
    def search_graph(self) -> Graph:
        """The (possibly transformed) graph distances are measured on."""
        return self._search_graph

    # ------------------------------------------------------------------
    # search-graph construction
    # ------------------------------------------------------------------
    def _build_search_graph(self) -> Graph:
        return search_graph_for(
            self.network, self.objective, self.gamma, self.evaluator.scales
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _skill_score(self, root: str, candidate: str) -> float:
        """The mode-dependent score of assigning ``candidate`` from ``root``."""
        return self._score_from_distance(
            self._oracle.distance(root, candidate), candidate
        )

    def _score_from_distance(self, dist: float, candidate: str) -> float:
        """Combine an oracle distance into the mode-dependent score.

        Shared by the point-query and batched paths so both compute
        bit-identical floats (the equivalence tests compare whole teams).
        """
        if dist == _INF:
            return _INF
        if self.objective == "cc":
            return dist
        corrected = dist - self.gamma * self.evaluator.node_cost(candidate)
        if self.objective in ("ca", "ca-cc"):
            return corrected
        # sa-ca-cc (Section 3.2.3)
        node = self.evaluator.node_cost(candidate)
        return (1.0 - self.lam) * corrected + self.lam * node

    def _best_holder(
        self, root: str, candidates: Sequence[str]
    ) -> tuple[str | None, float]:
        """Best (holder, score) for one skill from ``root``.

        ``candidates`` must be sorted: ties on score keep the
        lexicographically smallest holder in both query modes.  The
        batched mode fetches every root -> candidate distance in one
        ``distances_from`` call (one label-array hoist, memoized per
        root) instead of ``len(candidates)`` point lookups.
        """
        best_expert, best_score = None, _INF
        if self._batch_queries:
            dists = self._oracle.distances_from(root, candidates)
            for candidate in candidates:
                score = self._score_from_distance(dists[candidate], candidate)
                if score < best_score:
                    best_expert, best_score = candidate, score
        else:
            for candidate in candidates:
                score = self._skill_score(root, candidate)
                if score < best_score:
                    best_expert, best_score = candidate, score
        return best_expert, best_score

    # ------------------------------------------------------------------
    # the root loop (Algorithm 1)
    # ------------------------------------------------------------------
    def find_team(self, project: Iterable[str]) -> Team | None:
        """Best team for ``project``; ``None`` if no root covers it."""
        teams = self.find_top_k(project, k=1)
        return teams[0] if teams else None

    def find_top_k(self, project: Iterable[str], k: int = 5) -> list[Team]:
        """Top-``k`` distinct teams by greedy cost (Section 3.2.1).

        The bounded list ``L`` is kept over root iterations exactly as the
        paper describes; a few extra candidates are retained so that
        deduplication (several roots can induce the same team) still
        yields ``k`` distinct teams.
        """
        if k < 1:
            raise ValueError("k must be positive")
        skills = sorted(set(project))
        if not skills:
            raise ValueError("project must require at least one skill")
        self.network.skill_index.require_coverable(skills)
        candidates = {
            s: sorted(self.network.experts_with_skill(s)) for s in skills
        }

        capacity = max(4 * k, k + 8)
        # Entries: (greedy_cost, tie, root, {skill: expert})
        best: list[tuple[float, int, str, dict[str, str]]] = []
        for tie, root in enumerate(self._roots):
            total = 0.0
            assignment: dict[str, str] = {}
            feasible = True
            root_skills = self.network.skills_of(root)
            bound = best[-1][0] if len(best) >= capacity else _INF
            for skill in skills:
                if skill in root_skills:
                    # Root holds the skill: zero score, assigned to root.
                    assignment[skill] = root
                    continue
                best_expert, best_score = self._best_holder(
                    root, candidates[skill]
                )
                if best_expert is None:
                    feasible = False
                    break
                assignment[skill] = best_expert
                total += best_score
                if total >= bound:
                    feasible = False  # cannot enter the bounded list
                    break
            if not feasible:
                continue
            insort(best, (total, tie, root, assignment), key=lambda e: (e[0], e[1]))
            if len(best) > capacity:
                best.pop()

        teams: list[Team] = []
        seen: set = set()
        for _, _, root, assignment in best:
            team = self._materialize(root, assignment)
            if team.key() in seen:
                continue
            seen.add(team.key())
            teams.append(team)
            if len(teams) == k:
                break
        return teams

    def team_from_root(self, root: str, project: Iterable[str]) -> Team | None:
        """The team Algorithm 1 would grow from one specific root.

        Returns ``None`` when some skill is unreachable from ``root``.
        Exposed for tests and for the qualitative Figure 6 experiment.
        """
        skills = sorted(set(project))
        assignment: dict[str, str] = {}
        root_skills = self.network.skills_of(root)
        for skill in skills:
            if skill in root_skills:
                assignment[skill] = root
                continue
            holders = sorted(self.network.experts_with_skill(skill))
            best_expert, _ = self._best_holder(root, holders)
            if best_expert is None:
                return None
            assignment[skill] = best_expert
        return self._materialize(root, assignment)

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self, root: str, assignment: dict[str, str]) -> Team:
        """Union of root-to-holder paths from one Dijkstra tree of ``G'``.

        Using a single shortest-path tree keeps the union cycle-free and
        mirrors Algorithm 1's ``add`` (line 13: connect ``bestExpert``
        along its path from the root).  Edge weights in the returned team
        come from the *original* network, so evaluation sees real
        communication costs.
        """
        holders = set(assignment.values())
        dist, parent = dijkstra(self._search_graph, root, targets=list(holders))
        tree = Graph()
        tree.add_node(root)
        for holder in holders:
            path = reconstruct_path(parent, holder)
            for u, v in itertools.pairwise(path):
                if not tree.has_edge(u, v):
                    tree.add_edge(u, v, weight=self.network.graph.weight(u, v))
        return Team(tree=tree, assignments=dict(assignment), root=root)
