"""Test-only reference: Algorithm 1 as the paper states it, root by root.

:class:`RootFirstReference` keeps the greedy loop this package shipped
before the holder-first sweep: every root in turn, one point
``distance(root, candidate)`` query per skill holder, a bounded sorted
list with an early exit.  It reuses the finder's own evaluator and
``_materialize`` so a differential test compares only the search.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence

from repro.api.messages import TeamRequest
from repro.api.solvers import GreedyAdapter
from repro.core.greedy import GreedyTeamFinder
from repro.core.team import Team

_INF = float("inf")


class RootFirstReference(GreedyTeamFinder):
    """The root-first, point-query greedy loop."""

    @classmethod
    def like(cls, finder: GreedyTeamFinder) -> "RootFirstReference":
        """A reference sharing ``finder``'s parameters, oracle and graph."""
        return cls(
            finder.network,
            objective=finder.objective,
            gamma=finder.gamma,
            lam=finder.lam,
            scales=finder.evaluator.scales,
            sa_mode=finder.evaluator.sa_mode,
            root_candidates=finder._roots,
            oracle=finder.oracle,
            search_graph=finder.search_graph,
        )

    def _skill_score(self, root: str, candidate: str) -> float:
        """The mode-dependent score of assigning ``candidate`` from ``root``."""
        return self._score_from_distance(
            self._oracle.distance(root, candidate), candidate
        )

    def _score_from_distance(self, dist: float, candidate: str) -> float:
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
        """Best (holder, score) for one skill from ``root``; ``candidates``
        sorted, so ties keep the lexicographically smallest holder."""
        best_expert, best_score = None, _INF
        for candidate in candidates:
            score = self._skill_score(root, candidate)
            if score < best_score:
                best_expert, best_score = candidate, score
        return best_expert, best_score

    def find_top_k(self, project: Iterable[str], k: int = 5) -> list[Team]:
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


class ReferenceGreedyAdapter(GreedyAdapter):
    """The ``greedy`` solver answered by :class:`RootFirstReference`,
    with the engine's cached oracle and the production response path."""

    def _find(self, request: TeamRequest) -> list[Team | None]:
        finder = self._engine.greedy_finder(
            objective=request.objective,
            gamma=request.gamma,
            lam=request.lam,
            sa_mode=request.sa_mode,
            oracle_kind=request.oracle_kind,
        )
        reference = RootFirstReference.like(finder)
        return list(reference.find_top_k(list(request.skills), k=request.k))
