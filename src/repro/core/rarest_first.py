"""RarestFirst baseline (Lappas, Liu and Terzi, KDD 2009 — the paper's [3]).

The classic communication-cost heuristic the team-formation line started
from: anchor the search on the *rarest* required skill, and for each of
its holders attach the closest holder of every other skill.  The original
paper scores candidates by the *diameter* (max anchor-to-holder
distance); we keep that scoring and also expose a sum-of-distances
variant that matches this paper's CC definition more closely.

Included as an extra baseline for the ablation benchmark
(``benchmarks/bench_ablation_baselines.py``); the reproduction's own CC
strategy is Algorithm 1 in ``cc`` mode.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Literal

from ..expertise.network import ExpertNetwork
from ..graph.dijkstra import dijkstra
from ..graph.distance import DistanceOracle, build_oracle
from .team import Team, team_along_parents

__all__ = ["RarestFirstSolver"]

_INF = float("inf")


class RarestFirstSolver:
    """Anchor-on-rarest-skill heuristic for communication cost."""

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        aggregate: Literal["diameter", "sum"] = "diameter",
        oracle_kind: str = "pll",
        oracle: DistanceOracle | None = None,
    ) -> None:
        if aggregate not in ("diameter", "sum"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        self.network = network
        self.aggregate = aggregate
        # An injected oracle (built over the *plain* network graph) lets
        # many queries share one index, mirroring GreedyTeamFinder.
        self._oracle: DistanceOracle = (
            oracle if oracle is not None else build_oracle(network.graph, oracle_kind)
        )

    def find_team(self, project: Iterable[str]) -> Team | None:
        """Best team by the anchor heuristic; None if disconnected."""
        skills = sorted(set(project))
        if not skills:
            raise ValueError("project must require at least one skill")
        index = self.network.skill_index
        index.require_coverable(skills)
        rarest = index.rarest_first(skills)[0]
        others = [s for s in skills if s != rarest]

        best_anchor: str | None = None
        best_assignment: dict[str, str] = {}
        best_cost = _INF
        for anchor in sorted(index.experts_with(rarest)):
            assignment = {rarest: anchor}
            distances: list[float] = []
            feasible = True
            for skill in others:
                if skill in self.network.skills_of(anchor):
                    assignment[skill] = anchor
                    distances.append(0.0)
                    continue
                choice, d_best = None, _INF
                for holder in sorted(index.experts_with(skill)):
                    d = self._oracle.distance(anchor, holder)
                    if d < d_best:
                        choice, d_best = holder, d
                if choice is None:
                    feasible = False
                    break
                assignment[skill] = choice
                distances.append(d_best)
            if not feasible:
                continue
            cost = (
                max(distances, default=0.0)
                if self.aggregate == "diameter"
                else sum(distances)
            )
            if cost < best_cost:
                best_cost, best_anchor, best_assignment = cost, anchor, assignment
        if best_anchor is None:
            return None
        return self._materialize(best_anchor, best_assignment)

    def _materialize(self, anchor: str, assignment: dict[str, str]) -> Team:
        holders = list(dict.fromkeys(assignment.values()))
        _, parent = dijkstra(self.network.graph, anchor, targets=holders)
        return team_along_parents(
            anchor, holders, parent, self.network.graph, assignment
        )
