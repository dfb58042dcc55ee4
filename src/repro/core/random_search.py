"""The ``Random`` baseline (Section 4).

"We also implemented Random, which randomly builds 10,000 teams and
selects the one with the lowest SA-CA-CC."

A random team is built the way Algorithm 1 builds teams, but with every
choice randomized: a uniformly random *root* expert and a uniformly
random holder per required skill, connected along the root's
shortest-path tree.  Randomizing the root is what makes the baseline
honest — connecting random holders *optimally* would smuggle half of the
greedy algorithm into the baseline.  Roots are drawn from a bounded pool
whose shortest-path trees are memoized, so 10,000 samples stay cheap.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from ..expertise.network import ExpertNetwork
from ..graph.dijkstra import dijkstra
from .objectives import ObjectiveScales, SaMode, TeamEvaluator
from .team import Team, team_along_parents

__all__ = ["RandomSolver", "DEFAULT_NUM_SAMPLES"]

#: The paper's sample count.
DEFAULT_NUM_SAMPLES = 10_000


class RandomSolver:
    """Best-of-N random teams under SA-CA-CC.

    ``root_pool_size`` bounds how many distinct random roots are used per
    query (their shortest-path trees are cached); holders are re-sampled
    for every one of the ``num_samples`` teams.
    """

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        gamma: float = 0.6,
        lam: float = 0.6,
        scales: ObjectiveScales | None = None,
        sa_mode: SaMode = "per_skill",
        num_samples: int = DEFAULT_NUM_SAMPLES,
        root_pool_size: int = 64,
        seed: int | random.Random | None = None,
    ) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be positive")
        if root_pool_size < 1:
            raise ValueError("root_pool_size must be positive")
        self.network = network
        self.evaluator = TeamEvaluator(
            network, gamma=gamma, lam=lam, scales=scales, sa_mode=sa_mode
        )
        self.num_samples = num_samples
        self.root_pool_size = root_pool_size
        self._rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        self._trees: dict[str, tuple[dict, dict]] = {}

    def find_team(self, project: Iterable[str]) -> Team | None:
        """Lowest-SA-CA-CC team among ``num_samples`` random builds."""
        by_lam = self.find_teams_for_lambdas(project, [self.evaluator.lam])
        return by_lam[self.evaluator.lam]

    def find_teams_for_lambdas(
        self, project: Iterable[str], lambdas: Iterable[float]
    ) -> dict[float, Team | None]:
        """One shared sample pool, best team selected per lambda.

        When sweeping lambda (Figure 3), the same 10,000 samples are
        re-scored per lambda instead of re-drawn — cheaper, and it removes
        sampling noise between the lambda series.
        """
        skills = sorted(set(project))
        if not skills:
            raise ValueError("project must require at least one skill")
        self.network.skill_index.require_coverable(skills)
        lambdas = list(lambdas)
        evaluators = {
            lam: self.evaluator.with_params(lam=lam) for lam in lambdas
        }
        pools = {s: sorted(self.network.experts_with_skill(s)) for s in skills}
        all_experts = sorted(self.network.expert_ids())
        root_pool = (
            all_experts
            if len(all_experts) <= self.root_pool_size
            else self._rng.sample(all_experts, self.root_pool_size)
        )
        best: dict[float, tuple[float, Team] | None] = {lam: None for lam in lambdas}
        for _ in range(self.num_samples):
            root = self._rng.choice(root_pool)
            assignment = {s: self._rng.choice(pools[s]) for s in skills}
            team = self._build(root, assignment)
            if team is None:
                continue
            for lam, evaluator in evaluators.items():
                score = evaluator.sa_ca_cc(team)
                current = best[lam]
                if current is None or score < current[0]:
                    best[lam] = (score, team)
        return {
            lam: (entry[1] if entry is not None else None)
            for lam, entry in best.items()
        }

    def _build(self, root: str, assignment: dict[str, str]) -> Team | None:
        """Connect sampled holders along the root's shortest-path tree."""
        if root not in self._trees:
            self._trees[root] = dijkstra(self.network.graph, root)
        dist, parent = self._trees[root]
        holders = sorted(set(assignment.values()))
        if any(h not in dist for h in holders):
            return None  # some holder unreachable from this root
        return team_along_parents(root, holders, parent, self.network.graph, assignment)
