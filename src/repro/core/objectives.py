"""Objective functions: CC, CA, SA and their combinations (Definitions 2-6).

The paper combines edge weights (communication cost) with inverse
authorities "after normalizing edge and node weights since they may have
different scales" (Section 3.1).  :class:`ObjectiveScales` captures those
two normalization constants; :class:`TeamEvaluator` bundles a network,
the tradeoff parameters gamma and lambda, and the scales into a single
object that scores teams by any of the five objectives.

Scoring always happens on the *final* team with these literal
definitions, regardless of which transformed graph guided the search —
that is how Figure 3 can report the SA-CA-CC score of teams found by the
plain CC strategy.

One ambiguity in the paper: Definition 5 sums skill-holder authority over
the ``n`` skill-expert pairs of Definition 1, which charges an expert once
*per covered skill*; Definition 3's connector sum is clearly per-node.
``sa_mode`` selects the literal reading (``"per_skill"``, default) or the
set-based one (``"distinct"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from ..expertise.network import ExpertNetwork
from .team import Team

__all__ = ["ObjectiveScales", "TeamEvaluator", "SaMode"]

SaMode = Literal["per_skill", "distinct"]


@dataclass(frozen=True, slots=True)
class ObjectiveScales:
    """Normalization constants: divide weights by these before combining.

    ``edge_scale`` rescales communication costs, ``authority_scale``
    rescales inverse authorities; both default to 1 (no normalization).
    """

    edge_scale: float = 1.0
    authority_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.edge_scale <= 0 or self.authority_scale <= 0:
            raise ValueError("scales must be positive")

    @classmethod
    def from_network(cls, network: ExpertNetwork) -> "ObjectiveScales":
        """Min-max scales: the network's largest edge weight and largest
        inverse authority (minimums are 0 by construction)."""
        edge = network.max_edge_weight()
        auth = network.max_inverse_authority()
        return cls(edge_scale=edge or 1.0, authority_scale=auth or 1.0)


class TeamEvaluator:
    """Scores teams under Definitions 2-6 for fixed gamma/lambda/scales.

    >>> # evaluator = TeamEvaluator(network, gamma=0.6, lam=0.6)
    >>> # evaluator.sa_ca_cc(team)
    """

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        gamma: float = 0.6,
        lam: float = 0.6,
        scales: ObjectiveScales | None = None,
        sa_mode: SaMode = "per_skill",
    ) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        if sa_mode not in ("per_skill", "distinct"):
            raise ValueError(f"unknown sa_mode {sa_mode!r}")
        self.network = network
        self.gamma = gamma
        self.lam = lam
        self.scales = scales or ObjectiveScales.from_network(network)
        self.sa_mode: SaMode = sa_mode

    # ------------------------------------------------------------------
    # normalized primitives
    # ------------------------------------------------------------------
    def edge_cost(self, weight: float) -> float:
        """Normalized communication cost of one edge weight."""
        return weight / self.scales.edge_scale

    def node_cost(self, expert_id: str) -> float:
        """Normalized inverse authority of one expert."""
        return (
            self.network.inverse_authority(expert_id)
            / self.scales.authority_scale
        )

    # ------------------------------------------------------------------
    # Definitions 2-6
    # ------------------------------------------------------------------
    def cc(self, team: Team) -> float:
        """Communication cost: sum of (normalized) team edge weights."""
        return sum(self.edge_cost(w) for _, _, w in team.tree.edges())

    def ca(self, team: Team) -> float:
        """Connector authority: sum of a' over non-skill-holder members.

        Set-valued sums run in sorted order, so the last bit never
        depends on the process's string hash seed.
        """
        return sum(self.node_cost(c) for c in sorted(team.connectors))

    def sa(self, team: Team) -> float:
        """Skill-holder authority (see ``sa_mode`` in the module docstring)."""
        if self.sa_mode == "per_skill":
            return sum(self.node_cost(c) for c in team.assignments.values())
        return sum(self.node_cost(c) for c in sorted(team.skill_holders))

    def ca_cc(self, team: Team) -> float:
        """Definition 4: ``gamma * CA + (1 - gamma) * CC``."""
        return self.gamma * self.ca(team) + (1.0 - self.gamma) * self.cc(team)

    def sa_ca_cc(self, team: Team) -> float:
        """Definition 6: ``lambda * SA + (1 - lambda) * CA-CC``."""
        return self.lam * self.sa(team) + (1.0 - self.lam) * self.ca_cc(team)

    def score(self, team: Team, objective: str) -> float:
        """Dispatch by objective name: cc | ca | sa | ca-cc | sa-ca-cc."""
        try:
            fn = {
                "cc": self.cc,
                "ca": self.ca,
                "sa": self.sa,
                "ca-cc": self.ca_cc,
                "sa-ca-cc": self.sa_ca_cc,
            }[objective]
        except KeyError:
            raise ValueError(f"unknown objective {objective!r}") from None
        return fn(team)

    def with_params(
        self, *, gamma: float | None = None, lam: float | None = None
    ) -> "TeamEvaluator":
        """A copy with updated tradeoff parameters (same network/scales)."""
        return TeamEvaluator(
            self.network,
            gamma=self.gamma if gamma is None else gamma,
            lam=self.lam if lam is None else lam,
            scales=self.scales,
            sa_mode=self.sa_mode,
        )
