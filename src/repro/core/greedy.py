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

The sweep runs holder-first: each holder of a required skill is scored
from every root at once, instead of one distance pass per root.  The
search graph is undirected, so ``DIST(root, v) = DIST(v, root)``; the
2-hop cover sums the same hub pairs in both directions, so with the
default oracle the scores, the totals and the teams are bit-identical to
the paper's root-by-root loop.  Dijkstra and sharded oracles add edge
weights in a direction-dependent order: equal as real numbers,
bit-identical when edge-weight sums are exact.

With numpy, one skill is one ``distance_matrix(holders, roots)`` of
holders x roots, scored and reduced with array operations.  It is
bit-identical to the stdlib sweep, which runs one ``distances_from``
pass and one score list per holder:

* the scores are the same elementwise IEEE-754 operations in the same
  order (numpy fuses none of them), with ``inf`` kept by ``where``;
* ``argmin`` over the holder axis returns the *first* minimum, which is
  the stdlib sweep's strict-``<`` fold over sorted holders;
* a root that holds the skill adds ``0.0`` to its total instead of
  skipping the addition, which changes nothing because a total starts
  at ``0.0`` and is never ``-0.0``;
* the cheapest roots come from a stable ``argsort`` of the totals, the
  order ``heapq.nsmallest`` gives on ``(total, position)``.

The stdlib sweep runs only where numpy is missing; the differential
tests use it as the reference for the matrix sweep.

Final teams are *materialized* from a single Dijkstra tree rooted at the
winning root (all root-to-holder paths then share edges consistently, so
the team subgraph is a tree) and re-scored with the literal Definitions
2-6 by a :class:`TeamEvaluator`.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Sequence

from .. import obs
from ..expertise.network import ExpertNetwork
from ..graph.adjacency import Graph
from ..graph.dijkstra import dijkstra
from ..graph.distance import DistanceOracle, build_oracle
from .objectives import ObjectiveScales, SaMode, TeamEvaluator
from .team import Team, team_along_parents
from .transform import authority_fold_transform

try:  # the matrix sweep; without numpy the stdlib sweep runs
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less environments
    _np = None

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
    root_candidates:
        Optional restriction of the roots (Algorithm 1 line 3); by
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
    # the holder-first sweep (Algorithm 1)
    # ------------------------------------------------------------------
    def _scores(self, holder: str, roots: Sequence[str]) -> list[float]:
        """The mode-dependent score of ``holder`` from every root.

        One ``distances_from(holder, roots)`` call stands in for one
        ``DIST(root, holder)`` per root (the module docstring says why
        the floats agree); the operation order matches the scalar
        formulas there.  The stdlib sweep's scorer.
        """
        dists = self._oracle.distances_from(holder, roots)
        if self.objective == "cc":
            return [dists[r] for r in roots]
        node = self.evaluator.node_cost(holder)
        reduced = self.gamma * node
        if self.objective in ("ca", "ca-cc"):
            return [dists[r] - reduced for r in roots]  # inf stays inf
        # sa-ca-cc (Section 3.2.3); inf is kept explicitly because
        # (1 - lam) * inf is nan at lam = 1.
        keep, weighted = 1.0 - self.lam, self.lam * node
        return [
            _INF if (d := dists[r]) == _INF else keep * (d - reduced) + weighted
            for r in roots
        ]

    def _score_matrix(self, holders: Sequence[str], roots: Sequence[str]):
        """Every holder's (row) score from every root (column).

        The matrix sweep's scorer: the same elementwise IEEE-754
        operations, in the same order, as :meth:`_scores`, so row ``j``
        equals ``_scores(holders[j], roots)`` bit for bit.
        """
        dists = self._oracle.distance_matrix(holders, roots)
        if self.objective == "cc":
            return dists
        node = _np.array([self.evaluator.node_cost(h) for h in holders])[:, None]
        reduced = self.gamma * node
        if self.objective in ("ca", "ca-cc"):
            return dists - reduced  # inf stays inf
        keep, weighted = 1.0 - self.lam, self.lam * node
        with _np.errstate(invalid="ignore"):  # 0 * inf at lam = 1
            return _np.where(dists == _INF, _INF, keep * (dists - reduced) + weighted)

    def _sweep(
        self, skills: Sequence[str], roots: Sequence[str], limit: int
    ) -> tuple[list[int], Callable[[int], dict[str, str]]]:
        """The ``limit`` cheapest roots and their best holder per skill.

        Returns the positions in ``roots`` of at most ``limit`` roots
        with a finite greedy cost, cheapest first and ties by position,
        plus a function giving one such position's ``{skill: holder}``
        assignment.  Holders are visited in sorted order and the first
        smallest score wins, so ties go to the lexicographically
        smallest holder.  A root that holds the skill takes it at score
        zero (Section 3.2.2).  Totals add up per root in skill order.
        """
        candidates = {
            s: sorted(self.network.experts_with_skill(s)) for s in skills
        }
        with obs.span(
            "solver.sweep",
            roots=len(roots),
            skills=len(skills),
            holders=sum(len(c) for c in candidates.values()),
        ):
            if _np is None:
                return self._sweep_lists(skills, roots, candidates, limit)
            return self._sweep_matrix(skills, roots, candidates, limit)

    def _sweep_matrix(
        self,
        skills: Sequence[str],
        roots: Sequence[str],
        candidates: dict[str, list[str]],
        limit: int,
    ) -> tuple[list[int], Callable[[int], dict[str, str]]]:
        """One holders x roots score matrix per skill (numpy).

        ``argmin`` over the holder axis returns the first minimum, the
        strict-``<`` fold of :meth:`_sweep_lists`; a column whose
        minimum is ``inf`` leaves its root's total ``inf``.  Held roots
        add ``0.0``, exact because a total is never ``-0.0``.
        """
        positions: dict[str, list[int]] = {}  # roots may repeat
        for i, root in enumerate(roots):
            positions.setdefault(root, []).append(i)
        columns = _np.arange(len(roots))
        totals = _np.zeros(len(roots))
        picks: dict[str, tuple[list[str], object]] = {}

        def assignment(i: int) -> dict[str, str]:
            return {skill: holders[pick[i]] for skill, (holders, pick) in picks.items()}

        for skill in skills:
            holders = candidates[skill]
            if not holders:
                return [], assignment  # no root can cover the skill
            scores = self._score_matrix(holders, roots)
            pick = scores.argmin(axis=0)
            best = scores[pick, columns]
            held = [(i, j) for j, h in enumerate(holders) for i in positions.get(h, ())]
            if held:
                at, holder_rows = zip(*held)
                best[list(at)] = 0.0
                pick[list(at)] = holder_rows
            totals += best
            picks[skill] = (holders, pick)
        finite = int(_np.count_nonzero(totals < _INF))
        ranked = _np.argsort(totals, kind="stable")[: min(limit, finite)]
        return ranked.tolist(), assignment

    def _sweep_lists(
        self,
        skills: Sequence[str],
        roots: Sequence[str],
        candidates: dict[str, list[str]],
        limit: int,
    ) -> tuple[list[int], Callable[[int], dict[str, str]]]:
        """One ``distances_from`` pass and score list per holder (stdlib).

        The sweep on installs without numpy, and the reference the
        matrix sweep is tested against.
        """
        totals = [0.0] * len(roots)
        choices: dict[str, list[str | None]] = {}
        for skill in skills:
            holders = candidates[skill]
            best = [_INF] * len(roots)
            chosen: list[str | None] = [None] * len(roots)
            for holder in holders:
                for i, score in enumerate(self._scores(holder, roots)):
                    if score < best[i]:
                        best[i] = score
                        chosen[i] = holder
            held = set(holders)
            for i, root in enumerate(roots):
                if root in held:
                    chosen[i] = root
                else:
                    totals[i] += best[i]
            choices[skill] = chosen
        ranked = heapq.nsmallest(
            limit,
            (i for i, total in enumerate(totals) if total < _INF),
            key=lambda i: (totals[i], i),
        )
        return ranked, lambda i: {skill: choices[skill][i] for skill in skills}

    def find_team(self, project: Iterable[str]) -> Team | None:
        """Best team for ``project``; ``None`` if no root covers it."""
        teams = self.find_top_k(project, k=1)
        return teams[0] if teams else None

    def find_top_k(self, project: Iterable[str], k: int = 5) -> list[Team]:
        """Top-``k`` distinct teams by greedy cost (Section 3.2.1).

        The paper's bounded list ``L`` becomes a stable selection of the
        ``capacity`` smallest ``(total, root position)`` pairs.  Every
        score is non-negative (on ``G'``, ``DIST(root, v)`` includes the
        last edge's ``gamma * a'(v)`` and rounding is monotone), so
        partial totals never decrease and the paper's early exit only
        drops roots that could never enter ``L``: the selection keeps
        exactly the roots ``L`` keeps.  A few extra candidates are
        retained so that deduplication (several roots can induce the
        same team) still yields ``k`` distinct teams.
        """
        if k < 1:
            raise ValueError("k must be positive")
        skills = sorted(set(project))
        if not skills:
            raise ValueError("project must require at least one skill")
        self.network.skill_index.require_coverable(skills)
        roots = self._roots
        capacity = max(4 * k, k + 8)
        best, assignment = self._sweep(skills, roots, capacity)

        teams: list[Team] = []
        seen: set = set()
        with obs.span("solver.materialize", candidates=len(best)):
            for i in best:
                team = self._materialize(roots[i], assignment(i))
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
        best, assignment = self._sweep(skills, [root], 1)
        if not best:
            return None
        return self._materialize(root, assignment(0))

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
        # Assignment order, never set order: the tree's edge order fixes
        # the last bit of every sum over it.
        holders = list(dict.fromkeys(assignment.values()))
        _, parent = dijkstra(self._search_graph, root, targets=holders)
        return team_along_parents(root, holders, parent, self.network.graph, assignment)
