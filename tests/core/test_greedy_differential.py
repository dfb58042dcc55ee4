"""The holder-first greedy sweep against the root-first reference loop.

:class:`~tests.core.greedy_reference.RootFirstReference` answers each
``DIST(root, holder)`` with a point query, root by root; the production
sweep answers ``DIST(holder, root)`` for every root in one batched call.
The 2-hop cover sums the same hub pairs in both directions, so teams
must agree bit for bit on every kernel: same root, same assignment,
same node and edge insertion order, and the same canonical JSON through
the engine.

Dijkstra and sharded distances add edge weights in a direction-dependent
order, so they are compared on *dyadic* networks (powers-of-two weights
and h-indexes, dyadic gamma), where every path sum is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from repro.api import TeamFormationEngine, TeamRequest
from repro.api.registry import SolverRegistry
from repro.api.solvers import register_builtin_solvers
from repro.core import GreedyTeamFinder, ObjectiveScales
from repro.core.greedy import OBJECTIVES, search_graph_for
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll import PrunedLandmarkLabeling

from .greedy_reference import ReferenceGreedyAdapter, RootFirstReference

SKILLS = ("a", "b", "c", "d", "e")
KERNELS = ("flat", "flat-py", "dict")


def random_network(
    rng: random.Random, n: int, p: float, *, islands: int, dyadic: bool
) -> ExpertNetwork:
    """A connected core of ``n`` experts plus ``islands`` two-expert
    components no core root can reach (their holders score ``inf``).

    Every skill is dealt to two core experts, so every project is
    coverable.  ``dyadic`` draws weights and h-indexes from powers of
    two, which keeps every folded weight at a dyadic gamma, and every
    path sum over them, exact.
    """
    owned: list[set[str]] = [set() for _ in range(n + 2 * islands)]
    for k, skill in enumerate(SKILLS):
        owned[(2 * k) % n].add(skill)
        owned[(2 * k + 1) % n].add(skill)
    for skills in owned:
        if rng.random() < 0.4:
            skills.add(rng.choice(SKILLS))

    def weight() -> float:
        if dyadic:
            return rng.choice((0.25, 0.5, 1.0, 2.0))
        return rng.uniform(0.05, 1.0)

    def h_index() -> int:
        return rng.choice((1, 2, 4, 8, 16)) if dyadic else rng.randint(0, 30)

    experts = [
        Expert(f"e{i:02d}", skills=skills, h_index=h_index())
        for i, skills in enumerate(owned)
    ]
    edges = [
        (f"e{i:02d}", f"e{rng.randrange(i):02d}", weight()) for i in range(1, n)
    ]
    edges += [
        (f"e{i:02d}", f"e{j:02d}", weight())
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    edges += [
        (f"e{n + 2 * i:02d}", f"e{n + 2 * i + 1:02d}", weight())
        for i in range(islands)
    ]
    return ExpertNetwork(experts, edges)


@dataclass(frozen=True)
class Case:
    network: ExpertNetwork
    objective: str
    gamma: float
    lam: float
    k: int
    project: tuple[str, ...]
    roots: tuple[str, ...] | None

    def request(self, oracle_kind: str = "pll") -> TeamRequest:
        return TeamRequest(
            skills=self.project,
            objective=self.objective,
            gamma=self.gamma,
            lam=self.lam,
            k=self.k,
            oracle_kind=oracle_kind,
        )


@st.composite
def cases(draw, *, dyadic: bool = False) -> Case:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    network = random_network(
        rng,
        draw(st.integers(2, 24)),
        draw(st.sampled_from((0.05, 0.15, 0.3))),
        islands=draw(st.integers(0, 2)),
        dyadic=dyadic,
    )
    if dyadic:
        gammas = st.sampled_from((0.0, 0.25, 0.5, 1.0))
    else:
        gammas = st.sampled_from((0.0, 0.6, 1.0)) | st.floats(0.0, 1.0)
    project = st.lists(st.sampled_from(SKILLS), min_size=1, max_size=4, unique=True)
    # Restricted roots may repeat and come in any order.
    roots = st.lists(st.sampled_from(sorted(network.expert_ids())), min_size=1)
    return Case(
        network=network,
        objective=draw(st.sampled_from(OBJECTIVES)),
        gamma=draw(gammas),
        lam=draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
        k=draw(st.sampled_from((1, 3, 5))),
        project=tuple(draw(project)),
        roots=draw(st.none() | roots.map(tuple)),
    )


def view(team):
    """Everything a team is, in insertion order (``None`` passes through)."""
    if team is None:
        return None
    return (
        team.root,
        list(team.assignments.items()),
        list(team.tree.nodes()),
        list(team.tree.edges()),
        team.key(),
    )


def canonical(
    case: Case, *, reference: bool, oracle_kind: str = "pll", shards: int | None = None
) -> str:
    registry = register_builtin_solvers(SolverRegistry())
    if reference:
        registry.register("greedy", ReferenceGreedyAdapter, replace=True)
    engine = TeamFormationEngine(case.network, registry=registry, shards=shards)
    return engine.solve(case.request(oracle_kind)).canonical_json()


@given(case=cases(), kernel=st.sampled_from(KERNELS))
def test_sweep_matches_reference_on_every_kernel(case, kernel):
    scales = ObjectiveScales.from_network(case.network)
    graph = search_graph_for(case.network, case.objective, case.gamma, scales)
    finder = GreedyTeamFinder(
        case.network,
        objective=case.objective,
        gamma=case.gamma,
        lam=case.lam,
        scales=scales,
        root_candidates=case.roots,
        oracle=PrunedLandmarkLabeling(graph, kernel=kernel),
        search_graph=graph,
    )
    reference = RootFirstReference.like(finder)
    roots = list(case.network.expert_ids())
    for skill in case.project:
        for holder in sorted(case.network.experts_with_skill(skill)):
            assert finder._scores(holder, roots) == [
                reference._skill_score(root, holder) for root in roots
            ]
    teams = finder.find_top_k(case.project, k=case.k)
    assert teams or case.roots is not None, "core roots cover every project"
    assert [view(t) for t in teams] == [
        view(t) for t in reference.find_top_k(case.project, k=case.k)
    ]
    for root in roots:
        assert view(finder.team_from_root(root, case.project)) == view(
            reference.team_from_root(root, case.project)
        )


@given(case=cases())
def test_engine_canonical_json_matches_reference(case):
    assert canonical(case, reference=False) == canonical(case, reference=True)


@given(case=cases(dyadic=True), mode=st.sampled_from(("dijkstra", "shards")))
def test_dijkstra_and_sharded_match_reference_on_dyadic_networks(case, mode):
    kwargs = {"oracle_kind": "dijkstra"} if mode == "dijkstra" else {"shards": 2}
    assert canonical(case, reference=False, **kwargs) == canonical(
        case, reference=True, **kwargs
    )
