"""Both holder-first greedy sweeps against the root-first reference loop.

:class:`~tests.core.greedy_reference.RootFirstReference` answers each
``DIST(root, holder)`` with a point query, root by root.  The production
sweeps answer ``DIST(holder, root)`` for every root at once: the matrix
sweep scores one holders x roots numpy matrix per skill, and the stdlib
sweep (forced here by hiding numpy from :mod:`repro.core.greedy`) one
score list per holder.  The 2-hop cover sums the same hub pairs in both
directions, so every score must agree bit for bit with the reference on
every kernel, and so must the teams: same root, same assignment, same
node and edge insertion order, and the same canonical JSON through the
engine.

Dijkstra and sharded distances add edge weights in a direction-dependent
order, so they are compared on *dyadic* networks (powers-of-two weights
and h-indexes, dyadic gamma), where every path sum is exact.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.api import TeamFormationEngine, TeamRequest
from repro.api.registry import SolverRegistry
from repro.api.solvers import register_builtin_solvers
from repro.core import GreedyTeamFinder, ObjectiveScales
from repro.core.greedy import OBJECTIVES, search_graph_for
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll_kernel import numpy_available

from ..conftest import AVAILABLE_PLL_KERNELS, build_pll
from .greedy_reference import ReferenceGreedyAdapter, RootFirstReference

SKILLS = ("a", "b", "c", "d", "e")
KERNELS = AVAILABLE_PLL_KERNELS
#: Every sweep this process can run; numpy-less installs have only one.
SWEEPS = ("matrix", "lists") if numpy_available() else ("lists",)


def forced(sweep: str):
    """Run the greedy sweep under test: ``"lists"`` hides numpy from the
    module, which is what a numpy-less install sees."""
    if sweep == "lists":
        return mock.patch("repro.core.greedy._np", None)
    return contextlib.nullcontext()


def bits(scores) -> list[str]:
    """Scores as exact hex strings (``==`` would equate -0.0 and 0.0)."""
    return [float(score).hex() for score in scores]


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


def finder_for(case: Case, kernel: str = KERNELS[0]) -> GreedyTeamFinder:
    scales = ObjectiveScales.from_network(case.network)
    graph = search_graph_for(case.network, case.objective, case.gamma, scales)
    return GreedyTeamFinder(
        case.network,
        objective=case.objective,
        gamma=case.gamma,
        lam=case.lam,
        scales=scales,
        root_candidates=case.roots,
        oracle=build_pll(graph, kernel),
        search_graph=graph,
    )


def assert_matches_reference(case: Case, finder: GreedyTeamFinder, sweep: str) -> None:
    reference = RootFirstReference.like(finder)
    roots = list(case.network.expert_ids())
    with forced(sweep):
        teams = finder.find_top_k(case.project, k=case.k)
        assert teams or case.roots is not None, "core roots cover every project"
        assert [view(t) for t in teams] == [
            view(t) for t in reference.find_top_k(case.project, k=case.k)
        ]
        for root in roots:
            assert view(finder.team_from_root(root, case.project)) == view(
                reference.team_from_root(root, case.project)
            )


@given(case=cases(), kernel=st.sampled_from(KERNELS))
def test_sweep_matches_reference_on_every_kernel(case, kernel):
    finder = finder_for(case, kernel)
    reference = RootFirstReference.like(finder)
    roots = list(case.network.expert_ids())
    for skill in case.project:
        holders = sorted(case.network.experts_with_skill(skill))
        expected = [
            bits(reference._skill_score(root, holder) for root in roots)
            for holder in holders
        ]
        assert [bits(finder._scores(h, roots)) for h in holders] == expected
        if "matrix" in SWEEPS:
            matrix = finder._score_matrix(holders, roots)
            assert [bits(row) for row in matrix] == expected
    for sweep in SWEEPS:
        assert_matches_reference(case, finder, sweep)


def test_repeated_held_roots_and_unreachable_holders_at_lambda_one():
    # A chain e00..e03 plus the island e04-e05.  "a" has holders on both
    # sides, so every root sees an inf score next to finite ones (at
    # lam = 1, (1 - lam) * inf is nan unless kept as inf).  e00 and e05
    # are listed twice: a root holding a skill takes it at every
    # position it occupies.
    experts = [
        Expert("e00", skills={"a"}, h_index=4),
        Expert("e01", skills={"c"}, h_index=1),
        Expert("e02", skills={"a"}, h_index=16),
        Expert("e03", skills=set(), h_index=2),
        Expert("e04", skills={"a", "c"}, h_index=8),
        Expert("e05", skills={"c"}, h_index=1),
    ]
    edges = [
        ("e00", "e01", 0.5),
        ("e01", "e02", 0.25),
        ("e02", "e03", 1.0),
        ("e04", "e05", 0.5),
    ]
    network = ExpertNetwork(experts, edges)
    roots = ("e00", "e03", "e05", "e00", "e01", "e05")
    for objective in OBJECTIVES:
        case = Case(network, objective, 0.6, 1.0, 3, ("a", "c"), roots)
        for sweep in SWEEPS:
            assert_matches_reference(case, finder_for(case), sweep)
            with forced(sweep):
                team = finder_for(case).team_from_root("e00", case.project)
            assert team.assignments["a"] == "e00"


@given(case=cases())
def test_engine_canonical_json_matches_reference(case):
    expected = canonical(case, reference=True)
    for sweep in SWEEPS:
        with forced(sweep):
            assert canonical(case, reference=False) == expected


@given(case=cases(dyadic=True), mode=st.sampled_from(("dijkstra", "shards")))
def test_dijkstra_and_sharded_match_reference_on_dyadic_networks(case, mode):
    kwargs = {"oracle_kind": "dijkstra"} if mode == "dijkstra" else {"shards": 2}
    expected = canonical(case, reference=True, **kwargs)
    for sweep in SWEEPS:
        with forced(sweep):
            assert canonical(case, reference=False, **kwargs) == expected
