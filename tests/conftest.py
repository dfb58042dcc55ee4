"""Shared fixtures: hand-built and randomized expert networks.

Also registers the hypothesis profiles the suite runs under:

* ``dev`` (default) — few examples, fast inner loop;
* ``ci`` — more examples, what the coverage gate runs with.

Select with ``HYPOTHESIS_PROFILE=ci python -m pytest``.  Tests that pin
their own ``@settings(max_examples=...)`` keep their pinned budget; the
profile governs everything else (notably the dynamic-PLL differential
suite).

Every test also runs with ``REPRO_STRICT=1`` (see
:func:`strict_mutation_guard`), and ``pyproject.toml`` turns every
``UserWarning`` into an error.
"""

from __future__ import annotations

import os
import random
from unittest import mock

import pytest
from hypothesis import settings

from repro.eval.workload import benchmark_network
from repro.expertise import Expert, ExpertNetwork
from repro.graph.pll import PrunedLandmarkLabeling
from repro.graph.pll_kernel import numpy_available

settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def strict_mutation_guard(monkeypatch):
    """Every test runs strict: a direct write to an engine-attached
    network raises instead of warning.  The tests that pin the warning
    opt out with ``monkeypatch.delenv("REPRO_STRICT", raising=False)``.
    """
    monkeypatch.setenv("REPRO_STRICT", "1")


@pytest.fixture(scope="session")
def tiny_network() -> ExpertNetwork:
    """The cached tiny synthetic-DBLP network (shared, treat as read-only)."""
    return benchmark_network("tiny", seed=0)


@pytest.fixture()
def figure1_network() -> ExpertNetwork:
    """A hand-built network reproducing the paper's Figure 1.

    Two candidate teams for skills {SN, TM}, all edges weight 1.0:

    * team (a): Jialu Liu (SN, h=9) — Jiawei Han (connector, h=139) —
      Xiang Ren (TM, h=11)
    * team (b): Behzad Golshan (SN, h=5) — Theodoros Lappas (connector,
      h=12) — Dimitrios Kotzias (TM, h=3)

    With equal communication costs, CC cannot distinguish the teams;
    authority-aware objectives must prefer team (a).
    """
    experts = [
        Expert("liu", name="Jialu Liu", skills={"SN"}, h_index=9),
        Expert("han", name="Jiawei Han", h_index=139),
        Expert("ren", name="Xiang Ren", skills={"TM"}, h_index=11),
        Expert("golshan", name="Behzad Golshan", skills={"SN"}, h_index=5),
        Expert("lappas", name="Theodoros Lappas", h_index=12),
        Expert("kotzias", name="Dimitrios Kotzias", skills={"TM"}, h_index=3),
        # A low-authority bridge keeps the graph connected so that both
        # candidate teams live in one component.
        Expert("bridge", name="Bridge", h_index=1),
    ]
    edges = [
        ("liu", "han", 1.0),
        ("han", "ren", 1.0),
        ("golshan", "lappas", 1.0),
        ("lappas", "kotzias", 1.0),
        ("han", "bridge", 5.0),
        ("bridge", "lappas", 5.0),
    ]
    return ExpertNetwork(experts, edges)


SKILLS = ("a", "b", "c", "d")


def make_random_network(
    rng: random.Random, *, n: int = 10, p: float = 0.4, skills=SKILLS
) -> ExpertNetwork:
    """A random *connected* expert network where every skill is coverable.

    Each skill is dealt to at least two experts (round-robin) so project
    sampling in tests never degenerates; extra skills are sprinkled
    randomly.  A random spanning tree guarantees connectivity, and extra
    edges appear with probability ``p``.
    """
    if n < 2:
        raise ValueError("need at least two experts")
    owned: list[set[str]] = [set() for _ in range(n)]
    # Deal every skill to two distinct experts.
    for k, skill in enumerate(skills):
        first = (2 * k) % n
        second = (2 * k + 1) % n
        owned[first].add(skill)
        owned[second].add(skill)
    for i in range(n):
        if rng.random() < 0.3:
            owned[i].add(rng.choice(skills))
    experts = [
        Expert(
            f"e{i}",
            skills=owned[i],
            h_index=rng.randint(0, 30),
            num_publications=rng.randint(1, 60),
        )
        for i in range(n)
    ]
    edges = [
        (f"e{i}", f"e{rng.randrange(i)}", rng.uniform(0.05, 1.0))
        for i in range(1, n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((f"e{i}", f"e{j}", rng.uniform(0.05, 1.0)))
    return ExpertNetwork(experts, edges)


@pytest.fixture()
def random_network_factory():
    return make_random_network


#: The PLL's two batched kernels.  An index picks one when it is built:
#: ``"numpy"`` when numpy imports, ``"stdlib"`` when it does not.
PLL_KERNELS = ("numpy", "stdlib")
#: The kernels this process can run; installs without numpy have one.
AVAILABLE_PLL_KERNELS = PLL_KERNELS if numpy_available() else ("stdlib",)


def build_pll(graph, kernel: str, **options) -> PrunedLandmarkLabeling:
    """A PLL index over ``graph`` that answers with ``kernel``.

    ``"stdlib"`` hides numpy from the build, which is what an install
    without numpy sees.  ``"numpy"`` skips the calling test when numpy
    is not installed.
    """
    if kernel == "stdlib":
        with mock.patch("repro.graph.pll.numpy_available", return_value=False):
            return PrunedLandmarkLabeling(graph, **options)
    if not numpy_available():
        pytest.skip("the numpy kernel needs numpy")
    return PrunedLandmarkLabeling(graph, **options)
