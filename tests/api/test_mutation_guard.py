"""The engine's mutation guard: the PR-5 known limit, now fenced.

Direct :class:`ExpertNetwork` mutation on an engine-attached network
bypasses the engine's reader/writer lock, so a concurrent solve could
observe a torn network.  The engine installs a guard at attach time:
an unsanctioned mutation warns (:class:`UserWarning`), or raises under
``REPRO_STRICT=1`` — and because the check runs *before* any state
changes, a strict-mode raise leaves the network fully consistent.
"""

from __future__ import annotations

import threading
import warnings

import pytest

from repro.api import TeamFormationEngine
from repro.expertise import Expert

from .conftest import build_figure1_network

MUTATIONS = {
    "add_expert": lambda net: net.add_expert(Expert("zhu", h_index=4)),
    "remove_expert": lambda net: net.remove_expert("bridge"),
    "update_skills": lambda net: net.update_skills("liu", {"SN", "DB"}),
    "update_h_index": lambda net: net.update_h_index("liu", 10),
    "add_collaboration": lambda net: net.add_collaboration(
        "liu", "golshan", weight=2.0
    ),
    "remove_collaboration": lambda net: net.remove_collaboration(
        "liu", "ren"
    ),
}


def test_unattached_network_mutates_silently():
    network = build_figure1_network()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        network.update_h_index("liu", 10)
    assert network.version == 1


@pytest.mark.parametrize("op", sorted(MUTATIONS))
def test_direct_mutation_on_attached_network_warns(op, monkeypatch):
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    network = build_figure1_network()
    TeamFormationEngine(network)
    with pytest.warns(UserWarning, match="bypasses the engine's write lock"):
        MUTATIONS[op](network)
    # The warning names the offending method so the fix is obvious.
    with pytest.warns(UserWarning, match=rf"ExpertNetwork\.{op}\(\)"):
        MUTATIONS[op](build_and_attach())


def build_and_attach():
    network = build_figure1_network()
    TeamFormationEngine(network)
    return network


def test_mutation_inside_engine_mutate_is_sanctioned():
    network = build_figure1_network()
    engine = TeamFormationEngine(network)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with engine.mutate() as net:
            net.update_h_index("liu", 10)
            net.add_collaboration("liu", "golshan", weight=2.0)
    assert network.version == 2


def test_engine_write_paths_are_sanctioned():
    # apply_updates / refresh_scales hold the write lock themselves and
    # must not trip the guard on their internal bookkeeping.
    network = build_figure1_network()
    engine = TeamFormationEngine(network)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        engine.apply_updates()
        engine.refresh_scales()


def test_strict_mode_raises_and_leaves_state_consistent(monkeypatch):
    monkeypatch.setenv("REPRO_STRICT", "1")
    network = build_figure1_network()
    engine = TeamFormationEngine(network)
    version = network.version
    weight = network.graph.weight("liu", "ren")
    with pytest.raises(RuntimeError, match="engine.mutate"):
        network.add_collaboration("liu", "ren", weight=9.0)
    # The raise happened before any view mutated: version unbumped,
    # graph untouched, so the engine's version-keyed caches stay right.
    assert network.version == version
    assert network.graph.weight("liu", "ren") == weight
    with engine.mutate() as net:  # the sanctioned path still works
        net.add_collaboration("liu", "ren", weight=9.0)
    assert network.graph.weight("liu", "ren") == 9.0


def test_guard_judges_the_calling_thread_not_global_lock_state(monkeypatch):
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    network = build_figure1_network()
    engine = TeamFormationEngine(network)
    seen: list[BaseException | None] = []
    entered = threading.Event()
    proceed = threading.Event()

    def writer():
        with engine.mutate() as net:
            net.update_h_index("liu", 10)
            entered.set()
            proceed.wait(timeout=30)

    def bystander():
        # Another thread mutating while the writer holds the lock is
        # still unsanctioned: holding it *somewhere* is not holding it.
        entered.wait(timeout=30)
        try:
            with pytest.warns(UserWarning):
                network.update_h_index("han", 5)
            seen.append(None)
        except BaseException as exc:  # noqa: BLE001 - reported to the assert
            seen.append(exc)
        finally:
            proceed.set()

    threads = [
        threading.Thread(target=writer),
        threading.Thread(target=bystander),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert seen == [None]


def test_warm_started_engine_attaches_the_guard(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    engine = TeamFormationEngine(build_figure1_network())
    engine.save_snapshot(tmp_path / "store")
    restored = TeamFormationEngine.from_snapshot(tmp_path / "store")
    with pytest.warns(UserWarning, match="bypasses the engine's write lock"):
        restored.network.update_h_index("liu", 10)


def test_set_mutation_guard_none_detaches():
    network = build_figure1_network()
    TeamFormationEngine(network)
    network.set_mutation_guard(None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        network.update_h_index("liu", 10)
