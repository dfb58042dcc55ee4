"""Per-layer time split, measured from outside the library.

:class:`LayerProfile` wraps the public entry points of each module on
the request path (class attributes and module functions, patched in
place) and accumulates every layer's *self* time: a wrapped call's wall
time minus the wall time of the wrapped calls nested inside it.  Each
thread keeps its own stack and totals, so the server's event-loop and
executor threads are measured alongside the caller.  :meth:`remove`
restores every original attribute, and :meth:`restored` proves it.

:class:`NodeCostCounter` counts ``TeamEvaluator.node_cost`` calls in a
pass of their own: the call runs tens of thousands of times per greedy
request, so timing it would skew every other layer's share.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import repro.api.engine as engine_mod
import repro.api.solvers as solvers_mod
import repro.core.greedy as greedy_mod
from repro.api import TeamFormationEngine, TeamRequest, TeamResponse
from repro.api.messages import ScoreBreakdown
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedyTeamFinder
from repro.core.objectives import TeamEvaluator
from repro.core.pareto import ParetoTeamDiscovery
from repro.core.random_search import RandomSolver
from repro.core.rarest_first import RarestFirstSolver
from repro.core.sa_solver import SaOptimalSolver
from repro.graph.pll import PrunedLandmarkLabeling
from repro.graph.sharded_oracle import ShardedPLLOracle

_ORACLE_METHODS = ("distances_from", "distance", "distances_many", "path")

#: (owner, attribute, layer) for every wrapped entry point.
TARGETS: tuple[tuple[object, str, str], ...] = (
    (TeamRequest, "from_dict", "messages"),
    (TeamResponse, "to_json", "messages"),
    (TeamFormationEngine, "solve", "engine"),
    *(
        (TeamFormationEngine, name, "engine")
        for name in (
            "greedy_finder",
            "rarest_first_solver",
            "sa_optimal_solver",
            "exact_solver",
            "random_solver",
            "pareto_discovery",
            "evaluator",
            "search_oracle",
            "raw_oracle",
        )
    ),
    (solvers_mod._BaseAdapter, "solve", "solvers"),
    (solvers_mod, "explain_team", "respond"),
    (ScoreBreakdown, "from_team", "respond"),
    (GreedyTeamFinder, "find_top_k", "core.find"),
    (RarestFirstSolver, "find_team", "core.other"),
    (SaOptimalSolver, "find_team", "core.other"),
    (ExactSolver, "find_top_k", "core.other"),
    (RandomSolver, "find_team", "core.other"),
    (ParetoTeamDiscovery, "discover", "core.other"),
    (greedy_mod, "dijkstra", "materialize"),
    *((PrunedLandmarkLabeling, name, "oracle") for name in _ORACLE_METHODS),
    *((ShardedPLLOracle, name, "oracle") for name in _ORACLE_METHODS),
    (engine_mod, "build_oracle", "index"),
    (PrunedLandmarkLabeling, "clone", "index"),
    (PrunedLandmarkLabeling, "insert_edge", "index"),
    (PrunedLandmarkLabeling, "add_node", "index"),
)


def _unwrap(descriptor):
    if isinstance(descriptor, (classmethod, staticmethod)):
        return descriptor.__func__, type(descriptor)
    return descriptor, None


class _Patches:
    """Attribute patches that can all be undone and verified."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        func, kind = _unwrap(original)
        wrapper = functools.wraps(func)(make_wrapper(func))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._originals.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(
            owner.__dict__[attr] is original for owner, attr, original in self._originals
        )


class _ThreadState:
    __slots__ = ("stack", "totals", "records", "oracle_entries")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, child seconds]
        self.totals: dict[str, float] = defaultdict(float)
        self.records: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.oracle_entries = 0


class LayerProfile(_Patches):
    """Self time per layer plus per-call records of chosen entry points.

    Records: ``solve:<solver>`` for each ``engine.solve``, ``decode`` for
    ``TeamRequest.from_dict`` and ``encode`` for ``TeamResponse.to_json``,
    each as ``(end perf_counter, seconds)`` so calls made on different
    threads merge back into request order.
    """

    def __init__(self) -> None:
        super().__init__()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def install(self) -> "LayerProfile":
        for owner, attr, layer in TARGETS:
            self.patch(owner, attr, functools.partial(self._timed, layer, attr, owner))
        return self

    def _timed(self, layer: str, attr: str, owner: object, func):
        record = {
            (TeamRequest, "from_dict"): "decode",
            (TeamResponse, "to_json"): "encode",
        }.get((owner, attr))
        is_solve = owner is TeamFormationEngine and attr == "solve"
        state_of = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if layer == "oracle" and (not stack or stack[-1][0] != "oracle"):
                state.oracle_entries += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stack.pop()
                state.totals[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if is_solve:
                    state.records[f"solve:{args[1].solver}"].append((t1, elapsed))
                elif record is not None:
                    state.records[record].append((t1, elapsed))

        return wrapper

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for state in self._states:
                for layer, seconds in state.totals.items():
                    out[layer] += seconds
        return dict(out)

    def records(self, prefix: str) -> list[tuple[float, float]]:
        """Every record whose key starts with ``prefix``, in end-time order."""
        out: list[tuple[float, float]] = []
        with self._lock:
            for state in self._states:
                for key, rows in state.records.items():
                    if key.startswith(prefix):
                        out.extend(rows)
        return sorted(out)

    def record_keys(self) -> set[str]:
        with self._lock:
            return {key for state in self._states for key in state.records}

    def oracle_entries(self) -> int:
        with self._lock:
            return sum(state.oracle_entries for state in self._states)


class NodeCostCounter(_Patches):
    """Counts ``TeamEvaluator.node_cost`` calls (no timing)."""

    def install(self) -> "NodeCostCounter":
        self._count = itertools.count()

        def make(func):
            tick = self._count.__next__

            def wrapper(*args, **kwargs):
                tick()
                return func(*args, **kwargs)

            return wrapper

        self.patch(TeamEvaluator, "node_cost", make)
        return self

    def calls(self) -> int:
        """Calls since :meth:`install`; read it once, after the pass."""
        return next(self._count)
