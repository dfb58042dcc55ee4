"""The serving facade: one engine, one network, shared indexes.

:class:`TeamFormationEngine` is the multi-query hot path the repo routes
through.  It owns exactly one :class:`~repro.expertise.network.ExpertNetwork`,
one set of :class:`~repro.core.objectives.ObjectiveScales`, and a keyed
cache of distance oracles, so a stream of requests — a lambda sweep, a
``solve_many`` batch, a long-lived server loop — builds each PLL index
exactly once instead of once per solver instance.

The cache key is what the index actually depends on:

* the greedy search graph for ``cc`` depends only on the scales;
* the folded graph ``G'`` depends on ``gamma`` (never on ``lambda``);
* RarestFirst measures the *raw* network graph;
* and every entry is keyed on the network's mutation ``version``, so a
  ``network.add_collaboration(...)`` between two solves can never serve
  pre-mutation distances.

When the network mutates, a stale entry is *upgraded* instead of
rebuilt whenever the delta allows it: node additions and
distance-decreasing edge changes replay onto a clone of the oracle with
its ``apply``, skill-only edits reuse the index untouched, and an
h-index raise under an authority-folded graph replays as weight
decreases on the expert's edges (with frozen scales the fold is
monotone in ``a' = 1/h``).  Everything else — removals, weight
increases, an h-index cut under the fold — falls back to a fresh build,
or to what the oracle's ``partial_rebuild`` narrows it to (a sharded
index on an unchanged shard plan rebuilds only the shards the delta
touched).  A sharded engine keeps its shard plan across a delta that
provably leaves it unchanged — skill and authority edits, reweights,
and new edges inside one leaf region of the plan — and re-runs the
partitioner otherwise.
:meth:`TeamFormationEngine.apply_updates` runs the same reconciliation
eagerly and reports what happened per cached index.

``scales`` are normalization constants and deliberately stay frozen at
engine construction so scores remain comparable across mutations; call
:meth:`TeamFormationEngine.refresh_scales` to re-derive them (which
drops every cached oracle).

Every solver the engine hands out — whether through the typed
:meth:`solve` / :meth:`solve_many` request path or through the factory
methods the experiment runners use — is constructed with the same
arguments a direct instantiation would use, so teams are identical
either way (asserted per registered solver in ``tests/api``).

The engine is **thread-safe** (see :mod:`repro.serving`): concurrent
misses on the same cache key single-flight onto one build, eviction and
memo bookkeeping are lock-protected, stale entries are upgraded onto a
*clone* so an oracle a concurrent solve still holds is never mutated
under it, and a reader/writer discipline keeps
:meth:`TeamFormationEngine.mutate` / :meth:`~TeamFormationEngine.apply_updates`
/ :meth:`~TeamFormationEngine.refresh_scales` (writers) from tearing an
in-flight :meth:`solve` (reader).  The one contract concurrency adds:
when any other thread may be solving, mutate the network through
:meth:`TeamFormationEngine.mutate`, not by calling the
:class:`ExpertNetwork` mutation API directly — the engine cannot
serialize writes it never sees.

The whole serving state is durable: :meth:`TeamFormationEngine.save_snapshot`
freezes the network (with its mutation journal), the scales and every
current 2-hop-cover index into a CRC-checked binary snapshot
(:mod:`repro.storage`), and :meth:`TeamFormationEngine.from_snapshot`
warm-starts a new process from it without rebuilding an index — or
attaches the snapshot to a newer live network, reconciling through the
same version-keyed incremental path mutations use.
"""

from __future__ import annotations

import contextvars
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

from ..core.brute_force import BruteForceSolver
from ..core.exact import ExactSolver
from ..core.greedy import GreedyTeamFinder, search_graph_for
from ..core.objectives import ObjectiveScales, SaMode, TeamEvaluator
from ..core.pareto import ParetoTeamDiscovery
from ..core.random_search import DEFAULT_NUM_SAMPLES, RandomSolver
from ..core.rarest_first import RarestFirstSolver
from ..core.sa_solver import SaOptimalSolver
from ..core.transform import transformed_edge_weight
from ..expertise.network import ExpertNetwork, NetworkMutation
from ..expertise.serialize import expert_from_dict, mutation_from_dict
from ..graph.adjacency import Graph, GraphError
from ..graph.distance import DistanceOracle, build_oracle, restore_oracle
from ..graph.partition import ShardPlan, plan_shards
from .. import obs
from ..storage.codec import (
    EngineSnapshotState,
    OracleEntryState,
    decode_engine_snapshot,
    encode_engine_snapshot,
    strip_shard_tag,
)
from ..storage.errors import (
    CorruptDeltaError,
    CorruptSnapshotError,
    JournalTruncatedError,
    StaleSnapshotError,
)
from ..storage.format import (
    decode_container,
    encode_container,
    read_container,
    write_container,
)
from ..storage.store import SnapshotStore, resolve_snapshot_path
from .locks import ReadWriteLock
from .messages import TeamRequest, TeamResponse
from .registry import Solver, SolverRegistry, UnknownSolverError
from .solvers import DEFAULT_REGISTRY

__all__ = ["TeamFormationEngine"]


def _keeps_plan(
    delta: tuple[NetworkMutation, ...] | None, plan: ShardPlan
) -> bool:
    """Whether ``plan_shards`` provably returns ``plan`` again after ``delta``.

    True when every mutation is a skill or authority edit, a reweight of
    an existing edge, or a new edge inside one leaf region of ``plan``
    (see :mod:`repro.graph.partition` for why such an edge keeps it).
    """
    return delta is not None and all(
        m.op in ("update_skills", "update_h_index")
        or (
            m.op == "add_collaboration"
            and (m.old_weight is not None or plan.same_region(m.u, m.v))
        )
        for m in delta
    )


class TeamFormationEngine:
    """Unified entry point for every team-discovery strategy.

    Parameters
    ----------
    network:
        The expert network all requests are answered over.
    scales:
        Normalization constants shared by every solver; derived from the
        network when omitted.
    sa_mode:
        Default Definition-5 reading for requests/factories that do not
        specify one.
    oracle_kind:
        Default distance-oracle implementation (``"pll"`` or
        ``"dijkstra"``) for factory calls that do not specify one.
    registry:
        The solver registry to dispatch requests through; defaults to
        the built-in seven solvers.
    shards:
        Partition the collaboration graph into this many shards and
        serve every PLL index as a
        :class:`~repro.graph.sharded_oracle.ShardedPLLOracle` (per-shard
        labels + boundary-distance summary; answers are exactly the
        monolithic oracle's).  ``None`` (default) keeps the monolithic
        index.  Cache keys gain the deterministic shard-plan hash, so a
        sharded engine never aliases a monolithic entry.
    max_cached_oracles, max_cached_finders:
        FIFO bounds on the oracle and finder caches.  Gamma arrives over
        the wire as a continuous float, so a long-lived serving loop fed
        adversarially varied gammas would otherwise accumulate one full
        PLL index per distinct value until OOM.

    >>> # engine = TeamFormationEngine(network)
    >>> # engine.solve(TeamRequest(skills=("db", "ml"), solver="greedy"))
    """

    def __init__(
        self,
        network: ExpertNetwork,
        *,
        scales: ObjectiveScales | None = None,
        sa_mode: SaMode = "per_skill",
        oracle_kind: str = "pll",
        registry: SolverRegistry | None = None,
        shards: int | None = None,
        max_cached_oracles: int = 16,
        max_cached_finders: int = 128,
    ) -> None:
        if max_cached_oracles < 1 or max_cached_finders < 1:
            raise ValueError("cache bounds must be positive")
        if shards is not None and shards < 1:
            raise ValueError("shards must be positive")
        self.shards = shards
        # Shard plans memoized per network version (cheap relative to a
        # build, but recomputing components + articulation cuts on every
        # solve would still show); guarded by `_mutex`.
        self._shard_plans: dict[int, ShardPlan] = {}
        self._network = network
        self.scales = scales or ObjectiveScales.from_network(network)
        self.sa_mode: SaMode = sa_mode
        self.oracle_kind = oracle_kind
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._max_cached_oracles = max_cached_oracles
        self._max_cached_finders = max_cached_finders
        # Entries carry the graph next to its oracle so a finder
        # construction never rebuilds the fold a second time, and are
        # keyed ``(*base, network.version)`` where ``base`` is
        # ``(kind, "cc")``, ``(kind, "fold", gamma)`` or ``(kind, "raw")``.
        self._search_cache: dict[tuple, tuple[Graph, DistanceOracle]] = {}
        self._raw_oracles: dict[tuple, tuple[Graph, DistanceOracle]] = {}
        self._finders: dict[tuple, GreedyTeamFinder] = {}
        self._adapters: dict[str, Solver] = {}
        # Concurrency (see repro.serving): `_mutex` guards every cache
        # dict above and is only ever the *innermost* lock; `_build_locks`
        # holds one per-cache-key lock so concurrent misses single-flight
        # onto one build; `_rw` is the reader (solve) / writer (mutate,
        # apply_updates, refresh_scales) discipline.
        self._mutex = threading.RLock()
        self._build_locks: dict[tuple, threading.Lock] = {}
        self._rw = ReadWriteLock()
        # Attach the mutation guard (the PR-5 known limit, now closed):
        # direct network mutation outside `engine.mutate()` bypasses
        # `_rw` and can tear an in-flight solve, so the network warns on
        # it (raises under REPRO_STRICT=1).  Latest attach wins if two
        # engines ever share one network — also a bypass of each
        # other's locks, which the warning then at least half-covers.
        network.set_mutation_guard(
            lambda: self._rw.write_held_by_current_thread
        )

    @property
    def network(self) -> ExpertNetwork:
        """The engine-owned expert network (read-only attachment).

        Reading (lookups, solving) is unrestricted.  *Mutating* it
        directly is guarded: go through ``with engine.mutate() as net:``
        so the engine's writer lock serializes the change against
        in-flight solves — a direct mutation call emits a
        :class:`UserWarning` (or raises under ``REPRO_STRICT=1``).
        """
        return self._network

    # ------------------------------------------------------------------
    # the request/response serving path
    # ------------------------------------------------------------------
    def solve(self, request: TeamRequest) -> TeamResponse:
        """Answer one request via its registered solver.

        Raise-through by design: an unknown solver or malformed request
        surfaces as an exception here (batch callers get per-request
        isolation from :meth:`solve_many` instead).  Holds the read side
        of the engine's reader/writer lock for the whole solve, so a
        concurrent :meth:`mutate` / :meth:`refresh_scales` can never
        tear it mid-flight.

        When tracing is active this opens an ``engine.solve`` span; if
        that span turns out to be the trace *root* (a standalone traced
        solve, no server above it), the finished tree is attached to the
        response via :meth:`TeamResponse.with_trace` — identity-safe,
        since the tree rides inside ``timing``.
        """
        obs.global_registry().counter("engine_solves").inc()
        sp = obs.span("engine.solve", solver=request.solver)
        with sp:
            with self._rw.read_locked():
                response = self._adapter(request.solver).solve(request)
        if sp.is_recording and sp.is_root:
            response = response.with_trace(sp.to_dict())
        return response

    def solve_many(
        self,
        requests: Iterable[TeamRequest],
        *,
        parallel: int | None = None,
        on_error: str = "isolate",
    ) -> list[TeamResponse]:
        """Answer a batch of requests, sharing cached indexes throughout.

        This is the hot path the engine exists for: a gamma-homogeneous
        batch (e.g. a lambda sweep) pays for at most one PLL build no
        matter how many requests it contains — including when served
        concurrently, where misses on the same key single-flight onto
        one build.

        ``parallel`` threads the batch over the shared engine
        (``None``/``1`` keeps the sequential loop); responses come back
        in request order either way.

        ``on_error`` controls batch isolation.  The default
        ``"isolate"`` converts a per-request failure (unknown solver,
        request the solver cannot digest) into an error
        :class:`TeamResponse` (``found=False`` with a typed
        ``error_kind``) so one bad request never discards the rest of
        the batch's answers; ``"raise"`` restores the single-``solve``
        raise-through behavior.
        """
        requests = list(requests)
        if on_error not in ("isolate", "raise"):
            raise ValueError(
                f"on_error must be 'isolate' or 'raise', got {on_error!r}"
            )
        if parallel is not None and parallel < 1:
            raise ValueError("parallel must be a positive worker count")
        answer: Callable[[TeamRequest], TeamResponse] = (
            self.solve_isolated if on_error == "isolate" else self.solve
        )
        if parallel is None or parallel == 1 or len(requests) <= 1:
            return [answer(request) for request in requests]
        # One private context copy per request: worker threads re-enter
        # the caller's context so an active trace span parents each
        # request's engine spans (thread pools do not propagate context,
        # and one shared Context object cannot be entered concurrently).
        contexts = [contextvars.copy_context() for _ in requests]
        with ThreadPoolExecutor(
            max_workers=min(parallel, len(requests)),
            thread_name_prefix="solve-many",
        ) as pool:
            return list(
                pool.map(lambda ctx, req: ctx.run(answer, req), contexts, requests)
            )

    def solve_isolated(self, request: TeamRequest) -> TeamResponse:
        """:meth:`solve`, with failures returned in-band as responses.

        The serving loops (``solve_many``, the replica pool, ``serve``)
        route through this so one poisoned request yields one error
        response instead of aborting a batch.  ``error_kind`` is
        ``"unknown_solver"``, ``"invalid_request"`` (the solver rejected
        the request's shape), or ``"internal"``.
        """
        try:
            return self.solve(request)
        except UnknownSolverError as exc:
            return TeamResponse.for_error(request, "unknown_solver", str(exc))
        except (ValueError, KeyError, GraphError) as exc:
            return TeamResponse.for_error(request, "invalid_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - serving isolation boundary
            return TeamResponse.for_error(
                request, "internal", f"{type(exc).__name__}: {exc}"
            )

    @contextmanager
    def mutate(self) -> Iterator[ExpertNetwork]:
        """Exclusive access to the network for a mutation block.

        ``with engine.mutate() as network:`` takes the write side of the
        engine's reader/writer lock, so every in-flight solve completes
        (or has not started) before the mutations land and no solve can
        observe a half-applied mutation burst.  This is the supported
        way to mutate the network while other threads are solving;
        calling the :class:`ExpertNetwork` mutation API directly remains
        fine in single-threaded code but is unsynchronized.
        """
        with self._rw.write_locked():
            yield self.network

    def list_solvers(self) -> tuple[str, ...]:
        """Names this engine can route to, sorted."""
        return self.registry.names()

    def _adapter(self, name: str) -> Solver:
        with self._mutex:
            adapter = self._adapters.get(name)
            if adapter is None:
                adapter = self._adapters[name] = self.registry.create(name, self)
            return adapter

    # ------------------------------------------------------------------
    # the shared-oracle session layer
    # ------------------------------------------------------------------
    def search_oracle(
        self, objective: str, gamma: float, oracle_kind: str | None = None
    ) -> DistanceOracle:
        """The (cached) oracle over Algorithm 1's search graph.

        Keyed on what the index depends on: ``(kind,)`` graph flavor,
        for authority-folded graphs gamma, and the network's mutation
        version.  ``"ca"`` degenerates to the fold at ``gamma=1``
        exactly as :class:`GreedyTeamFinder` does, so the cache never
        splits hairs the search graph doesn't.
        """
        return self._search_entry(objective, gamma, oracle_kind)[1]

    def _search_entry(
        self, objective: str, gamma: float, oracle_kind: str | None = None
    ) -> tuple[Graph, DistanceOracle]:
        kind = oracle_kind or self.oracle_kind
        if objective == "cc":
            base: tuple = (kind, "cc")
        else:
            effective_gamma = 1.0 if objective == "ca" else gamma
            base = (kind, "fold", effective_gamma)
        base = self._tag_sharded(base)
        return self._entry(self._search_cache, base, self._max_cached_oracles)[0]

    def raw_oracle(self, oracle_kind: str | None = None) -> DistanceOracle:
        """The (cached) oracle over the plain communication-cost graph."""
        kind = oracle_kind or self.oracle_kind
        entry, _ = self._entry(
            self._raw_oracles,
            self._tag_sharded((kind, "raw")),
            self._max_cached_oracles,
        )
        return entry[1]

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    def _shard_plan(self, network: ExpertNetwork | None = None) -> ShardPlan:
        """The (memoized) shard plan for ``network``'s version.

        Computed from the raw collaboration graph's topology; the cc and
        fold search graphs are pure reweightings of it, so one plan is
        valid for every flavor at a given version.  Deterministic and
        seed-independent, hence identical in every process serving the
        same network.  A version that misses the memo reuses the newest
        memoized version's plan object when every mutation since keeps
        it (:func:`_keeps_plan`: skill and authority edits, reweights of
        existing edges, and new edges inside one leaf region of that
        plan); otherwise it re-plans.  Each miss ticks
        ``engine_shard_plans_reused`` or ``engine_shard_plans_computed``;
        memo hits, the read path, count nothing.  ``network`` defaults to
        the engine's; a snapshot restore passes the snapshot's network,
        so the plan its entries were tagged with is memoized at the
        snapshot's version.
        """
        if network is None:
            network = self._network
        version = network.version
        with self._mutex:
            plan = self._shard_plans.get(version)
            prev_version = max(
                (v for v in self._shard_plans if v < version), default=None
            )
            prev_plan = self._shard_plans.get(prev_version)
        if plan is not None:
            return plan
        if prev_plan is not None and _keeps_plan(
            network.mutations_since(prev_version), prev_plan
        ):
            plan = prev_plan
            outcome = "reused"
        else:
            plan = plan_shards(network.graph, self.shards)
            outcome = "computed"
        obs.global_registry().counter(f"engine_shard_plans_{outcome}").inc()
        with self._mutex:
            while len(self._shard_plans) >= 4:
                self._shard_plans.pop(next(iter(self._shard_plans)), None)
            return self._shard_plans.setdefault(version, plan)

    def _tag_sharded(self, base: tuple) -> tuple:
        """Append the shard tag ``("shards", K, plan_hash)`` when active.

        Only PLL bases shard (a lazy Dijkstra oracle has no label store
        to split); a monolithic engine's keys are byte-for-byte what
        they were before sharding existed.
        """
        if self.shards is None or base[0] != "pll":
            return base
        plan = self._shard_plan()
        return (*base, ("shards", self.shards, plan.plan_hash))

    # ------------------------------------------------------------------
    # versioned cache reconciliation
    # ------------------------------------------------------------------
    def _entry(
        self, cache: dict, base: tuple, bound: int
    ) -> tuple[tuple[Graph, DistanceOracle], str]:
        """The entry for ``base`` at the *current* network version.

        Instrumented wrapper over :meth:`_entry_flight`: one
        ``engine.oracle`` span whose ``outcome`` attribute is the
        ``how`` below, plus an ``engine_oracle_<how>`` counter.
        """
        with obs.span("engine.oracle", base=str(base[1])) as sp:
            entry, how = self._entry_flight(cache, base, bound)
            sp.set_attribute("outcome", how)
        obs.global_registry().counter(f"engine_oracle_{how}").inc()
        return entry, how

    def _entry_flight(
        self, cache: dict, base: tuple, bound: int
    ) -> tuple[tuple[Graph, DistanceOracle], str]:
        """The uninstrumented body of :meth:`_entry`.

        Returns ``(entry, how)`` where ``how`` records what it cost:
        ``"cached"`` (already current), ``"incremental"`` (a stale entry
        absorbed the delta onto a clone), or ``"rebuilt"`` (fresh
        build).

        Concurrent misses on the same key **single-flight**: the first
        thread in takes the key's build lock and pays for the build,
        every other thread blocks on that lock and finds the entry
        cached on re-check — a cold engine hammered from N threads bumps
        ``pll_build_count`` by exactly 1 per key.  ``_mutex`` is only
        held for dict bookkeeping, never across a build, so misses on
        *different* keys build concurrently.
        """
        while True:
            version = self.network.version
            key = (*base, version)
            with self._mutex:
                entry = cache.get(key)
                if entry is not None:
                    return entry, "cached"
                build_lock = self._build_locks.setdefault(key, threading.Lock())
            if not build_lock.acquire(blocking=False):
                # Contended: another thread owns this flight.  Count the
                # wait and time it as its own span before blocking.
                obs.global_registry().counter("engine_singleflight_waits").inc()
                with obs.span("engine.singleflight_wait", base=str(base[1])):
                    build_lock.acquire()
            try:
                with self._mutex:
                    if self._build_locks.get(key) is not build_lock:
                        # This flight was deregistered while we waited
                        # (entry built, then evicted, and a fresh flight
                        # registered a new lock): rejoin from the top
                        # rather than build concurrently with it.
                        continue
                    entry = cache.get(key)
                    if entry is not None:
                        # Joined a flight that already landed.
                        return entry, "cached"
                    stale = self._claim_stale(cache, base)
                try:
                    how = "incremental"
                    entry = (
                        self._upgrade_entry(stale, base)
                        if stale is not None
                        else None
                    )
                    if entry is None:
                        entry = self._build_entry(base)
                        how = "rebuilt"
                    with self._mutex:
                        if len(cache) >= bound:
                            # FIFO eviction under the lock: an evicted
                            # entry is only unlinked from the cache — an
                            # in-flight solve still holding it keeps its
                            # own reference.
                            cache.pop(next(iter(cache)), None)
                        cache[key] = entry
                    return entry, how
                finally:
                    # Only the thread that owns this flight deregisters
                    # its lock (landed or raised); an identity check
                    # keeps a slow unwinder from popping a *newer*
                    # flight's lock out from under its builder.
                    with self._mutex:
                        if self._build_locks.get(key) is build_lock:
                            del self._build_locks[key]
            finally:
                build_lock.release()

    def _claim_stale(
        self, cache: dict, base: tuple
    ) -> tuple[tuple[Graph, DistanceOracle], int] | None:
        """Pop the freshest stale entry for ``base`` (with its version).

        Every stale key for ``base`` is dropped from the cache (the
        claimed one feeds the upgrade; older siblings are dead weight),
        and so is every stale key for the same flavor under another
        shard plan: a plan change makes those unservable for good.
        Must be called under ``_mutex``.
        """
        core = strip_shard_tag(base)
        stale = [key for key in cache if strip_shard_tag(key[:-1]) == core]
        claimable = [key for key in stale if key[:-1] == base]
        claimed = None
        if claimable:
            newest = max(claimable, key=lambda key: key[-1])
            claimed = cache[newest], newest[-1]
        for key in stale:
            del cache[key]
        return claimed

    def _build_entry(self, base: tuple) -> tuple[Graph, DistanceOracle]:
        """Build the search graph + oracle for ``base`` from scratch."""
        graph = self._derive_graph(base, self.network)
        plan = None
        if base is not strip_shard_tag(base):
            # Sharded base: the derived graph has the raw graph's
            # topology, so the memoized plan for this version applies
            # when its hash is the one the key was tagged with.
            plan = self._shard_plan()
            if plan.plan_hash != base[-1][2]:
                plan = plan_shards(graph, base[-1][1])
        return graph, build_oracle(graph, base[0], shard_plan=plan)

    def _derive_graph(self, base: tuple, network: ExpertNetwork) -> Graph:
        """The derived graph ``base`` indexes, built over ``network``.

        Factored out of :meth:`_build_entry` so snapshot restoration can
        derive an entry's graph from the *snapshot's* network (the state
        the persisted labels were computed over) rather than the
        engine's possibly-newer live network.
        """
        flavor = strip_shard_tag(base)[1]
        if flavor == "raw":
            return network.graph
        if flavor == "cc":
            return search_graph_for(network, "cc", 0.0, self.scales)
        # fold at base[2] = effective gamma
        return search_graph_for(network, "ca-cc", base[2], self.scales)

    def _upgrade_entry(
        self, stale: tuple[tuple[Graph, DistanceOracle], int], base: tuple
    ) -> tuple[Graph, DistanceOracle] | None:
        """Bring a claimed stale entry for ``base`` up to the current version.

        Asks the network for the mutation delta since the stale entry's
        version.  When the oracle can absorb it, the delta is replayed
        with one ``apply`` onto a **clone** over a copy of the entry's
        graph.  Otherwise the oracle's ``partial_rebuild`` may rebuild just
        what the delta touched, on a clone over the graph derived at
        the current version (stale keys carry the plan hash, so a
        sharded entry always shares the current plan).  The stale oracle
        may still be mid-query in another thread's solve, so it is never
        mutated.  Returns ``None`` when the caller must rebuild.
        """
        (graph, oracle), stale_version = stale
        delta = self.network.mutations_since(stale_version)
        if delta is None:
            return None
        steps, touched = self._plan_replay(delta, base, graph)
        rebuild = oracle.partial_rebuild(touched) if steps is None else None
        if steps is None and rebuild is None:
            return None
        obs.global_registry().counter("engine_journal_replays").inc()
        with obs.span("engine.journal_replay", steps=len(steps or ())):
            if rebuild is not None:
                graph = self._derive_graph(base, self.network)
                return graph, rebuild(graph)
            # For ``raw`` the entry's graph is the live network graph,
            # which already carries the delta; the copy captures it.
            graph = graph.copy()
            oracle = oracle.clone(graph)
            oracle.apply(steps)
        return graph, oracle

    def _plan_replay(
        self, delta: tuple[NetworkMutation, ...], base: tuple, graph: Graph
    ) -> tuple[list[tuple] | None, list[tuple] | None]:
        """Map a network delta onto ``(steps, touched)`` for ``base``.

        ``steps`` are the oracle ``apply`` steps: new nodes, then one
        step per new or reweighted edge at its final derived weight.
        Skill edits (and authority edits off the fold) drop out.  Under
        the fold an authority edit reweights every edge of its expert,
        and an edge whose derived weight did not move gets no step.
        With frozen scales every operation of the fold is correctly
        rounded, so monotone: a higher h-index never raises a folded
        weight, and a raise replays as weight decreases.  ``steps`` are
        ``None`` when a removal or a net derived weight increase (an
        h-index cut, say) may grow a distance.  A derived weight is
        judged against ``graph``, the stale entry's graph, which holds
        the weights of the cached version; ``raw``'s graph is the live
        one, so there the journal's ``old_weight`` is the reference.

        ``touched`` is what the oracle's ``partial_rebuild`` may narrow
        a rebuild to: ``(u, v)`` per changed edge and ``(expert,)`` per
        authority edit under the fold, or ``None`` when a node was
        added or removed.
        """
        flavor = base[1]
        fold = flavor == "fold"
        steps: list[tuple] | None = []
        touched: list[tuple] | None = []
        # Reweighting chains are coalesced to one step per edge: only
        # the edge's *final* derived weight matters, compared against
        # its weight at the cached version — intermediate weights are
        # never replayed, so a chain is incremental iff its net effect
        # is an insertion or a decrease.  ``edge_origin`` holds each
        # written edge's raw weight at the cached version (the first
        # record's ``old_weight``).
        edge_origin: dict[frozenset, float | None] = {}
        edge_final: dict[frozenset, tuple[str, str, float]] = {}
        authority_edits: dict[str, None] = {}  # ordered set of experts
        for mutation in delta:
            op = mutation.op
            if op == "update_skills" or (op == "update_h_index" and not fold):
                continue  # no distance impact
            if op in ("add_expert", "remove_expert"):
                touched = None
            elif touched is not None:
                touched.append(
                    (mutation.expert_id,)
                    if op == "update_h_index"
                    else (mutation.u, mutation.v)
                )
            if steps is None:
                continue
            if op == "add_expert":
                steps.append(("node", mutation.expert_id))
            elif op == "add_collaboration":  # insertion or reweighting
                pair = frozenset((mutation.u, mutation.v))
                edge_origin.setdefault(pair, mutation.old_weight)
                edge_final[pair] = (mutation.u, mutation.v, mutation.weight)
            elif op == "update_h_index":  # under the fold
                authority_edits[mutation.expert_id] = None
            else:  # a removal
                steps = None
        if steps is None:
            return None, touched
        live = self.network.graph
        for expert in authority_edits:
            for other, weight in live.neighbors(expert).items():
                edge_final.setdefault(
                    frozenset((expert, other)), (expert, other, weight)
                )
        # Node additions first: an edge step may reference a new expert.
        for pair, (u, v, weight) in edge_final.items():
            new_w = self._derived_weight(base, u, v, weight)
            if flavor == "raw":
                origin = edge_origin[pair]
            else:
                origin = graph.weight(u, v) if graph.has_edge(u, v) else None
            if origin is not None:
                if new_w > origin:
                    return None, touched  # net weight increase: distances may grow
                if new_w == origin and pair not in edge_origin:
                    continue  # an authority edit that left this edge alone
            steps.append(("edge", u, v, new_w))
        return steps, touched

    def _derived_weight(self, base: tuple, u: str, v: str, weight: float) -> float:
        """What edge ``{u, v}`` at raw ``weight`` weighs on ``base``'s graph."""
        flavor = base[1]
        if flavor == "raw":
            return weight
        if flavor == "cc":
            return weight / self.scales.edge_scale
        inv_u = self.network.inverse_authority(u) / self.scales.authority_scale
        inv_v = self.network.inverse_authority(v) / self.scales.authority_scale
        return transformed_edge_weight(
            inv_u, inv_v, weight / self.scales.edge_scale, base[2]
        )

    def apply_updates(self) -> dict[str, int]:
        """Eagerly reconcile every cached oracle with the network.

        The lazy serving path performs the same reconciliation on the
        next request touching each index; this method front-loads the
        work (e.g. after a mutation burst, before a latency-sensitive
        window) and reports what it cost::

            {"cached": n, "incremental": n, "rebuilt": n}

        A sharded index that absorbed the delta shard by shard counts
        as ``"incremental"`` even when some of its shards were rebuilt;
        only a whole-index build (a new plan, a truncated journal)
        counts as ``"rebuilt"``.
        """
        report = {"cached": 0, "incremental": 0, "rebuilt": 0}
        with self._rw.write_locked():
            for cache in (self._search_cache, self._raw_oracles):
                with self._mutex:
                    cores = {strip_shard_tag(key[:-1]) for key in cache}
                # Re-tag under the current plan: a key tagged with an
                # older plan would otherwise be rebuilt under its stale
                # tag, where no solve ever looks.
                bases = {self._tag_sharded(core) for core in cores}
                for base in bases:
                    _, how = self._entry(cache, base, self._max_cached_oracles)
                    report[how] += 1
        return report

    def refresh_scales(self) -> ObjectiveScales:
        """Re-derive normalization scales from the mutated network.

        Scales are frozen at construction so scores stay comparable
        across mutations; call this when the network has drifted enough
        that stale normalization matters.  Every cached oracle and
        finder depends on the scales, so both caches are dropped.  Runs
        as a writer: no in-flight solve can observe the new scales with
        an old oracle (or vice versa).
        """
        with self._rw.write_locked():
            scales = ObjectiveScales.from_network(self.network)
            with self._mutex:
                self.scales = scales
                self._search_cache.clear()
                self._raw_oracles.clear()
                self._finders.clear()
            return self.scales

    # ------------------------------------------------------------------
    # persistence / warm start (see repro.storage)
    # ------------------------------------------------------------------
    def save_snapshot(
        self,
        target: "SnapshotStore | str | Path",
        *,
        retain: int | None = 5,
    ) -> Path:
        """Freeze this engine's serving state into a durable snapshot.

        Persists the network (state *and* mutation journal, so a loaded
        snapshot can be reconciled with a newer live journal), the
        frozen normalization scales, the default ``sa_mode`` /
        ``oracle_kind``, and every cached 2-hop-cover index that is
        current at the network's version.  Stale cache entries and
        Dijkstra oracles are skipped: the former would be upgraded or
        rebuilt on first touch anyway, and the latter hold no
        precomputation worth the bytes.

        ``target`` may be a :class:`SnapshotStore`, a store *directory*
        (``retain`` applies), or a single ``*.snap`` file path.  Returns
        the path written.  The write is atomic either way.
        """
        with self._rw.read_locked():
            return self._save_snapshot_locked(target, retain=retain)

    def _save_snapshot_locked(
        self,
        target: "SnapshotStore | str | Path",
        *,
        retain: int | None,
    ) -> Path:
        meta, sections = self._snapshot_sections_locked()
        if isinstance(target, SnapshotStore):
            return target.save(meta, sections)
        path = Path(target)
        if path.suffix == ".snap":
            return write_container(path, meta, sections)
        return SnapshotStore(path, retain=retain).save(meta, sections)

    def snapshot_bytes(self) -> bytes:
        """The engine's serving state as one in-memory snapshot container.

        Exactly what :meth:`save_snapshot` writes to disk — the same
        CRC-checked container format — but returned as bytes, so a
        replication primary can ship a full-state transfer over the
        wire (wrapped in a snapshot frame, see :mod:`repro.storage.delta`)
        without touching the filesystem.  Load with
        :meth:`from_snapshot_bytes`.
        """
        with self._rw.read_locked():
            meta, sections = self._snapshot_sections_locked()
        return encode_container(meta, sections)

    def _snapshot_sections_locked(
        self,
    ) -> tuple[dict, dict[str, bytes]]:
        version = self.network.version
        entries = []
        with self._mutex:
            caches = (
                ("search", dict(self._search_cache)),
                ("raw", dict(self._raw_oracles)),
            )
        for cache_name, cache in caches:
            for key, (_graph, oracle) in cache.items():
                # A 2-hop cover exports its labels; a Dijkstra oracle holds
                # nothing worth the bytes.
                if key[0] == "pll" and key[-1] == version:
                    entries.append(
                        OracleEntryState(
                            cache=cache_name,
                            base=key[:-1],
                            version=version,
                            labels=oracle.export_state(),
                        )
                    )
        return encode_engine_snapshot(
            EngineSnapshotState(
                network=self.network,
                edge_scale=self.scales.edge_scale,
                authority_scale=self.scales.authority_scale,
                sa_mode=self.sa_mode,
                oracle_kind=self.oracle_kind,
                entries=tuple(entries),
                shards=self.shards,
                shard_residency=(
                    self._shard_residency() if self.shards is not None else None
                ),
            )
        )

    def _shard_residency(self) -> dict[str, int]:
        """``{skill: home shard}`` — where each skill's holders mostly live.

        The *home shard* of a skill is the shard holding the majority of
        the experts with that skill (by the plan's own home-shard
        assignment; ties break to the lowest shard id).  The serving
        batcher uses this map — persisted in the snapshot meta — to
        group splittable requests by shard residency without loading
        the network.
        """
        plan = self._shard_plan()
        index = self._network.skill_index
        residency: dict[str, int] = {}
        for skill in sorted(index.skills()):
            votes: dict[int, int] = {}
            for expert in index.experts_with(skill):
                if not plan.has_node(expert):
                    continue
                home = plan.home_shard(expert)
                votes[home] = votes.get(home, 0) + 1
            if not votes:
                continue
            best = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
            residency[skill] = best[0]
        return residency

    @classmethod
    def from_snapshot(
        cls,
        source: "SnapshotStore | str | Path",
        *,
        network: ExpertNetwork | None = None,
        registry: SolverRegistry | None = None,
        max_cached_oracles: int = 16,
        max_cached_finders: int = 128,
    ) -> "TeamFormationEngine":
        """Warm-start an engine from a snapshot — no index build.

        ``source`` is a :class:`SnapshotStore`, a store directory (the
        LATEST snapshot is taken), or one ``*.snap`` file.  Every byte
        is CRC-verified before interpretation; damage raises
        :class:`~repro.storage.errors.CorruptSnapshotError`, a
        too-new format raises
        :class:`~repro.storage.errors.FormatVersionError`.

        Without ``network``, the engine serves the snapshot's own
        network, restored at the version it was frozen at (journal tail
        included, so later mutations reconcile incrementally exactly as
        they would have on the never-persisted engine).

        With ``network`` — a *live* network that has moved on to a newer
        version — the engine serves that network while adopting the
        snapshot's scales and indexes.  Each restored index stays keyed
        at the snapshot's version over a graph derived from the
        *snapshot's* state, and the engine's ordinary version-keyed
        reconciliation replays the live journal delta onto it on first
        touch (incrementally where the delta allows, rebuilding where it
        does not).  If the delta is unreplayable — the snapshot predates
        the live journal's floor, or claims a version the live network
        has not reached — :class:`StaleSnapshotError` is raised rather
        than ever serving wrong distances.
        """
        meta, sections = read_container(resolve_snapshot_path(source))
        state = decode_engine_snapshot(meta, sections)
        return cls._from_snapshot_state(
            state,
            network=network,
            registry=registry,
            max_cached_oracles=max_cached_oracles,
            max_cached_finders=max_cached_finders,
        )

    @classmethod
    def from_snapshot_bytes(
        cls,
        blob: bytes,
        *,
        network: ExpertNetwork | None = None,
        registry: SolverRegistry | None = None,
        max_cached_oracles: int = 16,
        max_cached_finders: int = 128,
    ) -> "TeamFormationEngine":
        """:meth:`from_snapshot` for an in-memory container.

        The inverse of :meth:`snapshot_bytes`: verifies and loads a
        snapshot container that arrived as bytes — the replication
        full-transfer fallback — with identical semantics (and identical
        typed errors) to loading the same container from a file.
        """
        meta, sections = decode_container(blob, source="<snapshot bytes>")
        state = decode_engine_snapshot(meta, sections)
        return cls._from_snapshot_state(
            state,
            network=network,
            registry=registry,
            max_cached_oracles=max_cached_oracles,
            max_cached_finders=max_cached_finders,
        )

    @classmethod
    def _from_snapshot_state(
        cls,
        state: EngineSnapshotState,
        *,
        network: ExpertNetwork | None,
        registry: SolverRegistry | None,
        max_cached_oracles: int,
        max_cached_finders: int,
    ) -> "TeamFormationEngine":
        snapshot_net = state.network
        if network is not None:
            frozen = snapshot_net.version
            if network.version < frozen:
                raise StaleSnapshotError(
                    f"snapshot at network version {frozen} is ahead of the "
                    f"live network ({network.version}); it belongs to a "
                    "different lineage"
                )
            if network.mutations_since(frozen) is None:
                raise StaleSnapshotError(
                    f"snapshot at network version {frozen} predates the live "
                    f"journal floor ({network.journal_floor}); the catch-up "
                    "delta was truncated — take a fresh snapshot"
                )
            # Version numbers alone cannot tell lineages apart: two
            # networks that mutated *differently* can share a version.
            # The journals can — wherever both retain a record for the
            # same version, the records must be identical.  (Divergence
            # older than both journal floors is out of reach; the
            # journals are the trust boundary, and they cover exactly
            # the window a replay would rely on.)
            start = max(network.journal_floor, snapshot_net.journal_floor)
            snap_overlap = tuple(
                m for m in snapshot_net.journal_tail() if m.version > start
            )
            live_overlap = tuple(
                m
                for m in network.mutations_since(start) or ()
                if m.version <= frozen
            )
            if snap_overlap != live_overlap:
                raise StaleSnapshotError(
                    "snapshot and live network journals disagree over "
                    f"their shared history (versions {start + 1}..{frozen}) "
                    "— the snapshot belongs to a different lineage"
                )
        engine = cls(
            network if network is not None else snapshot_net,
            scales=ObjectiveScales(
                edge_scale=state.edge_scale,
                authority_scale=state.authority_scale,
            ),
            sa_mode=state.sa_mode,  # type: ignore[arg-type]
            oracle_kind=state.oracle_kind,
            registry=registry,
            max_cached_oracles=max_cached_oracles,
            max_cached_finders=max_cached_finders,
            shards=state.shards,
        )
        # One plan for every sharded entry, memoized at the snapshot's
        # version: the entries' tags carry its hash, and the first reads
        # find it there.
        plan = engine._shard_plan(snapshot_net) if state.shards is not None else None
        for entry in state.entries:
            cache = (
                engine._search_cache
                if entry.cache == "search"
                else engine._raw_oracles
            )
            if len(cache) >= engine._max_cached_oracles:
                continue
            shard_plan = None
            if entry.base is not strip_shard_tag(entry.base):
                if plan is None or entry.base[-1][2] != plan.plan_hash:
                    continue  # another plan's labels: no read would reach them
                shard_plan = plan
            graph = engine._derive_graph(entry.base, snapshot_net)
            try:
                # Flat snapshot columns are adopted as the live query
                # representation — no per-entry inflation, no build.
                oracle = restore_oracle(graph, entry.labels, shard_plan=shard_plan)
            except GraphError as exc:
                raise CorruptSnapshotError(
                    f"oracle entry {entry.base!r}: {exc}"
                ) from None
            cache[(*entry.base, entry.version)] = (graph, oracle)
        return engine

    # ------------------------------------------------------------------
    # replication: consuming a primary's delta stream
    # (see repro.serving.replication for the primary side)
    # ------------------------------------------------------------------
    def apply_delta_payload(self, payload: dict) -> dict:
        """Apply one verified delta-frame payload; returns what happened.

        ``payload`` is the parsed JSON object a delta frame carries
        (already structurally validated by
        :func:`repro.storage.delta.iter_frames`).  Its enriched journal
        records are applied through :meth:`mutate` — the write-locked
        path local mutations take — so the network's version, journal
        and state advance exactly as the primary's did, and the cached
        indexes reconcile through the ordinary version-keyed path.

        Replay is idempotent (a frame at or below the current version is
        skipped whole) and gap-checked: a frame starting *past* the
        current version raises
        :class:`~repro.storage.errors.JournalTruncatedError`, the typed
        signal to fall back to a full snapshot transfer.  A record that
        contradicts this engine's own journal (same version, different
        mutation) raises :class:`~repro.storage.errors.StaleSnapshotError`:
        the two sides belong to different mutation lineages.
        :class:`repro.serving.replication.ReplicaFollower` drives this
        frame by frame.

        Returns ``{"applied", "skipped", "incremental_hint"}``.
        """
        with obs.span("engine.delta_apply"):
            return self._apply_delta_payload(payload)

    def _apply_delta_payload(self, payload: dict) -> dict:
        current = self.network.version
        from_version, to_version = payload["from_version"], payload["to_version"]
        if to_version <= current:
            # Already replayed (a retransmit, or an overlapping fetch).
            return {
                "applied": 0,
                "skipped": to_version - from_version,
                "incremental_hint": False,
            }
        if from_version > current:
            raise JournalTruncatedError(current, from_version)
        applied = skipped = 0
        with self.mutate() as network:
            expected = from_version + 1
            for entry in payload["records"]:
                mutation, expert, h_index = self._parse_replication_record(entry)
                if mutation.version != expected:
                    raise CorruptDeltaError(
                        f"delta records are not contiguous: expected version "
                        f"{expected}, got {mutation.version}"
                    )
                expected += 1
                if mutation.version <= network.version:
                    skipped += 1  # idempotent partial overlap
                    continue
                self._apply_replicated_mutation(network, mutation, expert, h_index)
                recorded = network.journal_tail()[-1]
                if recorded != mutation:
                    raise StaleSnapshotError(
                        f"replicated mutation at version {mutation.version} "
                        "disagrees with the record the follower's own journal "
                        "produced — primary and follower belong to different "
                        "mutation lineages"
                    )
                applied += 1
            if expected != to_version + 1:
                raise CorruptDeltaError(
                    f"delta payload ends at version {expected - 1}, "
                    f"declared to_version is {to_version}"
                )
        hints = payload.get("hints")
        hint = bool(isinstance(hints, dict) and hints.get("incremental"))
        return {"applied": applied, "skipped": skipped, "incremental_hint": hint}

    @staticmethod
    def _parse_replication_record(entry: object) -> tuple[NetworkMutation, object, float | None]:
        if not isinstance(entry, dict) or not isinstance(entry.get("mutation"), dict):
            raise CorruptDeltaError("malformed replication record (no mutation)")
        try:
            mutation = mutation_from_dict(entry["mutation"])
            expert = (
                None
                if entry.get("expert") is None
                else expert_from_dict(entry["expert"])
            )
            h_index = (
                None if entry.get("h_index") is None else float(entry["h_index"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptDeltaError(
                f"malformed replication record: {exc}"
            ) from None
        return mutation, expert, h_index

    def _apply_replicated_mutation(
        self,
        network: ExpertNetwork,
        mutation: NetworkMutation,
        expert,
        h_index: float | None,
    ) -> None:
        op = mutation.op
        if op in ("add_expert", "update_skills") and expert is None:
            raise CorruptDeltaError(
                f"record at version {mutation.version}: {op} without the "
                "enriched expert profile"
            )
        if op == "update_h_index" and h_index is None:
            raise CorruptDeltaError(
                f"record at version {mutation.version}: update_h_index "
                "without the enriched h-index value"
            )
        try:
            if op == "add_expert":
                network.add_expert(expert)
            elif op == "remove_expert":
                network.remove_expert(mutation.expert_id)
            elif op == "update_skills":
                network.update_skills(mutation.expert_id, expert.skills)
            elif op == "update_h_index":
                network.update_h_index(mutation.expert_id, h_index)
            elif op == "add_collaboration":
                network.add_collaboration(
                    mutation.u, mutation.v, weight=mutation.weight
                )
            elif op == "remove_collaboration":
                network.remove_collaboration(mutation.u, mutation.v)
            else:
                raise CorruptDeltaError(
                    f"record at version {mutation.version}: unknown op {op!r}"
                )
        except (KeyError, ValueError, GraphError) as exc:
            # The mutation is well-formed but impossible against this
            # state (duplicate id, unknown expert, absent edge): the
            # follower has diverged from the primary's lineage.
            raise StaleSnapshotError(
                f"replicated mutation at version {mutation.version} cannot "
                f"be applied to the follower's state ({exc}) — primary and "
                "follower belong to different mutation lineages"
            ) from None

    # ------------------------------------------------------------------
    # solver factories (single construction path for adapters AND
    # experiment runners)
    # ------------------------------------------------------------------
    def greedy_finder(
        self,
        *,
        objective: str = "sa-ca-cc",
        gamma: float = 0.6,
        lam: float = 0.6,
        sa_mode: SaMode | None = None,
        oracle_kind: str | None = None,
        root_candidates: Iterable[str] | None = None,
    ) -> GreedyTeamFinder:
        """A :class:`GreedyTeamFinder` wired to the shared oracle cache.

        Finders themselves are memoized per parameter tuple (they are
        cheap, but a lambda sweep re-requests the same ones constantly).
        Restricting ``root_candidates`` bypasses the finder memo — the
        restriction is query-specific — but still shares oracles.
        """
        sa_mode = sa_mode or self.sa_mode
        kind = oracle_kind or self.oracle_kind
        # Version-keyed like the oracle cache: a finder holds the oracle
        # and search graph, so it must never outlive a network mutation.
        version = self.network.version
        key = (objective, gamma, lam, sa_mode, kind, version)
        if root_candidates is None:
            with self._mutex:
                finder = self._finders.get(key)
                if finder is not None:
                    return finder
        # Construct outside the mutex: `_search_entry` may pay for an
        # index build and must not serialize unrelated cache traffic.
        search_graph, oracle = self._search_entry(objective, gamma, kind)
        finder = GreedyTeamFinder(
            self.network,
            objective=objective,
            gamma=gamma,
            lam=lam,
            scales=self.scales,
            sa_mode=sa_mode,
            root_candidates=root_candidates,
            oracle=oracle,
            search_graph=search_graph,
        )
        if root_candidates is None:
            with self._mutex:
                # A racing thread may have memoized its own copy first;
                # return that one so the memo stays stable.
                existing = self._finders.get(key)
                if existing is not None:
                    return existing
                # Purge finders built for older versions: each pins a
                # replaced index, which would otherwise dodge the
                # oracle-cache bound.
                for stale in [k for k in self._finders if k[-1] != version]:
                    del self._finders[stale]
                if len(self._finders) >= self._max_cached_finders:
                    self._finders.pop(next(iter(self._finders)), None)
                self._finders[key] = finder
        return finder

    def rarest_first_solver(
        self,
        *,
        aggregate: str = "diameter",
        oracle_kind: str | None = None,
    ) -> RarestFirstSolver:
        """A :class:`RarestFirstSolver` sharing the raw-graph oracle."""
        return RarestFirstSolver(
            self.network,
            aggregate=aggregate,  # type: ignore[arg-type]
            oracle=self.raw_oracle(oracle_kind),
        )

    def sa_optimal_solver(
        self,
        *,
        gamma: float = 0.6,
        lam: float = 1.0,
        sa_mode: SaMode | None = None,
    ) -> SaOptimalSolver:
        """Problem 4's polynomial solver over the shared scales."""
        return SaOptimalSolver(
            self.network,
            gamma=gamma,
            lam=lam,
            scales=self.scales,
            sa_mode=sa_mode or self.sa_mode,
        )

    def exact_solver(
        self,
        *,
        gamma: float = 0.6,
        lam: float = 0.6,
        sa_mode: SaMode | None = None,
        max_assignments: int = 500_000,
        time_budget: float | None = None,
    ) -> ExactSolver:
        """The exhaustive Exact baseline over the shared scales."""
        return ExactSolver(
            self.network,
            gamma=gamma,
            lam=lam,
            scales=self.scales,
            sa_mode=sa_mode or self.sa_mode,
            max_assignments=max_assignments,
            time_budget=time_budget,
        )

    def brute_force_solver(
        self,
        *,
        objective: str = "sa-ca-cc",
        gamma: float = 0.6,
        lam: float = 0.6,
        sa_mode: SaMode | None = None,
        max_nodes: int = 14,
    ) -> BruteForceSolver:
        """The member-set enumeration trust anchor (tiny networks only)."""
        return BruteForceSolver(
            self.network,
            objective=objective,
            gamma=gamma,
            lam=lam,
            scales=self.scales,
            sa_mode=sa_mode or self.sa_mode,
            max_nodes=max_nodes,
        )

    def random_solver(
        self,
        *,
        gamma: float = 0.6,
        lam: float = 0.6,
        sa_mode: SaMode | None = None,
        num_samples: int | None = None,
        root_pool_size: int = 64,
        seed: int | None = None,
    ) -> RandomSolver:
        """The paper's best-of-N Random baseline over the shared scales."""
        return RandomSolver(
            self.network,
            gamma=gamma,
            lam=lam,
            scales=self.scales,
            sa_mode=sa_mode or self.sa_mode,
            num_samples=DEFAULT_NUM_SAMPLES if num_samples is None else num_samples,
            root_pool_size=root_pool_size,
            seed=seed,
        )

    def pareto_discovery(
        self,
        *,
        grid: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
        k_per_cell: int = 3,
        oracle_kind: str | None = None,
        sa_mode: SaMode | None = None,
    ) -> ParetoTeamDiscovery:
        """A frontier miner whose grid cells share this engine's oracles."""
        kind = oracle_kind or self.oracle_kind
        mode = sa_mode or self.sa_mode

        def factory(**params: object) -> GreedyTeamFinder:
            return self.greedy_finder(
                oracle_kind=kind, sa_mode=mode, **params  # type: ignore[arg-type]
            )

        return ParetoTeamDiscovery(
            self.network,
            grid=grid,
            k_per_cell=k_per_cell,
            oracle_kind=kind,
            scales=self.scales,
            sa_mode=mode,
            finder_factory=factory,
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluator(
        self,
        *,
        gamma: float = 0.6,
        lam: float = 0.6,
        sa_mode: SaMode | None = None,
    ) -> TeamEvaluator:
        """A :class:`TeamEvaluator` over this engine's network and scales."""
        return TeamEvaluator(
            self.network,
            gamma=gamma,
            lam=lam,
            scales=self.scales,
            sa_mode=sa_mode or self.sa_mode,
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def cached_oracle_keys(self) -> tuple[tuple, ...]:
        """Which oracle cache entries exist (observability/tests)."""
        with self._mutex:
            return tuple(
                sorted([*self._search_cache, *self._raw_oracles], key=repr)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TeamFormationEngine(experts={len(self.network)}, "
            f"solvers={', '.join(self.list_solvers())}, "
            f"oracles={len(self._search_cache) + len(self._raw_oracles)})"
        )
