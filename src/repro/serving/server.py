"""The serving loops behind ``repro-teams serve``: batch and persistent.

**Batch mode** (:func:`read_requests` / :func:`serve_batch`) answers one
JSON-lines request batch and exits — one request per line (a
:class:`TeamRequest` dict), one response per line (a
:class:`TeamResponse` JSON object), in request order::

    {"skills": ["SN", "TM"], "solver": "greedy", "lam": 0.4}
    {"skills": ["DB"], "solver": "rarest_first"}

Batch parsing is strict and **up front**: a malformed line, an
unvalidatable request, or an unknown solver is a usage error naming the
offending line — the caller (the CLI) reports it cleanly and exits 2,
matching the ``mutate --script`` convention, before any work is done.
Failures *during* solving, by contrast, are served in-band: the batch
runs with per-request error isolation, so one request a solver chokes
on becomes one typed error response instead of aborting the batch.

**Persistent mode** (:class:`TeamServer`) is the long-lived asyncio
front end: the same NDJSON protocol over a TCP or Unix socket
(:mod:`repro.serving.server_conn`), backed by a warm engine or an
:class:`~repro.serving.pool.EngineReplicaPool`, with

* **admission control** — a bounded pending queue; a request arriving
  while it is full is answered immediately with a typed ``overloaded``
  error response, never buffered without bound or silently dropped;
* **per-request deadlines** — ``TeamRequest.deadline_ms`` (or the
  server default) is honored end to end: a request whose budget expires
  while still queued is answered ``deadline_exceeded`` without ever
  occupying a solve worker;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  streaming latency percentiles, exposed in-band via ``{"op": "stats"}``
  and an optional periodic log line;
* **zero-downtime hot reload** — on SIGHUP or ``{"op": "reload"}`` the
  backend loader runs again in the background (re-resolving the
  snapshot store's LATEST pointer), the fresh backend is swapped in
  atomically, and the old one is drained: in-flight solves hold a lease
  on the backend they started on and complete there, so no request ever
  observes a torn mix of versions.  A failed reload (corrupt LATEST,
  vanished store) is logged and counted; the old backend keeps serving.

Solves run in a thread-pool executor (the engine is thread-safe since
PR 5), so the event loop never blocks on a solve and keeps accepting —
and rejecting — traffic at full speed while workers are busy.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from collections.abc import Callable, Collection, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import IO

from .. import obs
from ..api.messages import TeamRequest, TeamResponse
from ..obs import MetricsRegistry, render_prometheus
from .server_conn import serve_connection

__all__ = [
    "read_requests",
    "serve_batch",
    "TeamServer",
    "BackgroundServer",
    "EngineBackend",
    "PoolBackend",
    "ReplicatedBackend",
    "store_backend_loader",
    "fixed_engine_loader",
    "replicated_backend_loader",
]

logger = logging.getLogger("repro.serving")

#: The slow-query log: one structured JSON line (full span tree) per
#: over-threshold request, kept on its own logger so operators can route
#: it (e.g. to a file) without touching the serving log.
_slow_logger = logging.getLogger("repro.obs.slow")


def read_requests(
    text: str, *, solver_names: Collection[str] | None = None
) -> list[TeamRequest]:
    """Parse a JSON-lines request batch (blank / ``#`` lines skipped).

    Raises :class:`ValueError` naming the first offending line for
    malformed JSON, a non-object line, an invalid request, or — when
    ``solver_names`` is given — a solver the registry does not know.
    An empty batch is also a :class:`ValueError`: a serve invocation
    with nothing to serve is a usage error, not a silent no-op.
    """
    requests: list[TeamRequest] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(
                f"line {lineno}: expected a JSON object with a 'skills' key"
            )
        try:
            request = TeamRequest.from_dict(data)
        except KeyError as exc:
            raise ValueError(
                f"line {lineno}: missing required field {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if solver_names is not None and request.solver not in solver_names:
            known = ", ".join(sorted(solver_names))
            raise ValueError(
                f"line {lineno}: unknown solver {request.solver!r}; "
                f"registered solvers: {known}"
            )
        requests.append(request)
    if not requests:
        raise ValueError("no requests in input (empty batch)")
    return requests


def serve_batch(
    solve_many: Callable[[list[TeamRequest]], Sequence[TeamResponse]],
    requests: list[TeamRequest],
    out: IO[str],
) -> dict[str, int]:
    """Serve one parsed batch; write responses as JSON lines to ``out``.

    ``solve_many`` is whichever backend answers the batch — the shared
    engine (optionally threaded) or a replica pool; both already apply
    per-request error isolation.  Returns the tally::

        {"requests": n, "found": n, "misses": n, "errors": n}

    where ``misses`` are legitimate negative answers (uncoverable /
    intractable) and ``errors`` are requests the isolation layer caught.
    """
    responses = solve_many(requests)
    tally = {"requests": len(requests), "found": 0, "misses": 0, "errors": 0}
    for response in responses:
        out.write(response.to_json())
        out.write("\n")
        if response.found:
            tally["found"] += 1
        elif response.error_kind in (None, "uncoverable", "intractable"):
            tally["misses"] += 1
        else:
            tally["errors"] += 1
    return tally


# ----------------------------------------------------------------------
# persistent serving: backends
# ----------------------------------------------------------------------
class EngineBackend:
    """A :class:`TeamFormationEngine` as a server backend.

    ``solve`` routes through :meth:`~TeamFormationEngine.solve_isolated`
    so a poisoned request becomes one typed error response — the server
    must answer, never crash.  The engine is thread-safe, so one backend
    serves every executor worker concurrently.
    """

    def __init__(self, engine, *, snapshot_path: "Path | None" = None) -> None:
        self.engine = engine
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None

    def solve(self, request: TeamRequest) -> TeamResponse:
        """Answer one request with a typed (never-raising) response."""
        return self.engine.solve_isolated(request)

    def describe(self) -> dict:
        """JSON-ready identity of this backend (stats/reload envelopes)."""
        network = self.engine.network
        return {
            "kind": "engine",
            "network_version": network.version,
            "experts": len(network),
            "snapshot": self.snapshot_path.name if self.snapshot_path else None,
        }

    def close(self) -> None:
        """Nothing to tear down for an in-process engine."""


class PoolBackend:
    """An :class:`~repro.serving.pool.EngineReplicaPool` as a backend.

    Each request travels as its own single-element batch, so the pool's
    warm/cold routing still applies and responses stay byte-identical
    to the in-process engine.  ``close`` shuts the worker processes
    down — the server calls it only after every in-flight lease on this
    backend has been released, which is what makes hot reload
    zero-downtime for the pool tier too.
    """

    def __init__(self, pool) -> None:
        self.pool = pool

    def solve(self, request: TeamRequest) -> TeamResponse:
        """Answer one request through the replica pool (error-isolated)."""
        return self.pool.solve_many([request])[0]

    def describe(self) -> dict:
        """JSON-ready identity of this backend (stats/reload envelopes)."""
        return {
            "kind": "pool",
            "replicas": self.pool.replicas,
            "snapshot": self.pool.snapshot_path.name,
        }

    def close(self) -> None:
        """Shut the worker processes down."""
        self.pool.close()


class ReplicatedBackend:
    """A live primary engine delta-replicated into a follower pool.

    The backend PR 7's :class:`PoolBackend` could not be: *mutable*.
    The primary engine owns the authoritative network; a
    :class:`~repro.serving.replication.ReplicationLog` captures its
    mutation stream; the replica pool's followers advance from that
    stream (:meth:`EngineReplicaPool.sync`) instead of being frozen at
    their warm-start snapshot.  Solves route to the followers (with the
    pool's bounded-staleness admission check and ``network_version``
    stamping); :meth:`mutate` applies a list of JSON mutation ops to
    the primary and immediately syncs the followers, so by the time the
    ``mutate`` envelope is answered, every replica serves the new
    version.
    """

    def __init__(
        self, pool, log, *, snapshot_path: "Path | None" = None
    ) -> None:
        self.pool = pool
        self.log = log
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None

    def solve(self, request: TeamRequest) -> TeamResponse:
        """Answer one request through the follower pool (error-isolated)."""
        return self.pool.solve_many([request])[0]

    def mutate(self, ops: "list[dict]") -> dict:
        """Apply mutation ops to the primary, then sync the followers.

        Ops use the shared JSON vocabulary of
        :func:`repro.serving.replication.apply_network_op`.  Applies
        under the primary engine's write lock; a failing op stops the
        list there (earlier ops stay applied, as in the ``mutate`` CLI)
        but the followers are *still* synced to whatever prefix landed,
        so primary and replicas never drift apart on an error path.
        """
        from ..graph.adjacency import GraphError
        from .replication import apply_network_op

        engine = self.log.engine
        error = None
        applied = 0
        with engine.mutate() as network:
            for op in ops:
                try:
                    apply_network_op(network, op)
                except (KeyError, ValueError, GraphError) as exc:
                    error = f"op {applied + 1} ({op.get('op')!r}): {exc}"
                    break
                applied += 1
        replica_version = self.pool.sync(self.log)
        report = {
            "ok": error is None,
            "applied": applied,
            "primary_version": engine.network.version,
            "replica_version": replica_version,
            "snapshot_fallbacks": self.pool.snapshot_fallbacks,
        }
        if error is not None:
            report["error"] = error
        return report

    def describe(self) -> dict:
        """JSON-ready identity of this backend (stats/reload envelopes)."""
        return {
            "kind": "replicated",
            "replicas": self.pool.replicas,
            "primary_version": self.log.engine.network.version,
            "replica_version": self.pool.replica_version,
            "snapshot_fallbacks": self.pool.snapshot_fallbacks,
            "snapshot": self.snapshot_path.name if self.snapshot_path else None,
        }

    def close(self) -> None:
        """Detach the log and shut the worker processes down."""
        self.log.close()
        self.pool.close()


def store_backend_loader(
    source: "str | Path", *, replicas: int | None = None
) -> Callable[[], "EngineBackend | PoolBackend"]:
    """A backend loader over a snapshot store — the hot-reload path.

    The returned callable re-resolves ``source`` (a store directory, a
    :class:`SnapshotStore`, or one ``*.snap`` file) to a concrete
    snapshot **every time it runs**, so each reload picks up the store's
    current LATEST pointer.  With ``replicas`` it warm-starts an
    :class:`EngineReplicaPool`; otherwise one in-process engine.
    """
    from ..storage.store import resolve_snapshot_path

    def load() -> "EngineBackend | PoolBackend":
        path = resolve_snapshot_path(source)
        if replicas is not None and replicas > 1:
            from .pool import EngineReplicaPool

            return PoolBackend(EngineReplicaPool(path, replicas=replicas))
        from ..api.engine import TeamFormationEngine

        return EngineBackend(
            TeamFormationEngine.from_snapshot(path), snapshot_path=path
        )

    return load


def replicated_backend_loader(
    source: "str | Path",
    *,
    replicas: int | None = None,
    max_lag_ms: float | None = None,
) -> Callable[[], ReplicatedBackend]:
    """A backend loader for replicated serving (``serve --replicate``).

    Each run (startup and every hot reload) re-resolves ``source`` to
    the store's current LATEST snapshot, warm-starts the primary engine
    *and* the follower pool from those identical bytes, and wires the
    primary's :class:`~repro.serving.replication.ReplicationLog` into
    the pool with the given staleness budget.
    """
    from ..storage.store import resolve_snapshot_path

    def load() -> ReplicatedBackend:
        path = resolve_snapshot_path(source)
        from ..api.engine import TeamFormationEngine
        from .pool import EngineReplicaPool
        from .replication import ReplicationLog

        primary = TeamFormationEngine.from_snapshot(path)
        log = ReplicationLog(primary)
        try:
            pool = EngineReplicaPool(path, replicas=replicas)
        except BaseException:
            log.close()
            raise
        pool.attach_primary(log, max_lag_ms=max_lag_ms)
        return ReplicatedBackend(pool, log, snapshot_path=path)

    return load


def fixed_engine_loader(engine) -> Callable[[], EngineBackend]:
    """A loader around one pre-built engine (no store: reload re-serves it).

    Used when the server is started from a freshly built network rather
    than a snapshot store.  Reload is a no-op swap to the same engine —
    still safe, just not useful — because there is no LATEST pointer to
    re-resolve; serving from a store is what makes reload meaningful.
    """
    backend = EngineBackend(engine)

    def load() -> EngineBackend:
        return backend

    return load


class _Lease:
    """In-flight reference counting for one backend generation.

    All mutation happens on the event-loop thread (dispatchers acquire
    before handing the solve to the executor and release after awaiting
    it), so plain integers suffice.  ``retire`` marks the generation
    dead; the last release closes it.  A generation retired with zero
    holders closes immediately.
    """

    __slots__ = ("backend", "holders", "retired")

    def __init__(self, backend) -> None:
        self.backend = backend
        self.holders = 0
        self.retired = False

    def acquire(self):
        self.holders += 1
        return self.backend

    def release(self) -> None:
        self.holders -= 1
        if self.retired and self.holders == 0:
            self.backend.close()

    def retire(self) -> None:
        self.retired = True
        if self.holders == 0:
            self.backend.close()


class _Pending:
    """One admitted request waiting for (or occupying) a worker.

    ``span`` is the request's root trace span (``None`` when tracing is
    off) and ``queue_span`` its queue-wait child, started at admission
    and finished when a dispatcher picks the item up.
    """

    __slots__ = ("request", "expiry", "arrival", "future", "span", "queue_span")

    def __init__(
        self, request, expiry, arrival, future, span=None, queue_span=None
    ) -> None:
        self.request = request
        self.expiry = expiry
        self.arrival = arrival
        self.future = future
        self.span = span
        self.queue_span = queue_span


#: Sentinel that tells a dispatcher task to exit.
_STOP = object()


class TeamServer:
    """The persistent asyncio serving front end.

    Parameters
    ----------
    loader:
        Zero-argument callable returning a fresh backend
        (:class:`EngineBackend` or :class:`PoolBackend`).  Runs once at
        startup and once per hot reload, always off the event loop.
    max_pending:
        Bound on the pending-request queue (admitted but not yet picked
        up by a worker).  Arrivals beyond it are answered ``overloaded``.
    default_deadline_ms:
        Deadline applied to requests that carry no ``deadline_ms`` of
        their own; ``None`` means such requests never expire.
    workers:
        Solve concurrency: dispatcher tasks and executor threads.  The
        engine is GIL-bound for pure-Python solves, so this buys
        latency overlap more than throughput; a :class:`PoolBackend`
        adds real parallelism.
    stats_interval:
        Seconds between periodic stats log lines (0 disables).
    drain_timeout:
        Upper bound on waiting for in-flight requests during
        :meth:`stop`.
    slow_ms:
        Slow-query threshold: any request whose root span outlives it
        is logged — full span tree, one structured JSON line — on the
        ``repro.obs.slow`` logger and counted in ``slow_queries``.
        ``None`` (default) disables the log.
    trace_requests:
        When true, every answered request carries its finished span
        tree in ``timing.trace``.  Identity-safe: ``canonical_json()``
        nulls ``timing``, so traced and untraced responses stay
        byte-identical under the serving identity contract.
    """

    def __init__(
        self,
        loader: Callable[[], "EngineBackend | PoolBackend"],
        *,
        max_pending: int = 64,
        default_deadline_ms: int | None = None,
        workers: int = 2,
        stats_interval: float = 0.0,
        drain_timeout: float = 30.0,
        metrics: MetricsRegistry | None = None,
        slow_ms: float | None = None,
        trace_requests: bool = False,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if workers < 1:
            raise ValueError("workers must be positive")
        if default_deadline_ms is not None and default_deadline_ms < 0:
            raise ValueError("default_deadline_ms must be non-negative")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        self._loader = loader
        self._max_pending = max_pending
        self._default_deadline_ms = default_deadline_ms
        self._workers = workers
        self._stats_interval = stats_interval
        self._drain_timeout = drain_timeout
        self._slow_ms = slow_ms
        self._trace_requests = trace_requests
        # Per-request root spans exist when either surface needs them.
        self._tracing = slow_ms is not None or trace_requests
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._lease: _Lease | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._stats_task: asyncio.Task | None = None
        self._reload_lock = asyncio.Lock()
        self._in_flight = 0
        self._stopping = False
        self._stop_task: asyncio.Task | None = None
        self._done = asyncio.Event()
        self._unix_path: Path | None = None
        self._address: tuple[str, int] | str | None = None
        self._started_at = time.monotonic()
        self._sighup_installed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        *,
        host: str | None = None,
        port: int | None = None,
        unix_path: "str | Path | None" = None,
    ) -> "tuple[str, int] | str":
        """Load the initial backend and start listening.

        Exactly one of ``host``/``port`` or ``unix_path`` selects the
        transport.  Returns the bound address — ``(host, port)`` with
        the real port for ``port=0``, or the socket path.  SIGHUP is
        wired to :meth:`reload` where the platform and thread allow it
        (best effort: background-thread loops cannot own signals).
        """
        if (unix_path is None) == (host is None or port is None):
            raise ValueError("pass either host+port or unix_path, not both")
        self._loop = asyncio.get_running_loop()
        self._started_at = time.monotonic()
        backend = await asyncio.to_thread(self._loader)
        self._lease = _Lease(backend)
        self._queue = asyncio.Queue(maxsize=self._max_pending)
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="team-serve"
        )
        self._dispatchers = [
            self._loop.create_task(self._dispatch(), name=f"dispatch-{i}")
            for i in range(self._workers)
        ]
        if self._stats_interval > 0:
            self._stats_task = self._loop.create_task(self._stats_loop())
        if unix_path is not None:
            self._unix_path = Path(unix_path)
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(self._unix_path)
            )
            self._address = str(self._unix_path)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=host, port=port
            )
            bound = self._server.sockets[0].getsockname()
            self._address = (bound[0], bound[1])
        try:
            self._loop.add_signal_handler(signal.SIGHUP, self._on_sighup)
            self._sighup_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            self._sighup_installed = False  # non-unix or non-main thread
        logger.info("serving on %s (backend %s)", self._address, backend.describe())
        return self._address

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a shutdown op/signal) completes."""
        await self._done.wait()

    @property
    def address(self) -> "tuple[str, int] | str | None":
        return self._address

    @property
    def stopping(self) -> bool:
        return self._stopping

    def request_shutdown(self) -> None:
        """Begin a graceful stop from sync context (signal handlers, ops)."""
        if self._loop is None or self._stop_task is not None:
            return
        self._stop_task = self._loop.create_task(self.stop())

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, tear down.

        Idempotent.  New connections are refused immediately; open
        connections finish their current request (the handlers observe
        :attr:`stopping` and exit); queued and in-flight requests are
        answered (bounded by ``drain_timeout``); then dispatchers, the
        executor, the backend and the socket are torn down.
        """
        if self._stopping:
            await self._done.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._sighup_installed and self._loop is not None:
            try:
                self._loop.remove_signal_handler(signal.SIGHUP)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        deadline = time.monotonic() + self._drain_timeout
        while (
            self._queue is not None
            and (self._queue.qsize() > 0 or self._in_flight > 0)
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.01)
        for task in self._dispatchers:
            task.cancel()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._stats_task is not None:
            self._stats_task.cancel()
        await asyncio.gather(
            *self._dispatchers, *self._conn_tasks, return_exceptions=True
        )
        if self._stats_task is not None:
            await asyncio.gather(self._stats_task, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._lease is not None:
            self._lease.retire()
        if self._unix_path is not None:
            self._unix_path.unlink(missing_ok=True)
        logger.info("server stopped (%s)", self.metrics.format_line())
        self._done.set()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def submit(self, request: TeamRequest) -> str:
        """Admit one request and await its response JSON line.

        This is the whole admission story: compute the effective
        deadline, reject an already-expired request without queueing it,
        reject on a full queue with a typed ``overloaded`` response, and
        otherwise wait for a dispatcher to answer.
        """
        assert self._loop is not None and self._queue is not None
        metrics = self.metrics
        metrics.counter("requests_received").inc()
        arrival = self._loop.time()
        root = queue_span = None
        if self._tracing:
            root = obs.get_tracer().trace(
                "request", solver=request.solver
            ).start()
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self._default_deadline_ms
        )
        expiry = arrival + deadline_ms / 1e3 if deadline_ms is not None else None
        if self._stopping:
            metrics.counter("rejected_overloaded").inc()
            self._finish_trace(root, "overloaded")
            return TeamResponse.for_error(
                request, "overloaded", "server is shutting down"
            ).to_json()
        if expiry is not None and expiry <= arrival:
            metrics.counter("rejected_deadline").inc()
            self._finish_trace(root, "deadline_exceeded")
            return self._deadline_response(request, deadline_ms)
        if root is not None:
            queue_span = root.child("queue_wait").start()
        item = _Pending(
            request, expiry, arrival, self._loop.create_future(),
            root, queue_span,
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            metrics.counter("rejected_overloaded").inc()
            self._finish_trace(root, "overloaded")
            return TeamResponse.for_error(
                request,
                "overloaded",
                f"pending queue full ({self._max_pending} requests); "
                "retry with backoff",
            ).to_json()
        metrics.gauge("pending").set(self._queue.qsize())
        return await item.future

    def _finish_trace(self, root, outcome: str) -> None:
        """Finish a request's root span; log it when over ``slow_ms``."""
        if root is None:
            return
        root.set_attribute("outcome", outcome)
        root.finish()
        if self._slow_ms is not None and root.wall_ms >= self._slow_ms:
            self.metrics.counter("slow_queries").inc()
            _slow_logger.warning(
                json.dumps(
                    {
                        "slow_ms": round(root.wall_ms, 3),
                        "threshold_ms": self._slow_ms,
                        "trace": root.to_dict(),
                    },
                    sort_keys=True,
                )
            )

    @staticmethod
    def _deadline_response(request: TeamRequest, deadline_ms: int | None) -> str:
        return TeamResponse.for_error(
            request,
            "deadline_exceeded",
            f"deadline of {deadline_ms} ms expired before a worker was free",
        ).to_json()

    async def _dispatch(self) -> None:
        """One worker: pull admitted requests, enforce deadlines, solve.

        The expiry check happens *here*, after the queue wait — an
        expired request is answered without ever reaching the executor,
        so it cannot occupy a worker thread that live requests need.
        The backend lease is taken before the executor hop and released
        after it, pinning this solve to one backend generation across
        any concurrent hot reload.
        """
        assert self._loop is not None and self._queue is not None
        metrics = self.metrics
        while True:
            item = await self._queue.get()
            metrics.gauge("pending").set(self._queue.qsize())
            if item is _STOP:  # pragma: no cover - legacy escape hatch
                return
            if item.queue_span is not None:
                item.queue_span.finish()
            if item.expiry is not None and self._loop.time() >= item.expiry:
                metrics.counter("rejected_deadline").inc()
                self._finish_trace(item.span, "deadline_exceeded")
                item.future.set_result(
                    self._deadline_response(
                        item.request,
                        item.request.deadline_ms
                        if item.request.deadline_ms is not None
                        else self._default_deadline_ms,
                    )
                )
                continue
            assert self._lease is not None
            lease = self._lease
            backend = lease.acquire()
            self._in_flight += 1
            metrics.gauge("in_flight").set(self._in_flight)
            try:
                if item.span is not None:
                    # Executor threads do not inherit the loop's
                    # context: tracer.run re-parents everything the
                    # solve opens under this request's root span.
                    response = await self._loop.run_in_executor(
                        self._executor,
                        obs.get_tracer().run,
                        item.span,
                        backend.solve,
                        item.request,
                    )
                else:
                    response = await self._loop.run_in_executor(
                        self._executor, backend.solve, item.request
                    )
            except Exception as exc:  # noqa: BLE001 - serving boundary
                logger.exception("backend solve failed")
                response = TeamResponse.for_error(
                    item.request, "internal", f"{type(exc).__name__}: {exc}"
                )
            finally:
                self._in_flight -= 1
                metrics.gauge("in_flight").set(self._in_flight)
                lease.release()
            if response.found:
                metrics.counter("answered_found").inc()
                outcome = "found"
            elif response.error_kind in (None, "uncoverable", "intractable"):
                metrics.counter("answered_no_team").inc()
                outcome = "no_team"
            else:
                metrics.counter("answered_error").inc()
                outcome = response.error_kind or "error"
            if item.span is not None:
                self._finish_trace(item.span, outcome)
                if self._trace_requests:
                    response = response.with_trace(item.span.to_dict())
            metrics.reservoir("request").observe(self._loop.time() - item.arrival)
            if not item.future.done():
                item.future.set_result(response.to_json())

    # ------------------------------------------------------------------
    # admin ops
    # ------------------------------------------------------------------
    async def handle_op(self, op: "str | dict") -> dict:
        """Answer one admin op with its JSON envelope.

        Accepts the whole parsed op object (payload-carrying ops like
        ``mutate`` need their extra keys) or, for convenience and
        backward compatibility, a bare op name.
        """
        data = {"op": op} if isinstance(op, str) else op
        name = data["op"]
        self.metrics.counter(f"op_{name}").inc()
        if name == "ping":
            return {"op": "ping", "ok": True}
        if name == "stats":
            return self.stats()
        if name == "metrics":
            return {
                "op": "metrics",
                "content_type": "text/plain; version=0.0.4",
                "text": render_prometheus(self.merged_metrics()),
            }
        if name == "reload":
            return await self.reload(reason="admin op")
        if name == "mutate":
            return await self._handle_mutate(data)
        if name == "shutdown":
            self.request_shutdown()
            return {"op": "shutdown", "ok": True}
        raise ValueError(f"unknown op {name!r}")  # parse_line filters first

    async def _handle_mutate(self, data: dict) -> dict:
        """Apply a ``mutate`` op's ``"ops"`` list on a mutable backend.

        Runs the backend's ``mutate`` (apply to primary + sync
        followers) in a thread with a lease held, so a concurrent hot
        reload can never close the backend mid-mutation.  Backends
        without a ``mutate`` method (plain engine/pool) answer a typed
        refusal — mutation requires ``serve --replicate``.
        """
        metrics = self.metrics
        ops = data.get("ops")
        if not isinstance(ops, list) or not all(
            isinstance(entry, dict) for entry in ops
        ):
            metrics.counter("mutate_failed").inc()
            return {
                "op": "mutate",
                "ok": False,
                "error": 'mutate requires an "ops" list of objects',
            }
        assert self._lease is not None
        lease = self._lease
        backend = lease.acquire()
        try:
            mutate = getattr(backend, "mutate", None)
            if mutate is None:
                metrics.counter("mutate_failed").inc()
                return {
                    "op": "mutate",
                    "ok": False,
                    "error": "backend does not support mutation "
                    "(start the server with --replicate)",
                    "backend": backend.describe(),
                }
            report = await asyncio.to_thread(mutate, ops)
        except Exception as exc:  # noqa: BLE001 - serving boundary
            logger.exception("mutate op failed")
            metrics.counter("mutate_failed").inc()
            return {
                "op": "mutate",
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            lease.release()
        # Every mutate lands in exactly one of mutate_ok/mutate_failed,
        # so op_mutate == mutate_ok + mutate_failed post-quiesce.  A
        # completed backend mutate always synced the followers (even a
        # partial-prefix failure syncs what landed), hence the
        # replication counters here.
        metrics.counter(
            "mutate_ok" if report.get("ok") else "mutate_failed"
        ).inc()
        metrics.counter("mutate_ops_applied").inc(int(report.get("applied", 0)))
        metrics.counter("replication_syncs").inc()
        metrics.gauge("replication_snapshot_fallbacks").set(
            float(report.get("snapshot_fallbacks", 0))
        )
        return {"op": "mutate", **report}

    def merged_metrics(self) -> dict:
        """Server registry + per-layer global registry, one snapshot.

        Name collisions cannot happen by convention: layer
        instrumentation prefixes its names (``engine_``, ``kernel_``,
        ``oracle_``, ``pool_``, ``replication_``, ``pll_``, ``flat_``)
        while the server registry keeps the PR-7 vocabulary.
        """
        merged = self.metrics.snapshot()
        layers = obs.global_registry().snapshot()
        for section in ("counters", "gauges", "latency"):
            merged[section] = {**merged[section], **layers.get(section, {})}
        return merged

    def stats(self) -> dict:
        """The stats-op envelope: server facts, backend, metrics."""
        assert self._lease is not None
        return {
            "op": "stats",
            "server": {
                "uptime_seconds": time.monotonic() - self._started_at,
                "max_pending": self._max_pending,
                "default_deadline_ms": self._default_deadline_ms,
                "workers": self._workers,
                "stopping": self._stopping,
                "sighup_reload": self._sighup_installed,
            },
            "backend": self._lease.backend.describe(),
            **self.metrics.snapshot(),
            "layers": obs.global_registry().snapshot(),
        }

    # ------------------------------------------------------------------
    # hot reload
    # ------------------------------------------------------------------
    def _on_sighup(self) -> None:
        assert self._loop is not None
        self._loop.create_task(self.reload(reason="SIGHUP"))

    async def reload(self, *, reason: str = "manual") -> dict:
        """Swap to a freshly loaded backend with zero downtime.

        The loader runs in a thread (``asyncio.to_thread``) so warming
        the new engine/pool never blocks the event loop: traffic keeps
        flowing on the old backend the whole time.  On success the
        fresh backend is published with one assignment (dispatchers
        read ``self._lease`` once per request), and the old generation
        is retired — it closes when its last in-flight solve releases
        its lease.  On failure the old backend keeps serving; the
        error is logged and counted, never fatal.

        Concurrent reloads serialize on a lock, so a SIGHUP burst warms
        one backend at a time.
        """
        metrics = self.metrics
        async with self._reload_lock:
            metrics.counter("reloads_requested").inc()
            logger.info("reload requested (%s)", reason)
            try:
                backend = await asyncio.to_thread(self._loader)
            except Exception as exc:  # noqa: BLE001 - reload must not kill serving
                metrics.counter("reloads_failed").inc()
                logger.error("reload failed, keeping current backend: %s", exc)
                assert self._lease is not None
                return {
                    "op": "reload",
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "backend": self._lease.backend.describe(),
                }
            old = self._lease
            self._lease = _Lease(backend)
            if old is not None:
                old.retire()
            metrics.counter("reloads_ok").inc()
            description = backend.describe()
            logger.info("reload complete (%s): %s", reason, description)
            return {"op": "reload", "ok": True, "backend": description}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            await serve_connection(self, reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancels connection handlers.  Ending the task as
            # *cancelled* trips asyncio.streams' connection_made
            # callback (it calls task.exception() unguarded), so a
            # shutdown-driven cancel exits normally instead.
            if not self._stopping:
                raise
        finally:
            self._conn_tasks.discard(task)

    async def _stats_loop(self) -> None:
        while True:
            await asyncio.sleep(self._stats_interval)
            logger.info("stats %s", self.metrics.format_line())


class BackgroundServer:
    """A :class:`TeamServer` on its own event-loop thread.

    The harness tests, the latency benchmark and the CI smoke script all
    need a running server *next to* blocking client code in the same
    process; this wraps the asyncio lifecycle so they don't each
    reinvent it.  ``start`` blocks until the socket is bound (startup
    errors re-raise in the caller), ``run`` executes a coroutine on the
    server's loop from any thread, ``stop`` drains and joins.
    """

    def __init__(
        self,
        server: TeamServer,
        *,
        host: str | None = None,
        port: int | None = None,
        unix_path: "str | Path | None" = None,
    ) -> None:
        self.server = server
        self._host, self._port, self._unix = host, port, unix_path
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="team-server", daemon=True
        )
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self.address: "tuple[str, int] | str | None" = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self.address = self._loop.run_until_complete(
                self.server.start(
                    host=self._host, port=self._port, unix_path=self._unix
                )
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised in start()
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        self._loop.run_until_complete(self.server.serve_forever())
        # Flush callbacks queued by the final tasks (e.g. the cross-
        # thread future resolution inside stop()) before closing.
        self._loop.run_until_complete(asyncio.sleep(0.01))
        self._loop.close()

    def start(self) -> "tuple[str, int] | str":
        """Start the loop thread; returns the bound address.

        Re-raises in the caller anything the server's own ``start``
        raised on the loop thread (bad store, bind failure, ...).
        """
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        assert self.address is not None
        return self.address

    def run(self, coro, *, timeout: float = 60.0):
        """Run ``coro`` on the server's loop; return its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def stop(self, *, timeout: float = 60.0) -> None:
        """Stop the server, drain the loop, and join the thread."""
        if self._startup_error is None and not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
