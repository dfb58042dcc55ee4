"""repro.serving — the concurrent serving layer.

PR 4 made serving state durable; this package makes it **concurrent**,
in two tiers:

* **Tier one — a thread-safe engine.**
  :class:`repro.api.TeamFormationEngine` is safe to share across
  threads: concurrent cache misses on the same oracle key single-flight
  onto one build (:mod:`repro.api.locks` has the reader/writer
  primitive; the per-key build locks live in the engine), FIFO eviction
  and memo bookkeeping are lock-protected, stale indexes are upgraded
  onto clones so an in-flight solve never observes a half-reconciled
  index, and ``engine.mutate()`` / ``apply_updates()`` /
  ``refresh_scales()`` run as exclusive writers.
  ``engine.solve_many(requests, parallel=N)`` threads a batch over the
  shared engine with per-request error isolation.

* **Tier two — a replica pool over snapshots.**
  :class:`EngineReplicaPool` (:mod:`repro.serving.pool`) spawns N
  worker processes that each warm-start a private engine replica from
  one PR-4 snapshot (``from_snapshot`` — zero index builds per worker)
  and schedules request batches across them.  Requests are grouped by
  the index their solve needs (:mod:`repro.serving.batch`): groups whose
  index is already warm in the snapshot spread across every replica,
  while a cold group stays on one replica so the pool as a whole builds
  each missing index at most once.

:mod:`repro.serving.server` is the JSON-lines request/response layer
behind ``repro-teams serve``: the one-shot batch loop, and the
persistent asyncio front end (:class:`TeamServer` — admission control,
per-request deadlines, a metrics registry with streaming latency
percentiles, and zero-downtime snapshot hot reload; wire protocol in
:mod:`repro.serving.server_conn`, instruments in
:mod:`repro.obs.metrics`).

:mod:`repro.serving.replication` keeps replicas current against a live
primary: :class:`ReplicationLog` frames the primary's mutation journal
into CRC-checked delta byte streams, :class:`ReplicaFollower` applies
them through the engine's version-keyed incremental path, and
``serve --replicate`` wires both under a :class:`ReplicatedBackend`
with bounded-staleness admission (``--max-lag-ms``).

Imports point one way: this package builds on :mod:`repro.api`,
:mod:`repro.storage` and :mod:`repro.obs`, and none of those import it.
"""

from __future__ import annotations

from .batch import plan_jobs, request_index_key
from .pool import EngineReplicaPool, usable_cores
from .replication import (
    ReplicaFollower,
    ReplicationLog,
    ReplicationRecord,
    apply_network_op,
)
from .server import (
    BackgroundServer,
    EngineBackend,
    PoolBackend,
    ReplicatedBackend,
    TeamServer,
    fixed_engine_loader,
    read_requests,
    replicated_backend_loader,
    serve_batch,
    store_backend_loader,
)
from .server_conn import ServingClient

__all__ = [
    "BackgroundServer",
    "EngineBackend",
    "EngineReplicaPool",
    "PoolBackend",
    "ReplicaFollower",
    "ReplicatedBackend",
    "ReplicationLog",
    "ReplicationRecord",
    "ServingClient",
    "TeamServer",
    "apply_network_op",
    "fixed_engine_loader",
    "plan_jobs",
    "replicated_backend_loader",
    "request_index_key",
    "read_requests",
    "serve_batch",
    "store_backend_loader",
    "usable_cores",
]
