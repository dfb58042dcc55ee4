"""Delta-snapshot replication: a live primary feeding follower replicas.

PR 7's replica pool froze the bug this module fixes into architecture:
replicas warm-start from one snapshot file and then *never move again*,
so the moment the primary's network mutates, every replica silently
serves answers computed over a world that no longer exists.  Delta
replication closes that gap without ever re-shipping (or worse,
rebuilding) the expensive 2-hop-cover state:

* :class:`ReplicationLog` — the primary side.  It subscribes to the
  engine's network as a synchronous mutation listener, so every
  journaled :class:`~repro.expertise.network.NetworkMutation` is
  captured **enriched** — together with the payload the bare journal
  record omits (the added expert's full profile, the replaced skill
  set, the new h-index) — at the exact version it happened.
  :meth:`ReplicationLog.delta_since` frames any contiguous suffix of
  that history into the CRC-checked byte stream of
  :mod:`repro.storage.delta`, with an advisory hint saying whether the
  whole delta is incrementally applicable to a 2-hop cover.
* :class:`ReplicaFollower` — the follower side.  It owns a warm-started
  engine and advances it from stream bytes:
  delta frames replay through
  :meth:`~repro.api.engine.TeamFormationEngine.apply_delta_payload`
  (the same write-locked, journal-checked path local mutations take),
  snapshot frames replace the engine wholesale via
  :meth:`~repro.api.engine.TeamFormationEngine.from_snapshot_bytes` —
  the fallback for a follower that fell past the log's floor
  (:class:`~repro.storage.errors.JournalTruncatedError`).

The log is bounded (like the network journal itself), so "how far back
can a follower lag before a full transfer" is an explicit capacity
knob, and :meth:`ReplicationLog.lag_ms` turns a follower's version into
a wall-clock staleness bound — what the replica pool's ``max_lag_ms``
admission check enforces per request.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..expertise.expert import Expert
from ..expertise.network import ExpertNetwork, NetworkMutation
from ..expertise.serialize import (
    expert_from_dict,
    expert_to_dict,
    mutation_from_dict,
    mutation_to_dict,
)
from ..storage.delta import (
    FRAME_SNAPSHOT,
    encode_delta_frame,
    encode_snapshot_frame,
    iter_frames,
)
from ..storage.errors import JournalTruncatedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.engine import TeamFormationEngine

__all__ = [
    "ReplicationRecord",
    "ReplicationLog",
    "ReplicaFollower",
    "apply_network_op",
]


@dataclass(frozen=True, slots=True)
class ReplicationRecord:
    """One enriched journal record: replayable on a remote follower.

    A bare :class:`NetworkMutation` says *that* something changed but
    not always enough to redo it elsewhere (``add_expert`` lacks the
    profile, ``update_skills`` the skills, ``update_h_index`` the
    value).  The enrichment fields carry exactly that payload, captured
    synchronously at the mutation's version; ``t`` is the primary-local
    :func:`time.monotonic` capture instant, which prices a lagging
    follower's staleness in wall-clock terms (:meth:`ReplicationLog.lag_ms`).
    """

    mutation: NetworkMutation
    expert: Expert | None = None
    h_index: float | None = None
    t: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (``t`` stays primary-local, never shipped)."""
        out: dict[str, Any] = {"mutation": mutation_to_dict(self.mutation)}
        if self.expert is not None:
            out["expert"] = expert_to_dict(self.expert)
        if self.h_index is not None:
            out["h_index"] = self.h_index
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ReplicationRecord":
        """Rebuild a shipped record (inverse of :meth:`to_dict`)."""
        return cls(
            mutation=mutation_from_dict(data["mutation"]),
            expert=(
                None
                if data.get("expert") is None
                else expert_from_dict(data["expert"])
            ),
            h_index=(
                None if data.get("h_index") is None else float(data["h_index"])
            ),
        )


def _hint_incremental(records: list[ReplicationRecord]) -> bool:
    """Whether the whole run is incrementally applicable to a 2-hop cover.

    Advisory only — the follower's engine re-checks per cached index
    (:meth:`~repro.api.engine.TeamFormationEngine._plan_replay`)
    before touching anything, so a wrong hint costs a lazy
    reconciliation, never a wrong distance.  Conservative: an h-index
    raise is incremental everywhere but a cut is not under the
    authority fold, and a record carries only the new h-index, so any
    h-index update hints ``False``.
    """
    for record in records:
        mutation = record.mutation
        if mutation.op in (
            "remove_expert",
            "remove_collaboration",
            "update_h_index",
        ):
            return False
        if (
            mutation.op == "add_collaboration"
            and mutation.old_weight is not None
            and mutation.weight > mutation.old_weight
        ):
            return False
    return True


class ReplicationLog:
    """Primary-side capture of an engine's mutation stream, as frames.

    Attach one log per primary engine; it hooks the network's mutation
    listener and records every journaled change, enriched, into a
    bounded deque.  ``capacity`` bounds memory exactly like the network
    journal's own cap does: a follower asking for history older than
    the log's floor gets :class:`JournalTruncatedError` — the typed
    signal to fall back to :meth:`snapshot_frame`.

    Thread-safety: the listener runs on the mutating thread (which
    holds the engine's write lock); :meth:`delta_since` /
    :meth:`lag_ms` run on serving threads.  One internal lock keeps the
    deque consistent between them.
    """

    def __init__(
        self,
        engine: "TeamFormationEngine",
        *,
        capacity: int = ExpertNetwork.JOURNAL_CAP,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._engine = engine
        self._capacity = capacity
        self._lock = threading.Lock()
        self._records: deque[ReplicationRecord] = deque()
        self._floor = engine.network.version
        self._floor_time = time.monotonic()
        self._closed = False
        engine.network.add_mutation_listener(self._on_mutation)

    # ------------------------------------------------------------------
    @property
    def engine(self) -> "TeamFormationEngine":
        return self._engine

    @property
    def floor(self) -> int:
        """Oldest version a delta can still start from."""
        with self._lock:
            return self._floor

    @property
    def version(self) -> int:
        """Newest version the log has captured (the primary's tip)."""
        with self._lock:
            return self._tip_locked()

    def _tip_locked(self) -> int:
        return (
            self._records[-1].mutation.version
            if self._records
            else self._floor
        )

    # ------------------------------------------------------------------
    def _on_mutation(self, mutation: NetworkMutation) -> None:
        network = self._engine.network
        expert: Expert | None = None
        h_index: float | None = None
        if mutation.op in ("add_expert", "update_skills"):
            expert = network.expert(mutation.expert_id)
        elif mutation.op == "update_h_index":
            h_index = network.expert(mutation.expert_id).h_index
        record = ReplicationRecord(
            mutation=mutation,
            expert=expert,
            h_index=h_index,
            t=time.monotonic(),
        )
        with self._lock:
            self._records.append(record)
            while len(self._records) > self._capacity:
                dropped = self._records.popleft()
                self._floor = dropped.mutation.version
                self._floor_time = dropped.t

    # ------------------------------------------------------------------
    def delta_since(self, version: int) -> bytes:
        """The delta stream advancing a follower at ``version`` to the tip.

        Returns ``b""`` when the follower is already current (an empty
        stream is a valid no-op stream).  Raises
        :class:`JournalTruncatedError` when ``version`` predates the
        log's floor — the caller must ship :meth:`snapshot_frame`
        instead — and ``ValueError`` when the follower claims a version
        *ahead* of the primary (a lineage confusion no delta can fix).
        """
        with self._lock:
            tip = self._tip_locked()
            if version > tip:
                raise ValueError(
                    f"follower version {version} is ahead of the primary "
                    f"({tip}); it belongs to a different lineage"
                )
            if version == tip:
                return b""
            if version < self._floor:
                raise JournalTruncatedError(version, self._floor)
            records = [
                r for r in self._records if r.mutation.version > version
            ]
            payload = {
                "from_version": version,
                "to_version": records[-1].mutation.version,
                "records": [r.to_dict() for r in records],
                "hints": {"incremental": _hint_incremental(records)},
            }
        return encode_delta_frame(payload)

    def compact(self, floor: int) -> int:
        """Raise the log's floor to ``floor``, dropping covered records.

        The snapshot-store GC calls this after deleting old snapshots:
        any follower that would need history at or below ``floor`` can
        no longer be served a snapshot from that era anyway, so holding
        the delta records buys nothing — a follower that far behind
        gets :class:`JournalTruncatedError` from :meth:`delta_since`
        and falls back to a full-state transfer, exactly as if the
        capacity bound had evicted the records.

        The floor never moves backwards and never past the tip.
        Returns the effective floor after compaction.
        """
        with self._lock:
            target = min(max(floor, self._floor), self._tip_locked())
            while (
                self._records
                and self._records[0].mutation.version <= target
            ):
                dropped = self._records.popleft()
                self._floor_time = dropped.t
            self._floor = target
            return self._floor

    def snapshot_frame(self) -> bytes:
        """A full-state transfer: the primary's engine as one frame.

        The fallback when :meth:`delta_since` raises
        :class:`JournalTruncatedError`.  Ships every current
        2-hop-cover index inside the container, so the follower resumes
        warm — zero index builds — just as it started.
        """
        return encode_snapshot_frame(self._engine.snapshot_bytes())

    def lag_ms(self, replica_version: int) -> float:
        """Wall-clock staleness of a follower at ``replica_version``.

        ``0.0`` when current; otherwise the age of the *oldest* change
        the follower has not seen (primary-local monotonic clock) —
        i.e. an upper bound on "how long ago did this replica's world
        diverge".  A follower past the floor is priced at the floor's
        drop time: at least that stale.
        """
        from .. import obs

        now = time.monotonic()
        lag = 0.0
        with self._lock:
            if replica_version < self._tip_locked():
                base = self._floor_time
                if replica_version >= self._floor:
                    for record in self._records:
                        if record.mutation.version > replica_version:
                            base = record.t
                            break
                lag = max(0.0, (now - base) * 1000.0)
        obs.global_registry().gauge("replication_lag_ms").set(lag)
        return lag

    def close(self) -> None:
        """Detach from the network (idempotent); the log stops growing."""
        if not self._closed:
            self._closed = True
            self._engine.network.remove_mutation_listener(self._on_mutation)

    def __enter__(self) -> "ReplicationLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"ReplicationLog(floor={self._floor}, "
                f"tip={self._tip_locked()}, records={len(self._records)})"
            )


class ReplicaFollower:
    """Follower-side reconciliation: stream bytes in, a current engine out.

    Owns one warm-started engine and advances it frame by frame.  Delta
    frames replay through the engine's journal-checked incremental path;
    a snapshot frame *replaces* the engine (``engine`` is a property —
    callers must re-read it after :meth:`apply`).  Counters record what
    replication cost so far.
    """

    def __init__(self, engine: "TeamFormationEngine") -> None:
        self._engine = engine
        self.frames = 0
        self.applied = 0
        self.skipped = 0
        self.snapshot_fallbacks = 0

    @property
    def engine(self) -> "TeamFormationEngine":
        return self._engine

    @property
    def version(self) -> int:
        return self._engine.network.version

    def apply(self, data: bytes) -> dict:
        """Advance the follower by one stream; returns what happened.

        Each delta frame goes through
        :meth:`~repro.api.engine.TeamFormationEngine.apply_delta_payload`
        (idempotent replay, gap and lineage checks), followed by one
        eager :meth:`~repro.api.engine.TeamFormationEngine.apply_updates`
        pass when every applied frame hinted incremental.  A snapshot
        frame swaps the engine for one loaded from the shipped
        container, and subsequent delta frames in the *same* stream
        continue from the new engine's version.
        """
        from .. import obs
        from ..api.engine import TeamFormationEngine

        report: dict = {
            "frames": 0,
            "applied": 0,
            "skipped": 0,
            "snapshot_fallbacks": 0,
            "reconciled": None,
        }
        start = time.perf_counter()
        hints_incremental = True
        with obs.span("replication.apply", bytes=len(data)) as sp:
            for kind, payload in iter_frames(data):
                report["frames"] += 1
                if kind == FRAME_SNAPSHOT:
                    self._engine = TeamFormationEngine.from_snapshot_bytes(
                        payload
                    )
                    report["snapshot_fallbacks"] += 1
                    continue
                frame = self._engine.apply_delta_payload(payload)
                report["applied"] += frame["applied"]
                report["skipped"] += frame["skipped"]
                if frame["applied"]:
                    hints_incremental = (
                        hints_incremental and frame["incremental_hint"]
                    )
            if report["applied"] and hints_incremental:
                report["reconciled"] = self._engine.apply_updates()
            sp.set_attribute("applied", report["applied"])
        self.frames += report["frames"]
        self.applied += report["applied"]
        self.skipped += report["skipped"]
        self.snapshot_fallbacks += report["snapshot_fallbacks"]
        registry = obs.global_registry()
        registry.counter("replication_frames").inc(report["frames"])
        registry.counter("replication_records_applied").inc(report["applied"])
        registry.counter("replication_records_skipped").inc(report["skipped"])
        registry.counter("replication_snapshot_fallbacks").inc(
            report["snapshot_fallbacks"]
        )
        registry.reservoir("replication_delta_apply").observe(
            time.perf_counter() - start
        )
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaFollower(version={self.version}, frames={self.frames}, "
            f"applied={self.applied}, fallbacks={self.snapshot_fallbacks})"
        )


def _op_field(op: dict, kind: str, name: str) -> Any:
    try:
        return op[name]
    except KeyError:
        raise ValueError(f"op {kind!r} requires field {name!r}") from None


def apply_network_op(network: ExpertNetwork, op: dict) -> None:
    """Dispatch one JSON-style mutation op onto a network.

    The shared vocabulary of the ``mutate`` CLI script and the
    replicated server's ``mutate`` wire op: ``{"op": "add_expert", ...}``
    and friends.  Raises ``ValueError`` for unknown ops and missing
    fields (named), and lets the network's own ``KeyError`` /
    ``GraphError`` surface for ops that are well-formed but impossible.
    """
    kind = op.get("op")
    if kind == "add_expert":
        network.add_expert(
            Expert(
                _op_field(op, kind, "id"),
                name=op.get("name", ""),
                skills=frozenset(op.get("skills", ())),
                h_index=op.get("h_index", 1.0),
            )
        )
    elif kind == "remove_expert":
        network.remove_expert(_op_field(op, kind, "id"))
    elif kind == "update_skills":
        network.update_skills(
            _op_field(op, kind, "id"), _op_field(op, kind, "skills")
        )
    elif kind == "update_h_index":
        network.update_h_index(
            _op_field(op, kind, "id"), _op_field(op, kind, "h_index")
        )
    elif kind == "add_collaboration":
        network.add_collaboration(
            _op_field(op, kind, "u"),
            _op_field(op, kind, "v"),
            weight=op.get("weight", 1.0),
        )
    elif kind == "remove_collaboration":
        network.remove_collaboration(
            _op_field(op, kind, "u"), _op_field(op, kind, "v")
        )
    else:
        raise ValueError(f"unknown op {kind!r}")
