"""repro.storage — durable snapshots for networks and 2-hop-cover indexes.

The paper's premise is that the expensive preprocessing (the PLL index)
is built once and amortized over many queries; this package makes "once"
mean *once per deployment* instead of once per process:

* :mod:`repro.storage.format` — the versioned binary container (magic,
  format version, JSON manifest, CRC-32-checked sections) with atomic
  write-rename;
* :mod:`repro.storage.codec` — what the sections hold: the network
  state + mutation journal as canonical JSON, and each persisted
  oracle-cache entry's labels in a compact little-endian array layout
  (stdlib ``struct``/``array`` only — ``numpy`` never required);
* :mod:`repro.storage.store` — :class:`SnapshotStore`, a snapshot
  directory with a LATEST pointer and count-based retention/GC;
* :mod:`repro.storage.delta` — the replication delta stream: CRC-checked
  frames carrying enriched journal records (or a whole snapshot
  container for the full-transfer fallback) between a primary and its
  follower replicas (:mod:`repro.serving.replication`);
* :mod:`repro.storage.errors` — the typed failure modes
  (:class:`CorruptSnapshotError`, :class:`CorruptDeltaError`,
  :class:`FormatVersionError`, :class:`StaleSnapshotError`,
  :class:`JournalTruncatedError`).

The consumer is :meth:`repro.api.TeamFormationEngine.save_snapshot` /
:meth:`~repro.api.TeamFormationEngine.from_snapshot`, which freeze and
warm-start the whole serving state — network, scales, and the keyed
oracle cache — and reconcile a snapshot taken at network-version *v*
with a newer live journal through the engine's existing incremental
update path.
"""

from .codec import (
    EngineSnapshotState,
    OracleEntryState,
    decode_engine_snapshot,
    decode_labels_flat,
    encode_engine_snapshot,
    encode_flat_labels,
    warm_bases_from_meta,
)
from .delta import (
    DELTA_FORMAT_VERSION,
    DELTA_MAGIC,
    FRAME_DELTA,
    FRAME_SNAPSHOT,
    encode_delta_frame,
    encode_snapshot_frame,
    iter_frames,
)
from .errors import (
    CorruptDeltaError,
    CorruptSnapshotError,
    FormatVersionError,
    JournalTruncatedError,
    SnapshotError,
    StaleSnapshotError,
)
from .format import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    decode_container,
    read_container,
    read_meta,
    write_container,
)
from .store import SnapshotInfo, SnapshotStore, resolve_snapshot_path

__all__ = [
    "SnapshotStore",
    "SnapshotInfo",
    "resolve_snapshot_path",
    "SnapshotError",
    "CorruptSnapshotError",
    "CorruptDeltaError",
    "FormatVersionError",
    "StaleSnapshotError",
    "JournalTruncatedError",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "DELTA_MAGIC",
    "DELTA_FORMAT_VERSION",
    "FRAME_DELTA",
    "FRAME_SNAPSHOT",
    "encode_delta_frame",
    "encode_snapshot_frame",
    "iter_frames",
    "decode_container",
    "read_container",
    "read_meta",
    "write_container",
    "EngineSnapshotState",
    "OracleEntryState",
    "encode_engine_snapshot",
    "decode_engine_snapshot",
    "encode_flat_labels",
    "decode_labels_flat",
    "warm_bases_from_meta",
]
