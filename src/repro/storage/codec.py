"""Section codecs: network state and compact binary PLL labels.

The container (:mod:`repro.storage.format`) moves opaque named byte
sections; this module defines what is *in* them for an engine snapshot:

* ``network`` — the expert network state **and** mutation history as
  canonical JSON (:func:`repro.expertise.serialize.network_to_dict`).
  JSON floats round-trip exactly (``repr``-based shortest decimals), so
  edge weights, h-indexes and scales are bit-preserved.
* ``engine`` — JSON: the frozen normalization scales, default
  ``sa_mode`` / ``oracle_kind``, and one metadata record per persisted
  oracle-cache entry (which cache, graph flavor, gamma, the network
  version the entry is keyed at, and which label section holds it).
* ``labels/<i>`` — one 2-hop-cover label store in a flat array layout
  (for a *sharded* entry this section is replaced by one
  ``labels/<i>/shard/<j>`` section per shard in the identical layout
  plus a ``labels/<i>/boundary`` JSON section carrying the boundary
  node list and raw summary edges; the entry record in ``engine`` lists
  both, and pre-sharding snapshots load unchanged)::

      u32  node count N
      u32  length of the landmark-order JSON
      ...  landmark order (JSON list of node ids, rank ascending)
      u32  incremental_updates counter
      u64  total label entries T
      u32[N]  per-node entry counts, in rank order
      u32[T]  hub ranks, nodes concatenated in rank order
      f64[T]  hub distances

  Format 1 sections (:data:`~repro.storage.format.SNAPSHOT_FORMAT_VERSION`
  history) end with one more column, ``i32[T]`` parent ranks, which the
  decoder skips: a section whose columns span ``12 * T`` bytes is format
  2, ``16 * T`` bytes format 1, and any other length is corrupt.

  Arrays are little-endian on disk whatever the host byte order, packed
  with the stdlib :mod:`array`/:mod:`struct` modules — ``numpy`` is
  never required, keeping the runtime dependency-free (the layout is
  ``numpy.frombuffer``-friendly for external tooling that has it).

Decoders defend against *structurally* broken content with
:class:`CorruptSnapshotError` even though every section already passed
its CRC: a CRC protects against bit rot, not against a truncating or
buggy writer.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Any

from ..expertise.network import ExpertNetwork
from ..expertise.serialize import network_from_dict, network_to_dict
from .errors import CorruptSnapshotError

__all__ = [
    "OracleEntryState",
    "EngineSnapshotState",
    "encode_flat_labels",
    "decode_labels_flat",
    "encode_engine_snapshot",
    "decode_engine_snapshot",
    "strip_shard_tag",
]

# array typecodes are platform-sized; resolve the 4-byte ones once.
_U32 = "I" if array("I").itemsize == 4 else "L"
_SWAP = sys.byteorder == "big"

_LABEL_HEAD = struct.Struct("<II")
_LABEL_MID = struct.Struct("<IQ")
#: Column bytes per label entry: u32 hub rank + f64 distance (format 2),
#: plus an i32 parent rank in format 1.
_ENTRY_BYTES = 12
_FORMAT1_ENTRY_BYTES = 16

#: Identifies an engine snapshot's manifest (vs other future payloads).
SNAPSHOT_KIND = "engine-snapshot"


def _pack(typecode: str, values: list) -> bytes:
    data = array(typecode, values)
    if _SWAP:  # pragma: no cover - big-endian hosts only
        data.byteswap()
    return data.tobytes()


def _pack_array(data: array) -> bytes:
    """Like :func:`_pack` but for an already-flat :mod:`array` column.

    On little-endian hosts (everywhere we run) this is a single
    ``tobytes`` memcpy — the zero-copy half of the flat snapshot path.
    """
    if _SWAP:  # pragma: no cover - big-endian hosts only
        data = data[:]  # the caller's column may be a live index's
        data.byteswap()
    return data.tobytes()


def _unpack_array(
    typecode: str, blob: bytes, offset: int, count: int
) -> tuple[array, int]:
    size = array(typecode).itemsize * count
    if offset + size > len(blob):
        raise CorruptSnapshotError(
            f"label section truncated: need {size} bytes at {offset}, "
            f"have {len(blob) - offset}"
        )
    data = array(typecode)
    data.frombytes(blob[offset : offset + size])
    if _SWAP:  # pragma: no cover - big-endian hosts only
        data.byteswap()
    return data, offset + size


# ----------------------------------------------------------------------
# PLL label sections
# ----------------------------------------------------------------------
def encode_flat_labels(state: dict) -> bytes:
    """Pack :meth:`PrunedLandmarkLabeling.export_flat_labels` output.

    The on-disk layout *is* the flat layout, so each column is one
    memcpy instead of a per-entry Python loop.
    """
    order_blob = json.dumps(state["order"]).encode("utf-8")
    return b"".join(
        [
            _LABEL_HEAD.pack(len(state["order"]), len(order_blob)),
            order_blob,
            _LABEL_MID.pack(
                int(state["incremental_updates"]), len(state["ranks"])
            ),
            _pack(_U32, state["counts"]),
            _pack_array(state["ranks"]),
            _pack_array(state["dists"]),
        ]
    )


def decode_labels_flat(blob: bytes) -> dict:
    """Inverse of :func:`encode_flat_labels` — columns stay flat.

    Returns the shape :meth:`PrunedLandmarkLabeling.from_flat_labels`
    adopts directly, so a warm start never inflates per-node lists.  A
    format-1 section's trailing parent column is skipped.
    """
    if len(blob) < _LABEL_HEAD.size:
        raise CorruptSnapshotError("label section shorter than its header")
    n_nodes, order_len = _LABEL_HEAD.unpack_from(blob)
    offset = _LABEL_HEAD.size
    if offset + order_len + _LABEL_MID.size > len(blob):
        raise CorruptSnapshotError("label section truncated in landmark order")
    try:
        order = json.loads(blob[offset : offset + order_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptSnapshotError(f"undecodable landmark order ({exc})") from None
    if not isinstance(order, list) or len(order) != n_nodes:
        raise CorruptSnapshotError(
            f"landmark order length {len(order) if isinstance(order, list) else '?'}"
            f" does not match node count {n_nodes}"
        )
    offset += order_len
    incremental_updates, total = _LABEL_MID.unpack_from(blob, offset)
    offset += _LABEL_MID.size
    counts, offset = _unpack_array(_U32, blob, offset, n_nodes)
    counts = counts.tolist()
    if sum(counts) != total:
        raise CorruptSnapshotError(
            f"label counts sum to {sum(counts)}, header claims {total}"
        )
    column_bytes = len(blob) - offset
    if column_bytes not in (total * _ENTRY_BYTES, total * _FORMAT1_ENTRY_BYTES):
        raise CorruptSnapshotError(
            f"label section truncated or overlong: {column_bytes} column "
            f"bytes for {total} entries"
        )
    flat_ranks, offset = _unpack_array(_U32, blob, offset, total)
    flat_dists, offset = _unpack_array("d", blob, offset, total)
    # Rank values index into ``order``: a CRC only proves the bytes are
    # what the writer wrote, not that the writer was sane — reject
    # out-of-range references here rather than IndexError-ing later.
    if total and not (0 <= min(flat_ranks) and max(flat_ranks) < n_nodes):
        raise CorruptSnapshotError("label hub rank out of range")
    return {
        "order": order,
        "counts": counts,
        "ranks": flat_ranks,
        "dists": flat_dists,
        "incremental_updates": incremental_updates,
    }


# ----------------------------------------------------------------------
# engine snapshots
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class OracleEntryState:
    """One persisted oracle-cache entry.

    ``cache`` is ``"search"`` or ``"raw"`` (which engine cache it lives
    in); ``base`` is the engine's cache base key — ``(kind, "cc")``,
    ``(kind, "fold", gamma)`` or ``(kind, "raw")``; ``version`` is the
    network version the entry is keyed at; ``labels`` is
    :meth:`PrunedLandmarkLabeling.export_flat_labels` output.
    """

    cache: str
    base: tuple
    version: int
    labels: dict | None = None
    #: Per-shard label states + boundary summary document for entries
    #: holding a :class:`~repro.graph.sharded_oracle.ShardedPLLOracle`
    #: (``labels`` is ``None`` for those; see ``export_state``).
    shard_labels: tuple[dict, ...] | None = None
    boundary: dict | None = None


@dataclass(frozen=True, slots=True)
class EngineSnapshotState:
    """Everything :class:`TeamFormationEngine` needs for a warm start."""

    network: ExpertNetwork
    edge_scale: float
    authority_scale: float
    sa_mode: str
    oracle_kind: str
    entries: tuple[OracleEntryState, ...]
    #: Shard count of a sharded engine (``None`` = monolithic).
    shards: int | None = None
    #: Planning hint duplicated into the manifest meta: skill -> home
    #: shard of the majority of its holders (see ``plan_jobs``).
    shard_residency: dict[str, int] | None = None


def strip_shard_tag(base: tuple) -> tuple:
    """The flavor core of a cache base, shard tag removed.

    Sharded engines append ``("shards", K, plan_hash)`` to their cache
    bases; request planning (``serving/batch.py``) matches on the flavor
    core only, so warm-base lookups see the same shape either way.
    """
    if base and isinstance(base[-1], tuple) and base[-1][:1] == ("shards",):
        return base[:-1]
    return base


def _base_to_meta(base: tuple) -> dict[str, Any]:
    core = strip_shard_tag(base)
    meta: dict[str, Any] = {"kind": core[0], "flavor": core[1]}
    if core[1] == "fold":
        meta["gamma"] = core[2]
    if core is not base:
        meta["shards"] = base[-1][1]
        meta["plan_hash"] = base[-1][2]
    return meta


def _base_from_meta(meta: dict[str, Any]) -> tuple:
    if meta["flavor"] == "fold":
        core: tuple = (meta["kind"], "fold", float(meta["gamma"]))
    elif meta["flavor"] in ("cc", "raw"):
        core = (meta["kind"], meta["flavor"])
    else:
        raise CorruptSnapshotError(f"unknown graph flavor {meta['flavor']!r}")
    if "shards" in meta:
        return (*core, ("shards", int(meta["shards"]), str(meta["plan_hash"])))
    return core


def encode_engine_snapshot(
    state: EngineSnapshotState,
) -> tuple[dict[str, Any], dict[str, bytes]]:
    """Encode one engine state into container ``(meta, sections)``."""
    network_dict = network_to_dict(state.network)
    entry_meta = []
    sections: dict[str, bytes] = {
        "network": json.dumps(network_dict, sort_keys=True).encode("utf-8")
    }
    for i, entry in enumerate(state.entries):
        record = {
            "cache": entry.cache,
            "version": entry.version,
            **_base_to_meta(entry.base),
        }
        if entry.shard_labels is not None:
            # One label section per shard + the boundary summary, all
            # listed in the entry record (and therefore the manifest)
            # so loaders know the layout before touching any payload.
            shard_sections = []
            for j, shard_state in enumerate(entry.shard_labels):
                name = f"labels/{i}/shard/{j}"
                sections[name] = encode_flat_labels(shard_state)
                shard_sections.append(name)
            boundary_section = f"labels/{i}/boundary"
            sections[boundary_section] = json.dumps(
                entry.boundary or {}, sort_keys=True
            ).encode("utf-8")
            record["shard_sections"] = shard_sections
            record["boundary_section"] = boundary_section
        else:
            section = f"labels/{i}"
            sections[section] = encode_flat_labels(entry.labels)
            record["section"] = section
        entry_meta.append(record)
    engine_doc: dict[str, Any] = {
        "edge_scale": state.edge_scale,
        "authority_scale": state.authority_scale,
        "sa_mode": state.sa_mode,
        "oracle_kind": state.oracle_kind,
        "entries": entry_meta,
    }
    if state.shards is not None:
        engine_doc["shards"] = state.shards
    sections["engine"] = json.dumps(engine_doc, sort_keys=True).encode("utf-8")
    meta = {
        "kind": SNAPSHOT_KIND,
        "network_version": state.network.version,
        "experts": len(state.network),
        "edges": state.network.num_edges,
        "oracle_entries": len(state.entries),
        # Which index bases are warm, duplicated into the manifest so a
        # scheduler (the replica pool) can plan request placement from
        # `read_meta` alone — no CRC pass, no label decode.
        "warm": [_base_to_meta(entry.base) for entry in state.entries],
    }
    if state.shards is not None:
        meta["shards"] = state.shards
    if state.shard_residency is not None:
        meta["shard_residency"] = state.shard_residency
    return meta, sections


def warm_bases_from_meta(meta: dict[str, Any]) -> tuple[tuple, ...]:
    """The oracle-cache bases a snapshot carries prebuilt indexes for.

    Read from the manifest ``meta`` (see :func:`repro.storage.format.read_meta`);
    snapshots written before the ``warm`` manifest key existed simply
    report no warm bases, which schedulers must treat as "assume cold"
    — a correct, merely conservative answer.
    """
    try:
        return tuple(
            strip_shard_tag(_base_from_meta(entry))
            for entry in meta.get("warm", ())
        )
    except (KeyError, TypeError, CorruptSnapshotError):
        return ()


def _json_section(sections: dict[str, bytes], name: str) -> Any:
    try:
        return json.loads(sections[name].decode("utf-8"))
    except KeyError:
        raise CorruptSnapshotError(f"missing section {name!r}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptSnapshotError(
            f"undecodable section {name!r} ({exc})"
        ) from None


def decode_engine_snapshot(
    meta: dict[str, Any], sections: dict[str, bytes]
) -> EngineSnapshotState:
    """Inverse of :func:`encode_engine_snapshot` (verified sections in)."""
    if meta.get("kind") != SNAPSHOT_KIND:
        raise CorruptSnapshotError(
            f"not an engine snapshot (kind={meta.get('kind')!r})"
        )
    try:
        network = network_from_dict(_json_section(sections, "network"))
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptSnapshotError(f"invalid network section ({exc})") from None
    engine = _json_section(sections, "engine")
    entries = []
    try:
        for record in engine["entries"]:
            if "shard_sections" in record:
                shard_labels = tuple(
                    decode_labels_flat(sections[name])
                    for name in record["shard_sections"]
                )
                boundary = _json_section(sections, record["boundary_section"])
                if not isinstance(boundary, dict):
                    raise CorruptSnapshotError(
                        "boundary summary section is not a JSON object"
                    )
                entries.append(
                    OracleEntryState(
                        cache=record["cache"],
                        base=_base_from_meta(record),
                        version=int(record["version"]),
                        shard_labels=shard_labels,
                        boundary=boundary,
                    )
                )
            else:
                entries.append(
                    OracleEntryState(
                        cache=record["cache"],
                        base=_base_from_meta(record),
                        version=int(record["version"]),
                        labels=decode_labels_flat(sections[record["section"]]),
                    )
                )
        shards = engine.get("shards")
        state = EngineSnapshotState(
            network=network,
            edge_scale=float(engine["edge_scale"]),
            authority_scale=float(engine["authority_scale"]),
            sa_mode=engine["sa_mode"],
            oracle_kind=engine["oracle_kind"],
            entries=tuple(entries),
            shards=None if shards is None else int(shards),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshotError(f"invalid engine section ({exc})") from None
    for entry in state.entries:
        if entry.cache not in ("search", "raw"):
            raise CorruptSnapshotError(f"unknown cache {entry.cache!r}")
        if entry.version > network.version:
            raise CorruptSnapshotError(
                f"oracle entry at version {entry.version} is ahead of the "
                f"snapshot network ({network.version})"
            )
    return state
