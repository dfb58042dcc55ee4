"""The versioned binary snapshot container: magic + manifest + CRC sections.

One snapshot file holds named byte *sections* (the network state, one
label blob per persisted oracle) described by a JSON *manifest*::

    offset  size  field
    0       8     magic  b"RPROSNAP"
    8       2     format version (unsigned, little-endian)
    10      2     reserved (zero)
    12      4     manifest length in bytes
    16      4     CRC-32 of the manifest bytes
    20      ...   manifest (UTF-8 JSON)
    ...     ...   section payloads, concatenated in manifest order

The manifest is ``{"meta": {...}, "sections": [{"name", "offset",
"length", "crc32"}, ...]}`` with offsets relative to the end of the
manifest.  Every section carries its own CRC-32, so a flipped byte
anywhere in the file is caught at load time — in the header (bad magic),
the manifest (manifest CRC) or a payload (section CRC) — and surfaces as
:class:`~repro.storage.errors.CorruptSnapshotError` before any content
is interpreted.  A version field larger than
:data:`SNAPSHOT_FORMAT_VERSION` raises
:class:`~repro.storage.errors.FormatVersionError` instead: the bytes are
fine, the reader is too old.

Writes are crash-safe: the file is assembled in a same-directory
temporary, flushed, fsynced and then atomically renamed over the target
(:func:`atomic_write_bytes`), so readers never observe a half-written
snapshot.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any

from .errors import CorruptSnapshotError, FormatVersionError

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT_VERSION",
    "write_container",
    "encode_container",
    "decode_container",
    "read_container",
    "read_meta",
    "atomic_write_bytes",
]

SNAPSHOT_MAGIC = b"RPROSNAP"

#: Bump on any incompatible change to the container layout *or* to the
#: encoding of a section.  Readers reject newer versions with
#: :class:`FormatVersionError`; older versions remain loadable for as
#: long as the changelog in this docstring says they are.  History:
#: 1 — initial format (PR 4).
#: 2 — label sections drop the i32 parent-rank column; format-1 label
#:     sections still load (:func:`repro.storage.codec.decode_labels_flat`
#:     tells the layouts apart by length).
SNAPSHOT_FORMAT_VERSION = 2

_HEADER = struct.Struct("<8sHHII")


def encode_container(
    meta: dict[str, Any], sections: dict[str, bytes]
) -> bytes:
    """Serialize ``meta`` and ``sections`` into one snapshot byte string."""
    entries = []
    offset = 0
    payloads = []
    for name, payload in sections.items():
        entries.append(
            {
                "name": name,
                "offset": offset,
                "length": len(payload),
                "crc32": zlib.crc32(payload),
            }
        )
        payloads.append(payload)
        offset += len(payload)
    manifest = json.dumps(
        {"meta": meta, "sections": entries}, sort_keys=True
    ).encode("utf-8")
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_FORMAT_VERSION,
        0,
        len(manifest),
        zlib.crc32(manifest),
    )
    return b"".join([header, manifest, *payloads])


def write_container(
    path: str | Path, meta: dict[str, Any], sections: dict[str, bytes]
) -> Path:
    """Atomically write one snapshot file; returns the final path."""
    path = Path(path)
    atomic_write_bytes(path, encode_container(meta, sections))
    return path


def _parse_header(blob: bytes, source: str) -> tuple[int, bytes, int]:
    """Validate magic/version/manifest; return (version, manifest, payload offset)."""
    if len(blob) < _HEADER.size:
        raise CorruptSnapshotError(
            f"{source}: truncated header ({len(blob)} bytes, "
            f"need {_HEADER.size})"
        )
    magic, version, _reserved, manifest_len, manifest_crc = _HEADER.unpack_from(
        blob
    )
    if magic != SNAPSHOT_MAGIC:
        raise CorruptSnapshotError(
            f"{source}: bad magic {magic!r} (not a repro snapshot file)"
        )
    if version > SNAPSHOT_FORMAT_VERSION:
        raise FormatVersionError(version, SNAPSHOT_FORMAT_VERSION)
    manifest_end = _HEADER.size + manifest_len
    if len(blob) < manifest_end:
        raise CorruptSnapshotError(
            f"{source}: truncated manifest (file ends at {len(blob)}, "
            f"manifest ends at {manifest_end})"
        )
    manifest = blob[_HEADER.size : manifest_end]
    if zlib.crc32(manifest) != manifest_crc:
        raise CorruptSnapshotError(f"{source}: manifest CRC mismatch")
    return version, manifest, manifest_end


def _parse_manifest(manifest: bytes, source: str) -> dict[str, Any]:
    try:
        parsed = json.loads(manifest.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # CRC passed but the JSON is malformed: the *writer* was broken.
        raise CorruptSnapshotError(
            f"{source}: undecodable manifest ({exc})"
        ) from None
    if (
        not isinstance(parsed, dict)
        or not isinstance(parsed.get("meta"), dict)
        or not isinstance(parsed.get("sections"), list)
    ):
        raise CorruptSnapshotError(f"{source}: malformed manifest structure")
    return parsed


def decode_container(
    blob: bytes, *, source: str = "<bytes>"
) -> tuple[dict[str, Any], dict[str, bytes]]:
    """Fully verify one in-memory snapshot container.

    The byte-level twin of :func:`read_container`, for containers that
    arrive over a wire instead of from a file — the replication layer
    ships full snapshots as one frame payload (:mod:`repro.storage.delta`)
    and verifies them here before interpretation.  ``source`` names the
    origin in error messages.
    """
    _version, manifest, payload_start = _parse_header(blob, source)
    parsed = _parse_manifest(manifest, source)
    sections: dict[str, bytes] = {}
    for entry in parsed["sections"]:
        name, offset = entry["name"], entry["offset"]
        length, crc = entry["length"], entry["crc32"]
        start = payload_start + offset
        payload = blob[start : start + length]
        if len(payload) != length:
            raise CorruptSnapshotError(
                f"{source}: section {name!r} truncated "
                f"({len(payload)}/{length} bytes)"
            )
        if zlib.crc32(payload) != crc:
            raise CorruptSnapshotError(
                f"{source}: section {name!r} CRC mismatch"
            )
        sections[name] = payload
    return parsed["meta"], sections


def read_container(
    path: str | Path,
) -> tuple[dict[str, Any], dict[str, bytes]]:
    """Read and fully verify one snapshot file.

    Returns ``(meta, sections)``.  Raises
    :class:`CorruptSnapshotError` on any integrity failure and
    :class:`FormatVersionError` on a future format version; on success
    every returned byte has passed its CRC.
    """
    path = Path(path)
    source = str(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CorruptSnapshotError(f"{source}: unreadable ({exc})") from exc
    return decode_container(blob, source=source)


def read_meta(path: str | Path) -> dict[str, Any]:
    """Read only the verified manifest ``meta`` (header + manifest CRC).

    Cheap introspection for ``snapshot info`` and store listings: the
    section payloads are neither read into memory nor CRC-checked.
    """
    path = Path(path)
    source = str(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(_HEADER.size)
            if len(head) == _HEADER.size:
                manifest_len = _HEADER.unpack(head)[3]
                head += handle.read(manifest_len)
    except OSError as exc:
        raise CorruptSnapshotError(f"{source}: unreadable ({exc})") from exc
    _version, manifest, _payload_start = _parse_header(head, source)
    return _parse_manifest(manifest, source)["meta"]


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via same-directory temp + rename.

    The temporary carries the PID so concurrent writers never collide;
    fsync of the file (and best-effort fsync of the directory) makes the
    rename durable before it is observable.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{os.getpid()}-{path.name}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:  # pragma: no cover - platform dependent
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
