"""Versioned, digest-stamped artifact persistence with quarantine.

Long clone runs survive on what they persist — tier checkpoints,
profiling sessions, shareable bundles. A truncated or bit-flipped file
must never be *silently* resumed from: a wrong ``TierOutcome`` poisons
the assembled clone with no error anywhere. This module provides one
envelope format for every binary artifact in the repo:

``DITTOART`` magic | format version | schema name | schema version |
payload length | payload | SHA-256 digest trailer over everything
before it.

Reads verify the trailer before a single payload byte is interpreted.
A file that fails — truncated, flipped, or not an envelope at all when
one was expected — is **quarantined**: atomically renamed to
``<name>.quarantined`` next to the original so the evidence survives
for inspection while the bad path can never be loaded again, then
reported via an :class:`~repro.util.errors.ArtifactIntegrityError`
(and an ambient-telemetry counter when a session is active). Writes
are atomic (temp file + ``os.replace``), so a crash mid-write leaves
either the old artifact or none — never a half-written one.

JSON artifacts (clone bundles) use the sibling
:func:`stamp_json`/:func:`verify_json` pair: a canonical-JSON SHA-256
digest embedded in the document itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from typing import Any, Optional, Tuple

from repro.telemetry.context import current_session
from repro.util.errors import ArtifactIntegrityError

__all__ = [
    "MAGIC",
    "load_exact",
    "load_object",
    "quarantine",
    "quarantine_and_report",
    "read_envelope",
    "save_object",
    "stamp_json",
    "verify_json",
    "write_envelope",
]

#: file magic for digest-stamped binary artifacts
MAGIC = b"DITTOART"
#: envelope (container) format version — bump on layout changes
ENVELOPE_VERSION = 1
#: fixed-size header: magic, envelope version, schema-name length,
#: schema version, payload length
_HEADER = struct.Struct(">8sHHIQ")
_DIGEST_BYTES = 32


def _count_quarantine(schema: str, reason: str) -> None:
    """Report one quarantined artifact into the ambient telemetry."""
    session = current_session()
    if session is None:
        return
    session.registry.counter(
        "ditto_artifact_quarantines_total",
        "persisted artifacts that failed integrity checks and were "
        "quarantined", ("schema", "reason"),
    ).inc(1, schema=schema, reason=reason)


def quarantine(path: str) -> str:
    """Move a bad artifact aside (atomically); returns the new path.

    The quarantined copy keeps the original name plus a
    ``.quarantined`` suffix; an existing quarantine file at that name
    is overwritten (the newest corruption wins — they are evidence, not
    archives). Returns ``""`` when the move itself fails (e.g. the file
    vanished), so callers can still raise a useful error.
    """
    target = f"{path}.quarantined"
    try:
        os.replace(path, target)
    except OSError:
        return ""
    return target


def quarantine_and_report(path: str, *, schema: str, reason: str) -> str:
    """Quarantine ``path`` and count it in telemetry; returns new path.

    For callers with their own on-disk formats (JSON bundles) that
    detect corruption themselves but want the same quarantine +
    accounting semantics as envelope reads.
    """
    moved = quarantine(path)
    _count_quarantine(schema, reason)
    return moved


def write_envelope(path: str, payload: bytes, *, schema: str,
                   version: int = 1) -> str:
    """Atomically write ``payload`` wrapped in a digest-stamped envelope."""
    name = schema.encode("utf-8")
    header = _HEADER.pack(MAGIC, ENVELOPE_VERSION, len(name), version,
                          len(payload))
    body = header + name + payload
    digest = hashlib.sha256(body).digest()
    scratch = f"{path}.tmp-{os.getpid()}"
    with open(scratch, "wb") as handle:
        handle.write(body)
        handle.write(digest)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    return path


def read_envelope(path: str, *, schema: str,
                  max_version: Optional[int] = None,
                  quarantine_bad: bool = True) -> Tuple[bytes, int]:
    """Read and verify an envelope; returns ``(payload, schema_version)``.

    Raises :class:`ArtifactIntegrityError` on any defect. Files that
    fail the digest or are structurally broken are quarantined first
    (unless ``quarantine_bad`` is false); the error's
    ``quarantined_to`` carries where the evidence went. A missing file
    raises ``FileNotFoundError`` as usual — absence is a cache miss,
    not corruption.
    """
    with open(path, "rb") as handle:
        blob = handle.read()

    def _bad(reason: str, detail: str) -> ArtifactIntegrityError:
        moved = quarantine(path) if quarantine_bad else ""
        _count_quarantine(schema, reason)
        suffix = f"; quarantined to {moved}" if moved else ""
        return ArtifactIntegrityError(
            f"{path}: {detail}{suffix}", path=path, reason=reason,
            quarantined_to=moved)

    if len(blob) < _HEADER.size or not blob.startswith(MAGIC):
        raise _bad("bad_header", "not a digest-stamped artifact "
                   f"(expected schema {schema!r})")
    magic, env_version, name_len, version, payload_len = \
        _HEADER.unpack_from(blob)
    if env_version != ENVELOPE_VERSION:
        raise _bad("bad_header",
                   f"unsupported envelope version {env_version}")
    expected = _HEADER.size + name_len + payload_len + _DIGEST_BYTES
    if len(blob) < expected:
        raise _bad("truncated",
                   f"truncated artifact: {len(blob)} bytes on disk, "
                   f"{expected} expected")
    if len(blob) > expected:
        raise _bad("truncated",
                   f"trailing garbage: {len(blob)} bytes on disk, "
                   f"{expected} expected")
    body = blob[:_HEADER.size + name_len + payload_len]
    trailer = blob[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != trailer:
        raise _bad("digest_mismatch",
                   "digest trailer does not match content "
                   f"(schema {schema!r})")
    found = blob[_HEADER.size:_HEADER.size + name_len].decode(
        "utf-8", errors="replace")
    if found != schema:
        raise _bad("bad_header",
                   f"schema mismatch: file holds {found!r}, "
                   f"expected {schema!r}")
    if max_version is not None and version > max_version:
        # A future-versioned artifact is intact, just unreadable here —
        # leave it in place for the newer reader it was written for.
        raise ArtifactIntegrityError(
            f"{path}: schema {schema!r} version {version} is newer than "
            f"supported ({max_version})", path=path, reason="version")
    return blob[_HEADER.size + name_len:
                _HEADER.size + name_len + payload_len], version


def save_object(path: str, obj: Any, *, schema: str,
                version: int = 1) -> str:
    """Pickle ``obj`` into a digest-stamped envelope at ``path``."""
    return write_envelope(path, pickle.dumps(obj), schema=schema,
                          version=version)


def load_object(path: str, *, schema: str,
                max_version: Optional[int] = None,
                quarantine_bad: bool = True) -> Any:
    """Load a pickled envelope written by :func:`save_object`.

    The digest is verified *before* unpickling, so a corrupted file is
    quarantined instead of fed to the unpickler; an undecodable payload
    behind a valid digest (a foreign writer) is quarantined too.
    """
    payload, _ = read_envelope(path, schema=schema,
                               max_version=max_version,
                               quarantine_bad=quarantine_bad)
    return _unpickle(path, payload, schema, quarantine_bad)


def load_exact(path: str, *, schema: str, version: int) -> Any:
    """:func:`load_object` for schemas whose old payloads are unusable.

    A file of any other schema version raises
    :class:`ArtifactIntegrityError` with ``reason="version"`` and stays
    in place: it is intact, just not this layout, so callers treat it
    as a miss and overwrite it.
    """
    payload, found = read_envelope(path, schema=schema, max_version=version)
    if found != version:
        raise ArtifactIntegrityError(
            f"{path}: schema {schema!r} version {found} is older than "
            f"the current layout ({version})", path=path, reason="version")
    return _unpickle(path, payload, schema, quarantine_bad=True)


def _unpickle(path: str, payload: bytes, schema: str,
              quarantine_bad: bool) -> Any:
    try:
        return pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 — any unpickle failure
        moved = quarantine(path) if quarantine_bad else ""
        _count_quarantine(schema, "undecodable")
        suffix = f"; quarantined to {moved}" if moved else ""
        raise ArtifactIntegrityError(
            f"{path}: payload passed its digest but failed to decode "
            f"({error}){suffix}", path=path, reason="undecodable",
            quarantined_to=moved) from error


# --------------------------------------------------------------------- #
# JSON documents (clone bundles)
# --------------------------------------------------------------------- #
def _canonical_digest(document: dict) -> str:
    """SHA-256 over the canonical JSON form, integrity field excluded."""
    stripped = {k: v for k, v in document.items() if k != "integrity"}
    canonical = json.dumps(stripped, sort_keys=True,
                           separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stamp_json(document: dict) -> dict:
    """Embed an integrity stanza into a JSON-safe document (in place)."""
    document["integrity"] = {
        "algorithm": "sha256-canonical-json",
        "digest": _canonical_digest(document),
    }
    return document


def verify_json(document: dict, *, path: str = "") -> None:
    """Check a stamped document; raises :class:`ArtifactIntegrityError`.

    Documents without an integrity stanza pass (pre-stamping writers);
    a present-but-wrong stanza is corruption.
    """
    stanza = document.get("integrity")
    if stanza is None:
        return
    if stanza.get("algorithm") != "sha256-canonical-json":
        raise ArtifactIntegrityError(
            f"{path or 'document'}: unknown integrity algorithm "
            f"{stanza.get('algorithm')!r}", path=path, reason="bad_header")
    if stanza.get("digest") != _canonical_digest(document):
        raise ArtifactIntegrityError(
            f"{path or 'document'}: embedded digest does not match "
            f"content", path=path, reason="digest_mismatch")
