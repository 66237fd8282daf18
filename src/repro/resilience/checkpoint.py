"""Checksummed LUT checkpoint / restore.

The workload LUT is the server's accumulated knowledge — the paper
primes it "from previously processed videos of the same body-part
class" — so losing it costs estimation accuracy until it re-warms, but
*trusting a corrupted one* costs deadline misses on every allocation.
Checkpoints therefore carry a SHA-256 checksum over the canonical
payload; a mismatch (or any undecodable content) makes ``load_lut``
fall back to a fresh LUT instead of crashing or silently serving
garbage estimates.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.resilience.errors import LutCorruptionError
from repro.workload.lut import WorkloadLut

_FORMAT_VERSION = 1


def canonical_json(payload, default=None) -> str:
    """Canonical (sorted, separator-stable) JSON rendering used for
    checksums.  Shared with the session journal
    (:mod:`repro.serving.recovery`), which reuses this checkpoint
    format for its per-record integrity checks and passes ``default``
    (as :func:`json.dumps` takes it) to stand its planes in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=default)


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


# Backwards-compatible internal aliases.
_canonical = canonical_json
_checksum = payload_checksum


def save_lut(lut: WorkloadLut, path: Union[str, os.PathLike],
             fileops=None,
             staging_path: Optional[Union[str, os.PathLike]] = None) -> str:
    """Write a checksummed JSON checkpoint; returns the checksum.

    Inconsistent entries (see
    :meth:`~repro.workload.lut.WorkloadLut.validate`) are dropped
    before serializing so corruption never propagates into a
    checkpoint that would then verify as healthy.

    The write is crash-atomic *and durable*: the document is staged
    (fsync'd) under ``staging_path`` (default ``<path>.tmp``), then
    published with an ``os.replace`` followed by a parent-directory
    fsync — a bare rename is atomic but not durable, a crash could
    roll the directory entry back to the previous checkpoint.
    ``fileops`` is the injectable seam of :mod:`repro.storage.faultfs`
    (``None`` = the real filesystem).
    """
    from repro.storage.faultfs import REAL_FILEOPS

    ops = fileops or REAL_FILEOPS
    lut.validate()
    payload = lut.to_dict()
    document = {
        "version": _FORMAT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    tmp = os.fspath(staging_path) if staging_path is not None \
        else f"{os.fspath(path)}.tmp"
    data = json.dumps(document, sort_keys=True).encode("utf-8")
    ops.write_file(tmp, data, point="lut.stage")
    ops.replace(tmp, path, point="lut.publish")
    return document["checksum"]


@dataclass
class CheckpointLoadResult:
    """Outcome of a checkpoint load: the LUT to use plus provenance."""

    lut: WorkloadLut
    recovered: bool  #: True when the checkpoint was loaded intact.
    reason: str  #: "ok", "missing", or the corruption description.


def load_lut(path: Union[str, os.PathLike],
             strict: bool = False, fileops=None) -> CheckpointLoadResult:
    """Load a checkpoint, verifying its checksum.

    On any corruption — unreadable file, bad JSON, checksum mismatch,
    undecodable keys/histograms — returns a *fresh* LUT
    (``recovered=False``) unless ``strict`` is set, in which case
    :class:`~repro.resilience.errors.LutCorruptionError` is raised.
    A missing file is not corruption: it is the cold-start case.
    Storage faults injected through ``fileops`` land in the same
    fallback: :class:`~repro.storage.errors.StorageError` is an
    ``OSError``, which the handler below already treats as corruption.
    """
    if not os.path.exists(path):
        return CheckpointLoadResult(WorkloadLut(), False, "missing")
    try:
        if fileops is not None:
            document = json.loads(
                fileops.read_bytes(path, point="lut.read").decode("utf-8")
            )
        else:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        if document.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported version {document.get('version')!r}")
        payload = document["payload"]
        if _checksum(payload) != document["checksum"]:
            raise ValueError("checksum mismatch")
        lut = WorkloadLut.from_dict(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        if strict:
            raise LutCorruptionError(
                f"corrupt LUT checkpoint {os.fspath(path)!r}: {exc}"
            ) from exc
        return CheckpointLoadResult(WorkloadLut(), False, str(exc))
    return CheckpointLoadResult(lut, True, "ok")
