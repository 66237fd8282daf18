"""Per-session journal and restore path for the serving layer.

The serving fault-tolerance story (DESIGN.md §11) rests on one
invariant: **everything the encoder needs to continue a session
bit-identically is durable at every GOP boundary**.  From there a
RESUME re-encodes the frames the client resends, and the server lets
nothing leave that this cannot reproduce: an outcome goes out as soon
as it is encoded, ahead of its GOP's record, unless a backpressure
drop gave a frame up that no record covers yet — then it waits for the
record.  (Journals written while the server had an encode watchdog may
carry its ``watchdog`` drops too; they replay as such.)
This module owns that durability layer:

``SessionJournal``
    An append-only file of checksummed, length-framed records.  A
    record is one canonical-JSON header line ``{"checksum", "kind",
    "lengths", "payload", "seq"}`` followed by ``sum(lengths)`` bytes
    of raw luma planes; inside ``payload`` a plane appears as
    ``{"shape": [h, w], "blob": i}`` and its pixels are the ``i``-th
    blob.  Pixels never pass through a compressor or a text encoding:
    at 640x480 that cost more CPU than encoding the frame did.  The
    checksum is the SHA-256 of the header without its ``checksum``
    field — the canonicalisation the LUT checkpoint uses
    (:mod:`repro.resilience.checkpoint`) — continued over every blob
    byte.  A record is written by one append (the header line and the
    planes handed over as they are — nothing joins them) and, by
    default, one ``fdatasync``, after which the kernel is told the range
    will not be read back; the server journals once per GOP, off the encode
    thread, and ``append`` is the whole durability cost
    (``recovery.journal_append_ms`` in the ``bench/run.py`` ledger of
    a journaled workload).  The price of skipping the compressor is
    disk: nine raw planes per eight-frame GOP.

``read_journal`` / ``restore_session``
    Crash-tolerant loaders that walk records by their declared
    lengths and hand planes out as zero-copy views of the one read
    buffer.  A *truncated tail* — the final record cut short by a
    mid-write crash, in its header or inside a blob — is expected and
    silently discarded; the journal is authoritative up to its last
    intact record.  Anything else (checksum mismatch, undecodable
    header, sequence gap, with an intact record after it) is
    corruption: :class:`~repro.resilience.errors.JournalCorruptionError`
    in strict mode, a best-effort prefix otherwise.

Record kinds, in the order a journal accumulates them:

``admit``
    Written once at admission: the client's HELLO fields plus the
    encoder configuration the admission controller chose (``qp``,
    ``window``) — a resumed session must re-derive the *same*
    pipeline or bit-identity is lost.
``gop``
    Written at every GOP boundary: the stream's cross-GOP state
    snapshot (:meth:`ProposedStreamSession.export_state`) and the
    GOP's per-frame outcomes, reconstruction planes included, plus the
    timing drops its ``next_frame_index`` covers, so a reconnecting
    client can be replayed outcomes its previous connection never
    delivered, each with its own reason.
``park``
    Written by graceful drain when a session is interrupted mid-GOP:
    the raw frames pushed since the last boundary plus anything still
    queued, so a restarted server re-feeds them and the GOP
    structure — hence the output bytes — match an uninterrupted run.
    Also carries the timing drops since the last boundary that no
    ``gop`` record covers, so replay classification matches the
    original delivery.
``resume``
    A marker written when a reconnecting client reattaches; it
    invalidates any earlier ``park`` record (its frames were
    re-fed and will reappear in later ``gop`` records).
``tombstone``
    Best-effort terminal marker written when a durability brownout
    retires the session's resume token (DESIGN.md §16): the journal is
    no longer a faithful history (appends started failing), so any
    later RESUME against it must be refused rather than replayed.

Every filesystem touch goes through an injectable
:class:`~repro.storage.faultfs.FileOps` seam; a failed append rolls
the file back to its pre-write length before any retry, so a partial
record is never welded to a later complete one (which would read as
mid-file corruption instead of a repairable torn tail).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.resilience.checkpoint import canonical_json
from repro.resilience.errors import JournalCorruptionError
from repro.serving.protocol import Encoded
from repro.storage.errors import (
    RetryPolicy,
    StorageError,
    run_with_retries,
)
from repro.storage.faultfs import FileOps, REAL_FILEOPS

__all__ = [
    "JOURNAL_SUFFIX",
    "JournalReadResult",
    "JournalStore",
    "RestoredSession",
    "SessionJournal",
    "frame_output_record",
    "pack_plane",
    "unpack_plane",
    "read_journal",
    "replay_messages",
    "restore_session",
]

JOURNAL_SUFFIX = ".journal"

_RECORD_KINDS = ("admit", "gop", "park", "resume", "tombstone")
_TOKEN_RE = re.compile(r"[^A-Za-z0-9_.-]")
#: Every record starts with these bytes and a 64-digit SHA-256.
_HEAD = b'{"checksum":"'
_BODY_AT = len(_HEAD) + 64 + len(b'",')


# ----------------------------------------------------------------------
# ndarray <-> blob reference
# ----------------------------------------------------------------------
def pack_plane(plane: np.ndarray, blobs: List[np.ndarray]) -> Dict[str, object]:
    """Queue one uint8 luma plane as the next blob of a record and
    return the ``{"shape", "blob"}`` reference that stands for it in
    the record's JSON header.  The pixels are not copied or encoded
    here: :meth:`SessionJournal.append` hashes and writes them as they
    are, after the header line."""
    if not isinstance(plane, np.ndarray):
        raise TypeError(
            f"journal payloads hold JSON values and planes, "
            f"not {type(plane).__name__}"
        )
    arr = np.ascontiguousarray(plane, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {arr.shape}")
    blobs.append(arr)
    return {"shape": [int(arr.shape[0]), int(arr.shape[1])],
            "blob": len(blobs) - 1}


def unpack_plane(obj: Dict[str, object],
                 blobs: Sequence[memoryview]) -> np.ndarray:
    """Inverse of :func:`pack_plane`: the referenced blob as a
    read-only ``(h, w)`` view — no copy, the array keeps the buffer
    the blob was sliced from alive."""
    try:
        height, width = (int(v) for v in obj["shape"])
        index = obj["blob"]
        if type(index) is not int or index < 0:
            raise ValueError(f"bad blob index {index!r}")
        blob = blobs[index]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise JournalCorruptionError(f"undecodable plane: {exc}") from exc
    if height < 0 or width < 0 or len(blob) != width * height:
        raise JournalCorruptionError(
            f"plane byte length {len(blob)} != {width}x{height}"
        )
    return np.frombuffer(blob, dtype=np.uint8).reshape(height, width)


def _unpack_planes(node, blobs: Sequence[memoryview]):
    """Replace every plane reference under ``node`` by its array."""
    if isinstance(node, dict):
        if node.keys() == {"shape", "blob"}:
            return unpack_plane(node, blobs)
        return {key: _unpack_planes(value, blobs)
                for key, value in node.items()}
    if isinstance(node, list):
        return [_unpack_planes(value, blobs) for value in node]
    return node


def frame_output_record(out) -> Dict[str, object]:
    """One :class:`~repro.transcode.pipeline.FrameOutput` as a journal
    payload entry mirroring the wire ENCODED message; the
    reconstruction rides along as the array it is."""
    if out.dropped is not None:
        return {
            "frame_index": int(out.frame_index),
            "dropped": out.dropped,
            "frame_type": "",
            "bits": 0,
            "psnr": 0.0,
            "recon": None,
        }
    record = out.record
    return {
        "frame_index": int(out.frame_index),
        "dropped": None,
        "frame_type": out.frame_type.value,
        "bits": int(record.bits),
        "psnr": record.psnr,
        "recon": out.reconstruction,
    }


def encoded_from_record(rec: Dict[str, object]) -> Encoded:
    """Rebuild the wire ENCODED message for one journaled outcome."""
    if rec.get("dropped") is not None:
        return Encoded(
            frame_index=int(rec["frame_index"]), frame_type="",
            dropped=str(rec["dropped"]),
        )
    plane = rec["recon"]
    return Encoded(
        frame_index=int(rec["frame_index"]),
        frame_type=str(rec["frame_type"]),
        width=int(plane.shape[1]), height=int(plane.shape[0]),
        bits=int(rec["bits"]), psnr=float(rec["psnr"]),
        luma=plane.tobytes(),
    )


# ----------------------------------------------------------------------
# Journal writer
# ----------------------------------------------------------------------
class SessionJournal:
    """Append-only journal of checksummed, length-framed records for
    one session.

    Opened in append mode, so a resumed session keeps extending the
    same file its predecessor wrote — the journal is the session's
    full history across any number of reconnects.
    """

    def __init__(self, path: Union[str, os.PathLike], fsync: bool = True,
                 next_seq: int = 0, fileops: Optional[FileOps] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_retry=None):
        self.path = os.fspath(path)
        self.fsync = fsync
        self._seq = next_seq
        self._ops = fileops or REAL_FILEOPS
        self._retry = retry
        self._on_retry = on_retry
        self._fh: Optional[io.FileIO] = self._ops.append_open(
            self.path, point="journal.create"
        )
        #: Bytes of intact records on disk — the rollback anchor: a
        #: failed append truncates back to this before any retry.
        self.size = os.path.getsize(self.path)

    @property
    def next_seq(self) -> int:
        return self._seq

    @property
    def closed(self) -> bool:
        return self._fh is None

    def append(self, kind: str, payload: Dict[str, object]) -> int:
        """Append one record; returns its sequence number.

        ``payload`` is JSON values plus, anywhere inside it, 2-D uint8
        arrays: each array becomes a ``{"shape", "blob"}`` reference
        in the header line and its raw bytes a blob after it (see the
        module docstring).  Framing, hashing, the write and the sync
        all happen here, so timing this call times the durability
        path.

        The record is written by one append and (by default) synced
        before returning: once ``append`` returns, the record survives
        a crash.  A crash *during* the write leaves at most a
        truncated final record, which loaders discard.

        Storage faults surface as the typed
        :class:`~repro.storage.errors.StorageError` taxonomy.
        Transient faults are retried under the journal's
        :class:`~repro.storage.errors.RetryPolicy` — but only after
        rolling the file back to its pre-write length, so a partial
        record is never followed by a complete one (that would read
        as *mid-file corruption*, not a repairable torn tail).  A
        rollback that itself fails marks the fault persistent: the
        file's tail state is unknowable and further appends would
        make it worse.
        """
        if self._fh is None:
            raise ValueError(f"journal {self.path!r} is closed")
        if kind not in _RECORD_KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        blobs: List[np.ndarray] = []
        # The payload is serialized first (that is what discovers the
        # blobs) and the other fields spliced around it in sorted-key
        # order, so the line is byte-identical to ``canonical_json`` of
        # the whole header: "checksum" < "kind" < "lengths" < "payload"
        # < "seq".
        payload_json = canonical_json(
            payload, default=lambda plane: pack_plane(plane, blobs)
        )
        body_json = '{"kind":"%s","lengths":%s,"payload":%s,"seq":%d}' % (
            kind, canonical_json([b.nbytes for b in blobs]),
            payload_json, self._seq,
        )
        body = body_json.encode("utf-8")
        digest = hashlib.sha256(body)
        for blob in blobs:
            digest.update(blob)
        # The header line, then the planes as they are: the seam writes
        # the parts back to back, no copy joins them.
        parts = [b"".join([_HEAD, digest.hexdigest().encode("ascii"), b'",',
                           body[1:], b"\n"]), *blobs]
        size = len(parts[0]) + sum(blob.nbytes for blob in blobs)

        def write_record() -> None:
            try:
                self._ops.append(self._fh, parts, point="journal.append")
                if self.fsync:
                    # fdatasync is durability-equivalent for an
                    # append-only record (it flushes the data and the
                    # file size) and avoids the unrelated-metadata
                    # stalls full fsync can incur.
                    self._ops.fsync_handle(self._fh, point="journal.fsync")
                    self._ops.drop_cache(self._fh, self.size, size)
            except StorageError as exc:
                try:
                    self._ops.truncate_handle(self._fh, self.size,
                                              point="journal.rollback")
                except StorageError as rollback_exc:
                    rollback_exc.transient = False
                    raise rollback_exc from exc
                raise

        run_with_retries(write_record, self._retry, on_retry=self._on_retry)
        self.size += size
        self._seq += 1
        return self._seq - 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Journal reader
# ----------------------------------------------------------------------
@dataclass
class JournalReadResult:
    """Outcome of scanning one journal file."""

    records: List[Tuple[str, Dict[str, object]]] = field(
        default_factory=list
    )  #: intact ``(kind, payload)`` pairs, in sequence order; planes
    #: in a payload are read-only views of the one read buffer
    truncated: bool = False  #: a partial final record was discarded
    reason: str = "ok"  #: "ok", "truncated tail", or corruption detail
    #: Byte offset just past the last intact record (blobs included).
    #: When ``truncated``, the file must be cut back to this offset
    #: before any further append — appending onto a torn tail would
    #: weld the next record to the partial one and corrupt the file.
    intact_bytes: int = 0

    @property
    def next_seq(self) -> int:
        return len(self.records)


def _decode_record(raw: bytes, pos: int,
                   expect_seq: Optional[int]) -> Tuple[str, dict, int]:
    """Verify and decode the record starting at ``raw[pos]``; returns
    ``(kind, payload, end offset)``.  ``expect_seq=None`` accepts any
    sequence number (used to look for survivors past a bad record)."""
    newline = raw.find(b"\n", pos)
    body_at = pos + _BODY_AT
    if (newline < 0 or not raw.startswith(_HEAD, pos)
            or raw[body_at - 2:body_at] != b'",'):
        raise ValueError("no record header")
    try:
        record = json.loads(raw[pos:newline])
        seq, kind = record["seq"], record["kind"]
        payload, lengths = record["payload"], record["lengths"]
    except (UnicodeDecodeError, ValueError, TypeError) as exc:
        raise ValueError(f"undecodable record header: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"record missing field {exc}") from exc
    if not (isinstance(lengths, list)
            and all(type(n) is int and n >= 0 for n in lengths)):
        raise ValueError("malformed blob lengths")
    end = newline + 1 + sum(lengths)
    if end > len(raw):
        raise ValueError("record runs past the end of the file")
    # The checksum covers the bytes as they are on disk — the header
    # minus its checksum field, then every blob — so no flipped byte
    # survives re-serialization unnoticed.
    view = memoryview(raw)
    digest = hashlib.sha256(b"{")
    digest.update(view[body_at:newline])
    digest.update(view[newline + 1:end])
    if digest.hexdigest().encode("ascii") != raw[pos + len(_HEAD):body_at - 2]:
        raise ValueError(f"checksum mismatch at seq {seq}")
    if expect_seq is not None and seq != expect_seq:
        raise ValueError(
            f"sequence gap: expected {expect_seq}, found {seq}"
        )
    if kind not in _RECORD_KINDS or not isinstance(payload, dict):
        raise ValueError(f"malformed record of kind {kind!r}")
    blobs, at = [], newline + 1
    for n in lengths:
        blobs.append(view[at:at + n])
        at += n
    return kind, _unpack_planes(payload, blobs), end


def _intact_record_after(raw: bytes, start: int) -> bool:
    """True when a record that verifies begins anywhere in
    ``raw[start:]`` — what tells damage in the middle of a journal
    from a torn final write, whose debris is followed by nothing."""
    pos = raw.find(_HEAD, start)
    while pos >= 0:
        try:
            _decode_record(raw, pos, expect_seq=None)
            return True
        except ValueError:
            pos = raw.find(_HEAD, pos + 1)
    return False


def read_journal(path: Union[str, os.PathLike],
                 strict: bool = False,
                 fileops: Optional[FileOps] = None) -> JournalReadResult:
    """Scan a journal, verifying every record.

    Records are walked by the lengths their headers declare.  A bad
    *final* record — cut short anywhere in its header or its blobs, or
    complete but failing its checksum — is the mid-write crash
    signature: discarded, ``truncated=True``, never an error.  A bad
    record with an intact record after it cannot be a torn write —
    that is corruption: :class:`JournalCorruptionError` when
    ``strict``, else the intact prefix with ``reason`` describing the
    damage.
    """
    raw = (fileops or REAL_FILEOPS).read_bytes(path, point="journal.read")
    result = JournalReadResult()
    while result.intact_bytes < len(raw):
        try:
            kind, payload, end = _decode_record(
                raw, result.intact_bytes, expect_seq=result.next_seq
            )
        except ValueError as exc:
            if not _intact_record_after(raw, result.intact_bytes + 1):
                result.truncated = True
                result.reason = "truncated tail"
            elif strict:
                raise JournalCorruptionError(
                    f"corrupt journal {os.fspath(path)!r}: {exc}"
                ) from exc
            else:
                result.reason = str(exc)
            break
        result.records.append((kind, payload))
        result.intact_bytes = end
    return result


# ----------------------------------------------------------------------
# Session restore
# ----------------------------------------------------------------------
@dataclass
class RestoredSession:
    """Everything a server needs to reattach a journaled session."""

    token: str
    #: HELLO fields + chosen encoder config from the ``admit`` record.
    admit: Dict[str, object]
    #: Latest GOP-boundary pipeline snapshot, ``previous_original``
    #: an ndarray view of the journal's read buffer — ready for
    #: :meth:`ProposedStreamSession.import_state`.  ``None`` when the
    #: session never completed a GOP.
    state: Optional[Dict[str, object]]
    #: Journaled per-frame outcomes keyed by frame index (replay pool).
    outputs: Dict[int, Dict[str, object]]
    #: Raw frames parked by a graceful drain: ``(index, plane)`` in
    #: push order.  Empty unless the last record is an active ``park``.
    pending: List[Tuple[int, np.ndarray]]
    #: Index the client must resend from (== the server's restored
    #: ``next_index`` once ``pending`` has been re-fed).
    next_frame_index: int
    #: True when the session was parked by a drain (vs cut mid-GOP).
    parked: bool
    #: Number of times this session has already been resumed.
    resumes: int
    #: Sequence number the continuing journal must start at.
    next_seq: int
    #: Owner id (``"solo:<pid>"``) recorded by the last admit or
    #: resume record — who was appending when the journal went quiet.
    #: A server resuming a journal whose ``last_owner`` differs from
    #: its own id is *adopting* a dead process's session.  ``""`` for
    #: journals written before owner tracking existed.
    last_owner: str = ""
    truncated: bool = False
    #: Byte offset of the end of the last intact record; a continuing
    #: journal must be truncated to this before appending when
    #: ``truncated`` (see :meth:`JournalStore.reopen`).
    intact_bytes: int = 0
    #: True when a durability brownout retired this journal's token (a
    #: ``tombstone`` record): RESUME must refuse it with a typed
    #: reject — the journal stopped being a faithful history the
    #: moment its appends started failing.
    tombstoned: bool = False


def restore_session(path: Union[str, os.PathLike],
                    strict: bool = False,
                    fileops: Optional[FileOps] = None) -> RestoredSession:
    """Fold a journal into the state needed to reattach its session."""
    scan = read_journal(path, strict=strict, fileops=fileops)
    if not scan.records:
        raise JournalCorruptionError(
            f"journal {os.fspath(path)!r} holds no intact records"
        )
    kind0, admit = scan.records[0]
    if kind0 != "admit":
        raise JournalCorruptionError(
            f"journal {os.fspath(path)!r} does not start with an "
            f"admit record (found {kind0!r})"
        )
    state: Optional[Dict[str, object]] = None
    outputs: Dict[int, Dict[str, object]] = {}
    pending: List[Tuple[int, np.ndarray]] = []
    next_frame_index = 0
    parked = False
    resumes = 0
    tombstoned = False
    last_owner = str(admit.get("owner", ""))
    for kind, payload in scan.records[1:]:
        if kind == "gop":
            state = payload["state"]
            for rec in payload["outputs"]:
                outputs[int(rec["frame_index"])] = rec
            next_frame_index = int(payload["next_frame_index"])
            pending = []
            parked = False
        elif kind == "park":
            pending = [
                (int(f["frame_index"]), f["plane"])
                for f in payload.get("frames", [])
            ]
            # Timing drops no gop record covers ride along in the
            # park record so a replay classifies them identically to
            # the original delivery.
            for rec in payload.get("outputs", []):
                outputs[int(rec["frame_index"])] = rec
            next_frame_index = int(payload["next_frame_index"])
            parked = True
        elif kind == "resume":
            pending = []
            parked = False
            resumes += 1
            last_owner = str(payload.get("owner", last_owner))
        elif kind == "tombstone":
            tombstoned = True
            last_owner = str(payload.get("owner", last_owner))
    token = str(admit.get("token", ""))
    return RestoredSession(
        token=token, admit=dict(admit), state=state, outputs=outputs,
        pending=pending, next_frame_index=next_frame_index, parked=parked,
        resumes=resumes, next_seq=scan.next_seq, last_owner=last_owner,
        truncated=scan.truncated, intact_bytes=scan.intact_bytes,
        tombstoned=tombstoned,
    )


def replay_messages(restored: RestoredSession,
                    have_below: int) -> List[Encoded]:
    """Build the replay stream for a reconnecting client.

    Every journaled outcome with ``frame_index >= have_below`` is
    replayed in index order (none when ``next_frame_index`` is below
    ``have_below``: the client holds more than the journal, and what
    it resends is re-encoded without being re-sent).  An index below
    ``next_frame_index`` that is neither journaled nor parked — left
    only by journals written before timing drops were journaled — was
    consumed by ingest backpressure before ever reaching the encoder;
    it is synthesised as a backpressure drop so the client's
    contiguous-delivery watermark never wedges on a hole.  Parked
    indices are skipped — re-feeding encodes them afresh.
    """
    pending_indices = {index for index, _ in restored.pending}
    out: List[Encoded] = []
    for index in range(max(0, have_below), restored.next_frame_index):
        if index in pending_indices:
            continue
        rec = restored.outputs.get(index)
        if rec is not None:
            out.append(encoded_from_record(rec))
        else:
            out.append(Encoded(frame_index=index, frame_type="",
                               dropped="backpressure"))
    return out


# ----------------------------------------------------------------------
# Journal store (token -> file mapping)
# ----------------------------------------------------------------------
class JournalStore:
    """Directory of session journals, one file per resume token.

    Tokens are minted by the server (``new_token``) from the session
    id plus entropy; they double as capability secrets — knowing the
    token is what authorises a RESUME — so they are unguessable, and
    they are sanitised before ever touching the filesystem.
    """

    def __init__(self, root: Union[str, os.PathLike], fsync: bool = True,
                 fileops: Optional[FileOps] = None,
                 retry: Optional[RetryPolicy] = None,
                 on_retry=None):
        self.root = os.fspath(root)
        self.fsync = fsync
        self._ops = fileops or REAL_FILEOPS
        self._retry = retry
        self._on_retry = on_retry
        os.makedirs(self.root, exist_ok=True)

    def new_token(self, session_id: int, client_id: str = "") -> str:
        prefix = _TOKEN_RE.sub("", client_id)[:16] or "session"
        return f"{prefix}-{session_id}-{os.urandom(6).hex()}"

    def path_for(self, token: str) -> str:
        safe = _TOKEN_RE.sub("", token)
        if not safe or safe != token:
            raise JournalCorruptionError(
                f"malformed resume token {token!r}"
            )
        return os.path.join(self.root, safe + JOURNAL_SUFFIX)

    def exists(self, token: str) -> bool:
        try:
            return os.path.exists(self.path_for(token))
        except JournalCorruptionError:
            return False

    def create(self, token: str) -> SessionJournal:
        """Open a *fresh* journal for a newly admitted session."""
        path = self.path_for(token)
        if os.path.exists(path):
            raise ValueError(f"journal for token {token!r} already exists")
        return SessionJournal(path, fsync=self.fsync, fileops=self._ops,
                              retry=self._retry, on_retry=self._on_retry)

    def reopen(self, token: str, next_seq: int,
               truncate_to: Optional[int] = None) -> SessionJournal:
        """Reopen an existing journal for appending (resume path).

        ``truncate_to`` is the restore's ``intact_bytes``: when a
        mid-append crash left a torn final line, the file is cut back
        to the last intact record *before* the append handle opens —
        otherwise the next record would be welded onto the partial
        line, turning a benign truncation into mid-file corruption
        that makes every later strict restore fail.
        """
        path = self.path_for(token)
        if truncate_to is not None and os.path.getsize(path) > truncate_to:
            self._ops.truncate(path, truncate_to, point="journal.repair")
        return SessionJournal(path, fsync=self.fsync, next_seq=next_seq,
                              fileops=self._ops, retry=self._retry,
                              on_retry=self._on_retry)

    def restore(self, token: str, strict: bool = False) -> RestoredSession:
        return restore_session(self.path_for(token), strict=strict,
                               fileops=self._ops)

    def tokens(self) -> List[str]:
        """Tokens of every journal in the store, sorted."""
        out = []
        for name in os.listdir(self.root):
            if name.endswith(JOURNAL_SUFFIX):
                out.append(name[: -len(JOURNAL_SUFFIX)])
        return sorted(out)

    def discard(self, token: str) -> None:
        """Delete one journal (session completed cleanly)."""
        try:
            self._ops.unlink(self.path_for(token), point="journal.unlink")
        except (FileNotFoundError, JournalCorruptionError):
            pass
