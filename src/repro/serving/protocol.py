"""Length-prefixed binary wire protocol of the serving layer.

Every message travels as one *frame*::

    +-------+---------+------+-------+----------+---------+----------+
    | magic | version | type | flags | length   | crc32   | payload  |
    | 4 B   | 1 B     | 1 B  | 2 B   | 4 B (BE) | 4 B(BE) | length B |
    +-------+---------+------+-------+----------+---------+----------+

``magic`` is ``b"RPRV"``; ``version`` is :data:`PROTOCOL_VERSION`;
``crc32`` is ``zlib.crc32`` of the payload.  A reader rejects bad
magic, unknown versions, oversized lengths, unknown message types and
checksum mismatches with :class:`ProtocolError` — a corrupted or
truncated stream can never be silently misparsed as frames.

Payload encodings are per-type: pixel-carrying messages (FRAME,
ENCODED) use fixed ``struct`` prefixes followed by the raw luma bytes;
control messages (HELLO, HELLO_ACK, STATS, BYE, ERROR) use UTF-8 JSON,
which keeps them extensible without version bumps.

The module is sans-io at its core — :func:`encode_message`,
:func:`decode_frame` and the incremental :class:`MessageDecoder`
operate on bytes — with thin asyncio adapters (:func:`read_message`,
:func:`write_message`) on top, so the protocol is testable without a
socket.
"""

from __future__ import annotations

import enum
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.resilience.errors import TranscodeError

__all__ = [
    "DEFAULT_DECODER_MAX_PAYLOAD",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD",
    "PROTOCOL_VERSION",
    "Bye",
    "Encoded",
    "ErrorMsg",
    "FrameMsg",
    "Hello",
    "HelloAck",
    "Message",
    "MessageDecoder",
    "MsgType",
    "ProtocolError",
    "Resume",
    "ResumeAck",
    "Stats",
    "decode_frame",
    "encode_encoded_into",
    "encode_frame_into",
    "encode_message",
    "read_message",
    "serialise_into",
    "write_message",
]

MAGIC = b"RPRV"
#: v2 added the RESUME / RESUME_ACK handshake (session fault
#: tolerance).  It is the only version spoken or accepted: a v1 header
#: is refused like any unknown version.
PROTOCOL_VERSION = 2
#: Hard payload bound: a 4K 8-bit luma plane is ~8.3 MB; anything far
#: beyond that is a corrupted length field, not a frame.
MAX_PAYLOAD = 32 * 1024 * 1024
#: Default per-message bound of :class:`MessageDecoder`: tighter than
#: the wire-level :data:`MAX_PAYLOAD` so an embedded reassembly buffer
#: never commits to an adversarial 32 MiB allocation (configurable per
#: decoder instance).
DEFAULT_DECODER_MAX_PAYLOAD = 16 * 1024 * 1024

_HEADER = struct.Struct("!4sBBHII")  # magic, version, type, flags, len, crc
HEADER_SIZE = _HEADER.size

_FRAME_PREFIX = struct.Struct("!IHH")  # frame_index, width, height
_ENCODED_PREFIX = struct.Struct("!IBBHHQd")  # idx, ftype, drop, w, h, bits, psnr


class ProtocolError(TranscodeError, ValueError):
    """The byte stream violates the wire protocol (bad magic, version,
    checksum, length, or a malformed payload)."""


class MsgType(enum.IntEnum):
    HELLO = 1        # client -> server: session request
    HELLO_ACK = 2    # server -> client: admission decision
    FRAME = 3        # client -> server: one raw luma frame
    ENCODED = 4      # server -> client: one encoded/decoded frame
    STATS = 5        # server -> client: end-of-session summary
    BYE = 6          # either direction: orderly shutdown
    ERROR = 7        # server -> client: fatal protocol/session error
    RESUME = 8       # client -> server: reattach to a journaled session (v2)
    RESUME_ACK = 9   # server -> client: resume decision + replay plan (v2)


#: ``Encoded.dropped`` reason codes (0 = not dropped).  No server sends
#: ``watchdog`` any more; the code stays so that old journals' drops
#: replay and old peers' notices decode.
DROP_REASONS = {0: None, 1: "corrupt", 2: "deadline", 3: "backpressure",
                4: "watchdog", 5: "policy"}
DROP_CODES = {v: k for k, v in DROP_REASONS.items()}

#: ``Encoded.frame_type`` codes.
FRAME_TYPE_CODES = {"I": 0, "P": 1, "B": 2, "": 3}
FRAME_TYPE_NAMES = {v: k for k, v in FRAME_TYPE_CODES.items()}


# ----------------------------------------------------------------------
# Message dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hello:
    """Session request: declared stream geometry and rate.

    The admission controller prices the session off these fields via
    the workload LUT, so they are promises the client must keep —
    FRAME messages disagreeing with the declared geometry are
    rejected.
    """

    width: int
    height: int
    fps: float = 24.0
    num_frames: int = 0  # 0 = unknown/open-ended
    gop: int = 8
    content_class: Optional[str] = None
    client_id: str = ""
    #: Rendition-ladder request: ``((width, height), ...)`` output
    #: rungs the client wants, largest first.  ``None`` is a plain
    #: single-output session (the pre-ladder wire form — the JSON
    #: payload simply lacks the key, so old servers/clients
    #: interoperate).  The ingest geometry above stays the pricing
    #: anchor; rungs larger than it are rejected at admission
    #: (never-upscale).
    ladder: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Policy tenant this stream bills to.  ``""`` is the pre-policy
    #: wire form (the JSON payload lacks the key, so old peers
    #: interoperate); servers map it — and any name their policy does
    #: not define — to the policy's catch-all default tenant.
    tenant: str = ""

    type = MsgType.HELLO

    def payload(self) -> bytes:
        obj = {
            "width": self.width, "height": self.height, "fps": self.fps,
            "num_frames": self.num_frames, "gop": self.gop,
            "content_class": self.content_class, "client_id": self.client_id,
        }
        if self.ladder is not None:
            obj["ladder"] = [[w, h] for w, h in self.ladder]
        if self.tenant:
            obj["tenant"] = self.tenant
        return _json_bytes(obj)

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "Hello":
        obj = _json_obj(data)
        try:
            ladder = obj.get("ladder")
            if ladder is not None:
                ladder = tuple(
                    (int(w), int(h)) for w, h in ladder
                )
                if not ladder:
                    raise ValueError("empty ladder")
            return cls(
                width=int(obj["width"]), height=int(obj["height"]),
                fps=float(obj.get("fps", 24.0)),
                num_frames=int(obj.get("num_frames", 0)),
                gop=int(obj.get("gop", 8)),
                content_class=obj.get("content_class"),
                client_id=str(obj.get("client_id", "")),
                ladder=ladder,
                tenant=str(obj.get("tenant", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed HELLO payload: {exc}") from exc


@dataclass(frozen=True)
class HelloAck:
    """Admission decision: ``accept``, ``reject`` or ``park``.

    ``resume_token`` (v2, journaling servers only) names the session's
    journal: a client that loses its connection presents the token in a
    RESUME message to reattach with no loss of encoded output.
    """

    decision: str
    session_id: int = 0
    reason: str = ""
    queue_frames: int = 0  # server's per-session ingest bound
    resume_token: str = ""  # "" = server does not journal this session
    #: Admitted ladder rungs as ``((rung_id, width, height), ...)``.
    #: May be a subset of the HELLO request: admission drops low rungs
    #: before shedding the session, and the Green-VCA planner prunes
    #: rungs whose predicted quality gain is below threshold.  Empty
    #: for plain single-output sessions (and on the wire of old
    #: servers, which never emit the key).
    rungs: Tuple[Tuple[int, int, int], ...] = ()

    type = MsgType.HELLO_ACK

    def payload(self) -> bytes:
        obj = {
            "decision": self.decision, "session_id": self.session_id,
            "reason": self.reason, "queue_frames": self.queue_frames,
            "resume_token": self.resume_token,
        }
        if self.rungs:
            obj["rungs"] = [[i, w, h] for i, w, h in self.rungs]
        return _json_bytes(obj)

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "HelloAck":
        obj = _json_obj(data)
        decision = obj.get("decision")
        if decision not in ("accept", "reject", "park"):
            raise ProtocolError(f"unknown admission decision {decision!r}")
        try:
            rungs = tuple(
                (int(i), int(w), int(h))
                for i, w, h in obj.get("rungs", ())
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed HELLO_ACK rungs: {exc}") from exc
        return cls(
            decision=decision,
            session_id=int(obj.get("session_id", 0)),
            reason=str(obj.get("reason", "")),
            queue_frames=int(obj.get("queue_frames", 0)),
            resume_token=str(obj.get("resume_token", "")),
            rungs=rungs,
        )


@dataclass(frozen=True)
class FrameMsg:
    """One raw 8-bit luma frame.

    ``luma`` is any flat C-contiguous byte buffer: ``bytes``, a
    ``memoryview`` slice of the wire payload (the decode path hands
    out zero-copy views of the received chunk, so consumers should
    wrap it with ``np.frombuffer`` rather than expect ``bytes``
    methods) or, on the send side, a flat ``uint8`` ``ndarray`` view
    of a plane.  :func:`encode_frame_into` is the one serialiser.
    """

    frame_index: int
    width: int
    height: int
    luma: Union[bytes, memoryview]

    type = MsgType.FRAME

    def __post_init__(self) -> None:
        if len(self.luma) != self.width * self.height:
            raise ProtocolError(
                f"FRAME luma length {len(self.luma)} != "
                f"{self.width}x{self.height}"
            )

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "FrameMsg":
        if len(data) < _FRAME_PREFIX.size:
            raise ProtocolError("truncated FRAME payload")
        idx, width, height = _FRAME_PREFIX.unpack_from(data)
        luma = data[_FRAME_PREFIX.size:]
        if len(luma) != width * height:
            raise ProtocolError(
                f"FRAME luma length {len(luma)} != {width}x{height}"
            )
        return cls(frame_index=idx, width=width, height=height, luma=luma)


@dataclass(frozen=True)
class Encoded:
    """One frame's encoded outcome.

    ``luma`` carries the reconstructed (decoded) plane — the server's
    proof of what the client's decoder would display; it is empty when
    the frame was dropped (``dropped`` names the reason).  Like
    :class:`FrameMsg` it is a zero-copy ``memoryview`` of the received
    chunk on the decode path and may be a flat ``uint8`` ``ndarray``
    view of the reconstruction on the send side (what the server's
    egress queue holds); :func:`encode_encoded_into` serialises it.
    """

    frame_index: int
    frame_type: str = "P"  # "I" | "P" | "B" | "" (dropped)
    dropped: Optional[str] = None
    width: int = 0
    height: int = 0
    bits: int = 0
    psnr: float = 0.0
    luma: Union[bytes, memoryview] = b""
    #: Rendition-ladder rung id this frame belongs to, carried in the
    #: low byte of the header ``flags`` field — the payload layout is
    #: untouched, so rung 0 (the primary, and every pre-ladder sender)
    #: stays wire-identical to protocol v2 as shipped.
    rung: int = 0

    type = MsgType.ENCODED

    # No check at construction: ``from_payload`` checks what arrives
    # and :func:`encode_encoded_into` what leaves, and the server
    # builds one of these per frame from a plane's own shape.

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "Encoded":
        if len(data) < _ENCODED_PREFIX.size:
            raise ProtocolError("truncated ENCODED payload")
        idx, ftype, drop, width, height, bits, psnr = (
            _ENCODED_PREFIX.unpack_from(data)
        )
        if ftype not in FRAME_TYPE_NAMES:
            raise ProtocolError(f"unknown frame-type code {ftype}")
        if drop not in DROP_REASONS:
            raise ProtocolError(f"unknown drop-reason code {drop}")
        luma = data[_ENCODED_PREFIX.size:]
        if len(luma) not in (0, width * height):
            raise ProtocolError(
                f"ENCODED luma length {len(luma)} != {width}x{height}"
            )
        return cls(
            frame_index=idx, frame_type=FRAME_TYPE_NAMES[ftype],
            dropped=DROP_REASONS[drop], width=width, height=height,
            bits=bits, psnr=psnr, luma=luma, rung=flags & 0xFF,
        )


@dataclass(frozen=True)
class Stats:
    """End-of-session summary (free-form JSON dict)."""

    data: Dict[str, object] = field(default_factory=dict)

    type = MsgType.STATS

    def payload(self) -> bytes:
        return _json_bytes(self.data)

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "Stats":
        return cls(data=_json_obj(data))


@dataclass(frozen=True)
class Bye:
    """Orderly shutdown of one direction of the session."""

    reason: str = ""

    type = MsgType.BYE

    def payload(self) -> bytes:
        return _json_bytes({"reason": self.reason})

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "Bye":
        return cls(reason=str(_json_obj(data).get("reason", "")))


@dataclass(frozen=True)
class ErrorMsg:
    """Fatal session error; the sender closes after this message."""

    code: str = "error"
    detail: str = ""

    type = MsgType.ERROR

    def payload(self) -> bytes:
        return _json_bytes({"code": self.code, "detail": self.detail})

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "ErrorMsg":
        obj = _json_obj(data)
        return cls(code=str(obj.get("code", "error")),
                   detail=str(obj.get("detail", "")))


@dataclass(frozen=True)
class Resume:
    """Reattach to a journaled session after a connection loss (v2).

    ``have_below`` is the client's delivery watermark: every frame
    index strictly below it already has an ENCODED outcome client-side.
    The server replays journaled outcomes from ``have_below`` up and
    then tells the client (via RESUME_ACK ``next_frame_index``) where
    to restart FRAME transmission.
    """

    resume_token: str
    have_below: int = 0
    client_id: str = ""

    type = MsgType.RESUME

    def payload(self) -> bytes:
        return _json_bytes({
            "resume_token": self.resume_token,
            "have_below": self.have_below,
            "client_id": self.client_id,
        })

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "Resume":
        obj = _json_obj(data)
        token = obj.get("resume_token")
        if not token or not isinstance(token, str):
            raise ProtocolError("RESUME without a resume_token")
        have_below = int(obj.get("have_below", 0))
        if have_below < 0:
            raise ProtocolError(f"negative have_below {have_below}")
        return cls(resume_token=token, have_below=have_below,
                   client_id=str(obj.get("client_id", "")))


@dataclass(frozen=True)
class ResumeAck:
    """Resume decision (v2).

    On ``accept`` the server has rebuilt the session from its journal:
    journaled ENCODED outcomes from ``have_below`` on are replayed
    (``replayed`` of them), and the client must restart FRAME
    transmission at ``next_frame_index``.

    ``retry_after_s`` qualifies a ``reject``: non-zero means the
    rejection is *transient* — the session's lease is held by a process
    that is still alive, or the server's storage faulted — and the
    client should retry the same RESUME after that many seconds rather
    than give up.
    """

    decision: str  # "accept" | "reject"
    session_id: int = 0
    next_frame_index: int = 0
    replayed: int = 0
    reason: str = ""
    queue_frames: int = 0
    resume_token: str = ""
    retry_after_s: float = 0.0

    type = MsgType.RESUME_ACK

    def payload(self) -> bytes:
        return _json_bytes({
            "decision": self.decision, "session_id": self.session_id,
            "next_frame_index": self.next_frame_index,
            "replayed": self.replayed, "reason": self.reason,
            "queue_frames": self.queue_frames,
            "resume_token": self.resume_token,
            "retry_after_s": self.retry_after_s,
        })

    @classmethod
    def from_payload(cls, flags: int, data: bytes) -> "ResumeAck":
        obj = _json_obj(data)
        decision = obj.get("decision")
        if decision not in ("accept", "reject"):
            raise ProtocolError(f"unknown resume decision {decision!r}")
        return cls(
            decision=decision,
            session_id=int(obj.get("session_id", 0)),
            next_frame_index=int(obj.get("next_frame_index", 0)),
            replayed=int(obj.get("replayed", 0)),
            reason=str(obj.get("reason", "")),
            queue_frames=int(obj.get("queue_frames", 0)),
            resume_token=str(obj.get("resume_token", "")),
            retry_after_s=float(obj.get("retry_after_s", 0.0)),
        )


Message = Union[Hello, HelloAck, FrameMsg, Encoded, Stats, Bye, ErrorMsg,
                Resume, ResumeAck]

_DECODERS = {
    MsgType.HELLO: Hello.from_payload,
    MsgType.HELLO_ACK: HelloAck.from_payload,
    MsgType.FRAME: FrameMsg.from_payload,
    MsgType.ENCODED: Encoded.from_payload,
    MsgType.STATS: Stats.from_payload,
    MsgType.BYE: Bye.from_payload,
    MsgType.ERROR: ErrorMsg.from_payload,
    MsgType.RESUME: Resume.from_payload,
    MsgType.RESUME_ACK: ResumeAck.from_payload,
}


def _json_bytes(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _json_obj(data) -> dict:
    # Control payloads are tiny; materializing a memoryview here is
    # not on the pixel hot path.
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("JSON payload must be an object")
    return obj


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def serialise_into(out: bytearray, msg: Message, flags: int = 0) -> None:
    """Append one message's wire frame to ``out`` — how a sender puts
    several messages into one buffer, and so into one ``write``.  FRAME
    and ENCODED go through their ``*_into`` serialiser (pixels copied
    once, into ``out``); the rest are small JSON payloads.  An :class:`Encoded`
    message's ``rung`` rides in the header flags: when the caller
    passes none the field supplies them, so ``encode_message`` /
    ``from_payload`` round-trip it without call sites knowing ladders.
    """
    if isinstance(msg, FrameMsg):
        encode_frame_into(out, msg.frame_index, msg.width, msg.height,
                          msg.luma, flags)
    elif isinstance(msg, Encoded):
        encode_encoded_into(
            out, msg.frame_index, msg.frame_type, msg.dropped, msg.width,
            msg.height, msg.bits, msg.psnr, msg.luma, flags or msg.rung,
        )
    else:
        payload = msg.payload()
        if len(payload) > MAX_PAYLOAD:
            raise ProtocolError(
                f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD"
            )
        out += _HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(msg.type), flags,
            len(payload), zlib.crc32(payload) & 0xFFFFFFFF,
        )
        out += payload


def encode_message(msg: Message, flags: int = 0) -> bytes:
    """Serialize one message to its wire frame, as ``bytes``."""
    out = bytearray()
    serialise_into(out, msg, flags)
    return bytes(out)


def _pixels(luma) -> Tuple[object, int]:
    """``luma`` (``bytes``, ``memoryview`` or ``uint8`` ``ndarray``) as
    ``(flat byte buffer, byte count)`` without copying.  A plane that
    is not C-contiguous has no such view and is refused — its memory
    order is not its pixel order."""
    if isinstance(luma, bytes):
        return luma, len(luma)
    view = memoryview(luma)
    if not view.c_contiguous:
        raise ProtocolError("luma buffer is not C-contiguous")
    if view.ndim != 1 or view.format != "B":
        view = view.cast("B")
    return view, view.nbytes


def encode_frame_into(
    out: bytearray,
    frame_index: int,
    width: int,
    height: int,
    luma,
    flags: int = 0,
) -> int:
    """Serialize one FRAME wire frame straight into ``out``.

    Sender-side counterpart of :func:`encode_encoded_into`: ``luma``
    may be ``bytes``, a ``memoryview`` or a C-contiguous ``uint8``
    ``ndarray`` plane, copied exactly once, into ``out``.  The one FRAME
    serialiser (:func:`encode_message` and :func:`write_message` call
    it).  Returns the number of bytes appended.
    """
    view, nbytes = _pixels(luma)
    if nbytes != width * height:
        raise ProtocolError(
            f"FRAME luma length {nbytes} != {width}x{height}"
        )
    length = _FRAME_PREFIX.size + nbytes
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {length} bytes exceeds MAX_PAYLOAD"
        )
    prefix = _FRAME_PREFIX.pack(frame_index, width, height)
    crc = zlib.crc32(view, zlib.crc32(prefix))
    out += _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(MsgType.FRAME), flags, length,
        crc & 0xFFFFFFFF,
    )
    out += prefix
    out += view
    return HEADER_SIZE + length


def encode_encoded_into(
    out: bytearray,
    frame_index: int,
    frame_type: str = "P",
    dropped: Optional[str] = None,
    width: int = 0,
    height: int = 0,
    bits: int = 0,
    psnr: float = 0.0,
    luma=b"",
    flags: int = 0,
) -> int:
    """Serialize one ENCODED wire frame straight into ``out``.

    ``luma`` may be ``bytes``, a ``memoryview`` or a C-contiguous
    ``uint8`` ``ndarray`` (the reconstruction plane), and its pixels
    flow into ``out`` exactly once — no ``tobytes()`` and no
    intermediate header+payload concatenation.  The one ENCODED
    serialiser (:func:`encode_message` and :func:`write_message` call
    it).  Returns the number of bytes appended.
    """
    try:
        ftype = FRAME_TYPE_CODES[frame_type]
        drop = DROP_CODES[dropped]
    except KeyError as exc:
        raise ProtocolError(f"unencodable ENCODED field: {exc}") from exc
    view, nbytes = _pixels(luma)
    if nbytes not in (0, width * height):
        raise ProtocolError(
            f"ENCODED luma length {nbytes} != {width}x{height}"
        )
    length = _ENCODED_PREFIX.size + nbytes
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {length} bytes exceeds MAX_PAYLOAD"
        )
    prefix = _ENCODED_PREFIX.pack(
        frame_index, ftype, drop, width, height, bits, psnr
    )
    crc = zlib.crc32(prefix)
    if nbytes:
        crc = zlib.crc32(view, crc)
    out += _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(MsgType.ENCODED), flags, length,
        crc & 0xFFFFFFFF,
    )
    out += prefix
    if nbytes:
        out += view
    return HEADER_SIZE + length


def _parse_header(header: bytes) -> Tuple[MsgType, int, int, int]:
    magic, version, mtype, flags, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(speaking {PROTOCOL_VERSION})"
        )
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {length} bytes too large")
    try:
        mtype = MsgType(mtype)
    except ValueError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    return mtype, flags, length, crc


def _check_payload(payload: bytes, crc: int) -> None:
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ProtocolError("payload checksum mismatch")


def decode_frame(buf: bytes) -> Tuple[Optional[Message], int]:
    """Decode one message from the head of ``buf``.

    Returns ``(message, bytes_consumed)``; ``(None, 0)`` when the
    buffer does not yet hold a complete frame.  Raises
    :class:`ProtocolError` on any framing violation.
    """
    if len(buf) < HEADER_SIZE:
        return None, 0
    mtype, flags, length, crc = _parse_header(buf[:HEADER_SIZE])
    end = HEADER_SIZE + length
    if len(buf) < end:
        return None, 0
    payload = bytes(buf[HEADER_SIZE:end])
    _check_payload(payload, crc)
    return _DECODERS[mtype](flags, payload), end


class MessageDecoder:
    """Incremental sans-io decoder: feed arbitrary byte chunks, get
    complete messages out (the TCP stream reassembly layer).

    ``max_payload`` bounds what the decoder will *commit to buffering*
    for one message: a FRAME whose declared length exceeds it is
    rejected with :class:`ProtocolError` as soon as its header is
    parsed, never accumulated.  The default
    (:data:`DEFAULT_DECODER_MAX_PAYLOAD`, 16 MiB) is deliberately
    tighter than the wire-format ceiling :data:`MAX_PAYLOAD`; raise it
    per instance when legitimately reassembling larger planes.
    """

    def __init__(self, max_payload: int = DEFAULT_DECODER_MAX_PAYLOAD):
        if max_payload < 1:
            raise ValueError("max_payload must be positive")
        self.max_payload = min(max_payload, MAX_PAYLOAD)
        self._buf = bytearray()
        # Header of the in-progress message, parsed exactly once
        # (invariant: non-None only while ``_buf`` starts with that
        # full 16-byte header and its payload is still incomplete).
        self._header: Optional[Tuple[MsgType, int, int, int]] = None

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def _check_limit(self, length: int) -> None:
        # Reject an oversized declaration before buffering its
        # payload — the unbounded-memory guard.
        if length > self.max_payload:
            raise ProtocolError(
                f"declared payload of {length} bytes exceeds the "
                f"decoder limit of {self.max_payload}"
            )

    def feed(self, data) -> List[Message]:
        """Feed one received chunk; return every completed message.

        Zero-copy fast path: when no partial message is pending and
        ``data`` is immutable ``bytes`` (the normal socket-read case),
        complete messages are parsed in place and pixel-carrying
        payloads come out as ``memoryview`` slices of ``data`` — the
        chunk's pixels are never copied.  Only a trailing partial
        message (and any chunk arriving while one is pending) is
        staged into the reassembly buffer.
        """
        if not self._buf and isinstance(data, bytes):
            return self._feed_fast(data)
        self._buf.extend(data)
        out: List[Message] = []
        buf = self._buf
        while True:
            if self._header is None:
                if len(buf) < HEADER_SIZE:
                    return out
                self._header = _parse_header(bytes(buf[:HEADER_SIZE]))
                self._check_limit(self._header[2])
            mtype, flags, length, crc = self._header
            end = HEADER_SIZE + length
            if len(buf) < end:
                return out
            # One immutable copy per reassembled message (the payload
            # cannot alias ``buf``: the del below resizes it).
            payload = bytes(memoryview(buf)[HEADER_SIZE:end])
            _check_payload(payload, crc)
            msg = _DECODERS[mtype](flags, memoryview(payload))
            del buf[:end]
            self._header = None
            out.append(msg)

    def _feed_fast(self, data: bytes) -> List[Message]:
        out: List[Message] = []
        mv = memoryview(data)
        total = len(data)
        pos = 0
        while True:
            if self._header is None:
                if total - pos < HEADER_SIZE:
                    break
                self._header = _parse_header(mv[pos:pos + HEADER_SIZE])
                self._check_limit(self._header[2])
            mtype, flags, length, crc = self._header
            end = pos + HEADER_SIZE + length
            if end > total:
                break
            payload = mv[pos + HEADER_SIZE:end]
            _check_payload(payload, crc)
            out.append(_DECODERS[mtype](flags, payload))
            self._header = None
            pos = end
        if pos < total:
            # Stage the partial tail; a cached ``_header`` stays valid
            # because the tail starts with those same header bytes.
            self._buf.extend(mv[pos:])
        return out


# ----------------------------------------------------------------------
# asyncio adapters
# ----------------------------------------------------------------------
async def read_message(
    reader, max_payload: int = DEFAULT_DECODER_MAX_PAYLOAD
) -> Message:
    """Read exactly one message from an ``asyncio.StreamReader``.

    ``max_payload`` bounds what the reader will commit to allocating
    for one message (same contract as :class:`MessageDecoder`): a
    declared length beyond it is rejected as soon as the header is
    parsed, before a single payload byte is buffered.  Raise it per
    call site when legitimately receiving larger planes.

    Raises :class:`ProtocolError` on framing violations and
    ``asyncio.IncompleteReadError`` / ``ConnectionError`` on transport
    loss mid-frame (EOF *between* frames surfaces as
    ``IncompleteReadError`` with no partial bytes).
    """
    header = await reader.readexactly(HEADER_SIZE)
    mtype, flags, length, crc = _parse_header(header)
    if length > min(max_payload, MAX_PAYLOAD):
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the reader "
            f"limit of {min(max_payload, MAX_PAYLOAD)}"
        )
    payload = await reader.readexactly(length) if length else b""
    _check_payload(payload, crc)
    # Hand the decoder a view of the freshly-read (immutable) buffer:
    # FRAME/ENCODED luma comes out as a zero-copy slice of it.
    return _DECODERS[mtype](flags, memoryview(payload))


async def write_message(writer, msg: Message, flags: int = 0) -> None:
    """Write one message to an ``asyncio.StreamWriter`` and drain.

    The transport gets the buffer the serialiser built, so a plane's
    pixels are copied once on their way to the socket.
    """
    out = bytearray()
    serialise_into(out, msg, flags)
    writer.write(out)
    await writer.drain()
