"""The load client: one asyncio process, one task pair per connection.

Speaks only the public wire functions of ``repro.serving.protocol``.
Open-loop connections send frame *k* at ``t_first + k/FPS`` whatever the
server does and time every frame from that *due* instant, so a stall
charges the frames queued behind it (no coordinated omission); how late
the generator itself ran is recorded beside it.  Closed-loop
connections keep a bounded number of frames in flight.

Every eighth frame delivered on a session closes a server-side GOP, so
the receiver marks a *completion event* there (time, frames, server CPU
ticks).  Rates are taken between the first and the last event inside
the window, which keeps the 8-frame burstiness of the output out of the
numbers.
"""

from __future__ import annotations

import asyncio
import gc
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.serving.protocol import (
    Bye,
    Encoded,
    ErrorMsg,
    Hello,
    HelloAck,
    MessageDecoder,
    Stats,
    encode_frame_into,
    encode_message,
)

from workloads import FPS, GOP, INFLIGHT, Connection, pingpong_index

#: Serving-layer drops are announced once per ingest frame, whatever
#: the number of rungs; pipeline drops once per rung.
_SERVING_DROPS = ("backpressure", "policy", "watchdog")
_READ_CHUNK = 1 << 20


class ClientError(RuntimeError):
    """The server broke the session contract (reject, ERROR, early EOF)."""


@dataclass
class FrameRecord:
    k: int                      # frame index within its session
    clip_pos: int               # which clip plane it carried
    due_ns: int                 # scheduled send (== sent_ns, closed loop)
    sent_ns: int
    recv_ns: int = 0            # last outcome received; 0 = none yet
    #: When the last frame of this frame's GOP left the client: until
    #: then the frame waits on the schedule, after it on the server.
    gop_sent_ns: int = 0
    outcomes: int = 0
    dropped: Optional[str] = None
    bits: int = 0               # all rungs
    psnr: float = 0.0           # primary rung, as reported by the server
    #: (rung, bits, psnr, crc32(recon)) of the first two GOPs, for the
    #: comparison with the in-process reference.
    recon: List[tuple] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return self.recv_ns != 0 and self.dropped is None


@dataclass(repr=False)
class SessionRecord:
    conn: int
    content: str
    content_slot: int           # index into the connection's clip list
    connect_ns: int
    ack_ns: int = 0
    bye_ns: int = 0
    frames: List[FrameRecord] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass(repr=False)
class Event:
    """A GOP's worth (:data:`GOP`) of frames delivered on one session."""

    t_ns: int
    cpu_ticks: int
    session: SessionRecord
    last: FrameRecord           # the delivery that closed the GOP


@dataclass(repr=False)   # asyncio reprs a finished task's result
class ClientResult:
    sessions: List[SessionRecord] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    #: (session, frame, rung, width, height, reconstruction) of every
    #: eighth frame, kept for :func:`check.pixels` after the run —
    #: comparing planes inside the window would stall the generator.
    kept: List[tuple] = field(default_factory=list)
    serialise_ns: int = 0       # inside encode_frame_into
    serialised: int = 0
    decode_ns: int = 0          # inside MessageDecoder.feed
    decoded: int = 0            # ENCODED messages out of feed
    wire_bytes: int = 0         # both directions


@dataclass(frozen=True)
class Schedule:
    t_first_ns: int             # first frame of every connection is due
    t0_ns: int                  # measured window opens
    t_end_ns: int               # ... and closes

    def measured(self, rec: FrameRecord) -> bool:
        return self.t0_ns <= rec.due_ns < self.t_end_ns


class _Session:
    """One HELLO..BYE exchange on a fresh connection."""

    def __init__(self, conn_index: int, spec: Connection,
                 clips: Sequence[list], slot: int, open_loop: bool,
                 schedule: Schedule, result: ClientResult,
                 cpu_ticks: Callable[[], int]):
        self.conn_index = conn_index
        self.spec = spec
        self.clip = clips[slot]
        self.open_loop = open_loop
        self.schedule = schedule
        self.result = result
        self.cpu_ticks = cpu_ticks
        self.rungs = len(spec.ladder) if spec.ladder else 1
        self.record = SessionRecord(
            conn=conn_index, content=spec.contents[slot], content_slot=slot,
            connect_ns=time.monotonic_ns(),
        )
        self.inflight = 0
        self.room = asyncio.Event()
        #: Frames delivered since the last GOP closed.  The server
        #: encodes eight accepted frames at a time, so every eighth
        #: delivery closes a GOP.
        self.gop: List[FrameRecord] = []

    # -- sending -------------------------------------------------------
    def _frame_budget(self) -> Optional[int]:
        if self.spec.session_frames is not None:
            return self.spec.session_frames
        if self.open_loop:
            span_s = (self.schedule.t_end_ns
                      - self.schedule.t_first_ns) / 1e9
            frames = int(round(span_s * FPS))
            return -(-frames // GOP) * GOP
        return None  # closed loop: until the window closes

    async def _send(self, writer: asyncio.StreamWriter) -> None:
        spec, result = self.spec, self.result
        budget = self._frame_budget()
        arena = bytearray()
        k = 0
        while budget is None or k < budget:
            if budget is None and k % GOP == 0 \
                    and time.monotonic_ns() >= self.schedule.t_end_ns:
                break
            if self.open_loop:
                due = self.schedule.t_first_ns + int(k * 1e9 / FPS)
                delay = (due - time.monotonic_ns()) / 1e9
                if delay > 0:
                    await asyncio.sleep(delay)
            else:
                while self.inflight >= INFLIGHT:
                    self.room.clear()
                    await self.room.wait()
            pos = pingpong_index(k, len(self.clip))
            sent = time.monotonic_ns()
            rec = FrameRecord(k=k, clip_pos=pos,
                              due_ns=due if self.open_loop else sent,
                              sent_ns=sent)
            self.record.frames.append(rec)
            self.inflight += 1
            del arena[:]
            t = time.monotonic_ns()
            n = encode_frame_into(arena, k, spec.width, spec.height,
                                  self.clip[pos])
            result.serialise_ns += time.monotonic_ns() - t
            result.serialised += 1
            result.wire_bytes += n
            writer.write(arena)
            await writer.drain()
            k += 1
        writer.write(encode_message(Bye("done")))
        await writer.drain()

    # -- receiving -----------------------------------------------------
    def _on_encoded(self, msg: Encoded) -> None:
        frames = self.record.frames
        if msg.frame_index >= len(frames):
            raise ClientError(
                f"outcome for frame {msg.frame_index} that was never sent")
        rec = frames[msg.frame_index]
        rec.outcomes += 1
        if msg.dropped is not None:
            rec.dropped = msg.dropped
        else:
            rec.bits += msg.bits
            if msg.rung == 0:
                rec.psnr = msg.psnr
            if rec.k < 2 * GOP:
                rec.recon.append((msg.rung, msg.bits, msg.psnr,
                                  zlib.crc32(msg.luma) & 0xFFFFFFFF))
            if rec.k % GOP == 0:
                self.result.kept.append((self.record, rec, msg.rung,
                                         msg.width, msg.height,
                                         bytes(msg.luma)))
        done = (rec.outcomes == self.rungs
                or (rec.dropped in _SERVING_DROPS and rec.outcomes == 1))
        if not done:
            return
        rec.recv_ns = time.monotonic_ns()
        self.inflight -= 1
        self.room.set()
        if rec.dropped is None:
            self.gop.append(rec)
            if len(self.gop) == GOP:
                self.result.events.append(
                    Event(rec.recv_ns, self.cpu_ticks(), self.record, rec))
                self._close_gop()

    def _close_gop(self) -> None:
        sent = max((f.sent_ns for f in self.gop), default=0)
        for f in self.gop:
            f.gop_sent_ns = sent
        self.gop = []

    async def _receive(self, reader: asyncio.StreamReader,
                       decoder: MessageDecoder) -> None:
        result = self.result
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                raise ClientError("server closed the connection before BYE")
            result.wire_bytes += len(data)
            t = time.monotonic_ns()
            messages = decoder.feed(data)
            result.decode_ns += time.monotonic_ns() - t
            for msg in messages:
                if isinstance(msg, Encoded):
                    result.decoded += 1
                    self._on_encoded(msg)
                elif isinstance(msg, Stats):
                    self.record.stats = msg.data
                elif isinstance(msg, Bye):
                    self.record.bye_ns = time.monotonic_ns()
                    self._close_gop()   # the flushed tail, if any
                    return
                elif isinstance(msg, ErrorMsg):
                    raise ClientError(
                        f"server error [{msg.code}]: {msg.detail}")
                else:
                    raise ClientError(f"unexpected {msg.type.name}")

    async def run(self, host: str, port: int) -> None:
        spec = self.spec
        reader, writer = await asyncio.open_connection(
            host, port, limit=4 * _READ_CHUNK)
        try:
            writer.write(encode_message(Hello(
                width=spec.width, height=spec.height, fps=FPS,
                num_frames=self._frame_budget() or 0, gop=GOP,
                content_class=self.record.content,
                client_id=f"bench-{self.conn_index}",
                ladder=spec.ladder,
            )))
            await writer.drain()
            decoder = MessageDecoder()
            ack = None
            while ack is None:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    raise ClientError("connection closed during handshake")
                for msg in decoder.feed(data):
                    if isinstance(msg, HelloAck) and msg.decision == "park":
                        continue
                    ack = msg
            if not isinstance(ack, HelloAck) or ack.decision != "accept":
                raise ClientError(f"session not accepted: {ack}")
            if spec.ladder and len(ack.rungs) != len(spec.ladder):
                raise ClientError(f"ladder trimmed to {ack.rungs}")
            self.record.ack_ns = time.monotonic_ns()
            self.result.sessions.append(self.record)
            await _all_or_none(self._send(writer),
                               self._receive(reader, decoder))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _all_or_none(*coroutines) -> None:
    """Run the coroutines together; when one fails, cancel the rest
    (a bare ``gather`` would leave them running)."""
    tasks = [asyncio.ensure_future(c) for c in coroutines]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


async def _run_connection(conn_index: int, spec: Connection,
                          clips: Sequence[list], open_loop: bool,
                          schedule: Schedule, result: ClientResult,
                          cpu_ticks, host: str, port: int) -> None:
    slot = 0
    while True:
        session = _Session(conn_index, spec, clips, slot % len(clips),
                           open_loop, schedule, result, cpu_ticks)
        await session.run(host, port)
        slot += 1
        if spec.session_frames is None \
                or time.monotonic_ns() >= schedule.t_end_ns:
            return


async def drive(connections: Sequence[Connection], clips, open_loop: bool,
                schedule: Schedule, cpu_ticks: Callable[[], int],
                port: int, host: str = "127.0.0.1") -> ClientResult:
    """Play every connection of a workload; return what was observed."""
    result = ClientResult()
    # A collection pause in the generator would read as lateness; the
    # run allocates little that is cyclic, so it can wait.
    gc.disable()
    try:
        await _all_or_none(*(
            _run_connection(i, spec, clips[i], open_loop, schedule, result,
                            cpu_ticks, host, port)
            for i, spec in enumerate(connections)))
    finally:
        gc.enable()
    return result
