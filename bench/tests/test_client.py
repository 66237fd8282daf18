"""The open-loop generator against a fake server that stalls."""

import asyncio
import time

import numpy as np

from client import Schedule, drive
from repro.serving.protocol import (
    Bye,
    Encoded,
    FrameMsg,
    Hello,
    HelloAck,
    Stats,
    read_message,
    write_message,
)
from workloads import FPS, Connection

STALL_AT = 12
STALL_S = 0.5


async def _fake_server(reader, writer):
    """Echoes every frame back as its own reconstruction, one at a
    time, and sleeps once before answering frame STALL_AT."""
    hello = await read_message(reader)
    assert isinstance(hello, Hello)
    await write_message(writer, HelloAck(decision="accept"))
    received = 0
    while True:
        msg = await read_message(reader)
        if isinstance(msg, Bye):
            break
        assert isinstance(msg, FrameMsg)
        received += 1
        if msg.frame_index == STALL_AT:
            await asyncio.sleep(STALL_S)
        await write_message(writer, Encoded(
            frame_index=msg.frame_index, frame_type="P", width=msg.width,
            height=msg.height, bits=100, psnr=40.0, luma=bytes(msg.luma)))
    await write_message(writer, Stats({"frames_received": received}))
    await write_message(writer, Bye("session complete"))
    writer.close()


async def _play(open_loop: bool):
    server = await asyncio.start_server(_fake_server, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    rng = np.random.default_rng(0)
    clip = [rng.integers(0, 255, (16, 16), dtype=np.uint8)
            for _ in range(8)]
    t_first = time.monotonic_ns() + 50_000_000
    schedule = Schedule(t_first, t_first, t_first + 1_500_000_000)
    async with server:
        return await drive(
            (Connection(16, 16, ("brain",)),), [[clip]], open_loop,
            schedule, lambda: 0, port)


def test_open_loop_charges_the_stall_to_the_frames_behind_it():
    result = asyncio.run(_play(open_loop=True))
    (session,) = result.sessions
    frames = session.frames
    assert len(frames) == 40              # 1.5 s at 24 fps, whole GOPs
    assert all(f.outcomes == 1 and f.delivered for f in frames)
    assert session.stats == {"frames_received": 40}

    latency_ms = [(f.recv_ns - f.due_ns) / 1e6 for f in frames]
    lateness_ms = [(f.sent_ns - f.due_ns) / 1e6 for f in frames]
    # The schedule held while the server stalled: frames kept leaving
    # on their due times ...
    assert all(0 <= late < 40 for late in lateness_ms)
    gaps = [(b.due_ns - a.due_ns) / 1e6 for a, b in zip(frames, frames[1:])]
    assert all(abs(g - 1000 / FPS) < 0.01 for g in gaps)
    # ... so the frames queued behind the stall carry it in their
    # latency, shrinking by one frame period each (a generator that
    # waited for the reply before sending would report ~0 for them).
    assert latency_ms[STALL_AT - 1] < 100
    assert latency_ms[STALL_AT] >= STALL_S * 1e3
    for behind in range(1, 6):
        expected = STALL_S * 1e3 - behind * 1000 / FPS
        assert latency_ms[STALL_AT + behind] >= expected - 5
    assert latency_ms[-1] < 100           # the backlog drained


def test_every_eighth_delivered_frame_is_a_completion_event():
    result = asyncio.run(_play(open_loop=True))
    assert [e.last.k for e in result.events] == [7, 15, 23, 31, 39]
    # One plane in eight is kept for the pixel check.
    assert [rec.k for _, rec, *_ in result.kept] == [0, 8, 16, 24, 32]
    # Every frame knows when the last frame of its GOP left: the split
    # between waiting on the schedule and waiting on the server.
    frames = result.sessions[0].frames
    for f in frames:
        last = frames[f.k // 8 * 8 + 7]
        assert f.gop_sent_ns == last.sent_ns >= f.sent_ns


def test_closed_loop_keeps_a_bounded_number_in_flight():
    result = asyncio.run(_play(open_loop=False))
    frames = result.sessions[0].frames
    assert len(frames) % 8 == 0 and len(frames) >= 16
    order = sorted(
        [(f.sent_ns, 1) for f in frames] + [(f.recv_ns, -1) for f in frames])
    depth = peak = 0
    for _, step in order:
        depth += step
        peak = max(peak, depth)
    assert peak <= 16
