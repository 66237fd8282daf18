"""The session loops against a live loopback server, in the default tier.

What the ingest and egress loops owe a connection whatever they batch:
every FRAME gets exactly one outcome, in order; a drain or a BYE ends
the read; a full queue drops, never buffers; STATS and BYE always
arrive; the wire counters say what crossed the wire; and nothing that
touches the journal volume runs on the event loop.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.observability import get_registry, scoped
from repro.serving.protocol import (
    Bye,
    Encoded,
    FrameMsg,
    Hello,
    HelloAck,
    Stats,
    encode_message,
    read_message,
    write_message,
)
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.storage.faultfs import FaultFS, FaultRule
from repro.video.generator import ContentClass, generate_video
from tests.test_serving_integration import _offline_reference

_GOP = 8


def _planes(width, height, frames, seed=3):
    video = generate_video(ContentClass.BRAIN, width=width, height=height,
                           num_frames=frames, seed=seed)
    return video, [f.luma for f in video.frames]


async def _hello(port, width, height, frames, **extra):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await write_message(writer, Hello(
        width=width, height=height, fps=24.0, num_frames=frames, gop=_GOP,
        content_class=ContentClass.BRAIN.value, **extra))
    ack = await read_message(reader)
    assert isinstance(ack, HelloAck) and ack.decision == "accept", ack
    return reader, writer, ack


async def _collect(reader):
    """Everything the server sends up to its BYE: ``(messages in wire
    order, stats, bye)``."""
    messages, stats = [], None
    while True:
        msg = await read_message(reader)
        messages.append(msg)
        if isinstance(msg, Stats):
            stats = msg.data
        elif isinstance(msg, Bye):
            return messages, stats, msg
        else:
            assert isinstance(msg, Encoded), msg


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def _serve(coro_fn, **config):
    async def main():
        server = NetworkServer(ServeNetConfig(port=0, gop=_GOP, **config))
        await server.start()
        try:
            return await asyncio.wait_for(coro_fn(server), 60)
        finally:
            await server.aclose()

    with scoped():
        return asyncio.run(main())


def test_frames_beyond_the_default_reader_limit_and_the_wire_counters():
    """A 320x240 FRAME is 75 KiB, past asyncio's 64 KiB reader limit:
    the session sizes its reader from the HELLO, every frame comes back
    bit-identical to the offline encode, in order, STATS and BYE last —
    and the ``repro_serving_*_total`` counters equal what the client
    counted message by message, batched egress or not."""
    width, height, frames = 320, 240, 2 * _GOP
    video, planes = _planes(width, height, frames)
    limits = []

    async def drill(server):
        real = server._read_frames

        async def spying(session, reader):
            try:
                return await real(session, reader)
            finally:
                limits.append(reader._limit)

        server._read_frames = spying
        reader, writer, _ = await _hello(server.port, width, height, frames)
        for index, plane in enumerate(planes):
            writer.write(encode_message(
                FrameMsg(index, width, height, plane.tobytes())))
        await write_message(writer, Bye("done"))
        messages, stats, _ = await _collect(reader)
        await _close(writer)
        registry = get_registry()
        wire = {
            (family, direction): registry.value(
                f"repro_serving_{family}_total", direction=direction)
            for family in ("frames", "bytes") for direction in ("in", "out")
        }
        return messages, stats, wire

    messages, stats, wire = _serve(drill)
    assert limits == [2 * width * height]
    encoded = [m for m in messages if isinstance(m, Encoded)]
    assert [type(m) for m in messages[-2:]] == [Stats, Bye]
    assert [m.frame_index for m in encoded] == list(range(frames))
    want = _offline_reference(video, ContentClass.BRAIN)
    for got, ref in zip(encoded, want):
        assert got.dropped is None and got.bits == ref.record.bits
        assert got.psnr == ref.record.psnr
        assert bytes(got.luma) == ref.reconstruction.tobytes()
    assert stats["frames_received"] == stats["frames_encoded"] == frames
    assert wire == {
        ("frames", "in"): frames, ("bytes", "in"): frames * width * height,
        ("frames", "out"): len(encoded),
        ("bytes", "out"): sum(len(m.luma) for m in encoded),
    }


def test_a_drain_ends_a_read_in_progress():
    """A drain arriving while the connection sits in a read — mid-GOP,
    the client silent — stops the ingest: the partial GOP is flushed,
    every frame sent has its outcome, STATS and a draining BYE follow."""
    width = height = 64
    sent = _GOP + 3
    _, planes = _planes(width, height, sent)

    async def drill(server):
        reader, writer, _ = await _hello(server.port, width, height, 0)
        for index, plane in enumerate(planes):
            await write_message(
                writer, FrameMsg(index, width, height, plane.tobytes()))
        # The first GOP's outcomes prove the server is past those
        # frames and back in its read.
        head = [await read_message(reader) for _ in range(_GOP)]
        drain = asyncio.ensure_future(server.drain())
        messages, stats, bye = await _collect(reader)
        await _close(writer)
        await drain
        registry = get_registry()
        out = (registry.value("repro_serving_frames_total", direction="out"),
               registry.value("repro_serving_bytes_total", direction="out"))
        return head + messages, stats, bye, out

    messages, stats, bye, out = _serve(drill)
    encoded = [m for m in messages if isinstance(m, Encoded)]
    assert [m.frame_index for m in encoded] == list(range(sent))
    assert all(m.dropped is None for m in encoded)
    assert stats["frames_received"] == stats["frames_encoded"] == sent
    assert bye.reason == "server draining"
    # 4 KiB outcomes leave several to a batch: the counters still say
    # one per message.
    assert out == (sent, sent * width * height)


def test_a_full_ingest_queue_drops_and_control_messages_are_never_coalesced():
    """A client that floods and does not read: the ingest queue holds at
    its bound and drops the overflow with a notice; the egress queue
    coalesces stale ENCODED frames away — never STATS, never BYE — and
    the ledger closes."""
    width = height = 64
    frames = 6 * _GOP
    _, planes = _planes(width, height, frames)

    async def drill(server):
        reader, writer, ack = await _hello(server.port, width, height, frames)
        assert ack.queue_frames == 4
        for index, plane in enumerate(planes):
            writer.write(encode_message(
                FrameMsg(index, width, height, plane.tobytes())))
        await write_message(writer, Bye("done"))
        await asyncio.sleep(0.5)  # let the outcomes pile up unread
        messages, stats, _ = await _collect(reader)
        await _close(writer)
        return messages, stats

    messages, stats = _serve(drill, queue_frames=4, egress_frames=4)
    assert [type(m) for m in messages[-2:]] == [Stats, Bye]
    encoded = messages[:-2]
    indices = [m.frame_index for m in encoded]
    assert len(indices) == len(set(indices))  # one outcome at most
    # A drop notice leaves at once, an encoded frame after its GOP:
    # each kind arrives in order.
    for dropped in (None, "backpressure"):
        kind = [m.frame_index for m in encoded if m.dropped == dropped]
        assert kind == sorted(kind)
    drops = stats["frames_dropped"]
    assert stats["peak_ingest_depth"] <= 4
    assert stats["peak_egress_depth"] <= 4
    assert stats["frames_received"] == frames
    assert drops["backpressure"] > 0
    assert (stats["frames_encoded"] + drops["backpressure"]) == frames
    noticed = sum(1 for m in encoded if m.dropped == "backpressure")
    delivered = sum(1 for m in encoded if m.dropped is None)
    # What did not arrive was coalesced away, and counted.
    assert (delivered + noticed + drops["egress"]
            == stats["frames_encoded"] + drops["backpressure"])


def test_a_stalled_lease_write_does_not_stall_the_event_loop(tmp_path):
    """The lease write of a new journaled session stalls for half a
    second on a slow volume.  It runs on the journal writer thread, so
    meanwhile the loop keeps serving a session that needs no journal (a
    two-rung ladder): all of its frames come back while the other
    session's handshake is still waiting for its lease."""
    width = height = 64
    frames = 2 * _GOP
    _, planes = _planes(width, height, frames)
    stall = 0.6
    faultfs = FaultFS(rules=[
        FaultRule(point="lease.create", kind="stall", stall_s=stall, count=1),
    ])

    async def drill(server):
        ladder = ((width, height), (32, 32))
        reader, writer, ack = await _hello(server.port, width, height,
                                           frames, ladder=ladder)
        assert not ack.resume_token  # a ladder session is not journaled
        started = time.perf_counter()
        journaled = asyncio.ensure_future(
            _hello(server.port, width, height, frames))
        await asyncio.sleep(0.05)  # its lease write is now stalled
        for index, plane in enumerate(planes):
            writer.write(encode_message(
                FrameMsg(index, width, height, plane.tobytes())))
        await write_message(writer, Bye("done"))
        messages, stats, _ = await _collect(reader)
        flowed = time.perf_counter() - started
        assert not journaled.done()
        reader2, writer2, ack2 = await journaled
        waited = time.perf_counter() - started
        await _close(writer)
        await _close(writer2)
        return stats, flowed, waited, ack2

    stats, flowed, waited, ack2 = _serve(
        drill, journal_dir=str(tmp_path), fileops=faultfs)
    assert stats["frames_encoded"] == 2 * frames  # both rungs
    assert faultfs.injected == {("lease.create", "stall"): 1}
    assert ack2.resume_token  # the stalled session is journaled after all
    assert flowed < stall <= waited


def test_average_psnr_is_numpy_mean_to_the_bit():
    """The frame PSNR on the wire is a mean over tiles taken without
    NumPy; it must be the float64 ``numpy.mean`` returns, whose
    summation order (a running sum below eight values, eight
    interleaved lanes from there) is NumPy's business."""
    from repro.video.metrics import average_psnr

    rng = np.random.default_rng(0)
    for count in list(range(1, 40)) + [63, 64, 65, 127, 128, 129, 300]:
        for scale in (1.0, 1e-6, 1e9):
            values = (rng.uniform(20.0, 60.0, count) * scale).tolist()
            assert average_psnr(values) == float(np.mean(values)), count
