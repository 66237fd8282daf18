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
import pytest

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
        server = NetworkServer(ServeNetConfig(port=0, **config))
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


_LADDER = ((64, 64), (48, 48), (32, 32))


@pytest.mark.parametrize("ladder", [None, _LADDER], ids=["plain", "3-rung"])
@pytest.mark.parametrize("paced", [True, False], ids=["paced", "backlogged"])
def test_one_encode_pool_job_takes_what_is_queued_up_to_the_gop_end(
        monkeypatch, ladder, paced):
    """One pool job takes every frame queued up to the open GOP's end,
    whatever the rung count: paced, every frame is its own job;
    backlogged, each GOP is one.  Every job runs on an encode-pool
    thread.  Every push encodes its frame on every rung, so the
    outcomes leave frame by frame, rung by rung within a frame, and the
    session's end runs no job."""
    import threading

    import repro.serving.server as server_mod
    from repro.ladder.session import LadderSession

    width, height = _LADDER[0]
    frames = 3 * _GOP
    _, planes = _planes(width, height, frames)
    jobs, threads, pushed = [], set(), []
    push_all = server_mod._push_all
    push = LadderSession.push

    def counting(encoder, batch):
        jobs.append([f.index for f in batch])
        threads.add(threading.current_thread().name)
        return push_all(encoder, batch)

    async def until(condition):
        while not condition():
            await asyncio.sleep(0.002)

    async def drill(server):
        encode_loop = server._encode_loop

        async def after_the_backlog(session):
            # Backlogged: every frame (and the BYE) is queued before
            # the encode loop takes its first.
            await until(lambda: paced or session.ingest.full())
            return await encode_loop(session)

        monkeypatch.setattr(server_mod, "_push_all", counting)
        monkeypatch.setattr(LadderSession, "push", lambda self, frame: (
            pushed.append(frame.index) or push(self, frame)))
        server._encode_loop = after_the_backlog
        reader, writer, ack = await _hello(server.port, width, height,
                                           frames, ladder=ladder)
        assert len(ack.rungs) == len(ladder or ())
        for index, plane in enumerate(planes):
            writer.write(encode_message(
                FrameMsg(index, width, height, plane.tobytes())))
            if paced:  # the next frame is sent once this one is taken
                await until(lambda: index in pushed)
        await write_message(writer, Bye("done"))
        messages, stats, _ = await _collect(reader)
        await _close(writer)
        return messages, stats

    messages, stats = _serve(drill, queue_frames=frames,
                             egress_frames=4 * frames)
    gops = [list(range(g * _GOP, (g + 1) * _GOP)) for g in range(3)]
    assert jobs == ([[i] for i in range(frames)] if paced else gops)
    assert threads and all(name.startswith("repro-encode")
                           for name in threads)
    rungs = range(len(ladder or (None,)))
    encoded = [m for m in messages if isinstance(m, Encoded)]
    assert [(m.frame_index, m.rung) for m in encoded] == [
        (index, rung) for index in range(frames) for rung in rungs]
    assert all(m.dropped is None for m in encoded)
    assert stats["frames_received"] == frames
    assert stats["frames_encoded"] == frames * len(rungs)
    assert pushed == list(range(frames))


def test_a_backpressured_ladder_closes_its_ledger():
    """A flooded three-rung session: a frame the full ingest queue
    turns away is one drop with one notice, whatever the rung count; a
    frame that got in comes back once per rung; STATS say both."""
    width, height = _LADDER[0]
    frames = 6 * _GOP
    _, planes = _planes(width, height, frames)

    async def drill(server):
        reader, writer, _ = await _hello(server.port, width, height, frames,
                                         ladder=_LADDER)
        for index, plane in enumerate(planes):
            writer.write(encode_message(
                FrameMsg(index, width, height, plane.tobytes())))
        await write_message(writer, Bye("done"))
        messages, stats, _ = await _collect(reader)
        await _close(writer)
        registry = get_registry()
        counted = registry.value("repro_serving_frames_dropped_total",
                                 reason="backpressure")
        return messages, stats, counted

    messages, stats, counted = _serve(drill, queue_frames=4,
                                      egress_frames=4 * frames)
    assert [type(m) for m in messages[-2:]] == [Stats, Bye]
    encoded = messages[:-2]
    turned_away = [m.frame_index for m in encoded
                   if m.dropped == "backpressure"]
    drops = stats["frames_dropped"]
    assert turned_away and len(turned_away) == len(set(turned_away))
    assert drops["backpressure"] == len(turned_away) == counted
    assert drops["egress"] == 0 and stats["peak_ingest_depth"] <= 4
    assert stats["frames_received"] == frames
    kept = sorted(set(range(frames)) - set(turned_away))
    assert stats["frames_encoded"] == len(kept) * len(_LADDER)
    assert sorted((m.frame_index, m.rung) for m in encoded
                  if m.dropped is None) == [
        (index, rung) for index in kept for rung in range(len(_LADDER))]


def _drill_beside_a_stalled_journal_open(tmp_path, stall, **config):
    """Serve a two-rung ladder session (which needs no journal) while a
    journaled session's handshake is stalled ``stall`` seconds opening
    its journal.  Returns when each finished, from the stall's start."""
    width = height = 64
    frames = 2 * _GOP
    _, planes = _planes(width, height, frames)

    async def drill(server):
        ladder = ((width, height), (32, 32))
        reader, writer, ack = await _hello(server.port, width, height,
                                           frames, ladder=ladder)
        assert not ack.resume_token  # a ladder session is not journaled
        started = time.perf_counter()
        journaled = asyncio.ensure_future(
            _hello(server.port, width, height, frames))
        await asyncio.sleep(0.05)  # its journal open is now stalled
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
        drill, journal_dir=str(tmp_path), **config)
    assert stats["frames_encoded"] == 2 * frames  # both rungs
    assert ack2.resume_token  # the stalled session is journaled after all
    assert flowed < stall <= waited


def test_a_stalled_journal_create_does_not_stall_the_event_loop(tmp_path):
    """The journal create of a new journaled session stalls for half a
    second on a slow volume.  It runs on the journal writer thread, so
    meanwhile the loop keeps serving a session that needs no journal (a
    two-rung ladder): all of its frames come back while the other
    session's handshake is still waiting for its journal."""
    stall = 0.6
    faultfs = FaultFS(rules=[
        FaultRule(point="journal.create", kind="stall", stall_s=stall,
                  count=1),
    ])
    _drill_beside_a_stalled_journal_open(tmp_path, stall, fileops=faultfs)
    assert faultfs.injected == {("journal.create", "stall"): 1}


def test_a_stalled_lease_lock_does_not_stall_the_event_loop(
        tmp_path, monkeypatch):
    """Taking a new session's lease (``flock`` on its sidecar) stalls
    on a slow volume.  The lease is taken on the journal writer thread
    too, so the loop keeps serving the ladder session meanwhile."""
    import fcntl

    stall = 0.6
    flock = fcntl.flock
    stalled = []

    def slow_flock(fd, operation):
        if not stalled:
            stalled.append(operation)
            time.sleep(stall)
        return flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", slow_flock)
    _drill_beside_a_stalled_journal_open(tmp_path, stall)
    assert stalled == [fcntl.LOCK_EX | fcntl.LOCK_NB]


def test_a_cut_under_an_append_in_flight_leaves_a_counted_record(tmp_path):
    """A cut lands while a GOP record's append is on the journal writer
    thread (a slow volume).  The handler awaiting it is cancelled; its
    teardown closes the journal *behind* the append, not under it, so
    the record lands whole — RESUME will replay it — and
    ``repro_serving_journal_gops_total``, counted on the writer thread
    where the record became durable, holds it."""
    from repro.serving.recovery import JournalStore, read_journal

    width = height = 64
    _, planes = _planes(width, height, _GOP)
    faultfs = FaultFS(rules=[  # the admit record passes, the GOP's stalls
        FaultRule(point="journal.append", kind="stall", stall_s=0.3,
                  after=1, count=1),
    ])

    async def until(condition):
        while not condition():
            await asyncio.sleep(0.01)

    async def drill(server):
        registry = get_registry()
        _, writer, ack = await _hello(server.port, width, height, 0)
        for index, plane in enumerate(planes):
            writer.write(encode_message(
                FrameMsg(index, width, height, plane.tobytes())))
        await until(lambda: faultfs.injected)  # submitted, not complete
        writer.transport.abort()
        await until(lambda: not server._active_handlers)  # torn down
        return (ack.resume_token,
                registry.value("repro_serving_journal_gops_total"))

    token, counted = _serve(drill, journal_dir=str(tmp_path),
                            fileops=faultfs)
    assert faultfs.injected == {("journal.append", "stall"): 1}
    kinds = [kind for kind, _ in read_journal(
        JournalStore(str(tmp_path)).path_for(token)).records]
    assert kinds == ["admit", "gop"]
    assert counted == 1  # durable and counted


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
