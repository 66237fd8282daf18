"""Handshake exits against a live loopback server.

Small frames, one GOP per session: these run in the default tier.
What is pinned here is what a handshake leaves behind — which thread
read the journal, and that every way out short of serving the session
(RESUME or HELLO) gives back what it took: the token's ``_attached``
entry, its lease, the admission ticket, the park slot.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.observability import get_registry, scoped
from repro.observability.metrics import serving_summary
from repro.resilience.checkpoint import canonical_json
from repro.resilience.errors import LeaseHeldError
from repro.serving.protocol import (
    Bye,
    Encoded,
    FrameMsg,
    Hello,
    HelloAck,
    Resume,
    ResumeAck,
    Stats,
    encode_message,
    read_message,
    write_message,
)
from repro.serving.recovery import read_journal
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.serving.statestore import SharedDirStateStore
from repro.storage.faultfs import FaultFS, FaultRule
from tests.test_journal_format import write_line_format_journal
from tests.test_serving_integration import _tight_admission

_W, _H = 48, 32
_GOP = 4


def _frame(index: int) -> bytes:
    y, x = np.mgrid[0:_H, 0:_W]
    return ((x + 2 * y + 7 * index) % 256).astype(np.uint8).tobytes()


def _run(coro_fn, tmp_path, **server_kwargs):
    async def main():
        server = NetworkServer(
            ServeNetConfig(port=0, journal_dir=str(tmp_path)),
            **server_kwargs,
        )
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.aclose()

    with scoped():
        return asyncio.run(asyncio.wait_for(main(), 60))


async def _until(predicate, what: str) -> None:
    deadline = asyncio.get_running_loop().time() + 10
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, what
        await asyncio.sleep(0.005)


async def _cut_after_one_gop(server) -> str:
    """Journaled session: one durable GOP delivered, then the client
    vanishes.  Returns the resume token once the server has torn the
    session down (entry gone, lease released)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    await write_message(writer, Hello(width=_W, height=_H, fps=24.0,
                                      gop=_GOP, client_id="cut"))
    ack = await read_message(reader)
    assert isinstance(ack, HelloAck) and ack.resume_token, ack
    for i in range(_GOP):
        await write_message(writer, FrameMsg(frame_index=i, width=_W,
                                             height=_H, luma=_frame(i)))
    for _ in range(_GOP):
        assert isinstance(await read_message(reader), Encoded)
    writer.close()
    await _until(lambda: not server._attached
                 and not _leased(server, ack.resume_token),
                 "cut session never torn down")
    return ack.resume_token


def _leased(server, token: str) -> bool:
    """Whether ``token``'s lease is held: a second store on the
    server's directory is refused it."""
    probe = SharedDirStateStore(server._journal_store.root, fsync=False)
    try:
        probe.acquire(token)
    except LeaseHeldError:
        return True
    probe.release(token)
    return False


async def _resume(server, token: str):
    """Send RESUME; returns (ack, reader, writer)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    await write_message(writer, Resume(resume_token=token, have_below=0,
                                       client_id="cut"))
    return await read_message(reader), reader, writer


async def _rejected(server, token: str) -> ResumeAck:
    """RESUME that must be refused: returns the reject once the server
    has hung up (so its handler has fully unwound)."""
    ack, reader, writer = await _resume(server, token)
    assert isinstance(ack, ResumeAck) and ack.decision == "reject", ack
    assert await reader.read() == b""
    writer.close()
    return ack


def test_resume_reads_the_journal_on_the_writer_thread(tmp_path):
    async def drill(server):
        token = await _cut_after_one_gop(server)
        store, threads = server._journal_store, []
        restore = store.restore

        def recording_restore(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return restore(*args, **kwargs)

        store.restore = recording_restore
        ack, reader, writer = await _resume(server, token)
        assert ack.decision == "accept" and ack.replayed == _GOP, ack
        for i in range(_GOP):
            msg = await read_message(reader)
            assert isinstance(msg, Encoded) and msg.frame_index == i
        writer.close()
        return threads

    threads = _run(drill, tmp_path)
    assert len(threads) == 1 and threads[0].startswith("repro-journal")


def test_resume_with_dead_writer_pool_is_a_clean_reject(tmp_path):
    async def drill(server):
        token = await _cut_after_one_gop(server)
        server._journal_pool.shutdown(wait=True)
        ack = await _rejected(server, token)
        assert ack.reason == "journal writer unavailable"
        assert ack.retry_after_s > 0
        assert server._attached == {}
        assert not _leased(server, token)

    _run(drill, tmp_path)


def test_resume_of_a_token_held_elsewhere_is_a_lease_conflict(tmp_path):
    """Another store on the directory holds the token, as another live
    server would: the RESUME is a transient reject counted as a lease
    conflict, and once the holder lets go the token resumes."""
    async def drill(server):
        token = await _cut_after_one_gop(server)
        holder = SharedDirStateStore(server._journal_store.root, fsync=False)
        holder.acquire(token)
        ack = await _rejected(server, token)
        assert ack.reason == "session lease held by another process"
        assert ack.retry_after_s > 0
        assert server._attached == {}
        summary = serving_summary(get_registry().to_dict())
        assert summary["lease_conflicts"] == 1
        holder.release(token)
        ack, _, writer = await _resume(server, token)
        assert ack.decision == "accept", ack
        writer.close()

    _run(drill, tmp_path)


def test_corrupt_journal_reject_leaves_nothing_attached(tmp_path):
    async def drill(server):
        token = await _cut_after_one_gop(server)
        path = server._journal_store.path_for(token)
        with open(path, "r+b") as fh:  # inside the admit record
            fh.seek(40)
            byte = fh.read(1)
            fh.seek(40)
            fh.write(bytes([byte[0] ^ 0x01]))
        ack = await _rejected(server, token)
        assert ack.reason.startswith("journal corrupt")
        assert server._attached == {}
        assert not _leased(server, token)

    _run(drill, tmp_path)


def test_line_format_journal_resume_is_a_clean_reject(tmp_path):
    async def drill(server):
        token = "old-1-0123456789ab"
        write_line_format_journal(server._journal_store.path_for(token),
                                  token)
        ack = await _rejected(server, token)
        assert ack.reason.startswith("journal corrupt")
        assert server._attached == {}
        assert not _leased(server, token)

    _run(drill, tmp_path)


def test_cancelled_while_parked_gives_the_lease_back(tmp_path):
    admission = _tight_admission(park_capacity=1)  # two fit, a third parks

    async def drill(server):
        token = await _cut_after_one_gop(server)
        fillers = []
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await write_message(writer, Hello(width=_W, height=_H, fps=24.0,
                                              gop=_GOP))
            assert (await read_message(reader)).decision == "accept"
            fillers.append(writer)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Resume(resume_token=token, have_below=0))
        await _until(lambda: server.admission._parked == 1,
                     "RESUME never parked")
        assert _leased(server, token)
        handler = server._attached[token]
        handler.cancel()
        await asyncio.wait({handler}, timeout=10)
        assert handler.done()
        assert token not in server._attached
        assert not _leased(server, token)
        for w in fillers + [writer]:
            w.close()

    _run(drill, tmp_path, admission=admission)


def test_cancelled_while_parked_gives_the_park_slot_back(tmp_path):
    """A handler cancelled in the waiting room — a parked HELLO, then a
    parked RESUME — returns its park slot: with one slot, the next
    arrival still parks instead of being rejected for a full room."""
    admission = _tight_admission(park_capacity=1)  # two fit, a third parks

    async def parked_handler(server, message):
        before = set(asyncio.all_tasks())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, message)
        await _until(lambda: server.admission._parked == 1,
                     f"{type(message).__name__} never parked")
        (handler,) = [
            t for t in asyncio.all_tasks() - before
            if t.get_coro().__qualname__.endswith("_handle_client")
        ]
        return handler, writer

    async def drill(server):
        token = await _cut_after_one_gop(server)
        writers = []
        for _ in range(2):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await write_message(writer, Hello(width=_W, height=_H, fps=24.0,
                                              gop=_GOP))
            assert (await read_message(reader)).decision == "accept"
            writers.append(writer)
        for message in (
            Hello(width=_W, height=_H, fps=24.0, gop=_GOP),
            Resume(resume_token=token, have_below=0),
        ):
            handler, writer = await parked_handler(server, message)
            writers.append(writer)
            handler.cancel()
            await asyncio.wait({handler}, timeout=10)
            assert handler.done()
            assert server.admission._parked == 0, type(message).__name__
        for w in writers:
            w.close()

    _run(drill, tmp_path, admission=admission)


def test_hello_reset_while_parked_gives_everything_back(tmp_path):
    """The HELLO door has the RESUME door's claim scope: a client that
    resets while parked and is then unparked never reads its ACK, and
    the ticket, lease and journal handle the handshake had taken by
    then all go back — nothing stays held for the life of the process.
    """
    admission = _tight_admission(park_capacity=1)  # two fit, a third parks

    def leases(server):
        return [token for token in server._journal_store.tokens()
                if _leased(server, token)]

    async def drill(server):
        holders = []
        for i in range(2):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await write_message(writer, Hello(width=_W, height=_H, fps=24.0,
                                              gop=_GOP, client_id=f"held{i}"))
            assert (await read_message(reader)).decision == "accept"
            holders.append(writer)
        before = set(asyncio.all_tasks())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Hello(width=_W, height=_H, fps=24.0,
                                          gop=_GOP, client_id="third"))
        assert (await read_message(reader)).decision == "park"
        (handler,) = [
            t for t in asyncio.all_tasks() - before
            if t.get_coro().__qualname__.endswith("_handle_client")
        ]
        # RST, not FIN: the parked handler is not reading, so only its
        # next write — the accept ACK — finds the client gone.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        writer.transport.abort()
        await asyncio.sleep(0.05)
        holders[0].close()  # frees capacity: the third is unparked
        await asyncio.wait({handler}, timeout=10)
        assert handler.done()
        await _until(lambda: server.admission.active_sessions == 1,
                     "the reset session's ticket was never released")
        assert [name.split("-")[0] for name in leases(server)] == ["held1"]
        holders[1].close()
        await _until(lambda: server.admission.active_sessions == 0,
                     "last holder never torn down")
        assert server.admission.occupancy_cores == 0
        assert server.admission._parked == 0
        assert server._attached == {}
        await _until(lambda: leases(server) == [],
                     "a lease outlived its session")

    _run(drill, tmp_path, admission=admission)


def test_park_ack_to_a_gone_client_gives_the_park_slot_back(tmp_path):
    """The park ACK is written from inside the waiting room's guard: a
    client already gone when it is sent must not keep the park slot."""
    admission = _tight_admission(park_capacity=1)

    class GoneWriter:
        def write(self, data):
            pass

        async def drain(self):
            raise ConnectionResetError("client gone")

    async def drill(server):
        hello = Hello(width=_W, height=_H, fps=24.0, gop=_GOP)
        assert admission.decide(0, hello)[0].value == "accept"
        assert admission.decide(1, hello)[0].value == "accept"
        decision, reason, _ = admission.decide(2, hello)
        assert decision.value == "park" and admission._parked == 1
        with pytest.raises(ConnectionResetError):
            await server._wait_parked(
                2, hello, GoneWriter(),
                HelloAck(decision="park", session_id=2, reason=reason))
        assert admission._parked == 0

    _run(drill, tmp_path, admission=admission)


async def _send_frames(writer, indices) -> None:
    for i in indices:
        await write_message(writer, FrameMsg(frame_index=i, width=_W,
                                             height=_H, luma=_frame(i)))


async def _until_bye(reader):
    """(wire bytes of every ENCODED in arrival order, STATS payload)."""
    encoded, stats = [], None
    while True:
        msg = await read_message(reader)
        if isinstance(msg, Encoded):
            encoded.append(bytes(encode_message(msg, flags=msg.rung)))
        elif isinstance(msg, Stats):
            stats = msg.data
        elif isinstance(msg, Bye):
            return encoded, stats


def test_one_rung_ladder_hello_is_the_plain_session_on_the_wire(tmp_path):
    """One door: ``Hello(...)`` and ``Hello(..., ladder=((w, h),))``
    are the same session — byte-identical ENCODED stream, equal STATS,
    both journaled (resume token in the ACK) — and the explicit form
    resumes bit-identically from a mid-GOP cut.  A plain-only run moves
    no metric family named after ladders."""
    total = 2 * _GOP

    async def whole(server, hello):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, hello)
        ack = await read_message(reader)
        await _send_frames(writer, range(total))
        await write_message(writer, Bye("done"))
        encoded, stats = await _until_bye(reader)
        writer.close()
        return ack, encoded, stats

    async def plain_drill(server):
        result = await whole(server, Hello(width=_W, height=_H, fps=24.0,
                                           gop=_GOP, client_id="same"))
        return result, [m["name"] for m in get_registry().to_dict()["metrics"]]

    (ack, want, stats), families = _run(plain_drill, tmp_path / "plain")
    assert ack.decision == "accept" and ack.resume_token and ack.rungs == ()
    assert len(want) == total
    assert [name for name in families if "ladder" in name] == []

    ladder_hello = Hello(width=_W, height=_H, fps=24.0, gop=_GOP,
                         client_id="same", ladder=((_W, _H),))

    async def ladder_drill(server):
        uncut = await whole(server, ladder_hello)
        # Second session: one durable GOP, two frames into the next,
        # then the client vanishes mid-GOP.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, ladder_hello)
        token = (await read_message(reader)).resume_token
        await _send_frames(writer, range(_GOP + 2))
        for _ in range(_GOP):
            assert isinstance(await read_message(reader), Encoded)
        writer.close()
        await _until(lambda: not server._attached
                     and not _leased(server, token),
                     "cut session never torn down")
        rack, reader, writer = await _resume(server, token)
        assert rack.decision == "accept" and rack.replayed == _GOP, rack
        assert rack.next_frame_index == _GOP
        await _send_frames(writer, range(_GOP, total))
        await write_message(writer, Bye("done"))
        resumed, _ = await _until_bye(reader)
        writer.close()
        return uncut, resumed

    (lack, got, lstats), resumed = _run(ladder_drill, tmp_path / "ladder")
    assert lack.decision == "accept" and lack.resume_token
    assert lack.rungs == ((0, _W, _H),)
    assert got == want

    def counters(data):  # queue peaks are timing, not outcome
        return {k: v for k, v in data.items() if not k.startswith("peak_")}

    assert counters(lstats) == counters(stats)
    assert resumed == want  # replayed first GOP + re-encoded second


# ----------------------------------------------------------------------
# Early egress: nothing leaves that RESUME cannot reproduce
# ----------------------------------------------------------------------
def _serve(coro_fn, journal_dir, **config):
    async def main():
        server = NetworkServer(ServeNetConfig(
            port=0, journal_dir=str(journal_dir), **config))
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.aclose()

    with scoped():
        return asyncio.run(asyncio.wait_for(main(), 60))


def _outcome(msg: Encoded) -> tuple:
    return (msg.dropped, msg.frame_type, msg.bits, msg.psnr,
            zlib.crc32(msg.luma))


def _gop_records(path: str) -> list:
    """Each ``gop`` record's payload, its planes as their bytes."""
    def plain(node):
        if isinstance(node, np.ndarray):
            return [list(node.shape), node.tobytes().hex()]
        return node
    return [canonical_json(payload, default=plain)
            for kind, payload in read_journal(path).records if kind == "gop"]


async def _journaled(server, token: str, gops: int) -> list:
    """The journal's ``gop`` records once it holds ``gops`` of them."""
    path = server._journal_store.path_for(token)
    await _until(lambda: len(_gop_records(path)) >= gops,
                 f"{gops} gop records never landed")
    return _gop_records(path)[:gops]


@pytest.mark.parametrize("k", [1, 4, 7])
def test_a_cut_after_early_outcomes_resumes_bit_identically(tmp_path, k):
    """A paced, journaled session: every frame's outcome leaves when it
    is encoded, ahead of its GOP's record.  The client vanishes after
    one GOP and ``k`` early outcomes of the next, and resumes with its
    ``have_below``: the server answers the last boundary, below what
    the client holds, and the client resends from there.  Outcomes it
    holds are re-encoded, not re-sent; every index's outcome equals an
    uninterrupted run's; the journal's records equal that run's."""
    gop, total = 8, 24
    hello = Hello(width=_W, height=_H, fps=24.0, gop=gop, client_id="oracle")

    async def paced(reader, writer, indices, got):
        for i in indices:
            await _send_frames(writer, [i])
            msg = await read_message(reader)
            assert isinstance(msg, Encoded) and msg.frame_index == i, msg
            got[i] = _outcome(msg)

    async def uninterrupted(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, hello)
        token = (await read_message(reader)).resume_token
        got = {}
        await paced(reader, writer, range(2 * gop), got)
        records = await _journaled(server, token, 2)
        await paced(reader, writer, range(2 * gop, total), got)
        await write_message(writer, Bye("done"))
        await _until_bye(reader)
        writer.close()
        return got, records

    async def cut_and_resumed(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, hello)
        token = (await read_message(reader)).resume_token
        got = {}
        await paced(reader, writer, range(gop + k), got)
        writer.transport.abort()
        await _until(lambda: not server._attached
                     and not _leased(server, token),
                     "cut session never torn down")
        have_below = gop + k
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Resume(
            resume_token=token, have_below=have_below, client_id="oracle"))
        ack = await read_message(reader)
        assert ack.decision == "accept", ack
        assert ack.next_frame_index == gop and ack.replayed == 0, ack
        resent = []
        for i in range(ack.next_frame_index, total):
            await _send_frames(writer, [i])
            if i >= have_below:
                msg = await read_message(reader)
                resent.append(msg.frame_index)
                assert msg.frame_index not in got
                got[msg.frame_index] = _outcome(msg)
            if i == 2 * gop - 1:
                records = await _journaled(server, token, 2)
        await write_message(writer, Bye("done"))
        tail, _ = await _until_bye(reader)
        writer.close()
        return got, records, resent, tail

    want, want_records = _serve(uninterrupted, tmp_path / "whole")
    got, records, resent, tail = _serve(cut_and_resumed, tmp_path / "cut")
    assert resent == list(range(gop + k, total)) and tail == []
    assert got == want
    assert records == want_records


def _stalled_first_gop(**rule):
    """A volume whose first ``gop`` append (after the admit record)
    stalls, so what waits for that record shows in arrival times."""
    return FaultFS(rules=[FaultRule(point="journal.append", kind="stall",
                                    after=1, count=1, **rule)])


async def _record_appends(server) -> list:
    """``(kind, next_frame_index, finished_at)`` of every journal
    record the server writes, from here on."""
    appends, write = [], server._journal_write

    def recording(journal, kind, build):
        payload = build()
        write(journal, kind, lambda: payload)
        appends.append((kind, payload.get("next_frame_index"),
                        time.perf_counter()))

    server._journal_write = recording
    return appends


@pytest.mark.parametrize("taint", ["none", "backpressure"])
def test_early_egress_is_off_while_a_taint_holds(tmp_path, monkeypatch,
                                                 taint):
    """A backpressure drop mid-GOP keeps the outcomes of its GOP behind
    the GOP's ``gop`` append (stalled here, so the order shows).
    Untainted, they leave before it."""
    import repro.serving.server as server_mod

    config = {}
    early = set()
    push_all, stalled = server_mod._push_all, []
    if taint == "none":
        early = {0, 1, 2, 3}
    else:
        config = {"queue_frames": 2}

    def stalling(encoder, frames):
        # Backpressure: the session's first job is slow, so the burst
        # behind it overflows the queue.
        if taint == "backpressure" and not stalled:
            stalled.append(0)
            time.sleep(0.5)
        return push_all(encoder, frames)

    monkeypatch.setattr(server_mod, "_push_all", stalling)

    async def drill(server):
        appends = await _record_appends(server)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Hello(width=_W, height=_H, fps=24.0,
                                          gop=_GOP, client_id="taint"))
        assert (await read_message(reader)).resume_token
        arrived, dropped = {}, {}

        async def receive():
            while True:
                msg = await read_message(reader)
                if isinstance(msg, Bye):
                    return
                if isinstance(msg, Encoded):
                    arrived[msg.frame_index] = time.perf_counter()
                    dropped[msg.frame_index] = msg.dropped

        receiving = asyncio.ensure_future(receive())
        if taint == "backpressure":
            await _send_frames(writer, range(4))  # a burst
            await asyncio.sleep(0.7)
            await _send_frames(writer, range(4, 8))
        else:
            for i in range(8):
                await _send_frames(writer, [i])
                if i in early:  # sent once the previous has left
                    await _until(lambda: i in arrived, f"frame {i} held")
                else:
                    await asyncio.sleep(0.05)
        await write_message(writer, Bye("done"))
        await receiving
        writer.close()
        return appends, arrived, dropped

    appends, arrived, dropped = _serve(
        drill, tmp_path, fileops=_stalled_first_gop(stall_s=0.4), **config)
    kind, next_index, durable_at = appends[1]
    assert kind == "gop"
    gop = range(next_index)
    assert sorted(i for i in gop if arrived[i] < durable_at) == sorted(early)
    assert len(arrived) == 8
    if taint == "backpressure":  # the taint is in the GOP
        assert stalled
        assert taint in [dropped[i] for i in gop]


def test_a_backpressure_drop_rides_its_gop_record(tmp_path, monkeypatch):
    """A timing drop — here backpressure: frame 1's encode stalls, the
    one-frame ingest queue holds frame 2 and turns frame 3 away — is
    journaled: the GOP record that covers it carries it, and its notice
    leaves with that record, as do the GOP's outcomes after the drop.
    The client is cut while the record's append is stalled, holding
    frame 0 only; the record lands anyway, RESUME replays frames 1 to 4
    with frame 3 as ``backpressure``, and across both connections every
    index has exactly one outcome — the uninterrupted run's."""
    import repro.serving.server as server_mod

    push_all, stalled, pushed = server_mod._push_all, [], []

    def stalling(encoder, frames):
        if 1 in [f.index for f in frames] and not stalled:
            stalled.append(1)
            time.sleep(1.0)
        outputs = push_all(encoder, frames)
        pushed.extend(f.index for f in frames)
        return outputs

    monkeypatch.setattr(server_mod, "_push_all", stalling)
    total = 3 * _GOP
    hello = Hello(width=_W, height=_H, fps=24.0, gop=_GOP, client_id="full")

    async def paced(writer, indices):
        """Each frame once the one before it was pushed: no more drops."""
        for i in indices:
            await _send_frames(writer, [i])
            await _until(lambda: i in pushed, f"frame {i} never pushed")

    async def until_bye(reader):
        outcomes = []
        while not isinstance(msg := await read_message(reader), Bye):
            if isinstance(msg, Encoded):
                outcomes.append(msg)
        return outcomes

    async def first_five(reader, writer):
        """Frame 0 leaves early (nothing was given up yet); frame 1's
        job stalls while frames 2 and 3 arrive, so 3 is dropped."""
        stalled.clear()
        pushed.clear()
        await _send_frames(writer, [0])
        received = [await read_message(reader)]
        await _send_frames(writer, [1])
        await _until(lambda: stalled, "frame 1 never stalled")
        await _send_frames(writer, [2, 3])
        await _until(lambda: 2 in pushed, "frame 2 never pushed")
        await paced(writer, [4])
        return received

    async def uninterrupted(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, hello)
        await read_message(reader)
        received = await first_five(reader, writer)
        await paced(writer, range(5, total))
        await write_message(writer, Bye("done"))
        encoded = received + await until_bye(reader)
        writer.close()
        return encoded

    async def cut_and_resumed(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, hello)
        token = (await read_message(reader)).resume_token
        received = await first_five(reader, writer)
        await _until(lambda: faultfs.injected, "GOP append never started")
        writer.transport.abort()  # cut while the record is stalled
        await _until(lambda: not server._attached
                     and not _leased(server, token),
                     "cut session never torn down")
        (record,) = [payload for kind, payload in read_journal(
            server._journal_store.path_for(token)).records if kind == "gop"]
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await write_message(writer, Resume(resume_token=token, have_below=1,
                                           client_id="full"))
        ack = await read_message(reader)
        assert ack.decision == "accept", ack
        assert (ack.next_frame_index, ack.replayed) == (_GOP + 1, 4), ack
        pushed.clear()
        await paced(writer, range(ack.next_frame_index, total))
        await write_message(writer, Bye("done"))
        encoded = await until_bye(reader)
        writer.close()
        return received, record, encoded

    want = _serve(uninterrupted, tmp_path / "whole", queue_frames=1)
    faultfs = _stalled_first_gop(stall_s=0.3)
    received, record, resumed = _serve(
        cut_and_resumed, tmp_path / "cut", fileops=faultfs, queue_frames=1)
    assert [(m.frame_index, m.dropped) for m in received] == [(0, None)]
    assert [(o["frame_index"], o["dropped"]) for o in record["outputs"]
            if o["dropped"]] == [(3, "backpressure")]
    assert [(m.frame_index, m.dropped) for m in resumed[:4]] == [
        (1, None), (2, None), (3, "backpressure"), (4, None)]
    got = {m.frame_index: _outcome(m) for m in received}
    for msg in resumed:
        assert msg.frame_index not in got  # one outcome per index
        got[msg.frame_index] = _outcome(msg)
    assert got == {m.frame_index: _outcome(m) for m in want}
    assert len(got) == total
