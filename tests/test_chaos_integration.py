"""Loopback chaos drills for the session-recovery stack.

Real server, real sockets, the seeded chaos proxy in between.  Each
test exercises one leg of the fault-tolerance story: a mid-GOP
connection cut healed by RESUME (bit-identical to the uninterrupted
run), a graceful drain whose parked session survives a full server
restart, a SIGTERM'd ``serve-net`` subprocess exiting 0, the encode
watchdog unsticking a wedged session, and rate-based chaos keeping the
deadline-miss metrics bounded.  Marked slow.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.codec.config import EncoderConfig, GopConfig
from repro.observability import get_registry, scoped
from repro.observability.metrics import serving_summary
from repro.resilience.degradation import ResilienceConfig
from repro.serving.chaos import ChaosConfig, ChaosProxy
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
from repro.serving.protocol import (
    Bye,
    Encoded,
    ErrorMsg,
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
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, generate_video

pytestmark = pytest.mark.slow

_W = _H = 64
_FRAMES = 16
_GOP = 4


def _offline_reference(video, content: ContentClass):
    """The uninterrupted offline run with the server's session config."""
    config = PipelineConfig(
        fps=24.0, gop=GopConfig(_GOP),
        base_config=EncoderConfig(qp=32, search="hexagon",
                                  search_window=64),
        content_class=content, resilience=ResilienceConfig(),
    )
    with StreamTranscoder(config) as t:
        session = t.open_session()
        outputs = []
        for frame in video.frames:
            outputs.extend(session.push(frame))
        outputs.extend(session.finish())
    return outputs


def _hello(video, content: ContentClass) -> Hello:
    return Hello(width=_W, height=_H, fps=24.0,
                 num_frames=len(video.frames), gop=_GOP,
                 content_class=content.value, client_id="chaos-test")


def _frame_msg(frame) -> FrameMsg:
    return FrameMsg(frame_index=frame.index, width=_W, height=_H,
                    luma=frame.luma.tobytes())


async def _collect_until_bye(reader, received,
                             key=lambda msg: msg.frame_index):
    """Read ENCODED/STATS until BYE; first outcome per key (frame
    index unless told otherwise) wins."""
    stats = None
    while True:
        msg = await read_message(reader)
        if isinstance(msg, Encoded):
            received.setdefault(key(msg), msg)
        elif isinstance(msg, Stats):
            stats = msg.data
        elif isinstance(msg, Bye):
            return msg.reason, stats
        elif isinstance(msg, ErrorMsg):
            raise AssertionError(f"server error: {msg.detail}")


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


def _assert_bit_identical(received, reference):
    assert sorted(received) == [r.frame_index for r in reference]
    for ref in reference:
        msg = received[ref.frame_index]
        assert msg.dropped is None, (
            f"frame {ref.frame_index} dropped: {msg.dropped}"
        )
        assert msg.frame_type == ref.frame_type.value
        assert msg.bits == ref.record.bits
        assert msg.luma == ref.reconstruction.tobytes()


class TestResumeAfterCut:
    def test_mid_gop_cut_resumed_bit_identical(self, tmp_path):
        content = ContentClass.BRAIN
        video = generate_video(content, width=_W, height=_H,
                               num_frames=_FRAMES, seed=21)
        hello = _hello(video, content)
        # Sever the first connection mid-GOP: after HELLO plus six and
        # a half frames (the second GOP is in flight, unjournaled).
        frame_len = len(encode_message(_frame_msg(video.frames[0])))
        cut_after = len(encode_message(hello)) + int(frame_len * 6.5)

        async def run():
            server = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path)))
            await server.start()
            received = {}
            try:
                async with ChaosProxy(
                    "127.0.0.1", server.port,
                    ChaosConfig(seed=3, cut_after_c2s_bytes=cut_after,
                                cut_connections=1),
                ) as proxy:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", proxy.port)
                    token = ""
                    try:
                        await write_message(writer, hello)
                        ack = await read_message(reader)
                        assert isinstance(ack, HelloAck)
                        assert ack.decision == "accept"
                        assert ack.resume_token
                        token = ack.resume_token
                        for frame in video.frames:
                            await write_message(writer, _frame_msg(frame))
                        await write_message(writer, Bye("done"))
                        await _collect_until_bye(reader, received)
                        raise AssertionError("the cut never happened")
                    except (ConnectionError, asyncio.IncompleteReadError,
                            OSError):
                        pass
                    finally:
                        await _close(writer)
                    assert proxy.count("cut") == 1
                    # Give the server a beat to reap the dead session.
                    await asyncio.sleep(0.1)

                    # Reconnect through the same proxy (only the first
                    # connection is subject to the cut) and RESUME.
                    have_below = 0
                    while have_below in received:
                        have_below += 1
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", proxy.port)
                    try:
                        await write_message(writer, Resume(
                            resume_token=token, have_below=have_below,
                            client_id="chaos-test"))
                        ack = await read_message(reader)
                        assert isinstance(ack, ResumeAck)
                        assert ack.decision == "accept", ack.reason
                        for frame in video.frames[ack.next_frame_index:]:
                            await write_message(writer, _frame_msg(frame))
                        await write_message(writer, Bye("done"))
                        reason, stats = await _collect_until_bye(
                            reader, received)
                        assert reason == "session complete"
                        assert stats["recovery"]["resumes"] == 1
                    finally:
                        await _close(writer)
            finally:
                await server.drain()
            return received

        with scoped():
            received = asyncio.run(run())
            resumes = get_registry().value("repro_serving_resumes_total")
            summary = serving_summary(get_registry().to_dict())
        assert resumes == 1
        with scoped():
            reference = _offline_reference(video, content)
        _assert_bit_identical(received, reference)
        # The writer thread's own account of what durability cost: one
        # admit, one resume and every GOP record, each carrying its
        # reconstructions as raw bytes.
        assert summary["journal_appends"] >= summary["journal_gops"] + 2
        assert summary["journal_gops"] >= _FRAMES // _GOP
        # The server saw the cut as a lost connection, and timed the
        # RESUME that reattached it.
        assert summary["connection_resets"] >= 1
        assert summary["resume_p95_s"] is not None
        assert summary["journal_bytes"] >= _FRAMES * _W * _H
        assert summary["journal_append_s"] > 0.0


class TestResumePreemption:
    def test_resume_preempts_half_open_session(self, tmp_path):
        """A RESUME while the old handler is still attached (half-open
        TCP: the client timed out, the server never noticed) preempts
        the old session instead of letting two writers interleave
        records in one journal."""
        content = ContentClass.BRAIN
        video = generate_video(content, width=_W, height=_H,
                               num_frames=_FRAMES, seed=24)
        hello = _hello(video, content)

        async def run():
            server = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path)))
            await server.start()
            received = {}
            try:
                r1, w1 = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                try:
                    await write_message(w1, hello)
                    ack = await read_message(r1)
                    assert isinstance(ack, HelloAck)
                    assert ack.decision == "accept"
                    token = ack.resume_token
                    # Stream six frames so the first GOP becomes
                    # durable, then go silent: the server-side handler
                    # stays alive, blocked on the half-open socket.
                    for frame in video.frames[:6]:
                        await write_message(w1, _frame_msg(frame))
                    while len(received) < _GOP:
                        msg = await read_message(r1)
                        if isinstance(msg, Encoded):
                            received.setdefault(msg.frame_index, msg)

                    # The client gives up on the stalled connection and
                    # RESUMEs on a fresh one while the old handler is
                    # still attached to the journal.
                    have_below = 0
                    while have_below in received:
                        have_below += 1
                    r2, w2 = await asyncio.open_connection(
                        "127.0.0.1", server.port)
                    try:
                        await write_message(w2, Resume(
                            resume_token=token, have_below=have_below,
                            client_id="chaos-test"))
                        ack2 = await read_message(r2)
                        assert isinstance(ack2, ResumeAck)
                        assert ack2.decision == "accept", ack2.reason
                        assert ack2.next_frame_index == _GOP
                        # The preempted handler tore its connection down.
                        with pytest.raises((asyncio.IncompleteReadError,
                                            ConnectionError, OSError)):
                            while True:
                                await read_message(r1)
                        for frame in video.frames[ack2.next_frame_index:]:
                            await write_message(w2, _frame_msg(frame))
                        await write_message(w2, Bye("done"))
                        reason, stats = await _collect_until_bye(
                            r2, received)
                        assert reason == "session complete"
                        assert stats["recovery"]["resumes"] == 1
                    finally:
                        await _close(w2)
                finally:
                    await _close(w1)
            finally:
                await server.drain()
            return received

        with scoped():
            received = asyncio.run(run())
            registry = get_registry()
            preempted = registry.value(
                "repro_serving_resume_preemptions_total")
            resumes = registry.value("repro_serving_resumes_total")
        assert preempted == 1 and resumes == 1
        with scoped():
            reference = _offline_reference(video, content)
        _assert_bit_identical(received, reference)


class TestDrainAndRestart:
    def test_parked_session_survives_server_restart(self, tmp_path):
        content = ContentClass.BONE
        video = generate_video(content, width=_W, height=_H,
                               num_frames=_FRAMES, seed=22)
        hello = _hello(video, content)

        async def run():
            received = {}
            server_a = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path), drain_grace_s=5.0))
            await server_a.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server_a.port)
            try:
                await write_message(writer, hello)
                ack = await read_message(reader)
                assert isinstance(ack, HelloAck) and ack.decision == "accept"
                token = ack.resume_token
                # Six frames: one full GOP journaled, two in flight.
                for frame in video.frames[:6]:
                    await write_message(writer, _frame_msg(frame))
                # Wait for the first GOP's outcomes so the drain
                # provably interrupts a mid-GOP session.
                while len(received) < _GOP:
                    msg = await read_message(reader)
                    if isinstance(msg, Encoded):
                        received.setdefault(msg.frame_index, msg)
                drain = asyncio.ensure_future(server_a.drain())
                reason, _ = await _collect_until_bye(reader, received)
                await drain
                assert reason.startswith("server draining")
            finally:
                await _close(writer)
            assert server_a.parked_tokens == [token]

            server_b = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path)))
            await server_b.start()
            try:
                have_below = 0
                while have_below in received:
                    have_below += 1
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server_b.port)
                try:
                    await write_message(writer, Resume(
                        resume_token=token, have_below=have_below))
                    ack = await read_message(reader)
                    assert isinstance(ack, ResumeAck)
                    assert ack.decision == "accept", ack.reason
                    # The parked frames (4, 5) are re-fed server-side;
                    # transmission restarts at the server's next index.
                    assert ack.next_frame_index == 6
                    for frame in video.frames[ack.next_frame_index:]:
                        await write_message(writer, _frame_msg(frame))
                    await write_message(writer, Bye("done"))
                    reason, stats = await _collect_until_bye(
                        reader, received)
                    assert reason == "session complete"
                    assert stats["recovery"]["resumes"] == 1
                    assert stats["recovery"]["parked"] is False
                finally:
                    await _close(writer)
            finally:
                await server_b.drain()
            return received

        with scoped():
            received = asyncio.run(run())
        with scoped():
            reference = _offline_reference(video, content)
        _assert_bit_identical(received, reference)


    def test_killed_server_restarts_and_adopts_its_sessions(self, tmp_path):
        """SIGKILL a journaled ``serve-net`` child mid-stream, reap it
        and restart it on the same port and journal directory: every
        session completes with one outcome per frame, the restarted
        process adopts the killed one's sessions, and no client sees a
        hard refusal (the bit-identity gate is ``make restart-chaos``)."""
        from repro.serving import restart_smoke

        report, adopted = asyncio.run(
            restart_smoke._run_pass(str(tmp_path), kill=True))
        assert report.accepted == restart_smoke.SESSIONS
        assert report.errored == 0 and report.protocol_errors == 0
        assert report.connect_refusals == 0
        assert report.divergent_replays == 0
        assert report.resumes >= 1
        assert adopted >= 1
        assert [s.frames_encoded + s.frames_dropped
                for s in report.sessions] == [restart_smoke.FRAMES] * (
                    restart_smoke.SESSIONS)


class TestSigtermDrain:
    def test_subprocess_sigterm_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "src"
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-net", "--port", "0",
             "--journal-dir", str(tmp_path), "--drain-grace", "5"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r":(\d+) ", banner).group(1))
            report = asyncio.run(run_loadgen_async(LoadGenConfig(
                port=port, sessions=2, frames=8, gop=4, seed=9,
            )))
            assert report.errored == 0 and report.protocol_errors == 0
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out
        # The drain checkpointed the warm LUT next to the journals.
        assert (tmp_path / "lut.json").exists()


class TestEncodeWatchdog:
    @pytest.mark.parametrize("ladder", [None, ((_W, _H), (32, 32))],
                             ids=["plain", "2-rung"])
    def test_wedged_encode_cancelled_session_continues(
            self, tmp_path, monkeypatch, ladder):
        """The watchdog's snapshot is in memory and per rung, so it
        arms for every session shape."""
        import dataclasses

        import repro.transcode.pipeline as pipeline_mod

        content = ContentClass.LUNG
        video = generate_video(content, width=_W, height=_H,
                               num_frames=_FRAMES, seed=23)
        hello = dataclasses.replace(_hello(video, content), ladder=ladder)
        rungs = range(len(ladder or (None,)))

        orig_push = pipeline_mod.ProposedStreamSession.push
        wedged = {"fired": False}

        def wedge_push(self, frame, corrupt=False):
            # Wedge exactly one flush: the push completing the second
            # GOP stalls far past the watchdog budget.
            if frame.index == 7 and not wedged["fired"]:
                wedged["fired"] = True
                time.sleep(2.0)
            return orig_push(self, frame, corrupt=corrupt)

        monkeypatch.setattr(
            pipeline_mod.ProposedStreamSession, "push", wedge_push)

        async def run():
            server = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path),
                watchdog_multiple=2.0, watchdog_min_s=0.3))
            await server.start()
            received = {}
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                try:
                    await write_message(writer, hello)
                    ack = await read_message(reader)
                    assert isinstance(ack, HelloAck)
                    assert ack.decision == "accept"
                    for frame in video.frames:
                        await write_message(writer, _frame_msg(frame))
                    await write_message(writer, Bye("done"))
                    reason, stats = await _collect_until_bye(
                        reader, received,
                        key=lambda msg: (msg.rung, msg.frame_index))
                finally:
                    await _close(writer)
            finally:
                await server.drain()
            return received, reason, stats

        with scoped():
            received, reason, stats = asyncio.run(run())
            registry = get_registry()
            fires = registry.value("repro_serving_watchdog_fires_total")
            dropped = registry.value("repro_serving_frames_dropped_total",
                                     reason="watchdog")

        assert wedged["fired"]
        assert reason == "session complete"
        # The wedged frame was cancelled within the deadline multiple
        # and surfaced as a watchdog drop; every other frame delivered.
        assert fires == 1 and dropped == 1
        assert stats["recovery"]["watchdog_fires"] == 1
        assert stats["frames_dropped"]["watchdog"] == 1
        # One watchdog drop for the wedged frame (the ingest frame, not
        # a rung of it); every rung of every other frame.
        assert received.pop((0, 7)).dropped == "watchdog"
        assert sorted(received) == [(rung, i) for rung in rungs
                                    for i in range(_FRAMES) if i != 7]
        assert all(msg.dropped is None for msg in received.values())


class TestChaosBoundedDegradation:
    def test_rate_faults_keep_miss_metrics_bounded(self, tmp_path):
        sessions, frames = 3, 12

        async def run():
            server = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path)))
            await server.start()
            try:
                async with ChaosProxy(
                    "127.0.0.1", server.port,
                    ChaosConfig(seed=13, latency_spike_rate=0.05,
                                latency_spike_s=0.02, stall_rate=0.02,
                                stall_s=0.1),
                ) as proxy:
                    report = await run_loadgen_async(LoadGenConfig(
                        port=proxy.port, sessions=sessions, frames=frames,
                        width=_W, height=_H, gop=_GOP, seed=13,
                        max_reconnects=3, backoff_base_s=0.02,
                    ))
                    return report, dict(proxy.counts)
            finally:
                await server.drain()

        with scoped():
            report, counts = asyncio.run(run())

        assert report.protocol_errors == 0
        assert report.errored == 0
        delivered = report.frames_encoded + sum(
            s.frames_dropped for s in report.sessions)
        assert delivered == sessions * frames
        # Latency injection may cost deadlines but must stay bounded:
        # the ladder degrades, it does not collapse the service.
        encoded = report.frames_encoded
        assert encoded > 0
        assert report.deadline_misses <= encoded * 0.5
        # The drill actually injected something (seeded, so stable).
        assert sum(counts.values()) > 0
