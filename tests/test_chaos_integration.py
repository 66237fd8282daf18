"""Loopback chaos drills for the session-recovery stack.

Real server, real sockets, the seeded chaos proxy in between.  Each
test exercises one leg of the fault-tolerance story: a mid-GOP
connection cut healed by RESUME (bit-identical to the uninterrupted
run), a graceful drain whose parked session survives a full server
restart, a SIGTERM'd ``serve-net`` subprocess exiting 0, a stalled
encode delaying but delivering every frame, and rate-based chaos keeping
the deadline-miss metrics bounded.  Marked slow.
"""

from __future__ import annotations

import asyncio
import json
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
from repro.serving.recovery import JournalStore
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


_RESTART_SESSIONS = 4
_RESTART_FRAMES = 24
_PORT_LINE = re.compile(rb"serving on [^\s:]+:(\d+)")


def _child_env() -> dict:
    """The environment a ``serve-net`` child imports this tree from."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


async def _start_server(port: int, journal_dir: str, metrics_out: str):
    """Start ``serve-net``; returns (process, the port it reports)."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.cli", "serve-net", "--port", str(port),
        "--journal-dir", journal_dir, "--metrics-out", metrics_out,
        stdout=asyncio.subprocess.PIPE, stdin=asyncio.subprocess.DEVNULL,
        env=_child_env(),
    )
    line = await asyncio.wait_for(proc.stdout.readline(), timeout=60.0)
    match = _PORT_LINE.search(line)
    if match is None:
        proc.kill()
        await proc.wait()
        raise AssertionError(f"serve-net did not report its port: {line!r}")
    return proc, int(match.group(1))


async def _wait_mid_stream(journal_dir: str, timeout_s: float) -> bool:
    """Until every session has a durable GOP and none has finished."""
    store = JournalStore(journal_dir, fsync=False)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while loop.time() < deadline:
        durable = 0
        for token in store.tokens():
            try:
                if store.restore(token).next_frame_index >= _GOP:
                    durable += 1
            except (OSError, ValueError):
                pass  # mid-create or torn tail: not durable yet
        if durable == _RESTART_SESSIONS:
            return True
        await asyncio.sleep(0.02)
    return False


async def _restart_pass(journal_dir: str, kill: bool):
    """One loadgen pass against a ``serve-net`` child, SIGKILLed and
    restarted mid-stream if ``kill``; returns (report, sessions adopted
    by the child running at the end)."""
    os.makedirs(journal_dir)
    metrics_out = os.path.join(journal_dir, "metrics.json")
    proc, port = await _start_server(0, journal_dir, metrics_out)
    try:
        task = asyncio.ensure_future(run_loadgen_async(LoadGenConfig(
            port=port, sessions=_RESTART_SESSIONS, frames=_RESTART_FRAMES,
            width=_W, height=_H, gop=_GOP, seed=23,
            arrival="burst", burst_size=_RESTART_SESSIONS, rate_hz=100.0,
            # Paced, so the stream is long enough to kill the server in
            # the middle of it.
            frame_interval_s=0.05,
            max_reconnects=8, backoff_base_s=0.05, timeout_s=120.0,
        )))
        if kill:
            assert await _wait_mid_stream(journal_dir, 30.0)
            killed = proc
            killed.kill()
            # The replacement starts before the killed child is reaped:
            # its leases went with its exit.
            proc, _ = await _start_server(port, journal_dir, metrics_out)
            await killed.wait()
        report = await task
    finally:
        if proc.returncode is None:
            proc.terminate()  # drain, then the metrics snapshot
            await proc.communicate()
    with open(metrics_out) as fh:
        summary = serving_summary(json.load(fh)) or {}
    return report, summary.get("sessions_adopted", 0.0)


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
        """SIGKILL a journaled ``serve-net`` child once every session
        has a durable GOP, reap it and restart it on the same port and
        journal directory.  Every session completes with one outcome
        per frame and none dropped, the restarted process adopts the
        killed one's sessions, no client sees a hard refusal or a
        divergent replay, and every session's output digest equals an
        uninterrupted reference pass's."""
        reference, _ = asyncio.run(
            _restart_pass(str(tmp_path / "reference"), kill=False))
        drilled, adopted = asyncio.run(
            _restart_pass(str(tmp_path / "killed"), kill=True))
        for report in (reference, drilled):
            assert report.accepted == _RESTART_SESSIONS
            assert report.errored == 0 and report.protocol_errors == 0
            assert report.divergent_replays == 0
            # Paced frames never overflow a queue: a drop would void
            # the digest comparison below.
            assert [(s.frames_encoded, s.frames_dropped)
                    for s in report.sessions] == [(_RESTART_FRAMES, 0)] * (
                        _RESTART_SESSIONS)
        assert drilled.connect_refusals == 0
        assert drilled.resumes >= 1
        assert adopted >= 1
        assert ({s.session: s.output_digest for s in drilled.sessions}
                == {s.session: s.output_digest for s in reference.sessions})


class TestSigtermDrain:
    def test_subprocess_sigterm_exits_zero(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-net", "--port", "0",
             "--journal-dir", str(tmp_path), "--drain-grace", "5"],
            env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
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


class TestStalledEncode:
    @pytest.mark.parametrize("ladder", [None, ((_W, _H), (32, 32))],
                             ids=["plain", "2-rung"])
    def test_a_stalled_push_delays_frames_but_delivers_every_one(
            self, tmp_path, monkeypatch, ladder):
        """Every accepted frame gets exactly one outcome, however long
        one encode takes: a 2 s stall in one push (the one completing
        the second GOP) holds the frames behind it, drops none, and
        every rung of every frame arrives — bit-identical, on the
        primary rung, to the uninterrupted offline run."""
        import dataclasses

        import repro.transcode.pipeline as pipeline_mod

        content = ContentClass.LUNG
        video = generate_video(content, width=_W, height=_H,
                               num_frames=_FRAMES, seed=23)
        hello = dataclasses.replace(_hello(video, content), ladder=ladder)
        rungs = range(len(ladder or (None,)))
        reference = _offline_reference(video, content)

        orig_push = pipeline_mod.ProposedStreamSession.push
        stalled = []

        def stalling_push(self, frame, corrupt=False):
            if frame.index == 7 and not stalled:
                stalled.append(time.perf_counter())
                time.sleep(2.0)
            return orig_push(self, frame, corrupt=corrupt)

        monkeypatch.setattr(
            pipeline_mod.ProposedStreamSession, "push", stalling_push)

        async def run():
            server = NetworkServer(ServeNetConfig(
                port=0, journal_dir=str(tmp_path)))
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
                    ended = time.perf_counter()
                finally:
                    await _close(writer)
            finally:
                await server.drain()
            return received, reason, stats, ended

        with scoped():
            received, reason, stats, ended = asyncio.run(run())
            families = get_registry().names()

        assert len(stalled) == 1 and ended - stalled[0] >= 2.0
        assert reason == "session complete"
        assert "repro_serving_frames_dropped_total" not in families
        assert sum(stats["frames_dropped"].values()) == 0
        assert stats["frames_encoded"] == _FRAMES * len(rungs)
        assert sorted(received) == [(rung, i) for rung in rungs
                                    for i in range(_FRAMES)]
        _assert_bit_identical(
            {i: msg for (rung, i), msg in received.items() if rung == 0},
            reference)


class TestChaosBoundedDegradation:
    @pytest.mark.parametrize("cut_after", [0, 6 * _W * _H],
                             ids=["rate", "rate+cut"])
    def test_rate_faults_keep_miss_metrics_bounded(self, tmp_path,
                                                   cut_after):
        """Seeded latency spikes and stalls, and with ``cut_after`` the
        first connection cut about six frames into its twelve: every
        frame still gets one outcome, and the cut session RESUMEs."""
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
                                stall_s=0.1, cut_after_c2s_bytes=cut_after),
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
            resumes = get_registry().value(
                "repro_serving_resumes_total") or 0

        assert report.protocol_errors == 0
        assert report.errored == 0
        assert [s.frames_encoded + s.frames_dropped
                for s in report.sessions] == [frames] * sessions
        # Latency injection may cost deadlines but must stay bounded:
        # the ladder degrades, it does not collapse the service.
        encoded = report.frames_encoded
        assert encoded > 0
        assert report.deadline_misses <= encoded * 0.5
        # The drill actually injected something (seeded, so stable).
        assert sum(counts.values()) > 0
        if cut_after:
            assert counts["cut"] == 1
            assert report.resumes >= 1
            assert resumes >= 1
