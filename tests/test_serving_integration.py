"""Loopback integration tests for the network serving layer.

Real asyncio server, real TCP sockets on 127.0.0.1, real concurrent
clients.  Marked slow: each test spins up the full encode path.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.codec.config import EncoderConfig, GopConfig
from repro.observability import get_registry, scoped
from repro.platform.mpsoc import MpsocConfig
from repro.resilience.degradation import ResilienceConfig
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
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
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, generate_video

pytestmark = pytest.mark.slow

_W = _H = 64
_FRAMES = 16  # two GOPs at gop=8


class _FixedEstimator:
    """Prices every session at a fixed per-frame CPU time."""

    def __init__(self, cpu_per_frame: float):
        self.cpu_per_frame = cpu_per_frame

    def estimate(self, key, area):
        return self.cpu_per_frame


def _tight_admission(park_capacity: int = 0) -> AdmissionController:
    """One core; each session prices at 0.45 cores, so two fit and the
    third exceeds the slot cap."""
    return AdmissionController(
        estimator=_FixedEstimator(0.45 / 24.0),
        platform=MpsocConfig(num_sockets=1, cores_per_socket=1),
        policy=AdmissionPolicy(park_capacity=park_capacity),
    )


async def _stream_session(port: int, video, content: ContentClass):
    """Full client session; returns (ack, encoded messages, stats)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        await write_message(writer, Hello(
            width=_W, height=_H, fps=24.0, num_frames=len(video.frames),
            gop=8, content_class=content.value,
        ))
        ack = await read_message(reader)
        assert isinstance(ack, HelloAck)
        if ack.decision != "accept":
            return ack, [], None
        for frame in video.frames:
            await write_message(writer, FrameMsg(
                frame_index=frame.index, width=_W, height=_H,
                luma=frame.luma.tobytes(),
            ))
        await write_message(writer, Bye("done"))
        encoded, stats = [], None
        while True:
            msg = await read_message(reader)
            if isinstance(msg, Encoded):
                encoded.append(msg)
            elif isinstance(msg, Stats):
                stats = msg.data
            elif isinstance(msg, Bye):
                return ack, encoded, stats
            else:
                raise AssertionError(f"unexpected {msg!r}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _offline_reference(video, content: ContentClass):
    """The offline StreamTranscoder path with the server's per-session
    pipeline configuration."""
    config = PipelineConfig(
        fps=24.0, gop=GopConfig(8),
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


class TestLoopback:
    def test_concurrent_sessions_bit_identical_to_offline(self):
        contents = [ContentClass.BRAIN, ContentClass.BONE]
        videos = [
            generate_video(c, width=_W, height=_H, num_frames=_FRAMES,
                           seed=11 + i)
            for i, c in enumerate(contents)
        ]

        async def run():
            server = NetworkServer(ServeNetConfig(port=0))
            await server.start()
            try:
                return await asyncio.gather(*(
                    _stream_session(server.port, v, c)
                    for v, c in zip(videos, contents)
                ))
            finally:
                await server.aclose()

        with scoped():
            results = asyncio.run(run())

        for (ack, encoded, stats), video, content in zip(
                results, videos, contents):
            assert ack.decision == "accept"
            assert stats is not None and stats["frames_encoded"] == _FRAMES
            assert len(encoded) == _FRAMES
            with scoped():
                reference = _offline_reference(video, content)
            assert len(reference) == _FRAMES
            by_index = {m.frame_index: m for m in encoded}
            for ref in reference:
                msg = by_index[ref.frame_index]
                assert msg.dropped is None
                assert msg.frame_type == ref.frame_type.value
                assert msg.bits == ref.record.bits
                # The decoded output over the wire is bit-identical to
                # the offline path's reconstruction.
                assert msg.luma == ref.reconstruction.tobytes()
                plane = np.frombuffer(msg.luma, dtype=np.uint8).reshape(
                    _H, _W)
                assert np.array_equal(plane, ref.reconstruction)

    def test_admission_rejects_session_over_slot_cap(self):
        async def run():
            server = NetworkServer(
                ServeNetConfig(port=0), admission=_tight_admission()
            )
            await server.start()
            acks = []
            conns = []
            try:
                for _ in range(3):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port)
                    conns.append(writer)
                    await write_message(writer, Hello(
                        width=_W, height=_H, fps=24.0))
                    acks.append(await read_message(reader))
                return acks
            finally:
                for writer in conns:
                    writer.close()
                await server.aclose()

        with scoped():
            acks = asyncio.run(run())
        assert [a.decision for a in acks] == ["accept", "accept", "reject"]
        assert "slot cap exceeded" in acks[2].reason

    @staticmethod
    def _second_ack_of_parked(third: Hello, free_capacity: bool):
        """Two sessions fill the slot cap and ``third`` parks; returns
        its second ack — after session 1 finishes and frees capacity,
        or else after the (then short) park timeout."""

        async def run():
            server = NetworkServer(
                ServeNetConfig(
                    port=0, park_timeout_s=30.0 if free_capacity else 0.2,
                ),
                admission=_tight_admission(park_capacity=1),
            )
            await server.start()
            try:
                # Two sessions occupy the whole slot cap.
                r1, w1 = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                r2, w2 = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                for w in (w1, w2):
                    await write_message(w, Hello(width=_W, height=_H,
                                                 fps=24.0))
                a1 = await read_message(r1)
                a2 = await read_message(r2)
                assert (a1.decision, a2.decision) == ("accept", "accept")
                # The third parks...
                r3, w3 = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                await write_message(w3, third)
                a3 = await read_message(r3)
                assert a3.decision == "park"
                if free_capacity:
                    # ...until session 1 completes and frees its
                    # capacity.
                    await write_message(w1, Bye("done"))
                    while not isinstance(await read_message(r1), Bye):
                        pass
                a3b = await read_message(r3)
                for w in (w1, w2, w3):
                    w.close()
                return a3b
            finally:
                await server.aclose()

        with scoped():
            return asyncio.run(run())

    def test_parked_session_admitted_when_capacity_frees(self):
        final = self._second_ack_of_parked(
            Hello(width=_W, height=_H, fps=24.0), free_capacity=True)
        assert final.decision == "accept"

    def test_parked_ladder_session_admitted_when_capacity_frees(self):
        final = self._second_ack_of_parked(
            Hello(width=_W, height=_H, fps=24.0, ladder=((_W, _H),)),
            free_capacity=True)
        assert final.decision == "accept"
        assert final.rungs == ((0, _W, _H),)

    @pytest.mark.parametrize("ladder", [None, ((_W, _H),)])
    def test_park_timeout_rejects(self, ladder):
        final = self._second_ack_of_parked(
            Hello(width=_W, height=_H, fps=24.0, ladder=ladder),
            free_capacity=False)
        assert (final.decision, final.reason) == ("reject", "park timeout")

    def test_backpressure_keeps_queue_depth_bounded(self):
        frames = 24
        video = generate_video(ContentClass.BRAIN, width=_W, height=_H,
                               num_frames=frames, seed=5)

        async def run():
            server = NetworkServer(ServeNetConfig(
                port=0, queue_frames=4, egress_frames=4,
            ))
            await server.start()
            try:
                return await _stream_session(
                    server.port, video, ContentClass.BRAIN)
            finally:
                await server.aclose()

        with scoped():
            ack, encoded, stats = asyncio.run(run())
        assert ack.decision == "accept"
        assert ack.queue_frames == 4
        assert stats is not None
        # The configured bounds hold even with the client flooding.
        assert stats["peak_ingest_depth"] <= 4
        assert stats["peak_egress_depth"] <= 4
        # Accounting closes: every received frame was encoded or
        # dropped with a reason.
        drops = stats["frames_dropped"]
        assert stats["frames_received"] == frames
        assert (stats["frames_encoded"] + drops["backpressure"]
                + drops["corrupt"] + drops["deadline"]) == frames

    def test_loadgen_against_live_server(self):
        async def run():
            server = NetworkServer(ServeNetConfig(port=0))
            await server.start()
            try:
                return await run_loadgen_async(LoadGenConfig(
                    port=server.port, sessions=3, frames=16, width=_W,
                    height=_H, seed=3, arrival="burst", burst_size=2,
                    rate_hz=50.0,
                ))
            finally:
                await server.aclose()

        with scoped():
            report = asyncio.run(run())
            serving_families = [
                fam["name"] for fam in get_registry().to_dict()["metrics"]
                if fam["name"].startswith("repro_serving_")
                and fam["samples"]]
        assert report.accepted == 3
        assert report.protocol_errors == 0
        assert report.errored == 0
        assert report.frames_encoded > 0
        assert serving_families
        d = report.to_dict()
        assert d["latency_p95_s"] >= d["latency_p50_s"] > 0
