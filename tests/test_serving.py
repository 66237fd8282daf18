"""Serving layer: wire protocol, admission control, streaming
bit-exactness and metrics digest."""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import inspect
import os
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.config import GopConfig
from repro.ladder.config import LadderConfig, LadderRung
from repro.ladder.session import LadderSession
from repro.observability import scoped
from repro.observability.metrics import (
    HistogramValue,
    MetricsRegistry,
    format_metrics,
    serving_summary,
)
from repro.platform.mpsoc import MpsocConfig
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    Bye,
    Encoded,
    ErrorMsg,
    FrameMsg,
    Hello,
    HelloAck,
    MessageDecoder,
    ProtocolError,
    Stats,
    decode_frame,
    encode_encoded_into,
    encode_frame_into,
    encode_message,
    read_message,
    write_message,
)
from repro.resilience.degradation import ResilienceConfig
from repro.serving.loadgen import LoadGenConfig, run_loadgen_async
from repro.serving.server import NetworkServer, ServeNetConfig
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.frame import Frame, Video
from repro.video.generator import ContentClass, generate_video


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
_hello = st.builds(
    Hello,
    width=st.integers(1, 4096), height=st.integers(1, 4096),
    fps=st.floats(1.0, 240.0, allow_nan=False),
    num_frames=st.integers(0, 10**6), gop=st.integers(1, 64),
    content_class=st.one_of(st.none(), st.sampled_from(
        [c.value for c in ContentClass])),
    client_id=st.text(max_size=32),
)
_ack = st.builds(
    HelloAck,
    decision=st.sampled_from(["accept", "reject", "park"]),
    session_id=st.integers(0, 2**31 - 1), reason=st.text(max_size=64),
    queue_frames=st.integers(0, 1024),
)


@st.composite
def _frame_msg(draw):
    width = draw(st.integers(1, 48))
    height = draw(st.integers(1, 48))
    luma = draw(st.binary(min_size=width * height, max_size=width * height))
    return FrameMsg(frame_index=draw(st.integers(0, 2**31 - 1)),
                    width=width, height=height, luma=luma)


@st.composite
def _encoded_msg(draw):
    dropped = draw(st.sampled_from(
        [None, "corrupt", "deadline", "backpressure"]))
    if dropped is None:
        width = draw(st.integers(1, 48))
        height = draw(st.integers(1, 48))
        luma = draw(st.binary(min_size=width * height,
                              max_size=width * height))
        ftype = draw(st.sampled_from(["I", "P", "B"]))
    else:
        width = height = 0
        luma = b""
        ftype = ""
    return Encoded(
        frame_index=draw(st.integers(0, 2**31 - 1)), frame_type=ftype,
        dropped=dropped, width=width, height=height,
        bits=draw(st.integers(0, 2**40)),
        psnr=draw(st.floats(0, 120, allow_nan=False)), luma=luma,
    )


_stats = st.builds(Stats, data=st.dictionaries(
    st.text(max_size=16),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=16), st.none()),
    max_size=8,
))
_any_message = st.one_of(
    _hello, _ack, _frame_msg(), _encoded_msg(), _stats,
    st.builds(Bye, reason=st.text(max_size=64)),
    st.builds(ErrorMsg, code=st.text(min_size=1, max_size=16),
              detail=st.text(max_size=64)),
)


class TestProtocolRoundTrip:
    @given(msg=_any_message)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, msg):
        wire = encode_message(msg)
        decoded, consumed = decode_frame(wire)
        assert consumed == len(wire)
        assert decoded == msg

    @given(msgs=st.lists(_any_message, min_size=1, max_size=5),
           chunk=st.integers(1, 13))
    @settings(max_examples=50, deadline=None)
    def test_incremental_decoder_reassembles_chunks(self, msgs, chunk):
        wire = b"".join(encode_message(m) for m in msgs)
        decoder = MessageDecoder()
        out = []
        for i in range(0, len(wire), chunk):
            out.extend(decoder.feed(wire[i:i + chunk]))
        assert out == msgs
        assert decoder.pending_bytes == 0


def _wire_frame(mtype: int, flags: int, prefix: bytes, pixels: bytes) -> bytes:
    """One wire frame packed from the documented layout (protocol.py's
    module docstring), independently of the module's serialisers."""
    payload = prefix + pixels
    return struct.pack("!4sBBHII", b"RPRV", 2, mtype, flags, len(payload),
                       zlib.crc32(payload)) + payload


def _written(msg, flags: int = 0) -> bytes:
    """What ``write_message`` hands the transport for ``msg``."""
    class Writer:
        def __init__(self):
            self.chunks = []

        def write(self, data):
            self.chunks.append(bytes(data))

        async def drain(self):
            pass

    writer = Writer()
    asyncio.run(write_message(writer, msg, flags))
    return b"".join(writer.chunks)


class TestZeroCopyWire:
    """Each pixel-carrying message has one serialiser, reached three
    ways (``encode_*_into``, ``encode_message``, ``write_message``);
    all three produce the documented wire bytes."""

    @given(msgs=st.lists(_any_message, min_size=1, max_size=4),
           chunk=st.integers(1, 13))
    @settings(max_examples=50, deadline=None)
    def test_memoryview_chunks_match_bytes_feed(self, msgs, chunk):
        """Chunked bytearray/memoryview feeds (the slow path) and one
        whole-``bytes`` feed (the fast path) decode identically."""
        wire = b"".join(encode_message(m) for m in msgs)
        whole = MessageDecoder().feed(wire)
        chunked = MessageDecoder()
        out = []
        for i in range(0, len(wire), chunk):
            out.extend(chunked.feed(memoryview(wire)[i:i + chunk]))
        assert out == whole == msgs
        assert chunked.pending_bytes == 0

    def test_fast_path_luma_is_view_not_copy(self):
        luma = bytes(range(256)) * 4  # 32x32
        wire = encode_message(FrameMsg(frame_index=7, width=32,
                                       height=32, luma=luma))
        (msg,) = MessageDecoder().feed(wire)
        assert isinstance(msg.luma, memoryview)
        assert msg.luma.obj is wire  # slice of the fed buffer
        arr = np.frombuffer(msg.luma, dtype=np.uint8).reshape(32, 32)
        assert not arr.flags.writeable  # immutable backing => zero-copy
        np.testing.assert_array_equal(
            arr, np.frombuffer(luma, dtype=np.uint8).reshape(32, 32))

    @given(frame_index=st.integers(0, 2**31 - 1), width=st.integers(1, 40),
           height=st.integers(1, 40), flags=st.integers(0, 0xFFFF))
    @settings(max_examples=50, deadline=None)
    def test_encode_frame_into_wire_identity(self, frame_index, width,
                                             height, flags):
        """Every way of sending a FRAME produces the documented bytes."""
        rng = np.random.default_rng(frame_index & 0xFFFF)
        plane = rng.integers(0, 256, (height, width), dtype=np.uint8)
        want = _wire_frame(
            3, flags, struct.pack("!IHH", frame_index, width, height),
            plane.tobytes())
        for luma in (plane.tobytes(), memoryview(plane.tobytes()),
                     plane, plane.reshape(-1)):
            arena = bytearray(b"junk-from-last-message")
            del arena[:]
            n = encode_frame_into(arena, frame_index, width, height,
                                  luma, flags=flags)
            assert n == len(arena) and bytes(arena) == want
            if getattr(luma, "ndim", 1) == 1:  # FrameMsg.luma is flat
                msg = FrameMsg(frame_index=frame_index, width=width,
                               height=height, luma=luma)
                wire = encode_message(msg, flags=flags)
                assert type(wire) is bytes and wire == want
                assert _written(msg, flags) == want

    @given(frame_index=st.integers(0, 2**31 - 1),
           frame_type=st.sampled_from(["I", "P", "B"]),
           dropped=st.sampled_from([None, "corrupt", "deadline",
                                    "backpressure", "watchdog", "policy"]),
           rung=st.sampled_from([0, 2]),
           width=st.integers(1, 40), height=st.integers(1, 40),
           bits=st.integers(0, 2**40),
           psnr=st.floats(0, 120, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_encode_encoded_into_wire_identity(self, frame_index,
                                               frame_type, dropped, rung,
                                               width, height, bits, psnr):
        """Every way of sending an ENCODED — delivered or dropped, rung
        0 or 2, any luma buffer type — produces the documented bytes."""
        rng = np.random.default_rng(frame_index & 0xFFFF)
        recon = rng.integers(0, 256, (height, width), dtype=np.uint8)
        if dropped is not None:  # a notice carries no picture
            frame_type, width, height, bits, psnr = "", 0, 0, 0, 0.0
            recon = recon.reshape(-1)[:0]
        want = _wire_frame(
            4, rung,
            struct.pack(
                "!IBBHHQd", frame_index,
                {"I": 0, "P": 1, "B": 2, "": 3}[frame_type],
                {None: 0, "corrupt": 1, "deadline": 2, "backpressure": 3,
                 "watchdog": 4, "policy": 5}[dropped],
                width, height, bits, psnr),
            recon.tobytes())
        for luma in (recon.tobytes(), memoryview(recon.tobytes()),
                     recon, recon.reshape(-1)):
            arena = bytearray(b"junk-from-last-message")
            del arena[:]
            n = encode_encoded_into(
                arena, frame_index, frame_type=frame_type, dropped=dropped,
                width=width, height=height, bits=bits, psnr=psnr,
                luma=luma, flags=rung)
            assert n == len(arena) and bytes(arena) == want
            if getattr(luma, "ndim", 1) == 1:  # Encoded.luma is flat
                msg = Encoded(
                    frame_index=frame_index, frame_type=frame_type,
                    dropped=dropped, width=width, height=height, bits=bits,
                    psnr=psnr, luma=luma, rung=rung)
                wire = encode_message(msg)
                assert type(wire) is bytes and wire == want
                assert _written(msg) == want

    def test_encode_into_validates_geometry(self):
        with pytest.raises(ProtocolError):
            encode_frame_into(bytearray(), 0, 4, 4, b"\x00" * 15)
        with pytest.raises(ProtocolError):
            encode_encoded_into(bytearray(), 0, width=4, height=4,
                                bits=0, psnr=0.0, luma=b"\x00" * 15)

    def test_non_contiguous_plane_is_refused(self):
        """A strided view's memory order is not its pixel order: every
        entry point raises rather than put garbage on the wire."""
        plane = np.arange(64, dtype=np.uint8).reshape(8, 8)
        for luma in (plane[:, ::2], plane.T, plane.reshape(-1)[::2]):
            h, w = luma.shape if luma.ndim == 2 else (4, 8)
            out = bytearray()
            with pytest.raises(ProtocolError, match="contiguous"):
                encode_frame_into(out, 0, w, h, luma)
            with pytest.raises(ProtocolError, match="contiguous"):
                encode_encoded_into(out, 0, width=w, height=h, luma=luma)
            assert out == b""
        flat = plane.reshape(-1)[::2]
        with pytest.raises(ProtocolError, match="contiguous"):
            encode_message(FrameMsg(0, 8, 4, flat))
        with pytest.raises(ProtocolError, match="contiguous"):
            _written(Encoded(0, width=8, height=4, luma=flat))

    def test_memoryview_fed_session_bitstream_identical(self):
        """Sessions fed read-only socket-buffer views produce the same
        bits, PSNR and reconstructions as sessions fed owned arrays."""
        from repro.video.frame import Frame

        video = generate_video(ContentClass.BONE, width=64, height=64,
                               num_frames=8, seed=9)
        # Round-trip every frame through the wire to get protocol views.
        view_frames = []
        for f in video.frames:
            wire = encode_message(FrameMsg(
                frame_index=f.index, width=64, height=64,
                luma=f.luma.tobytes()))
            (msg,) = MessageDecoder().feed(wire)
            arr = np.frombuffer(msg.luma, dtype=np.uint8).reshape(64, 64)
            assert not arr.flags.writeable
            view_frames.append(Frame(luma=arr, index=f.index))
        config = PipelineConfig(gop=GopConfig(4))
        runs = []
        for frames in (video.frames, view_frames):
            with scoped(), StreamTranscoder(config) as t:
                session = t.open_session()
                outs = []
                for frame in frames:
                    outs.extend(session.push(frame))
                outs.extend(session.finish())
            runs.append(outs)
        owned, viewed = runs
        assert len(owned) == len(viewed) == 8
        for a, b in zip(owned, viewed):
            assert (a.frame_index, a.frame_type, a.dropped) == \
                (b.frame_index, b.frame_type, b.dropped)
            np.testing.assert_array_equal(a.reconstruction,
                                          b.reconstruction)
        assert [t_.bits for o in owned for t_ in o.record.tiles] == \
            [t_.bits for o in viewed for t_ in o.record.tiles]


class TestProtocolRejection:
    def test_truncated_header_is_incomplete_not_error(self):
        wire = encode_message(Bye("x"))
        for cut in range(HEADER_SIZE):
            assert decode_frame(wire[:cut]) == (None, 0)

    def test_truncated_payload_is_incomplete(self):
        wire = encode_message(Bye("x"))
        assert decode_frame(wire[:-1]) == (None, 0)

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_message(Bye()))
        wire[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(wire))

    def test_unknown_version_rejected(self):
        wire = bytearray(encode_message(Bye()))
        wire[4] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(wire))

    def test_unknown_type_rejected(self):
        wire = bytearray(encode_message(Bye()))
        wire[5] = 200
        with pytest.raises(ProtocolError, match="message type"):
            decode_frame(bytes(wire))

    def test_corrupt_payload_fails_checksum(self):
        wire = bytearray(encode_message(Hello(width=64, height=64)))
        wire[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            decode_frame(bytes(wire))

    def test_oversized_length_rejected_before_buffering(self):
        import struct

        header = struct.pack("!4sBBHII", b"RPRV", 2, int(Bye.type), 0,
                             MAX_PAYLOAD + 1, 0)
        with pytest.raises(ProtocolError, match="too large"):
            decode_frame(header)

    def test_frame_luma_length_must_match_geometry(self):
        with pytest.raises(ValueError):
            FrameMsg(frame_index=0, width=4, height=4, luma=b"\0" * 15)

    def test_unknown_decision_rejected(self):
        wire = encode_message(HelloAck(decision="accept"))
        bad = wire[:HEADER_SIZE] + wire[HEADER_SIZE:].replace(
            b"accept", b"maybe!")
        import struct
        import zlib

        payload = bad[HEADER_SIZE:]
        header = struct.pack("!4sBBHII", b"RPRV", 2, int(HelloAck.type), 0,
                             len(payload), zlib.crc32(payload))
        with pytest.raises(ProtocolError, match="decision"):
            decode_frame(header + payload)


# ----------------------------------------------------------------------
# Handshake geometry
# ----------------------------------------------------------------------
class TestHandshakeGeometry:
    """Outside input: a HELLO the codec cannot encode is refused at the
    handshake, not accepted and then dropped mid-stream."""

    @staticmethod
    def _acks(hellos, registry=None):
        async def run():
            server = NetworkServer(ServeNetConfig(port=0))
            await server.start()
            acks = []
            try:
                for hello in hellos:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port)
                    await write_message(writer, hello)
                    acks.append(await read_message(reader))
                    writer.close()
                return acks
            finally:
                await server.aclose()

        with scoped(registry):
            return asyncio.run(run())

    def test_non_finite_fps_is_refused_uncharged(self):
        # Was: accepted at "estimated nan cores"; the occupancy gauge
        # read NaN while the session was held, and it encoded at a
        # server-side fallback rate.
        registry = MetricsRegistry()
        (ack,) = self._acks([Hello(width=96, height=96, fps=float("nan"))],
                            registry)
        assert (ack.decision, ack.reason) == (
            "reject", "fps must be finite and positive")
        assert registry.value("repro_serving_occupancy_cores") == 0.0

    def test_plain_hello_must_be_multiple_of_8(self):
        # Was: ACCEPT, then the first GOP flush died in blockify
        # ("region 16x4 not divisible by transform size 8") and the
        # client saw a bare disconnect instead of per-frame outcomes.
        bad_h, bad_w, good = self._acks([
            Hello(width=96, height=100, fps=24.0),
            Hello(width=100, height=96, fps=24.0),
            Hello(width=96, height=96, fps=24.0),
        ])
        for ack in (bad_h, bad_w):
            assert ack.decision == "reject"
            assert "dimensions must be positive multiples of 8" in ack.reason
        assert good.decision == "accept"

    def test_ladder_ingest_need_not_be_multiple_of_8(self):
        # Only the rungs are encoded; admission checks those.
        (ack,) = self._acks([Hello(width=100, height=100, fps=24.0,
                                   ladder=((96, 96), (48, 48)))])
        assert ack.decision == "accept"


class TestDropAccounting:
    """One frame given up is one drop on every ledger: the client's
    tally of ENCODED notices, the session's STATS and the registry
    family that ``serving_summary`` / ``repro metrics`` read."""

    def test_deadline_drops_agree_across_client_stats_and_summary(self):
        # A 2000 fps slot is shorter than most frames' modelled CPU
        # time, so the pipeline drops them with reason "deadline" — a
        # reason the server forwarded and put in STATS but never
        # counted in repro_serving_frames_dropped_total.
        async def run():
            server = NetworkServer(ServeNetConfig(port=0))
            await server.start()
            try:
                return await run_loadgen_async(LoadGenConfig(
                    port=server.port, sessions=1, frames=24, width=64,
                    height=64, fps=2000.0, seed=3, frame_interval_s=0.01))
            finally:
                await server.aclose()

        with scoped() as (registry, _):
            report = asyncio.run(run())
            summary = serving_summary(registry.to_dict())
            counted = {
                reason: registry.value(
                    "repro_serving_frames_dropped_total", reason=reason) or 0
                for reason in ("backpressure", "egress", "corrupt",
                               "deadline", "watchdog")
            }
        (session,) = report.sessions
        assert session.error is None and report.protocol_errors == 0
        stats = session.server_stats["frames_dropped"]
        assert stats["deadline"] >= 1
        assert session.frames_dropped == sum(stats.values())
        assert summary["frames_dropped"] == session.frames_dropped
        assert counted == stats
        # The client's frames reach the encoder as read-only views of
        # the received bytes: zero-copy ingest holds.
        assert summary["frame_copies"] == 0
        assert session.frames_dropped + session.frames_encoded == 24


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class _FixedEstimator:
    """Estimator stub pricing every session at a fixed CPU time."""

    def __init__(self, cpu_per_frame: float):
        self.cpu_per_frame = cpu_per_frame

    def estimate(self, key, area):
        return self.cpu_per_frame


def _controller(**policy_kw):
    # One core; each session needs 0.45 cores at 24 fps, so two
    # sessions fit and the third exceeds the slot cap.
    return AdmissionController(
        estimator=_FixedEstimator(0.45 / 24.0),
        platform=MpsocConfig(num_sockets=1, cores_per_socket=1),
        policy=AdmissionPolicy(**policy_kw),
    )


_HELLO = Hello(width=96, height=96, fps=24.0)


class TestAdmission:
    def test_accepts_until_slot_cap_then_parks_then_rejects(self):
        with scoped():
            ctrl = _controller(park_capacity=1)
            assert ctrl.decide(0, _HELLO)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(1, _HELLO)[0] is AdmissionDecision.ACCEPT
            assert ctrl.decide(2, _HELLO)[0] is AdmissionDecision.PARK
            decision, reason, _ = ctrl.decide(3, _HELLO)
            assert decision is AdmissionDecision.REJECT
            assert "waiting room" in reason

    def test_release_frees_capacity_for_unpark(self):
        with scoped():
            ctrl = _controller(park_capacity=1)
            ctrl.decide(0, _HELLO)
            ctrl.decide(1, _HELLO)
            assert ctrl.decide(2, _HELLO)[0] is AdmissionDecision.PARK
            ctrl.release(0)
            assert ctrl.unpark(2, _HELLO)[0] is AdmissionDecision.ACCEPT
            assert ctrl.active_sessions == 2

    def test_rejects_non_positive_fps(self):
        for fps in (0.0, -24.0, float("nan"), float("inf")):
            with scoped():
                ctrl = _controller()
                hello = Hello(width=96, height=96, fps=fps)
                decision, reason, _ = ctrl.decide(0, hello)
                assert (decision, reason) == (
                    AdmissionDecision.REJECT,
                    "fps must be finite and positive"), fps
                assert ctrl.occupancy_cores == 0.0, fps

    def test_every_way_out_of_decide_reports_the_same_telemetry(self):
        """One exit: whatever the decision and the HELLO's shape, the
        admission counter, the occupancy gauge and one
        ``admission.decide`` event (with ``rungs``/``dropped``) move."""
        ladder = Hello(width=96, height=96, fps=24.0,
                       ladder=((96, 96), (48, 48)))
        with scoped() as (registry, tracer):
            tracer.enable()
            ctrl = _controller(park_capacity=1)
            paths = [
                (Hello(width=96, height=96, fps=0.0), "reject"),  # fps
                (Hello(width=96, height=100, fps=24.0), "reject"),  # rung
                (ladder, "accept"),     # both rungs: 0.90 of 1 core
                (ladder, "park"),       # not even the primary fits
                (_HELLO, "reject"),     # ... and the room is full
            ]
            for sid, (hello, want) in enumerate(paths):
                registry.set_gauge("repro_serving_occupancy_cores", -1)
                assert ctrl.decide(sid, hello)[0].value == want
                assert registry.value("repro_serving_occupancy_cores") \
                    == ctrl.occupancy_cores
            ctrl.begin_drain()
            assert ctrl.decide(9, _HELLO)[0] is AdmissionDecision.REJECT
            events = [r.attrs for r in tracer.records()
                      if r.name == "admission.decide"]
            assert [r.name for r in tracer.records()
                    if r.name.startswith("admission.decide")] \
                == ["admission.decide"] * 6
            assert [(e["decision"], e["rungs"], e["dropped"])
                    for e in events] == [
                ("reject", 0, 0), ("reject", 0, 0), ("accept", 2, 0),
                ("park", 0, 0), ("reject", 0, 0), ("reject", 0, 0),
            ]
            assert registry.value("repro_serving_admission_total",
                                  decision="reject") == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(utilization=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(park_capacity=-1)


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
def _unread_fields(cls, receiver: str, *modules) -> list:
    """Fields of ``cls`` that no ``<receiver>.<field>`` read in
    ``modules`` (the class's own body left out) ever touches."""
    source = "".join(inspect.getsource(m) for m in modules).replace(
        inspect.getsource(cls), "")
    return [f.name for f in dataclasses.fields(cls) if not re.search(
        rf"(?:{receiver})\.{f.name}\b", source)]


def test_every_serve_net_field_is_read_by_the_server():
    """Every knob is read off a config object in non-test code — the
    server's in ``serving/server.py``, the admission policy's in
    ``serving/admission.py``, the per-stream ladder's in the controller
    or the pipeline — and each field set is pinned: a new knob is a
    diff here, whose change names the non-test caller that sets it."""
    import repro.resilience.degradation as degradation_mod
    import repro.serving.admission as admission_mod
    import repro.serving.server as server_mod
    import repro.transcode.pipeline as pipeline_mod

    assert [f.name for f in dataclasses.fields(ServeNetConfig)] == [
        "host", "port", "queue_frames", "egress_frames", "park_timeout_s",
        "admission", "platform", "journal_dir", "drain_grace_s",
        "policy_file", "fileops", "journal_retry_backoff_s",
    ]
    assert _unread_fields(ServeNetConfig, r"\bconfig|\bcfg",
                          server_mod) == []
    assert [f.name for f in dataclasses.fields(AdmissionPolicy)] == [
        "utilization", "park_capacity",
    ]
    assert _unread_fields(AdmissionPolicy, r"\bpolicy",
                          admission_mod) == []
    assert [f.name for f in dataclasses.fields(ResilienceConfig)] == [
        "escalate_after", "max_level", "drop_corrupt_frames",
    ]
    assert _unread_fields(ResilienceConfig, r"\bconfig|\bresilience",
                          degradation_mod, pipeline_mod) == []


def test_every_policy_field_is_read_by_non_test_code():
    """The same guard for the tenant policy: a document field is read
    by the compiler, a compiled tenant's knob by admission, the
    compiler or ``repro policy show``.  A knob nothing reads is a
    policy that looks applied and is not."""
    import repro.cli as cli_mod
    import repro.policy.compiler as compiler_mod
    import repro.serving.admission as admission_mod
    from repro.policy import PolicyDocument, TenantRuntime, TenantSpec

    assert [f.name for f in dataclasses.fields(PolicyDocument)] == [
        "version", "default_tenant", "tenants", "source",
    ]
    assert _unread_fields(PolicyDocument, r"\bdoc", compiler_mod) == []
    assert [f.name for f in dataclasses.fields(TenantSpec)] == [
        "name", "weight", "min_psnr_db", "max_deadline_miss_rate",
        "max_rungs", "max_degradation",
    ]
    assert _unread_fields(TenantSpec, r"\bspec|\bt", compiler_mod) == []
    assert [f.name for f in dataclasses.fields(TenantRuntime)] == [
        "name", "capacity_fraction", "max_level", "escalate_after",
        "max_rungs",
    ]
    assert _unread_fields(
        TenantRuntime, r"\brt|\bruntime|\.resolve\(tenant\)",
        compiler_mod, admission_mod, cli_mod) == []


def test_encode_pool_counts_the_cpus_the_affinity_mask_allows(monkeypatch):
    """A server pinned to one CPU (taskset, a cpuset) starts one encode
    thread, however many CPUs the host has online; where the platform
    has no affinity mask, the online count stands in."""
    server = NetworkServer(ServeNetConfig(port=0))
    assert server.admission.capacity_cores >= 2
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert server._encode_pool_size() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert server._encode_pool_size() == min(
        8, int(server.admission.capacity_cores))


# ----------------------------------------------------------------------
# Online session bit-exactness
# ----------------------------------------------------------------------
class TestStreamingSession:
    def test_pushes_match_offline_run(self):
        video = generate_video(ContentClass.BONE, width=64, height=64,
                               num_frames=12, seed=3)
        config = PipelineConfig(gop=GopConfig(4))
        with scoped():
            with StreamTranscoder(config) as t:
                offline = t.run(video)
        with scoped():
            with StreamTranscoder(config) as t:
                session = t.open_session()
                outputs = []
                for frame in video.frames:
                    outputs.extend(session.push(frame))
                outputs.extend(session.finish())
                assert session.trace is None  # a served session keeps none
        encoded = [o for o in outputs if o.dropped is None]
        offline_frames = offline.frame_records
        assert len(encoded) == len(offline_frames)
        for out, want in zip(encoded, offline_frames):
            assert out.frame_index == want.frame_index
            assert out.frame_type == want.frame_type
            assert [t_.bits for t_ in out.record.tiles] == \
                [t_.bits for t_ in want.tiles]
            assert [t_.psnr for t_ in out.record.tiles] == \
                [t_.psnr for t_ in want.tiles]
        assert [o.frame_index for o in outputs if o.dropped] == \
            offline.dropped_frames
        assert len(encoded) == len(video)
        for out in encoded:
            assert out.reconstruction.dtype == np.uint8
            assert out.reconstruction.shape == (64, 64)

    def test_push_returns_outputs_per_gop(self):
        """Nothing in a GOP's encode needs a later frame, so each push
        encodes its frame and returns its output: six pushes, six
        outputs, and nothing left for :meth:`finish`.  Mid-GOP the
        session still refuses a snapshot."""
        video = generate_video(ContentClass.BRAIN, width=64, height=64,
                               num_frames=6, seed=1)
        with scoped(), StreamTranscoder(
                PipelineConfig(gop=GopConfig(4))) as t:
            session = t.open_session()
            sizes = []
            for frame in video.frames:
                sizes.append(len(session.push(frame)))
                if session.pending_frames:
                    with pytest.raises(ValueError, match="GOP boundary"):
                        session.export_state()
            assert session.pending_frames == 2
            tail = session.finish()
            assert session.pending_frames == 0
        assert sizes == [1] * 6
        assert tail == []

    def test_per_push_outputs_are_the_per_gop_outputs_in_push_order(self):
        """A resilient session fed corrupt frames: the outputs of its
        pushes, concatenated, are one per frame in push order — the
        corrupt drops at their own pushes — and the encoded ones are
        the offline run's frames, bit for bit, with the same GOPs and
        the same dropped set."""
        video = generate_video(ContentClass.BONE, width=96, height=64,
                               num_frames=13, seed=3)
        config = PipelineConfig(gop=GopConfig(4),
                                resilience=ResilienceConfig())
        bad = {2, 5, 6, 12}
        frames = [Frame(f.luma, index=f.index) for f in video.frames]
        for index in bad:  # spoiled past the constructor's conversion
            frames[index].luma = frames[index].luma.astype(np.float64)
        with scoped(), StreamTranscoder(config) as t:
            offline = t.run(Video(frames=frames, fps=video.fps))
        with scoped(), StreamTranscoder(config) as t:
            session = t.open_session()
            outputs = [o for f in frames for o in session.push(f)]
            assert session.finish() == []
        assert [o.frame_index for o in outputs] == list(range(len(frames)))
        assert {o.frame_index for o in outputs if o.dropped} == bad
        assert {o.dropped for o in outputs if o.dropped} == {"corrupt"}
        assert sorted(offline.dropped_frames) == sorted(bad)
        want = [(f.frame_index, f.frame_type, f.bits, f.psnr)
                for g in offline.gops for f in g.frames]
        assert [(o.frame_index, o.frame_type, o.record.bits, o.record.psnr)
                for o in outputs if o.dropped is None] == want
        # The same GOPs: each offline GOP's frames are the encoded
        # outputs of its pushes (a GOP of corrupt pushes has no record).
        gop = config.gop.size
        per_gop = [sum(1 for o in outputs[i:i + gop] if o.dropped is None)
                   for i in range(0, len(outputs), gop)]
        assert [len(g.frames) for g in offline.gops] == [
            n for n in per_gop if n]

    @pytest.mark.parametrize("shape", ["plain", "ladder"])
    def test_a_served_session_keeps_no_per_frame_records(self, shape):
        """Retained memory is flat between N and 2N pushes, for a plain
        session and for a 3-rung ladder: a session from
        ``open_session()`` holds its open GOP, not every frame's tile
        records (ROADMAP 29).  The frame is the same every push, so the
        shared LUT's key space fills during the first N and stays put.
        Keeping the records grows ≈ 3 kB per 160x128 frame."""
        n = 32
        luma = generate_video(ContentClass.BONE, width=160, height=128,
                              num_frames=1, seed=3).frames[0].luma
        config = PipelineConfig(gop=GopConfig(4),
                                content_class=ContentClass.BONE)
        retained = []
        with contextlib.ExitStack() as stack:
            stack.enter_context(scoped())
            if shape == "plain":
                session = stack.enter_context(
                    StreamTranscoder(config)).open_session()
            else:
                session = stack.enter_context(LadderSession(
                    config, LadderConfig(rungs=(
                        LadderRung(160, 128), LadderRung(96, 64),
                        LadderRung(48, 32)), prune=False)))
            tracemalloc.start()
            try:
                for index in range(2 * n):
                    session.push(Frame(luma, index=index))
                    if index + 1 in (n, 2 * n):
                        gc.collect()
                        retained.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        assert retained[1] - retained[0] < 16 * 1024, retained

    def test_open_session_requires_proposed_mode(self):
        with StreamTranscoder(PipelineConfig.khan()) as t:
            with pytest.raises(ValueError):
                t.open_session()


# ----------------------------------------------------------------------
# Metrics digest
# ----------------------------------------------------------------------
class TestServingMetricsSection:
    def test_histogram_quantile(self):
        hist = HistogramValue(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            hist.observe(v)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 4.0
        q50 = hist.quantile(0.5)
        assert 1.0 <= q50 <= 2.0
        assert HistogramValue().quantile(0.5) is None
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def _snapshot(self):
        reg = MetricsRegistry()
        reg.inc("repro_serving_admission_total", 3, decision="accept")
        reg.inc("repro_serving_admission_total", 1, decision="reject")
        reg.inc("repro_serving_frames_encoded_total", 40)
        reg.inc("repro_serving_deadline_miss_total", 4)
        reg.inc("repro_serving_frames_dropped_total", 2,
                reason="backpressure")
        for v in (0.01, 0.02, 0.03, 0.2):
            reg.observe("repro_serving_frame_latency_seconds", v)
        return reg.to_dict()

    def test_serving_summary_digest(self):
        summary = serving_summary(self._snapshot())
        assert summary["sessions_accepted"] == 3
        assert summary["sessions_rejected"] == 1
        assert summary["frames_dropped"] == 2
        assert summary["deadline_miss_rate"] == pytest.approx(0.1)
        assert summary["latency_p50_s"] is not None
        assert summary["latency_p95_s"] >= summary["latency_p50_s"]

    def test_old_snapshot_digests_with_zero_recovery_defaults(self):
        """A metrics file written before the recovery families existed
        still summarises: every such key is zero (the resume latency
        absent), no KeyError."""
        snapshot = {"metrics": [{
            "name": "repro_serving_admission_total", "kind": "counter",
            "help": "", "samples": [
                {"labels": {"decision": "accept"}, "value": 3.0},
            ],
        }]}
        summary = serving_summary(snapshot)
        assert summary is not None
        assert summary["sessions_accepted"] == 3.0
        for key in ("sessions_adopted", "lease_conflicts",
                    "connection_resets", "frame_copies"):
            assert summary[key] == 0.0
        assert summary["resume_p95_s"] is None

    def test_non_serving_snapshot_stays_none(self):
        assert serving_summary({"metrics": []}) is None

    def test_serving_summary_absent_without_serving_metrics(self):
        reg = MetricsRegistry()
        reg.inc("repro_frames_total", 5)
        assert serving_summary(reg.to_dict()) is None
        assert "serving" not in format_metrics(reg.to_dict())

    def test_format_metrics_renders_serving_section(self):
        text = format_metrics(self._snapshot())
        assert "serving" in text
        assert "accepted 3" in text
        assert "p95" in text
        assert "deadline miss: 4 (10.0%)" in text
