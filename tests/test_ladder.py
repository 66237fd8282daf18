"""Rendition-ladder property and differential tests.

Four guarantees, each checked differentially (against an independent
implementation of the same contract) rather than against goldens:

* the native box-downscale kernel is **bit-identical** to the NumPy
  oracle for every geometry and seed hypothesis throws at it;
* a ladder session's per-rung output is **bit-identical** to N
  independent single-rung sessions with the same pinned content class
  (what makes the shared analysis pass a pure saving);
* segments are GOP-aligned and self-describing: every manifest
  reference resolves, every segment opens on an I frame, and a client
  can switch rungs at any segment boundary and keep decoding;
* ladder admission prices the *whole* ladder (sum of per-rung
  estimates) and degrades bottom-up — rungs are dropped before the
  session is parked or shed, and the primary is never dropped.

One golden (``tests/golden/ladder_smoke.json``) pins the default
ladder's per-rung output digests, so an encoder change that keeps
every rung equal to its independent session still cannot slip by.
"""

import contextlib
import dataclasses
import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.allocation.demand import UserDemand, cores_needed
from repro.codec.config import FrameType, GopConfig
from repro.ladder.config import (
    LadderConfig,
    LadderRung,
    RUNG_MULTIPLE,
    default_rungs_for,
)
from repro.ladder.planner import LadderPlanner
from repro.ladder.segments import LadderSegmentReader, LadderSegmentWriter
from repro.ladder.session import LadderSession
from repro.platform.schedule import ThreadTask
from repro.resilience.degradation import ResilienceConfig
from repro.resilience.errors import CorruptFrameError
from repro.serving.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.serving.protocol import (
    Encoded,
    Hello,
    HelloAck,
    MessageDecoder,
    ProtocolError,
    encode_message,
)
from repro.transcode.pipeline import (
    PipelineConfig,
    ProposedStreamSession,
    StreamTranscoder,
)
from repro.video.frame import Frame
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)
from repro.video.scale import (
    box_edges,
    downscale_box_reference,
    downscale_frame,
    downscale_plane,
)
from repro.workload.keys import WorkloadKey, area_bucket
from tests.conftest import CountingLock, counted_native


# ----------------------------------------------------------------------
# Downscaler: native kernel vs NumPy oracle
# ----------------------------------------------------------------------

#: Geometry + content strategy shared by the differential tests.  Odd
#: extents and non-integer ratios are the interesting cases (ragged
#: boxes), so the sizes are *not* restricted to multiples of anything.
_geometry = st.tuples(
    st.integers(1, 48), st.integers(1, 48),  # input h, w
    st.floats(0.05, 1.0), st.floats(0.05, 1.0),  # output fraction
    st.integers(0, 2**32 - 1),  # content seed
)


def _case(params):
    h, w, fh, fw, seed = params
    out_h = max(1, int(h * fh))
    out_w = max(1, int(w * fw))
    rng = np.random.default_rng(seed)
    plane = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    return plane, out_h, out_w


def _record_tables(monkeypatch):
    """The ``table`` every ``FrameEncoder.encode`` call is handed from
    here on, in call order (the list keeps them alive, so their ids
    stay distinct)."""
    from repro.codec.encoder import FrameEncoder

    tables = []
    encode = FrameEncoder.encode

    def recording(self, *args, **kwargs):
        tables.append(kwargs.get("table"))
        assert tables[-1] is not None
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(FrameEncoder, "encode", recording)
    return tables


class TestDownscalerDifferential:
    @pytest.mark.skipif(native.lib is None, reason="native kernels not built")
    @given(params=_geometry)
    @settings(max_examples=150, deadline=None)
    def test_native_bit_identical_to_oracle(self, params):
        plane, out_h, out_w = _case(params)
        got = native.downscale_box(plane, out_h, out_w)
        assert got is not None
        want = downscale_box_reference(plane, out_h, out_w)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    @given(params=_geometry)
    @settings(max_examples=60, deadline=None)
    def test_dispatch_matches_oracle(self, params):
        # Whatever path downscale_plane takes (native or fallback), the
        # bytes are the oracle's.
        plane, out_h, out_w = _case(params)
        got = downscale_plane(plane, out_h, out_w)
        assert np.array_equal(got, downscale_box_reference(plane, out_h, out_w))

    @given(params=_geometry, dtype=st.sampled_from([np.int16, np.int32, np.int64]))
    @settings(max_examples=40, deadline=None)
    def test_oracle_dtype_independent(self, params, dtype):
        # The oracle sums in int64, so any integer dtype holding the
        # same sample values downscales to the same uint8 plane.
        plane, out_h, out_w = _case(params)
        want = downscale_box_reference(plane, out_h, out_w)
        assert np.array_equal(
            downscale_box_reference(plane.astype(dtype), out_h, out_w), want
        )

    @given(params=_geometry)
    @settings(max_examples=40, deadline=None)
    def test_output_bounded_by_input_range(self, params):
        # A box mean can never leave the sample range (floor division
        # can only pull toward the minimum).
        plane, out_h, out_w = _case(params)
        out = downscale_box_reference(plane, out_h, out_w)
        assert out.shape == (out_h, out_w)
        assert out.min() >= plane.min()
        assert out.max() <= plane.max()

    @given(value=st.integers(0, 255), params=_geometry)
    @settings(max_examples=40, deadline=None)
    def test_constant_plane_stays_constant(self, value, params):
        plane, out_h, out_w = _case(params)
        flat = np.full_like(plane, value)
        assert np.all(downscale_plane(flat, out_h, out_w) == value)

    @given(n_in=st.integers(1, 2000), n_out=st.integers(1, 2000))
    @settings(max_examples=100, deadline=None)
    def test_box_edges_partition_the_input(self, n_in, n_out):
        if n_out > n_in:
            with pytest.raises(ValueError, match="never upscales"):
                box_edges(n_in, n_out)
            return
        edges = box_edges(n_in, n_out)
        assert edges[0] == 0 and edges[-1] == n_in
        assert len(edges) == n_out + 1
        # Strictly increasing = every box holds at least one sample.
        assert np.all(np.diff(edges) >= 1)

    def test_odd_geometry_exact_values(self):
        # Hand-checked ragged case: 5x3 -> 2x2.  Row boxes are
        # [0,2),[2,5); column boxes [0,1),[1,3).
        plane = np.arange(15, dtype=np.uint8).reshape(5, 3)
        out = downscale_plane(plane, 2, 2)
        assert out.tolist() == [
            [(0 + 3) // 2, (1 + 2 + 4 + 5) // 4],
            [(6 + 9 + 12) // 3, (7 + 8 + 10 + 11 + 13 + 14) // 6],
        ]

    def test_never_upscales(self):
        plane = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="never upscales"):
            downscale_plane(plane, 16, 8)
        with pytest.raises(ValueError, match="never upscales"):
            downscale_plane(plane, 8, 9)
        with pytest.raises(ValueError):
            downscale_plane(plane, 0, 8)

    def test_frame_downscale_carries_index(self):
        rng = np.random.default_rng(5)
        frame = Frame(
            luma=rng.integers(0, 256, (32, 48), dtype=np.uint8),
            index=7,
        )
        small = downscale_frame(frame, 24, 16)
        assert small.index == 7
        assert small.luma.shape == (16, 24)
        same = downscale_frame(frame, 48, 32)
        assert np.array_equal(same.luma, frame.luma)
        assert same.luma is not frame.luma  # copy, never an alias


# ----------------------------------------------------------------------
# Ladder vs independent single-rung sessions: bit identity
# ----------------------------------------------------------------------

_W, _H = 96, 64
_GOP = 4
_FRAMES = 8
_RUNGS = (LadderRung(96, 64), LadderRung(72, 48), LadderRung(48, 32))


@pytest.fixture(scope="module")
def ladder_video():
    return BioMedicalVideoGenerator(GeneratorConfig(
        width=_W, height=_H, num_frames=_FRAMES, seed=21,
        content_class=ContentClass.CARDIAC, motion=MotionPreset.PAN_RIGHT,
    )).generate()


def _outputs_digest(outputs):
    """Per-frame encode trace + reconstruction bytes, for exact
    comparison across sessions."""
    digest = []
    for out in sorted(outputs, key=lambda o: o.frame_index):
        bits = out.record.bits if out.record else 0
        recon = b"" if out.reconstruction is None else out.reconstruction.tobytes()
        ftype = "" if out.frame_type is None else out.frame_type.value
        digest.append((out.frame_index, ftype, out.dropped, bits,
                       zlib.crc32(recon)))
    return digest


def _run_ladder(video, prune=False, hop_at=None):
    """``hop_at``: the frame index (a GOP boundary) where the session
    is swapped for a fresh one restored from its exported state."""
    base = PipelineConfig(fps=video.fps, gop=GopConfig(_GOP))
    ladder = LadderConfig(rungs=_RUNGS, prune=prune)
    by_rung = {}
    with contextlib.ExitStack() as stack:
        session = stack.enter_context(LadderSession(base, ladder))
        for frame in video.frames:
            if frame.index == hop_at:
                state = session.export_state()
                session = stack.enter_context(LadderSession(base, ladder))
                session.import_state(state)
            for out in session.push(frame):
                by_rung.setdefault(out.rung, []).append(out)
        for out in session.finish():
            by_rung.setdefault(out.rung, []).append(out)
        pinned = {
            rs.rung_id: rs.transcoder.config.content_class
            for rs in session.rung_sessions
        }
        plan = session.plan
    return by_rung, pinned, plan


class TestLadderBitIdentity:
    def test_rungs_match_independent_sessions(self, ladder_video):
        self._assert_rungs_match_independent_sessions(ladder_video)

    def test_rungs_match_independent_sessions_across_a_state_hop(
            self, ladder_video):
        """The journaled-resume shape: nothing is held at a GOP
        boundary, so the exported state is all a fresh ladder needs."""
        self._assert_rungs_match_independent_sessions(ladder_video,
                                                      hop_at=_GOP)

    @staticmethod
    def _assert_rungs_match_independent_sessions(ladder_video, hop_at=None):
        by_rung, pinned, plan = _run_ladder(ladder_video, hop_at=hop_at)
        assert sorted(by_rung) == [0, 1, 2]
        for planned in plan.rungs:
            rid, rung = planned.rung_id, planned.rung
            assert len(by_rung[rid]) == _FRAMES
            # The independent arm: same pinned class, own session, own
            # downscale of the same ingest.
            cfg = PipelineConfig(
                fps=ladder_video.fps, gop=GopConfig(_GOP),
                content_class=pinned[rid],
            )
            with StreamTranscoder(cfg) as transcoder:
                solo = transcoder.open_session()
                outputs = []
                for frame in ladder_video.frames:
                    outputs.extend(solo.push(
                        downscale_frame(frame, rung.width, rung.height)
                    ))
                outputs.extend(solo.finish())
            assert _outputs_digest(outputs) == _outputs_digest(by_rung[rid])

    def test_one_shared_classification(self, ladder_video):
        _, pinned, _ = _run_ladder(ladder_video)
        # Every rung got the same pinned class — none classified alone.
        assert len(set(pinned.values())) == 1
        assert next(iter(pinned.values())) is not None

    def test_finish_is_idempotent_and_push_after_finish_raises(
        self, ladder_video
    ):
        session = LadderSession(
            base_config=PipelineConfig(fps=24.0, gop=GopConfig(_GOP)),
            ladder=LadderConfig(rungs=_RUNGS, prune=False),
        )
        with session:
            session.push(ladder_video.frames[0])
            session.finish()
            assert session.finish() == []
            with pytest.raises(ValueError, match="finished"):
                session.push(ladder_video.frames[1])


def _push_all(session, frames):
    outputs = [out for frame in frames for out in session.push(frame)]
    return outputs + session.finish()


def _rung_digests(outputs):
    return {rung: _outputs_digest([o for o in outputs if o.rung == rung])
            for rung in {o.rung for o in outputs}}


LADDER_GOLDEN = Path(__file__).parent / "golden" / "ladder_smoke.json"


def _rung_crc(outputs):
    """CRC-32 folded over one rung's outputs in frame order."""
    crc = 0
    for out in sorted(outputs, key=lambda o: o.frame_index):
        ftype = "" if out.frame_type is None else out.frame_type.value
        bits = out.record.bits if out.record else 0
        head = f"{out.frame_index}:{ftype}:{out.dropped or ''}:{bits}"
        crc = zlib.crc32(head.encode(), crc)
        if out.reconstruction is not None:
            crc = zlib.crc32(out.reconstruction.tobytes(), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def test_default_ladder_rung_digests_match_golden(update_golden):
    """A 256x192 brain pan through the default ladder: the planner
    keeps all three rungs for this content, every rung emits one output
    per frame, and each rung's CRC-32 matches the committed golden.
    After an intentional encoder change, regenerate with
    ``pytest --update-golden``."""
    width, height, frames, gop, segment_gops, seed = 256, 192, 16, 4, 2, 7
    content = ContentClass.BRAIN
    video = BioMedicalVideoGenerator(GeneratorConfig(
        width=width, height=height, num_frames=frames, seed=seed,
        content_class=content, motion=MotionPreset.PAN_RIGHT,
    )).generate()
    with LadderSession(
        base_config=PipelineConfig(fps=video.fps, gop=GopConfig(gop)),
        ladder=LadderConfig(rungs=default_rungs_for(width, height),
                            segment_gops=segment_gops),
    ) as session:
        outputs = _push_all(session, video.frames)
        plan = session.plan
    assert len(plan.rungs) == 3, f"pruned {plan.pruned}"
    by_rung = {p.rung_id: [o for o in outputs if o.rung == p.rung_id]
               for p in plan.rungs}
    assert [len(outs) for outs in by_rung.values()] == [frames] * 3
    payload = {
        "geometry": f"{width}x{height}",
        "frames": frames, "gop": gop, "segment_gops": segment_gops,
        "seed": seed, "content": content.value,
        "complexity": round(plan.complexity, 6),
        "rung_digests": {str(rung_id): _rung_crc(outs)
                         for rung_id, outs in by_rung.items()},
    }
    if update_golden:
        LADDER_GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True)
                                 + "\n")
        pytest.skip(f"rewrote {LADDER_GOLDEN}")
    assert json.loads(LADDER_GOLDEN.read_text()) == payload, (
        "per-rung digests drifted; if intentional, regenerate with "
        "pytest --update-golden")


class TestOneRungIsThePlainSession:
    """The network server encodes every session through a
    :class:`LadderSession`; what it may rely on is pinned here."""

    @pytest.mark.parametrize("pinned", [True, False],
                             ids=["pinned", "classified"])
    @pytest.mark.parametrize("content", [
        ContentClass.BRAIN, ContentClass.CARDIAC, ContentClass.BONE,
        ContentClass.LUNG,
    ], ids=lambda c: c.value)
    @pytest.mark.parametrize("size", [(96, 64), (160, 128)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_same_bits_recon_and_drops(self, size, content, pinned):
        width, height = size
        video = BioMedicalVideoGenerator(GeneratorConfig(
            width=width, height=height, num_frames=20, seed=5,
            content_class=content, motion=MotionPreset.PAN_RIGHT,
        )).generate()
        # A 2000 fps slot is shorter than most frames' modelled CPU
        # time: the resilient pipeline answers with deadline drops, so
        # the comparisons below cover drop classes too.
        config = PipelineConfig(
            fps=2000.0, gop=GopConfig(8), resilience=ResilienceConfig(),
            content_class=content if pinned else None,
        )
        with StreamTranscoder(config) as plain:
            want = _push_all(plain.open_session(), video.frames)
        with LadderSession(
            config, LadderConfig(rungs=(LadderRung(width, height),),
                                 prune=False),
        ) as session:
            got = _push_all(session, video.frames)
            # The feature pass runs only when something consumes it.
            assert (session.features is None) == pinned
        assert {o.rung for o in got} == {0}
        assert _outputs_digest(got) == _outputs_digest(want)
        assert {o.dropped for o in want} == {None, "deadline"}

    def test_a_three_rung_push_encodes_its_frame_on_every_rung(
            self, ladder_video):
        """Several rungs: every push does work — it scales and encodes
        its frame on every rung and returns that frame's outputs,
        primary first — while ``pending_frames`` counts the pushes
        since the GOP boundary."""
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        with LadderSession(config, LadderConfig(rungs=_RUNGS,
                                                prune=False)) as session:
            for frame in ladder_video.frames[:_GOP + 1]:
                assert session.pending_frames == frame.index % _GOP
                outputs = session.push(frame)
                assert [(o.rung, o.frame_index) for o in outputs] == [
                    (rung, frame.index) for rung in range(len(_RUNGS))]
                assert all(o.dropped is None for o in outputs)
                assert [o.reconstruction.shape for o in outputs] == [
                    (r.height, r.width) for r in _RUNGS]

    def test_a_one_rung_push_encodes_its_frame(self, ladder_video):
        """One rung: every push does work — it encodes its frame and
        returns its output — while ``pending_frames`` still counts the
        pushes since the GOP boundary."""
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        with LadderSession(config, LadderConfig(rungs=_RUNGS[:1],
                                                prune=False)) as session:
            for frame in ladder_video.frames[:_GOP + 1]:
                assert session.pending_frames == frame.index % _GOP
                (out,) = session.push(frame)
                assert out.frame_index == frame.index and out.rung == 0

    def test_read_only_ingest_plane_reaches_the_rung_uncopied(
            self, ladder_video, monkeypatch):
        """The served shape: the wire payload backs a read-only plane,
        and the rung at ingest resolution receives that very buffer at
        the frame's own push — nothing can mutate it, so nothing needs
        copying."""
        seen = []
        push = ProposedStreamSession.push
        monkeypatch.setattr(
            ProposedStreamSession, "push",
            lambda self, frame, corrupt=False:
                seen.append(frame) or push(self, frame, corrupt))
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        frame = Frame(np.frombuffer(ladder_video.frames[0].luma.tobytes(),
                                    dtype=np.uint8).reshape(_H, _W), index=0)
        assert not frame.luma.flags.writeable
        with LadderSession(config, LadderConfig(rungs=_RUNGS,
                                                prune=False)) as session:
            assert len(session.push(frame)) == len(_RUNGS)
        assert seen[0] is frame
        assert np.shares_memory(seen[0].luma, frame.luma)
        assert [f.luma.shape for f in seen] == [(r.height, r.width)
                                                for r in _RUNGS]

    def test_mutating_a_writable_ingest_plane_changes_no_rung(
            self, ladder_video):
        """A caller that reuses its ingest buffer: scribbling over each
        plane right after ``push`` leaves every rung's output what a
        run over untouched frames produces."""
        want, _, _ = _run_ladder(ladder_video)
        config = PipelineConfig(fps=ladder_video.fps, gop=GopConfig(_GOP))
        got = {}
        buffer = np.empty((_H, _W), dtype=np.uint8)
        with LadderSession(config, LadderConfig(rungs=_RUNGS,
                                                prune=False)) as session:
            for frame in ladder_video.frames:
                buffer[...] = frame.luma
                for out in session.push(Frame(buffer, index=frame.index)):
                    got.setdefault(out.rung, []).append(out)
                buffer[...] = 255 - buffer
            for out in session.finish():
                got.setdefault(out.rung, []).append(out)
        assert sorted(got) == sorted(want)
        for rung in want:
            assert _outputs_digest(got[rung]) == _outputs_digest(want[rung])

    @pytest.mark.skipif(native.lib is None, reason="native kernels not built")
    @pytest.mark.parametrize("num_rungs", [1, 3])
    def test_a_push_crosses_once_per_frame_per_rung(self, num_rungs,
                                                    monkeypatch):
        """What a push costs in crossings, for any rung count: one
        ``encode_frame_u8`` per rung (however many tiles), one
        ``downscale_box_u8`` per scaled rung, plus three
        ``analyze_frame_u8`` (margins, centre, grid) per rung when it
        is the GOP's first.  One ``WorkloadEstimator`` lock acquisition
        per output, and each rung takes a GOP's frames through one tile
        table, built when the GOP is re-tiled."""
        # Large enough to be cut into several tiles on every rung.
        rungs = (LadderRung(256, 192), LadderRung(192, 144),
                 LadderRung(128, 96))[:num_rungs]
        video = BioMedicalVideoGenerator(GeneratorConfig(
            width=256, height=192, num_frames=2 * _GOP, seed=5,
            content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        )).generate()
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        tables = _record_tables(monkeypatch)
        with LadderSession(config, LadderConfig(rungs=rungs,
                                                prune=False)) as session:
            lock = session.estimator._observe_lock = CountingLock()
            for frame in video.frames:
                lock.acquisitions = 0
                if frame.index % _GOP == 0:
                    del tables[:]
                with counted_native() as calls:
                    outputs = session.push(frame)
                assert [(o.rung, o.frame_index) for o in outputs] == [
                    (rung, frame.index) for rung in range(len(rungs))]
                expected = {"encode_frame_u8": len(rungs)}
                if frame.index % _GOP == 0:  # re-tiled
                    expected["analyze_frame_u8"] = 3 * len(rungs)
                if len(rungs) > 1:
                    expected["downscale_box_u8"] = len(rungs) - 1
                assert calls == expected
                assert lock.acquisitions == len(outputs)
                if frame.index % _GOP != _GOP - 1:
                    continue
                # Frame by frame, each rung's table in rung order.
                per_rung = [tables[r::len(rungs)] for r in range(len(rungs))]
                assert all(len(gop) == _GOP and len(set(map(id, gop))) == 1
                           for gop in per_rung)
                gop_tables = [gop[0] for gop in per_rung]
                assert len(set(map(id, gop_tables))) == len(rungs)
                if frame.index > _GOP:  # rebuilt at the boundary
                    assert not (set(map(id, gop_tables))
                                & set(map(id, first_gop_tables)))
                first_gop_tables = gop_tables  # kept alive: ids stay unique
            # Several tiles behind every one of those calls.
            assert all(len(o.record.tiles) > 1 for o in outputs)

    def test_finish_closes_a_partial_gop_and_returns_nothing(self,
                                                             ladder_video):
        """Every frame got its outputs at its push, so ``finish`` on a
        partial GOP only closes it: every rung is left at a GOP
        boundary."""
        frames = ladder_video.frames[:_GOP + 2]
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        with LadderSession(config, LadderConfig(rungs=_RUNGS,
                                                prune=False)) as session:
            outputs = [o for f in frames for o in session.push(f)]
            assert len(outputs) == len(frames) * len(_RUNGS)
            assert session.pending_frames == 2
            with pytest.raises(ValueError, match="GOP boundary"):
                session.export_state()
            assert session.finish() == []
            assert session.pending_frames == 0
            assert [rs.session.pending_frames
                    for rs in session.rung_sessions] == [0] * len(_RUNGS)
        tail = outputs[-2 * len(_RUNGS):]
        assert [(o.rung, o.frame_index) for o in tail] == [
            (rung, _GOP + k) for k in (0, 1) for rung in range(len(_RUNGS))]
        assert all(o.dropped is None for o in tail)
        assert all(o.frame_type is FrameType.I for o in tail[:len(_RUNGS)])

    @pytest.mark.parametrize("spoil", ["shape", "dtype"])
    def test_a_bad_frame_is_caught_at_its_own_push(self, ladder_video, spoil):
        """The rung sessions' check, made on the ingest frame when it
        is pushed — not when the GOP closes: without resilience the
        push raises, with it every rung drops that frame as corrupt."""
        def spoiled(frame):
            bad = Frame(frame.luma, index=frame.index)
            bad.luma = (frame.luma[:_RUNGS[2].height, :_RUNGS[2].width]
                        if spoil == "shape"
                        else frame.luma.astype(np.float64))
            return bad

        frames = list(ladder_video.frames[:_GOP])
        frames[1] = spoiled(frames[1])
        ladder = LadderConfig(rungs=_RUNGS, prune=False)
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        with LadderSession(config, ladder) as session:
            session.push(frames[0])
            with pytest.raises(CorruptFrameError, match="index 1"):
                session.push(frames[1])
            assert session.pending_frames == 1
        config = dataclasses.replace(config, resilience=ResilienceConfig())
        with LadderSession(config, ladder) as session, \
                counted_native() as calls:
            pushes = [session.push(f) for f in frames]
        assert calls["downscale_box_u8"] == (_GOP - 1) * (len(_RUNGS) - 1)
        assert [(o.rung, o.dropped) for o in pushes[1]] == [
            (rung, "corrupt") for rung in range(len(_RUNGS))]
        outputs = [o for outs in pushes for o in outs]
        assert [(o.rung, o.frame_index) for o in outputs if o.dropped] == [
            (rung, 1) for rung in range(len(_RUNGS))]
        assert {o.dropped for o in outputs} == {None, "corrupt"}
        assert len(outputs) == _GOP * len(_RUNGS)

    @pytest.mark.skipif(native.lib is None, reason="native kernels not built")
    def test_a_rebuilt_encoder_plans_its_gop_afresh(self, monkeypatch):
        """RESUME's rebuild mid-GOP: a fresh session restored to the
        last boundary and re-fed the interrupted GOP — three frames of
        it already encoded before the cut — builds its own table for
        it, and encodes what the uninterrupted session does, those
        three included."""
        video = BioMedicalVideoGenerator(GeneratorConfig(
            width=256, height=192, num_frames=2 * _GOP, seed=5,
            content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        )).generate()
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP),
                                resilience=ResilienceConfig())
        ladder = LadderConfig(rungs=(LadderRung(256, 192),), prune=False)
        tables = _record_tables(monkeypatch)
        with LadderSession(config, ladder) as whole:
            for frame in video.frames[:_GOP]:
                whole.push(frame)
            snapshot = whole.export_state()
            want = [out for frame in video.frames[_GOP:_GOP + 3]
                    for out in whole.push(frame)]  # cut mid-GOP
            assert len(want) == 3
            with LadderSession(config, ladder) as rebuilt:
                rebuilt.import_state(snapshot)
                got = _push_all(rebuilt, video.frames[_GOP:])
            want += _push_all(whole, video.frames[_GOP + 3:])
        assert _rung_digests(got) == _rung_digests(want)
        first, mine = tables[:_GOP], tables[_GOP + 3:2 * _GOP + 3]
        theirs = tables[_GOP:_GOP + 3] + tables[2 * _GOP + 3:]
        assert len(first) == len(mine) == len(theirs) == _GOP
        for gop in (first, mine, theirs):
            assert len({id(t) for t in gop}) == 1
        assert len({id(t) for t in first + mine + theirs}) == 3

    @pytest.mark.parametrize("rungs", [_RUNGS[:1], _RUNGS],
                             ids=["1-rung", "3-rung"])
    def test_exported_state_resumes_the_same_tail(self, ladder_video, rungs):
        frames = ladder_video.frames
        config = PipelineConfig(fps=24.0, gop=GopConfig(_GOP),
                                resilience=ResilienceConfig())
        ladder = LadderConfig(rungs=rungs, prune=False)
        with LadderSession(config, ladder) as whole:
            head = [o for f in frames[:_GOP] for o in whole.push(f)]
            assert whole.pending_frames == 0
            snapshot = whole.export_state()
            tail = _push_all(whole, frames[_GOP:])
        assert sorted(snapshot) == list(range(len(rungs)))
        assert len(head) == _GOP * len(rungs)
        with LadderSession(config, ladder) as resumed:
            resumed.import_state(snapshot)
            assert resumed.started and resumed.pending_frames == 0
            with pytest.raises(ValueError, match="fresh"):
                resumed.import_state(snapshot)
            got = _push_all(resumed, frames[_GOP:])
        assert _rung_digests(got) == _rung_digests(tail)


class TestPlanner:
    def test_flat_content_collapses_to_top_and_bottom(self):
        flat = np.full((64, 96), 128, dtype=np.uint8)
        plan = LadderPlanner(LadderConfig(rungs=_RUNGS)).plan(flat)
        assert plan.complexity == 0.0
        assert plan.rung_ids == [0, 2]
        assert plan.pruned and plan.pruned[0][0] == 1

    def test_complex_content_keeps_every_rung(self):
        rng = np.random.default_rng(3)
        noisy = rng.integers(0, 256, (64, 96), dtype=np.uint8)
        plan = LadderPlanner(LadderConfig(rungs=_RUNGS)).plan(noisy)
        assert plan.rung_ids == [0, 1, 2]
        assert plan.pruned == ()

    def test_rung_ids_stable_across_pruning(self):
        flat = np.full((64, 96), 0, dtype=np.uint8)
        plan = LadderPlanner(LadderConfig(rungs=_RUNGS)).plan(flat)
        # Surviving ids index the *configured* ladder, so id 2 still
        # names 48x32 even though id 1 is gone.
        assert plan.rungs[-1].rung == _RUNGS[2]

    def test_planner_never_upscales(self):
        flat = np.zeros((32, 48), dtype=np.uint8)
        with pytest.raises(ValueError, match="never upscale"):
            LadderPlanner(LadderConfig(rungs=_RUNGS)).plan(flat)

    def test_rung_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LadderRung(0, 48)
        with pytest.raises(ValueError, match=f"multiples of {RUNG_MULTIPLE}"):
            LadderRung(100, 76)
        with pytest.raises(ValueError, match="decreasing"):
            LadderConfig(rungs=(LadderRung(48, 32), LadderRung(96, 64)))

    def test_default_rungs_are_encodable(self):
        # Floored candidates must always satisfy the encoder's
        # transform-size constraint, whatever the ingest geometry.
        for w, h in [(640, 480), (321, 243), (100, 68), (64, 48)]:
            for rung in default_rungs_for(w, h):
                assert rung.width % RUNG_MULTIPLE == 0
                assert rung.height % RUNG_MULTIPLE == 0
                assert rung.width <= w and rung.height <= h


# ----------------------------------------------------------------------
# Segments: GOP alignment, resolving references, rung switching
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def segmented(tmp_path_factory, ladder_video):
    out_dir = tmp_path_factory.mktemp("segments")
    base = PipelineConfig(fps=ladder_video.fps, gop=GopConfig(_GOP))
    with LadderSession(
        base_config=base,
        ladder=LadderConfig(rungs=_RUNGS, prune=False, segment_gops=1),
    ) as session:
        writer = None
        for frame in ladder_video.frames:
            outputs = session.push(frame)
            if writer is None:
                writer = LadderSegmentWriter(
                    out_dir, session.plan, _W, _H,
                    gop=_GOP, segment_gops=1, fps=ladder_video.fps,
                )
            for out in outputs:
                writer.add(out)
        for out in session.finish():
            writer.add(out)
        manifest = writer.finalize()
    return out_dir, manifest


class TestSegments:
    def test_boundaries_on_gop_boundaries(self, segmented):
        out_dir, _ = segmented
        reader = LadderSegmentReader(out_dir)
        for rung_id in (0, 1, 2):
            refs = reader.segment_refs(rung_id)
            assert refs, f"rung {rung_id} wrote no segments"
            assert sum(r.frames for r in refs) == _FRAMES
            for ref in refs:
                assert ref.first_frame % _GOP == 0

    def test_every_reference_resolves_and_opens_on_i(self, segmented):
        out_dir, _ = segmented
        reader = LadderSegmentReader(out_dir)
        for rung_id in (0, 1, 2):
            for i in range(len(reader.segment_refs(rung_id))):
                messages = reader.read_segment(rung_id, i)
                first = messages[0]
                # Segment boundary == GOP boundary == I frame (a
                # dropped first frame still decodes: it carries no
                # pixels to mispredict from).
                assert first.frame_type == "I" or first.dropped
                for msg in messages:
                    assert msg.rung == rung_id

    def test_mid_stream_rung_switch(self, segmented):
        out_dir, _ = segmented
        reader = LadderSegmentReader(out_dir)
        refs_a = reader.segment_refs(0)
        refs_b = reader.segment_refs(1)
        assert len(refs_a) == len(refs_b) >= 2
        # Play rung 0 up to boundary k, then rung 1 from k onward: the
        # spliced playback covers every frame index exactly once and
        # the first post-switch frame needs no earlier rung-1 state.
        k = 1
        played = [m for i in range(k) for m in reader.read_segment(0, i)]
        switched = reader.read_segment(1, k)
        assert switched[0].frame_index == refs_a[k].first_frame
        assert switched[0].frame_type == "I" or switched[0].dropped
        tail = [m for i in range(k, len(refs_b))
                for m in reader.read_segment(1, i)]
        indices = [m.frame_index for m in played + tail]
        assert indices == list(range(_FRAMES))
        # Post-switch frames decode at rung 1 geometry.
        for msg in tail:
            if not msg.dropped:
                assert (msg.width, msg.height) == (72, 48)

    def test_corruption_is_detected(self, segmented, tmp_path):
        out_dir, manifest = segmented
        ref = LadderSegmentReader(out_dir).segment_refs(0)[0]
        path = out_dir / ref.uri
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        try:
            path.write_bytes(bytes(data))
            with pytest.raises(ProtocolError, match="crc"):
                LadderSegmentReader(out_dir).read_segment(0, 0)
        finally:
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))

    def test_manifest_records_geometry_and_cadence(self, segmented):
        out_dir, manifest = segmented
        on_disk = json.loads((out_dir / "manifest.json").read_text())
        assert on_disk == manifest
        assert manifest["ingest"]["width"] == _W
        assert manifest["ingest"]["gop"] == _GOP
        assert manifest["segment_frames"] == _GOP  # segment_gops=1
        by_id = {r["id"]: r for r in manifest["rungs"]}
        assert by_id[1]["width"] == 72 and by_id[1]["height"] == 48

    def test_foreign_rung_rejected(self, segmented, ladder_video):
        out_dir, _ = segmented
        writer_dir = out_dir  # writer is finalized; only add() semantics
        base = PipelineConfig(fps=24.0, gop=GopConfig(_GOP))
        with LadderSession(
            base_config=base,
            ladder=LadderConfig(rungs=_RUNGS, prune=False),
        ) as session:
            outputs = session.push(ladder_video.frames[0])
            writer = LadderSegmentWriter(
                writer_dir / "fresh", session.plan, _W, _H,
                gop=_GOP, segment_gops=1,
            )
            bad = outputs[0]
            bad.rung = 9
            with pytest.raises(ValueError, match="not in the plan"):
                writer.add(bad)


# ----------------------------------------------------------------------
# Ladder admission: sum-of-rungs pricing, degradation order
# ----------------------------------------------------------------------

_LADDER = ((160, 128), (120, 96), (80, 64))


def _controller():
    # capacity_cores = 32 * 0.04 = 1.28 -> integer capacity 1 core: a
    # small world where a handful of sessions exercises every branch.
    return AdmissionController(
        policy=AdmissionPolicy(utilization=0.04, park_capacity=1),
    )


def _fill(controller, singles, start=100):
    sid = start
    for w, h in singles:
        decision, reason, _ = controller.decide(
            sid, Hello(width=w, height=h, fps=24.0)
        )
        assert decision is AdmissionDecision.ACCEPT, reason
        sid += 1
    return sid


class TestLadderAdmission:
    def test_prices_sum_of_rungs(self):
        controller = _controller()
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        cores, demand, per_rung = controller.estimate_ladder(hello, _LADDER)
        assert len(per_rung) == len(_LADDER)
        assert len(demand.threads) == len(_LADDER)
        # Whole-ladder price == sum of the per-rung prices (each rung
        # is one thread; Algorithm 2 charges per-thread core ceilings).
        expected = sum(
            cores_needed(UserDemand(user_id=0, threads=[
                ThreadTask(thread_id=0, user_id=0,
                           cpu_time_fmax=cpu, tile_index=0),
            ]), hello.fps)
            for cpu in per_rung
        )
        assert cores == pytest.approx(expected)
        # Smaller rungs are cheaper, and a prefix never costs more
        # than the full ladder.
        assert per_rung == sorted(per_rung, reverse=True)
        primary_only, _, _ = controller.estimate_ladder(hello, _LADDER[:1])
        assert primary_only < cores

    def test_resolution_tags_primary_none_subrungs_height(self):
        # The pricing keys must match what the ladder sessions record
        # under, or the LUT never converges: primary pools with
        # pre-ladder statistics (resolution=None), sub-rungs key by
        # output height.
        controller = _controller()
        seen = []
        original = controller.estimator.estimate

        def spy(key, area):
            seen.append(key)
            return original(key, area)

        controller.estimator.estimate = spy
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        controller.estimate_ladder(hello, _LADDER)
        assert [k.resolution for k in seen] == [None, 96, 64]
        assert [k.area_bucket for k in seen] == [
            area_bucket(w * h) for w, h in _LADDER
        ]

    def test_empty_capacity_accepts_full_ladder(self):
        controller = _controller()
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.ACCEPT, reason
        assert kept == _LADDER
        assert "3/3 rungs" in reason

    def test_drops_low_rungs_before_shedding(self):
        controller = _controller()
        _fill(controller, [(160, 128)] * 4 + [(80, 64)] * 2)
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.ACCEPT, reason
        # Bottom rung shed, the rest admitted — and kept is a prefix
        # of the request with the primary first.
        assert kept == _LADDER[:2]
        assert "dropped 1 low rung(s)" in reason

    def test_drops_to_primary_only_under_more_load(self):
        controller = _controller()
        _fill(controller, [(160, 128)] * 5)
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.ACCEPT, reason
        assert kept == _LADDER[:1]
        assert "1/3 rungs" in reason

    def test_parks_then_rejects_when_primary_overflows(self):
        controller = _controller()
        _fill(controller, [(160, 128)] * 6)
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.PARK
        assert kept == ()
        assert "even for the primary rung" in reason
        # Waiting room (capacity 1) is now full: the next ladder is
        # shed outright.
        decision, reason, kept = controller.decide(2, hello)
        assert decision is AdmissionDecision.REJECT
        assert kept == ()

    def test_release_restores_capacity(self):
        controller = _controller()
        hello = Hello(width=160, height=128, fps=24.0, ladder=_LADDER)
        decision, _, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.ACCEPT
        occupied = controller.occupancy_cores
        assert occupied > 0
        controller.release(1)
        assert controller.occupancy_cores == 0
        decision, _, kept = controller.decide(2, hello)
        assert decision is AdmissionDecision.ACCEPT and kept == _LADDER

    def test_rejects_upscaling_ladder(self):
        controller = _controller()
        hello = Hello(width=160, height=128, fps=24.0,
                      ladder=((320, 256), (160, 128)))
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.REJECT
        assert kept == ()
        assert "never upscale" in reason

    def test_rejects_unencodable_rung_geometry(self):
        controller = _controller()
        hello = Hello(width=160, height=128, fps=24.0,
                      ladder=((160, 128), (100, 76)))
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.REJECT
        assert kept == ()
        assert f"multiples of {RUNG_MULTIPLE}" in reason

    def test_rejects_non_decreasing_ladder(self):
        controller = _controller()
        hello = Hello(width=160, height=128, fps=24.0,
                      ladder=((80, 64), (160, 128)))
        decision, reason, kept = controller.decide(1, hello)
        assert decision is AdmissionDecision.REJECT
        assert "decreasing" in reason


# ----------------------------------------------------------------------
# LUT key: the resolution dimension is backward compatible
# ----------------------------------------------------------------------

def _legacy_key_dict():
    return {
        "texture": "MEDIUM", "motion": "HIGH", "qp": 32,
        "search_window": 64, "frame_type": "P", "area_bucket": 12,
        "content_class": None,
        # no "resolution": a checkpoint written before the ladder
    }


class TestWorkloadKeyCompat:
    def test_pre_ladder_checkpoint_loads_to_resolution_none(self):
        key = WorkloadKey.from_dict(_legacy_key_dict())
        assert key.resolution is None

    def test_round_trip_with_resolution(self):
        key = WorkloadKey.from_dict({**_legacy_key_dict(), "resolution": 360})
        assert key.resolution == 360
        assert WorkloadKey.from_dict(key.to_dict()) == key

    def test_legacy_and_tagged_keys_distinct(self):
        legacy = WorkloadKey.from_dict(_legacy_key_dict())
        tagged = dataclasses.replace(legacy, resolution=240)
        assert legacy != tagged
        assert legacy == WorkloadKey.from_dict(legacy.to_dict())

    def test_generalized_preserves_resolution(self):
        key = WorkloadKey.from_dict({
            **_legacy_key_dict(), "resolution": 240,
            "content_class": ContentClass.BRAIN.value,
        })
        general = key.generalized()
        assert general.content_class is None
        assert general.resolution == 240


# ----------------------------------------------------------------------
# Protocol: rung tagging and ladder negotiation round-trips
# ----------------------------------------------------------------------

class TestLadderProtocol:
    @given(rung=st.integers(0, 255), frame_index=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_encoded_rung_round_trips_via_flags(self, rung, frame_index):
        luma = bytes(range(12)) * 2
        msg = Encoded(frame_index=frame_index, frame_type="P",
                      width=6, height=4, bits=99, psnr=31.5,
                      luma=luma, rung=rung)
        decoded, = MessageDecoder().feed(encode_message(msg))
        assert decoded.rung == rung
        assert decoded.frame_index == frame_index
        assert bytes(decoded.luma) == luma

    def test_rung_zero_wire_identical_to_pre_ladder(self):
        # A primary-rung (or pre-ladder) ENCODED must not change a
        # single wire byte, or old decoders would see new flags.
        kwargs = dict(frame_index=4, frame_type="I", width=4, height=2,
                      bits=10, psnr=30.0, luma=bytes(8))
        assert encode_message(Encoded(**kwargs)) == \
            encode_message(Encoded(**kwargs, rung=0))

    def test_hello_ladder_round_trip(self):
        hello = Hello(width=640, height=480, fps=30.0,
                      ladder=((640, 480), (320, 240)))
        decoded, = MessageDecoder().feed(encode_message(hello))
        assert decoded.ladder == ((640, 480), (320, 240))

    def test_plain_hello_has_no_ladder_key(self):
        hello = Hello(width=640, height=480)
        assert b"ladder" not in hello.payload()
        decoded, = MessageDecoder().feed(encode_message(hello))
        assert decoded.ladder is None

    def test_hello_ack_rungs_round_trip(self):
        ack = HelloAck(decision="accept", session_id=3,
                       rungs=((0, 640, 480), (2, 320, 240)))
        decoded, = MessageDecoder().feed(encode_message(ack))
        assert decoded.rungs == ((0, 640, 480), (2, 320, 240))
        plain = HelloAck(decision="accept", session_id=3)
        assert b"rungs" not in plain.payload()
