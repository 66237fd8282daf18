"""Tests for the end-to-end per-stream transcoding pipeline (Fig. 2)."""

import dataclasses
import os

import numpy as np
import pytest

from repro import native
from repro.codec.config import FrameType, GopConfig
from repro.qp.defaults import QP_MAX, QP_MIN
from repro.transcode.pipeline import (
    PipelineConfig,
    PipelineMode,
    StreamTranscoder,
)
from repro.video.frame import Video
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


@pytest.fixture(scope="module")
def test_video():
    cfg = GeneratorConfig(
        width=160, height=128, num_frames=16, seed=11,
        content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        motion_magnitude=2.0,
    )
    return BioMedicalVideoGenerator(cfg).generate()


@pytest.fixture(scope="module")
def proposed_trace(test_video):
    return StreamTranscoder(PipelineConfig()).run(test_video)


@pytest.fixture(scope="module")
def khan_trace(test_video):
    return StreamTranscoder(PipelineConfig.khan()).run(test_video)


class TestProposedPipeline:
    def test_one_gop_record_per_gop(self, proposed_trace, test_video):
        assert len(proposed_trace.gops) == 2  # 16 frames / GOP 8

    def test_every_frame_recorded(self, proposed_trace, test_video):
        assert len(proposed_trace.frame_records) == len(test_video)

    def test_gop_leading_frames_are_intra(self, proposed_trace):
        for gop in proposed_trace.gops:
            assert gop.frames[0].frame_type is FrameType.I
            for f in gop.frames[1:]:
                assert f.frame_type is FrameType.P

    def test_tile_records_match_grid(self, proposed_trace):
        for gop in proposed_trace.gops:
            for frame in gop.frames:
                assert len(frame.tiles) == len(gop.grid)

    def test_tile_records_are_slotted(self, proposed_trace):
        # A session keeps one per tile of every frame: no per-record
        # dict, and every field has its slot.
        record = proposed_trace.frame_records[0].tiles[0]
        assert not hasattr(record, "__dict__")
        assert set(record.__slots__) == set(dataclasses.asdict(record))

    def test_qps_stay_in_paper_ladder_range(self, proposed_trace):
        for frame in proposed_trace.frame_records:
            for t in frame.tiles:
                assert QP_MIN <= t.qp <= QP_MAX

    def test_cpu_times_positive(self, proposed_trace):
        for frame in proposed_trace.frame_records:
            for t in frame.tiles:
                assert t.cpu_time_fmax > 0

    def test_threads_built_from_mean_times(self, proposed_trace):
        gop = proposed_trace.steady_state_gop()
        threads = gop.threads(user_id=3)
        means = gop.mean_tile_cpu_times()
        assert len(threads) == len(gop.grid)
        for thread, mean in zip(threads, means):
            assert thread.user_id == 3
            assert thread.cpu_time_fmax == pytest.approx(mean)

    def test_quality_metrics_sane(self, proposed_trace):
        assert 25 < proposed_trace.average_psnr < 100
        assert proposed_trace.min_psnr <= proposed_trace.average_psnr
        assert proposed_trace.average_psnr <= proposed_trace.max_psnr
        assert proposed_trace.bitrate_mbps > 0

    def test_workload_lut_gets_trained(self, test_video):
        transcoder = StreamTranscoder(PipelineConfig())
        transcoder.run(test_video)
        assert len(transcoder.estimator.lut) > 0

    def test_empty_video_rejected(self):
        with pytest.raises(ValueError):
            StreamTranscoder(PipelineConfig()).run(Video(frames=[], fps=24))


class TestKhanPipeline:
    def test_capacity_rule_sets_tile_count(self, khan_trace):
        """After the probe GOP, the tile count follows ceil(W * FPS)."""
        first = khan_trace.gops[0]
        steady = khan_trace.steady_state_gop()
        frame_time = np.mean([f.cpu_time_fmax for f in first.frames])
        expected = max(1, int(np.ceil(frame_time * 24.0)))
        assert len(steady.grid) == expected

    def test_single_qp_everywhere(self, khan_trace):
        qps = {
            t.qp for f in khan_trace.frame_records for t in f.tiles
        }
        assert qps == {32}

    def test_khan_workload_exceeds_proposed(self, proposed_trace, khan_trace):
        """The content-aware pipeline spends fewer CPU seconds per
        frame than the baseline — the source of every headline gain."""
        prop = np.mean([f.cpu_time_fmax for f in proposed_trace.frame_records])
        khan = np.mean([f.cpu_time_fmax for f in khan_trace.frame_records])
        assert prop < khan

    def test_comparable_quality(self, proposed_trace, khan_trace):
        """Content-aware savings must not cost meaningful quality
        (paper: both approaches deliver ~40.5 dB)."""
        assert abs(proposed_trace.average_psnr - khan_trace.average_psnr) < 2.0


class TestPipelineConfig:
    def test_khan_factory_defaults(self):
        cfg = PipelineConfig.khan()
        assert cfg.mode is PipelineMode.KHAN
        assert cfg.base_config.search == "hexagon"

    def test_khan_factory_overrides(self):
        cfg = PipelineConfig.khan(fps=30.0, gop=GopConfig(4))
        assert cfg.fps == 30.0
        assert cfg.gop.size == 4

    def test_default_is_proposed(self):
        assert PipelineConfig().mode is PipelineMode.PROPOSED
        assert PipelineConfig().gop.size == 8


class TestPlannedRouteAndItsFallbacks:
    """The proposed pipeline encodes over a per-GOP plan whose driver
    table takes frames on contiguous planes; what the table cannot take
    goes the config/hook-spec way — and either way the trace is the one
    a run without the compiled kernels produces."""

    @staticmethod
    def _digest(trace):
        return [
            (f.frame_index, f.frame_type,
             [(t.bits, t.psnr, t.qp, t.search_window, t.cpu_time_fmax,
               t.texture, t.motion) for t in f.tiles])
            for f in trace.frame_records
        ]

    def test_trace_identical_without_native(self, test_video, monkeypatch):
        config = PipelineConfig(content_class=ContentClass.BRAIN)
        video = Video(test_video.frames[:8], fps=test_video.fps)
        with_driver = StreamTranscoder(config).run(video)
        monkeypatch.setattr(native, "lib", None)
        without = StreamTranscoder(config).run(video)
        assert self._digest(with_driver) == self._digest(without)

    def test_a_strided_plane_takes_the_fallback(self, test_video):
        """A frame whose rows are not contiguous cannot go through the
        table; it encodes to what its contiguous copy encodes to."""
        from repro.video.frame import Frame

        config = PipelineConfig(content_class=ContentClass.BRAIN)
        frames = test_video.frames[:8]
        padded = [np.zeros((f.luma.shape[0], f.luma.shape[1] + 16),
                           dtype=np.uint8) for f in frames]
        strided = []
        for pad, f in zip(padded, frames):
            pad[:, :-16] = f.luma
            strided.append(Frame(pad[:, :-16], index=f.index))
        assert not strided[0].luma.flags.c_contiguous
        want = StreamTranscoder(config).run(Video(frames, fps=24.0))
        got = StreamTranscoder(config).run(Video(strided, fps=24.0))
        assert self._digest(got) == self._digest(want)


# ----------------------------------------------------------------------
# Sessions on concurrent threads (the serving layer's encode pool)
# ----------------------------------------------------------------------
def _session_video(seed, content, width=128, height=96, frames=10):
    cfg = GeneratorConfig(
        width=width, height=height, num_frames=frames, seed=seed,
        content_class=content, motion=MotionPreset.PAN_RIGHT,
        motion_magnitude=2.0,
    )
    return BioMedicalVideoGenerator(cfg).generate()


def _run_session(video):
    """Push a video through a fresh session; digest of every output."""
    import zlib

    session = StreamTranscoder(PipelineConfig(fps=24.0)).open_session()
    outputs = []
    for frame in video.frames:
        outputs += session.push(frame)
    outputs += session.finish()
    return [
        (o.frame_index, o.frame_type, zlib.crc32(o.reconstruction),
         [(t.bits, t.psnr, t.qp, t.search_window, t.cpu_time_fmax)
          for t in o.record.tiles])
        for o in outputs
    ]


def _run_concurrently(videos, timeout=120.0):
    import threading

    results = [None] * len(videos)
    barrier = threading.Barrier(len(videos))

    def worker(i):
        barrier.wait(timeout)
        results[i] = _run_session(videos[i])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(videos))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive()
    return results


def _assert_concurrent_equals_serial(width, height):
    """Four sessions (two videos, twice each) pushed from four threads
    at once at a 10 us switch interval: each trace equals the serial
    one."""
    import sys

    if not native.available():
        pytest.skip("native kernels unavailable")
    videos = [
        _session_video(11, ContentClass.BRAIN, width, height),
        _session_video(12, ContentClass.CARDIAC, width, height),
    ] * 2
    serial = [_run_session(v) for v in videos]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        concurrent = _run_concurrently(videos)
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def test_concurrent_sessions_bit_identical_to_serial():
    """Sessions pushed from several threads at once (more threads than
    cores, aggressive switching) produce exactly their serial traces:
    the tile driver's scratch and motion cache are per thread, and the
    policy state crosses the GIL-free call only as data."""
    _assert_concurrent_equals_serial(128, 96)


def test_concurrent_vga_sessions_race_for_the_helpers():
    """The same at 640x480, where every frame is large enough to split:
    four callers race for the driver's helper threads, and a frame
    whose tiles a helper ran (or was refused, because every core had a
    frame) is still its serial self."""
    _assert_concurrent_equals_serial(640, 480)


def test_a_split_frame_names_its_threads_on_its_span():
    """A VGA frame whose tiles helper threads ran says how many threads
    it took on its ``pipeline.frame`` span; a serial frame's span has
    no ``threads`` (so the 96x80 golden trace is unchanged)."""
    from repro.observability import scoped

    if not native.available():
        pytest.skip("native kernels unavailable")
    cpus = len(os.sched_getaffinity(0))
    video = _session_video(13, ContentClass.BRAIN, 640, 480, 48)
    with scoped() as (_, tracer):
        tracer.enable()
        _run_session(video)
        spans = [r for r in tracer.records() if r.name == "pipeline.frame"]
    assert len(spans) == len(video)
    split = [r.attrs["threads"] for r in spans if "threads" in r.attrs]
    assert all(2 <= n <= cpus for n in split)
    if cpus >= 2:
        assert split, "no VGA frame of 48 reached a helper thread"


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
@pytest.mark.xfail(
    strict=False,
    reason="the one-call-per-frame design's target; re-measured with the "
           "frame split (a 320x240 "
           "frame's tiles take the idle core) on a 2-vCPU KVM guest, "
           "10 runs a side, 0/10 passes (parent 2/10): solo 0.016-0.025 s "
           "(median 0.017; parent 0.020-0.030, median 0.020), duo "
           "0.028-0.041 s (median 0.035, as the parent's), ratio 1.50-2.26 "
           "(median 2.00; parent 0.94-2.11, median 1.75).  The solo side "
           "now uses both cores, and two sessions leave no core idle to "
           "split onto, so the ratio grew; the GIL-held Python above the "
           "codec stays serial across sessions, and the guest's second "
           "vCPU comes and goes",
)
def test_two_sessions_scale_across_cores():
    """Two concurrent 320x240 sessions finish in < 1.4x the wall time
    of one: the encode runs GIL-free, one native call per frame."""
    import time

    if not native.available():
        pytest.skip("native kernels unavailable")
    videos = [
        _session_video(21, ContentClass.BRAIN, 320, 240, 32),
        _session_video(22, ContentClass.BONE, 320, 240, 32),
    ]
    _run_session(videos[0])  # warm the classifier, caches, scratch

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    # Best of a few: a shared machine can take a core away mid-run.
    solo = min(timed(lambda: _run_session(videos[0])) for _ in range(3))
    duo = min(timed(lambda: _run_concurrently(videos)) for _ in range(5))
    assert duo < 1.4 * solo, f"solo {solo:.3f} s, duo {duo:.3f} s"
