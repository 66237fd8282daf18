"""Tests for the end-to-end per-stream transcoding pipeline (Fig. 2)."""

import numpy as np
import pytest

from repro.codec.config import EncoderConfig, FrameType, GopConfig
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

    def test_explicit_core_count_respected(self, test_video):
        config = PipelineConfig.khan(khan_cores=4)
        trace = StreamTranscoder(config).run(test_video)
        for gop in trace.gops:
            assert len(gop.grid) == 4

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
        cfg = PipelineConfig.khan(fps=30.0, khan_cores=3)
        assert cfg.fps == 30.0
        assert cfg.khan_cores == 3

    def test_default_is_proposed(self):
        assert PipelineConfig().mode is PipelineMode.PROPOSED
        assert PipelineConfig().gop.size == 8


class TestPlannedRouteAndItsFallbacks:
    """The proposed pipeline encodes over a per-GOP plan whose driver
    table takes I and integer-pel P frames on contiguous planes; what
    the table cannot take goes the config/hook-spec way — and either
    way the trace is the one a run without the compiled kernels
    produces."""

    @staticmethod
    def _digest(trace):
        return [
            (f.frame_index, f.frame_type,
             [(t.bits, t.psnr, t.qp, t.search_window, t.cpu_time_fmax,
               t.texture, t.motion) for t in f.tiles])
            for f in trace.frame_records
        ]

    @pytest.mark.parametrize("config", [
        PipelineConfig(content_class=ContentClass.BRAIN),
        PipelineConfig(content_class=ContentClass.BRAIN,
                       gop=GopConfig(4, use_b_frames=True)),
        PipelineConfig(content_class=ContentClass.BRAIN,
                       base_config=EncoderConfig(
                           qp=32, search="hexagon", search_window=64,
                           half_pel=True)),
        PipelineConfig(content_class=ContentClass.BRAIN,
                       retile_per_gop=False),
    ], ids=["i+p", "b-frames", "half-pel", "retile-per-frame"])
    def test_trace_identical_without_native(self, config, test_video,
                                            monkeypatch):
        from repro import native

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
