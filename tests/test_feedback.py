"""Tests for the framerate feedback (paper §III-D2): the degradation
controller capped at its first rung, as every offline pipeline runs
it."""

import math

import pytest

from repro.resilience.degradation import DegradationController, TOLERANCE
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, generate_video


def _feedback(fps: float = 24.0) -> DegradationController:
    return DegradationController(fps, PipelineConfig().resilience)


class TestFramerateFeedback:
    def test_on_time_frame_has_no_bottlenecks(self):
        fb = _feedback()
        fb.observe_frame([0.01, 0.02, 0.015])
        assert fb.bottleneck_tiles == set()
        assert fb.framerate_satisfied()

    def test_slow_tile_flagged(self):
        fb = _feedback()
        fb.observe_frame([0.01, 0.06, 0.02])  # slot = 0.0417
        assert fb.bottleneck_tiles == {1}

    def test_multiple_bottlenecks(self):
        fb = _feedback()
        fb.observe_frame([0.05, 0.06, 0.01])
        assert fb.bottleneck_tiles == {0, 1}

    def test_bottlenecks_recomputed_each_frame(self):
        fb = _feedback()
        fb.observe_frame([0.06, 0.01])
        assert fb.bottleneck_tiles == {0}
        fb.observe_frame([0.01, 0.01])
        assert fb.bottleneck_tiles == set()

    def test_debt_accumulates_and_drains(self):
        """Over-utilisation is compensated by under-utilisation of the
        next frames (the paper's rolling one-second budget)."""
        fb = _feedback()
        fb.observe_frame([0.0617])  # 0.02 over
        assert fb.debt_seconds == pytest.approx(0.02, abs=1e-4)
        assert not fb.framerate_satisfied()
        fb.observe_frame([0.0317])  # 0.01 under
        assert fb.debt_seconds == pytest.approx(0.01, abs=1e-4)
        fb.observe_frame([0.0217])  # drains fully
        assert fb.framerate_satisfied()

    def test_tolerance_suppresses_marginal_flags(self):
        assert TOLERANCE == 0.05
        fb = _feedback()
        missed = fb.observe_frame([1.04 / 24.0])  # 4% over the slot
        assert not missed
        assert fb.bottleneck_tiles == set()
        assert fb.observe_frame([1.06 / 24.0])  # 6% over: a miss
        assert fb.bottleneck_tiles == {0}

    def test_lighter_configuration_is_the_papers_single_rule(self):
        """Capped at its first rung, the ladder only ever lightens the
        bottleneck tiles: QP + ΔQP and a halved window, and nothing
        else, however long the pressure lasts."""
        fb = _feedback()
        for _ in range(10):
            fb.observe_frame([0.5, 0.01])
            assert fb.adjust_tile(30, 64, True, 42, 5) == (35, 32)
            assert fb.adjust_tile(30, 64, False, 42, 5) == (30, 64)
            assert not fb.merge_tiles
            assert not fb.should_drop_frame()

    def test_reset(self):
        fb = _feedback()
        fb.observe_frame([0.9])
        fb.reset()
        assert fb.framerate_satisfied()
        assert fb.bottleneck_tiles == set()

    def test_validation(self):
        for fps in (0.0, -24.0, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match="fps must be finite and positive"):
                _feedback(fps)
        fb = _feedback()
        with pytest.raises(ValueError):
            fb.observe_frame([])

    def test_pipeline_refuses_non_finite_fps_before_encoding(self):
        video = generate_video(ContentClass.BRAIN, width=64, height=64,
                               num_frames=2, seed=1)
        for fps in (0.0, -24.0, math.nan, math.inf):
            transcoder = StreamTranscoder(PipelineConfig(fps=fps))
            with pytest.raises(ValueError,
                               match="fps must be finite and positive"):
                transcoder.open_session()
            with pytest.raises(ValueError,
                               match="fps must be finite and positive"):
                transcoder.run(video)
