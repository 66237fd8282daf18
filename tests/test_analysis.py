"""Tests for texture and motion content analysis (paper §III-A)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.evaluator import ContentEvaluator
from repro.analysis.motion_probe import (
    MotionClass,
    MotionProbe,
    MotionProbeConfig,
)
from repro.analysis.texture import (
    TextureClass,
    TextureThresholds,
    classify_texture,
    coefficient_of_variation,
)
from repro.tiling.content_aware import ContentAwareRetiler
from repro.tiling.uniform import uniform_tiling


class TestCoefficientOfVariation:
    def test_constant_region_has_zero_cv(self):
        assert coefficient_of_variation(np.full((8, 8), 100)) == 0.0

    def test_all_black_region_is_zero(self):
        assert coefficient_of_variation(np.zeros((8, 8))) == 0.0

    def test_known_value(self):
        samples = np.array([50.0, 150.0])  # mean 100, std 50
        assert coefficient_of_variation(samples) == pytest.approx(0.5)

    def test_scale_invariance(self, rng):
        """CV is invariant to multiplicative scaling."""
        samples = rng.uniform(50, 200, size=100)
        assert coefficient_of_variation(samples * 2) == pytest.approx(
            coefficient_of_variation(samples)
        )

    def test_empty_region_raises(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([]))


class TestTextureClassification:
    def test_flat_bright_region_is_low(self):
        assert classify_texture(np.full((16, 16), 180)) is TextureClass.LOW

    def test_dark_region_is_low_regardless_of_cv(self, rng):
        """Near-black regions short-circuit to LOW (the CV denominator
        guard): high relative variance of noise on black borders must
        not read as texture."""
        dark = rng.integers(0, 30, size=(16, 16)).astype(np.uint8)
        assert classify_texture(dark) is TextureClass.LOW

    def test_high_contrast_region_is_high(self):
        region = np.zeros((16, 16)) + 60
        region[::2] = 250
        assert classify_texture(region) is TextureClass.HIGH

    def test_threshold_boundaries(self):
        th = TextureThresholds(low=0.2, high=0.5, dark_mean=0.0)
        # Construct regions with precise CVs.
        low = np.array([90.0, 110.0] * 8)    # cv = 0.1
        med = np.array([60.0, 140.0] * 8)    # cv = 0.4
        high = np.array([20.0, 180.0] * 8)   # cv = 0.8
        assert classify_texture(low, th) is TextureClass.LOW
        assert classify_texture(med, th) is TextureClass.MEDIUM
        assert classify_texture(high, th) is TextureClass.HIGH

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            TextureThresholds(low=0.7, high=0.3)
        with pytest.raises(ValueError):
            TextureThresholds(dark_mean=-1)

    @given(st.floats(min_value=1.0, max_value=250.0))
    @settings(max_examples=30, deadline=None)
    def test_constant_regions_always_low(self, value):
        region = np.full((8, 8), value)
        assert classify_texture(region) is TextureClass.LOW


class TestMotionProbe:
    def test_identical_frames_no_motion(self, textured_plane):
        probe = MotionProbe()
        assert probe.score(textured_plane, textured_plane) == 0.0
        assert probe.classify(textured_plane, textured_plane) is MotionClass.LOW

    def test_probe_points_structure(self, textured_plane):
        probe = MotionProbe()
        points = probe.probe_points(textured_plane)
        h, w = textured_plane.shape
        assert points[:4] == ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1))
        assert points[4] == (h // 2, w // 2)
        # The max point is where the region is maximal.
        my, mx = points[5]
        assert textured_plane[my, mx] == textured_plane.max()

    def test_center_change_scores_beta(self):
        """Only the centre pixel differs: the score is exactly beta."""
        cfg = MotionProbeConfig(patch_radius=0)
        current = np.full((17, 17), 100, dtype=np.uint8)
        current[0, 0] = 200  # pin the max point to the first corner
        previous = current.copy()
        previous[8, 8] = 30  # change only the centre
        score = MotionProbe(cfg).score(current, previous)
        assert score == pytest.approx(cfg.beta)

    def test_corner_changes_score_alpha_each(self):
        cfg = MotionProbeConfig(patch_radius=0)
        current = np.full((17, 17), 100, dtype=np.uint8)
        current[8, 8] = 220  # pin the max point to the centre
        previous = current.copy()
        previous[0, 0] = 10
        previous[16, 16] = 10  # two corners differ
        score = MotionProbe(cfg).score(current, previous)
        assert score == pytest.approx(2 * cfg.alpha)

    def test_full_frame_shift_is_high_motion(self, rng):
        """A rigid shift of sharply textured content probes HIGH: the
        centre and max-point comparisons alone reach the threshold."""
        base = rng.integers(40, 220, size=(64, 64)).astype(np.uint8)
        shifted = np.roll(base, shift=3, axis=1)
        probe = MotionProbe(MotionProbeConfig(patch_radius=0))
        assert probe.classify(shifted, base) is MotionClass.HIGH

    def test_static_noise_is_low_motion(self, rng):
        """Sensor noise alone must not read as motion (patch averaging)."""
        base = np.full((64, 64), 120.0)
        a = np.clip(base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8)
        b = np.clip(base + rng.normal(0, 2, base.shape), 0, 255).astype(np.uint8)
        assert MotionProbe().classify(a, b) is MotionClass.LOW

    def test_shape_mismatch_raises(self):
        probe = MotionProbe()
        with pytest.raises(ValueError):
            probe.score(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MotionProbeConfig(alpha=-1)
        with pytest.raises(ValueError):
            MotionProbeConfig(pixel_tolerance=-2)
        with pytest.raises(ValueError):
            MotionProbeConfig(patch_radius=-1)

    def test_paper_coefficients_default(self):
        cfg = MotionProbeConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma) == (1.0, 3.0, 3.0)
        assert cfg.threshold == 3.0

    def test_paper_coefficients_flag_no_more_high_tiles_than_uniform(
            self, panning_qvga):
        # Why (1, 3, 3): medical information concentrates centrally, so
        # at the same threshold the centre-weighted probe is more
        # selective than a uniform (1, 1, 1) one — a tile goes HIGH
        # when its relevant points move, not when 3 of 4 border corners
        # flicker — while still catching the content motion.  Every
        # HIGH tile costs a bigger search window downstream.
        def high_tiles(config):
            retiler = ContentAwareRetiler(
                evaluator=ContentEvaluator(motion_config=config))
            frames = panning_qvga.frames
            return sum(
                content.motion is MotionClass.HIGH
                for prev, cur in zip(frames, frames[1:])
                for content in retiler.retile(cur.luma, prev.luma).contents
            )

        paper = high_tiles(MotionProbeConfig())
        assert 0 < paper <= high_tiles(MotionProbeConfig(beta=1.0, gamma=1.0))


class TestContentEvaluator:
    def test_first_frame_has_no_motion(self, vga_frame_pair):
        _, cur = vga_frame_pair
        grid = uniform_tiling(640, 480, 2, 2)
        contents = ContentEvaluator().evaluate(grid, cur, None)
        assert all(c.motion is MotionClass.LOW for c in contents)
        assert len(contents) == 4

    def test_center_motion_propagates_to_textured_tiles(self, vga_frame_pair):
        prev, cur = vga_frame_pair
        grid = uniform_tiling(640, 480, 4, 4)
        evaluator = ContentEvaluator(shared_motion=True)
        contents = evaluator.evaluate(grid, cur, prev)
        textured = [c for c in contents if c.texture is not TextureClass.LOW]
        if textured:
            # All textured tiles share the central tile's motion class.
            assert len({c.motion for c in textured}) == 1

    def test_no_propagation_when_disabled(self, vga_frame_pair):
        prev, cur = vga_frame_pair
        grid = uniform_tiling(640, 480, 4, 4)
        with_prop = ContentEvaluator(shared_motion=True).evaluate(grid, cur, prev)
        without = ContentEvaluator(shared_motion=False).evaluate(grid, cur, prev)
        assert len(with_prop) == len(without)

    def test_tile_content_records_cv_and_score(self, vga_frame_pair):
        prev, cur = vga_frame_pair
        grid = uniform_tiling(640, 480, 2, 2)
        contents = ContentEvaluator().evaluate(grid, cur, prev)
        for c in contents:
            assert c.cv >= 0
            assert c.motion_score >= 0
