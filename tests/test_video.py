"""Tests for frames, videos, metrics, generator, and I/O."""

import numpy as np
import pytest

from repro.video.frame import Frame, Video
from repro.video.generator import (
    ContentClass,
    GeneratorConfig,
    MotionPreset,
    generate_video,
)
from repro.video import io as video_io
from repro.video.metrics import (
    LOSSLESS_PSNR_DB,
    average_psnr,
    bd_rate_proxy,
    bitrate_mbps,
    mse,
    psnr,
    psnr_from_mse,
)


class TestFrame:
    def test_construction_coerces_dtype(self):
        f = Frame(np.ones((4, 6)) * 300.7)
        assert f.luma.dtype == np.uint8
        assert f.luma.max() == 255

    def test_dimensions(self):
        f = Frame(np.zeros((48, 64), dtype=np.uint8))
        assert (f.width, f.height) == (64, 48)
        assert f.num_pixels == 64 * 48

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((2, 3, 4)))

    def test_crop(self):
        f = Frame(np.arange(24, dtype=np.uint8).reshape(4, 6))
        region = f.crop(1, 2, 3, 2)
        assert region.shape == (2, 3)
        with pytest.raises(ValueError):
            f.crop(4, 0, 3, 3)

    def test_blank(self):
        f = Frame.blank(8, 4, value=7)
        assert f.luma.shape == (4, 8)
        assert (f.luma == 7).all()

    def test_copy_is_independent(self):
        f = Frame.blank(4, 4)
        g = f.copy()
        g.luma[0, 0] = 9
        assert f.luma[0, 0] == 0


class TestVideo:
    def test_reindexes_frames(self):
        v = Video(frames=[Frame.blank(4, 4), Frame.blank(4, 4)], fps=24)
        assert [f.index for f in v] == [0, 1]

    def test_append_assigns_index(self):
        v = Video(frames=[Frame.blank(4, 4)], fps=24)
        v.append(Frame.blank(4, 4))
        assert v[1].index == 1

    def test_duration(self):
        v = Video(frames=[Frame.blank(4, 4)] * 0 or [Frame.blank(4, 4)], fps=2)
        assert v.duration_seconds == pytest.approx(0.5)

    def test_empty_video_properties_raise(self):
        v = Video(frames=[], fps=24)
        with pytest.raises(ValueError):
            _ = v.width

    def test_invalid_fps(self):
        with pytest.raises(ValueError):
            Video(frames=[], fps=0)

    def test_from_arrays(self):
        v = Video.from_arrays([np.zeros((4, 4), np.uint8)] * 3, fps=30)
        assert len(v) == 3 and v.fps == 30


class TestMetrics:
    def test_mse_zero_for_identical(self, textured_plane):
        assert mse(textured_plane, textured_plane) == 0.0

    def test_psnr_lossless_cap(self, textured_plane):
        assert psnr(textured_plane, textured_plane) == LOSSLESS_PSNR_DB

    def test_known_psnr(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 255.0)
        assert psnr(a, b) == pytest.approx(0.0)

    def test_psnr_from_mse_consistency(self, textured_plane, rng):
        noisy = np.clip(
            textured_plane + rng.normal(0, 5, textured_plane.shape), 0, 255
        )
        assert psnr(textured_plane, noisy) == pytest.approx(
            psnr_from_mse(mse(textured_plane, noisy))
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_average_psnr(self):
        assert average_psnr([30.0, 40.0]) == pytest.approx(35.0)
        with pytest.raises(ValueError):
            average_psnr([])

    def test_bitrate(self):
        # 24 frames at 24 fps = 1 second; 1e6 bits -> 1 Mbps.
        assert bitrate_mbps(10**6, 24, 24.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            bitrate_mbps(1, 0, 24)

    def test_bd_rate_proxy(self):
        assert bd_rate_proxy([110], [100]) == pytest.approx(10.0)
        assert bd_rate_proxy([90], [100]) == pytest.approx(-10.0)
        with pytest.raises(ValueError):
            bd_rate_proxy([1], [0])


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = generate_video(width=64, height=48, num_frames=3, seed=5)
        b = generate_video(width=64, height=48, num_frames=3, seed=5)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.luma, fb.luma)

    def test_different_seeds_differ(self):
        a = generate_video(width=64, height=48, num_frames=1, seed=1)
        b = generate_video(width=64, height=48, num_frames=1, seed=2)
        assert (a[0].luma != b[0].luma).any()

    def test_requested_shape(self):
        v = generate_video(width=80, height=64, num_frames=5)
        assert (v.width, v.height, len(v)) == (80, 64, 5)

    @pytest.mark.parametrize("content", list(ContentClass))
    def test_all_content_classes_render(self, content):
        v = generate_video(width=64, height=48, num_frames=2,
                           content_class=content)
        assert v[0].luma.std() > 0  # non-degenerate content

    @pytest.mark.parametrize("motion", list(MotionPreset))
    def test_all_motion_presets_render(self, motion):
        v = generate_video(width=64, height=48, num_frames=3, motion=motion)
        assert len(v) == 3

    def test_motion_actually_moves_content(self):
        v = generate_video(width=96, height=96, num_frames=5,
                           motion=MotionPreset.PAN_RIGHT, motion_magnitude=4.0,
                           noise_sigma=0.0)
        diff = np.abs(
            v[4].luma.astype(int) - v[0].luma.astype(int)
        ).mean()
        assert diff > 1.0

    def test_still_video_is_static_without_noise(self):
        v = generate_video(width=64, height=64, num_frames=3,
                           motion=MotionPreset.STILL, noise_sigma=0.0)
        np.testing.assert_array_equal(v[0].luma, v[2].luma)

    def test_center_brighter_than_border(self):
        """The anatomy concentrates in the centre (paper Fig. 1)."""
        v = generate_video(width=128, height=96, num_frames=1,
                           content_class=ContentClass.BRAIN)
        luma = v[0].luma.astype(float)
        center = luma[32:64, 48:80].mean()
        border = np.concatenate([luma[:8].ravel(), luma[-8:].ravel()]).mean()
        assert center > border + 30

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(width=0)
        with pytest.raises(ValueError):
            GeneratorConfig(noise_sigma=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(num_frames=-1)


class TestVideoIO:
    def test_npz_roundtrip(self, tmp_path, small_video):
        path = tmp_path / "vid.npz"
        video_io.save_npz(small_video, path)
        loaded = video_io.load_npz(path)
        assert len(loaded) == len(small_video)
        assert loaded.fps == small_video.fps
        assert loaded.name == small_video.name
        for a, b in zip(loaded, small_video):
            np.testing.assert_array_equal(a.luma, b.luma)

    def test_yuv_roundtrip(self, tmp_path, small_video):
        path = tmp_path / "vid.yuv"
        video_io.save_yuv400(small_video, path)
        loaded = video_io.load_yuv400(
            path, small_video.width, small_video.height, fps=24.0
        )
        assert len(loaded) == len(small_video)
        for a, b in zip(loaded, small_video):
            np.testing.assert_array_equal(a.luma, b.luma)

    def test_truncated_yuv_raises(self, tmp_path):
        path = tmp_path / "bad.yuv"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            video_io.load_yuv400(path, 16, 16)

    def test_empty_video_save_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            video_io.save_npz(Video(frames=[], fps=24), tmp_path / "x.npz")
        with pytest.raises(ValueError):
            video_io.save_yuv400(Video(frames=[], fps=24), tmp_path / "x.yuv")
