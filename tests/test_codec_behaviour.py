"""Behavioural codec tests: rate/quality monotonicity, op accounting,
frame structure."""

import numpy as np
import pytest

from repro.codec.config import EncoderConfig, FrameType, GopConfig
from repro.codec.encoder import FrameEncoder, VideoEncoder, reconstruct_block
from repro.codec.ops import OpCounts
from repro.codec.quant import quantization_step
from repro.codec.transform import forward_dct
from repro.codec.quant import quantize
from repro.tiling.tile import TileGrid
from repro.tiling.uniform import uniform_tiling


class TestRateDistortion:
    def test_psnr_decreases_with_qp(self, small_video):
        psnrs = []
        for qp in (22, 32, 42):
            stats = VideoEncoder(EncoderConfig(qp=qp, search_window=8)).encode(
                small_video
            )
            psnrs.append(stats.average_psnr)
        assert psnrs[0] > psnrs[1] > psnrs[2]

    def test_bits_decrease_with_qp(self, small_video):
        bits = []
        for qp in (22, 32, 42):
            stats = VideoEncoder(EncoderConfig(qp=qp, search_window=8)).encode(
                small_video
            )
            bits.append(stats.total_bits)
        assert bits[0] > bits[1] > bits[2]

    def test_p_frames_cheaper_than_i_frames(self, small_video):
        stats = VideoEncoder(
            EncoderConfig(qp=32, search_window=8), GopConfig(8)
        ).encode(small_video)
        i_bits = [f.bits for f in stats.frames if f.frame_type is FrameType.I]
        p_bits = [f.bits for f in stats.frames if f.frame_type is FrameType.P]
        assert np.mean(p_bits) < np.mean(i_bits)

    def test_reconstruction_quality_reasonable(self, small_video):
        stats = VideoEncoder(EncoderConfig(qp=27, search_window=8)).encode(
            small_video
        )
        assert stats.average_psnr > 33.0


class TestOpAccounting:
    def test_ops_accumulate(self):
        a = OpCounts(sad_pixel_ops=5, transform_blocks=1)
        b = OpCounts(sad_pixel_ops=2, entropy_bits=10)
        c = a + b
        assert c.sad_pixel_ops == 7
        assert c.transform_blocks == 1
        assert c.entropy_bits == 10
        a += b
        assert a.sad_pixel_ops == 7

    def test_intra_frames_have_no_me_ops(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        stats, _ = FrameEncoder().encode(
            small_video[0].luma, grid, [EncoderConfig(qp=32)], FrameType.I
        )
        assert stats.ops.sad_pixel_ops == 0
        assert stats.ops.me_candidates == 0

    def test_p_frames_do_motion_search(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        enc = FrameEncoder()
        cfg = [EncoderConfig(qp=32, search_window=8)]
        _, recon = enc.encode(small_video[0].luma, grid, cfg, FrameType.I)
        stats, _ = enc.encode(
            small_video[1].luma, grid, cfg, FrameType.P, reference=recon
        )
        assert stats.ops.sad_pixel_ops > 0
        assert stats.ops.me_candidates > 0

    def test_larger_window_costs_more_sad_for_full_search(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        enc = FrameEncoder()
        costs = []
        for window in (2, 4):
            cfg = [EncoderConfig(qp=32, search="full", search_window=window)]
            _, recon = enc.encode(small_video[0].luma, grid, cfg, FrameType.I)
            stats, _ = enc.encode(
                small_video[1].luma, grid, cfg, FrameType.P, reference=recon
            )
            costs.append(stats.ops.sad_pixel_ops)
        assert costs[1] > costs[0]

    def test_flat_content_skips_transforms(self):
        """The zero-block early skip: perfectly predicted content needs
        no transforms (flat 128 frame = the no-reference DC default)."""
        flat = np.full((32, 32), 128, dtype=np.uint8)
        grid = TileGrid.single(32, 32)
        stats, recon = FrameEncoder().encode(
            flat, grid, [EncoderConfig(qp=37)], FrameType.I
        )
        assert stats.ops.transform_blocks == 0
        np.testing.assert_array_equal(recon, flat)

    def test_flat_nonpredictable_first_block_still_transforms(self):
        """A flat frame away from the DC default pays for the first
        block, then propagates losslessly via DC prediction."""
        flat = np.full((32, 32), 90, dtype=np.uint8)
        grid = TileGrid.single(32, 32)
        stats, recon = FrameEncoder().encode(
            flat, grid, [EncoderConfig(qp=22)], FrameType.I
        )
        assert stats.ops.transform_blocks > 0
        assert stats.psnr > 40


class TestZeroBlockSkipEquivalence:
    def test_skip_threshold_is_safe(self, rng):
        """Any sub-block skipped by the SAD < 3*Qstep rule would have
        quantized to all zeros anyway."""
        qp = 32
        step = quantization_step(qp)
        for _ in range(50):
            res = rng.uniform(-1, 1, size=(8, 8))
            res *= (3.0 * step - 1e-6) / max(np.abs(res).sum(), 1e-12)
            assert np.abs(res).sum() < 3 * step
            levels = quantize(forward_dct(res[None]), qp)
            assert not levels.any()


class TestReconstructBlock:
    def test_zero_levels_returns_rounded_prediction(self):
        pred = np.full((8, 8), 100.4)
        recon = reconstruct_block(pred, np.zeros((1, 8, 8), dtype=np.int32), 30)
        assert recon.dtype == np.uint8
        np.testing.assert_array_equal(recon, np.full((8, 8), 100, np.uint8))

    def test_clipping_to_valid_range(self):
        pred = np.full((8, 8), 300.0)
        recon = reconstruct_block(pred, np.zeros((1, 8, 8), dtype=np.int32), 30)
        np.testing.assert_array_equal(recon, np.full((8, 8), 255, np.uint8))


class TestEncoderValidation:
    def test_p_frame_without_reference_raises(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        with pytest.raises(ValueError):
            FrameEncoder().encode(
                small_video[0].luma, grid, [EncoderConfig()], FrameType.P
            )

    def test_config_count_mismatch_raises(self, small_video):
        grid = uniform_tiling(small_video.width, small_video.height, 2, 1, align=16)
        with pytest.raises(ValueError):
            FrameEncoder().encode(
                small_video[0].luma, grid, [EncoderConfig()], FrameType.I
            )

    def test_frame_shape_mismatch_raises(self, small_video):
        grid = TileGrid.single(32, 32)
        with pytest.raises(ValueError):
            FrameEncoder().encode(
                small_video[0].luma, grid, [EncoderConfig()], FrameType.I
            )

    def test_empty_video_raises(self):
        from repro.video.frame import Video
        with pytest.raises(ValueError):
            VideoEncoder(EncoderConfig()).encode(Video(frames=[], fps=24))

    def test_invalid_qp_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(qp=60)

    def test_invalid_search_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(search="warp_drive")

    def test_gop_structure(self):
        gop = GopConfig(8)
        assert gop.frame_type(0) is FrameType.I
        assert gop.frame_type(7) is FrameType.P
        assert gop.frame_type(8) is FrameType.I
        assert gop.position_in_gop(11) == 3
        assert gop.is_gop_start(16)
        with pytest.raises(ValueError):
            GopConfig(0)
