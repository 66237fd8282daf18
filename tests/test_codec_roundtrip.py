"""Encoder/decoder round-trip tests: the bitstream written by the
encoder decodes to exactly the encoder-side reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.motion_probe import MotionClass
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.config import EncoderConfig, FrameType, GopConfig
from repro.codec.decoder import FrameDecoder
from repro.codec.encoder import FrameEncoder
from repro.motion.proposed import TileHookSpec
from repro.observability import scoped
from repro.tiling.tile import TileGrid
from repro.tiling.uniform import uniform_tiling
from tests.conftest import native_forbidden


def _encode_decode(frames, grid, configs):
    """Encode a frame list; decode the stream; return both recon lists."""
    encoder = FrameEncoder()
    decoder = FrameDecoder()
    writer = BitWriter()
    enc_recons = []
    reference = None
    gop = GopConfig(8)
    for i, frame in enumerate(frames):
        ftype = gop.frame_type(i)
        stats, recon = encoder.encode(
            frame, grid, configs, ftype, reference=reference,
            frame_index=i, writer=writer,
        )
        enc_recons.append(recon)
        reference = recon
    reader = BitReader(writer.flush())
    dec_recons = []
    reference = None
    for _ in frames:
        recon = decoder.decode(reader, grid, configs, reference=reference)
        dec_recons.append(recon)
        reference = recon
    return enc_recons, dec_recons


class TestRoundTrip:
    def test_single_intra_frame(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        configs = [EncoderConfig(qp=30)]
        enc, dec = _encode_decode([small_video[0].luma], grid, configs)
        np.testing.assert_array_equal(enc[0], dec[0])

    def test_ip_sequence(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        configs = [EncoderConfig(qp=32, search="hexagon", search_window=16)]
        frames = [f.luma for f in small_video.frames[:4]]
        enc, dec = _encode_decode(frames, grid, configs)
        for e, d in zip(enc, dec):
            np.testing.assert_array_equal(e, d)

    def test_tiled_frames(self, small_video):
        grid = uniform_tiling(small_video.width, small_video.height, 2, 2, align=16)
        configs = [EncoderConfig(qp=q) for q in (22, 32, 37, 42)]
        frames = [f.luma for f in small_video.frames[:3]]
        enc, dec = _encode_decode(frames, grid, configs)
        for e, d in zip(enc, dec):
            np.testing.assert_array_equal(e, d)

    def test_different_search_algorithms_decode_identically(self, small_video):
        """The decoder has no knowledge of the search algorithm: any
        encoder choice must produce a decodable stream."""
        grid = TileGrid.single(small_video.width, small_video.height)
        frames = [f.luma for f in small_video.frames[:3]]
        for search in ("full", "tz", "cross", "one_at_a_time",
                       "hexagon_rotating"):
            configs = [EncoderConfig(qp=34, search=search, search_window=8)]
            enc, dec = _encode_decode(frames, grid, configs)
            for e, d in zip(enc, dec):
                np.testing.assert_array_equal(e, d)

    def test_bit_count_matches_stream_length(self, small_video):
        """Counting mode reports exactly the bits the writer produces."""
        grid = uniform_tiling(small_video.width, small_video.height, 2, 1, align=16)
        configs = [EncoderConfig(qp=30)] * 2
        encoder = FrameEncoder()
        writer = BitWriter()
        stats, _ = encoder.encode(
            small_video[0].luma, grid, configs, FrameType.I, writer=writer,
        )
        # +2 frame-type bits, which FrameStats does not include.
        assert writer.bits_written == stats.bits + 2

    def test_decoder_rejects_p_frame_without_reference(self, small_video):
        grid = TileGrid.single(small_video.width, small_video.height)
        configs = [EncoderConfig(qp=30)]
        encoder = FrameEncoder()
        writer = BitWriter()
        _, recon = encoder.encode(
            small_video[0].luma, grid, configs, FrameType.I, writer=writer
        )
        encoder.encode(
            small_video[1].luma, grid, configs, FrameType.P,
            reference=recon, writer=writer,
        )
        data = writer.flush()
        decoder = FrameDecoder()
        reader = BitReader(data)
        decoder.decode(reader, grid, configs)  # I frame fine
        with pytest.raises(ValueError):
            decoder.decode(reader, grid, configs)  # P without reference

    @pytest.mark.parametrize("code", [2, 3])
    def test_decoder_rejects_frame_types_outside_the_grammar(
            self, code, small_video):
        """The two-bit frame header spells I (0) and P (1) only; a stream
        that opens with 2 or 3 — a B frame of the former grammar, or
        garbage — is a typed error with a reference at hand or without,
        never a ``KeyError`` and never a decode."""
        grid = TileGrid.single(small_video.width, small_video.height)
        configs = [EncoderConfig(qp=30)]
        writer = BitWriter()
        FrameEncoder().encode(small_video[0].luma, grid, configs,
                              FrameType.I, writer=writer)
        stream = bytearray(writer.flush())
        assert stream[0] >> 6 == 0  # the I frame's own code
        stream[0] |= code << 6
        for reference in (None, small_video[0].luma):
            with pytest.raises(ValueError, match=f"frame-type code {code}"):
                FrameDecoder().decode(BitReader(bytes(stream)), grid, configs,
                                      reference=reference)

    def test_decoder_rejects_mismatched_configs(self, small_video):
        grid = uniform_tiling(small_video.width, small_video.height, 2, 1, align=16)
        with pytest.raises(ValueError):
            FrameDecoder().decode(BitReader(b"\x00"), grid, [EncoderConfig()])


class TestTileDriverStreamsDecode:
    """The decoder is a second implementation of the syntax (Python
    parse + ``reconstruct_block``), not a second run of the encoder: a
    stream emitted by the native tile driver must decode to the
    driver's own reconstruction."""

    @settings(max_examples=25, deadline=None)
    @given(
        cols=st.integers(1, 3), rows=st.integers(1, 3),
        qps=st.lists(st.sampled_from([22, 32, 42]), min_size=9, max_size=9),
        motion=st.sampled_from(list(MotionClass)),
        window=st.sampled_from([8, 16, 32, 64]),
        predictor=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        seed=st.integers(0, 2**16),
    )
    def test_policy_driven_gop_decodes(self, cols, rows, qps, motion, window,
                                       predictor, seed):
        from repro import native

        if not native.available():
            pytest.skip("native kernels unavailable")
        width, height = 48 * cols + 16, 32 * rows + 8
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 256, (height + 8, width + 8)).astype(np.float64)
        base = (base + np.roll(base, 1, 0) + np.roll(base, 1, 1)) / 3.0
        frames = [
            np.ascontiguousarray(
                base[k:k + height, 2 * k:2 * k + width].astype(np.uint8))
            for k in range(4)
        ]
        grid = uniform_tiling(width, height, cols, rows, align=8)
        configs = [EncoderConfig(qp=qps[i]) for i in range(len(grid))]
        encoder, writer = FrameEncoder(), BitWriter()
        enc_recons, reference, axis = [], None, None
        with scoped() as (registry, _):
            for k, frame in enumerate(frames):
                specs = None
                if k > 0:
                    specs = [
                        TileHookSpec(motion=motion, is_first=k == 1,
                                     tile_id=i, window=window, axis=axis,
                                     predictor=predictor)
                        for i in range(len(grid))
                    ]
                stats, reference = encoder.encode(
                    frame, grid, configs,
                    FrameType.I if k == 0 else FrameType.P,
                    reference=reference, frame_index=k, writer=writer,
                    hook_specs=specs,
                )
                if k == 1:
                    votes = [t.learned.first_axis for t in stats.tiles]
                    axis = next((v for v in votes if v), None)
                enc_recons.append(reference)
            # Every tile went through the driver.
            assert "repro_codec_tile_fallback_total" not in registry.names()
        reader = BitReader(writer.flush())
        decoder, reference = FrameDecoder(), None
        with native_forbidden():  # the decoder never enters kernels.c
            for recon in enc_recons:
                reference = decoder.decode(reader, grid, configs,
                                           reference=reference)
                np.testing.assert_array_equal(reference, recon)
