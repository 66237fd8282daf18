"""Frame decoder.

Parses the bitstream produced by :class:`~repro.codec.encoder.FrameEncoder`
and reconstructs frames through the identical prediction /
dequantization / inverse-transform path
(:func:`~repro.codec.encoder.reconstruct_block`), so encoder-side and
decoder-side reconstructions match bit-exactly — verified by the
round-trip tests.

As in HEVC, the tile layout and per-tile QPs travel out-of-band
(parameter-set style): the decoder receives the same
:class:`~repro.tiling.tile.TileGrid` and configs the encoder used.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.codec.bitstream import BitReader
from repro.codec.config import EncoderConfig, FrameType
from repro.codec.encoder import reconstruct_block, reference_plane
from repro.codec.entropy import read_block
from repro.codec.inter import motion_compensate, read_mvd
from repro.codec.intra import IntraMode, predict, reference_samples
from repro.codec.transform import TRANSFORM_SIZE
from repro.codec.zigzag import zigzag_unscan
from repro.tiling.tile import Tile, TileGrid

_FRAME_TYPE_BY_CODE = {0: FrameType.I, 1: FrameType.P}


class FrameDecoder:
    """Decodes one frame from a bitstream reader."""

    def decode(
        self,
        reader: BitReader,
        grid: TileGrid,
        configs: Sequence[EncoderConfig],
        reference: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decode the next frame; returns the reconstructed luma plane.

        ``reference`` is the previous frame's reconstruction (needed by
        a P frame, ignored by an I frame), mirroring the encoder.  A
        frame-type code outside the grammar (2, 3) is a ``ValueError``.
        """
        if len(configs) != len(grid):
            raise ValueError(f"{len(configs)} configs for {len(grid)} tiles")
        code = reader.read_bits(2)
        try:
            frame_type = _FRAME_TYPE_BY_CODE[code]
        except KeyError:
            raise ValueError(f"invalid frame-type code {code}") from None
        reference = reference_plane(reference, frame_type)
        reconstruction = np.zeros(
            (grid.frame_height, grid.frame_width), dtype=np.uint8
        )
        for tile, config in zip(grid, configs):
            self._decode_tile(reader, tile, config, reference, reconstruction)
        return reconstruction

    def _decode_tile(
        self,
        reader: BitReader,
        tile: Tile,
        config: EncoderConfig,
        reference: Optional[np.ndarray],
        reconstruction: np.ndarray,
    ) -> None:
        bs = config.block_size
        for by in range(tile.y, tile.y_end, bs):
            left_mv = (0, 0)
            for bx in range(tile.x, tile.x_end, bs):
                bw = min(bs, tile.x_end - bx)
                bh = min(bs, tile.y_end - by)
                left_mv = self._decode_block(
                    reader, bx, by, bw, bh, tile, config, reference,
                    reconstruction, left_mv,
                )

    def _decode_block(
        self,
        reader: BitReader,
        bx: int,
        by: int,
        bw: int,
        bh: int,
        tile: Tile,
        config: EncoderConfig,
        reference: Optional[np.ndarray],
        reconstruction: np.ndarray,
        left_mv: tuple,
    ) -> tuple:
        """Decode one block (``reference`` is ``None`` on an I frame);
        returns the next left MV predictor."""
        if reference is not None and reader.read_bits(1) == 0:
            left_mv = read_mvd(reader, left_mv)
            prediction = motion_compensate(reference, bx, by, left_mv, bw, bh)
        else:
            intra_mode = IntraMode(reader.read_bits(2))
            top, left = reference_samples(reconstruction, bx, by, bw, bh, tile)
            prediction = predict(intra_mode, top, left, bw, bh)

        num_sub = (bw // TRANSFORM_SIZE) * (bh // TRANSFORM_SIZE)
        vectors = np.stack(
            [
                read_block(reader, TRANSFORM_SIZE * TRANSFORM_SIZE)
                for _ in range(num_sub)
            ]
        )
        levels = zigzag_unscan(vectors, TRANSFORM_SIZE)
        recon = reconstruct_block(prediction, levels, config.qp)
        reconstruction[by : by + bh, bx : bx + bw] = recon
        return left_mv
