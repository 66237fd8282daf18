"""4:2:0 chroma coding.

Chroma planes ride on the luma coding decisions, as in HEVC's default
configuration: each luma block's chroma companion (half resolution)
reuses the luma prediction mode — inter blocks derive their chroma
motion vector from the luma MV (halved, rounded), intra blocks use DC
prediction — and codes its residual through the same transform /
quantization / entropy machinery.

The chroma payload is written after the luma frame, tile by tile
(U plane then V plane), so luma-only decoders simply stop early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.entropy import count_stack_bits, read_block, write_block
from repro.codec.inter import clamp_mv, motion_compensate
from repro.codec.ops import OpCounts
from repro.codec.quant import dequantize, quantization_step, quantize
from repro.codec.transform import blockify, forward_dct, inverse_dct, unblockify
from repro.codec.zigzag import zigzag_scan, zigzag_unscan
from repro.tiling.tile import Tile

#: HEVC offsets chroma QP below luma at high QPs; a flat small offset
#: keeps the substrate simple and the rate share realistic (~10-20%).
CHROMA_QP_OFFSET = 3


@dataclass(frozen=True)
class BlockInfo:
    """Coding decisions of one luma block, as needed by chroma."""

    bx: int
    by: int
    bw: int
    bh: int
    use_inter: bool
    mode: int = 0                       # 0: list0, 1: list1, 2: bi
    mvs: Tuple[Tuple[int, int], ...] = ((0, 0),)


def chroma_mv(mv: Tuple[int, int], half_pel: bool) -> Tuple[int, int]:
    """Integer chroma-pel displacement derived from a luma MV.

    Luma MVs are in luma pels (or half-pels when ``half_pel``); chroma
    sits at half resolution, so the divisor is 2 (or 4).  Rounding is
    half-away-from-zero via the floor identity, identical on encoder
    and decoder.
    """
    divisor = 4 if half_pel else 2

    def scale(v: int) -> int:
        return (v + divisor // 2) // divisor if v >= 0 else -((-v + divisor // 2) // divisor)

    return scale(mv[0]), scale(mv[1])


def _chroma_transform_size(w: int, h: int) -> int:
    """8x8 transforms when the chroma block allows, else 4x4."""
    return 8 if (w % 8 == 0 and h % 8 == 0) else 4


def _dc_predict(
    recon: np.ndarray, cx: int, cy: int, cw: int, ch: int, tile_c: Tile
) -> np.ndarray:
    """DC intra prediction from reconstructed chroma neighbours."""
    refs = []
    if cy - 1 >= tile_c.y:
        refs.append(recon[cy - 1, cx : cx + cw].astype(np.float64))
    if cx - 1 >= tile_c.x:
        refs.append(recon[cy : cy + ch, cx - 1].astype(np.float64))
    value = float(np.mean(np.concatenate(refs))) if refs else 128.0
    return np.full((ch, cw), value)


def _chroma_tile(tile: Tile) -> Tile:
    return Tile(tile.x // 2, tile.y // 2, max(1, tile.width // 2),
                max(1, tile.height // 2))


def _predict_block(
    info: BlockInfo,
    references: List[np.ndarray],
    recon: np.ndarray,
    tile_c: Tile,
    half_pel: bool,
) -> np.ndarray:
    cx, cy = info.bx // 2, info.by // 2
    cw, ch = info.bw // 2, info.bh // 2
    if not info.use_inter or not references:
        return _dc_predict(recon, cx, cy, cw, ch, tile_c)
    ref_h, ref_w = references[0].shape

    def compensate(ref_index: int, mv):
        cmv = clamp_mv(chroma_mv(mv, half_pel), cx, cy, cw, ch, ref_w, ref_h)
        return motion_compensate(references[ref_index], cx, cy, cmv, cw, ch)

    if info.mode == 2 and len(references) >= 2 and len(info.mvs) >= 2:
        return (compensate(0, info.mvs[0]) + compensate(1, info.mvs[1])) / 2.0
    ref_index = min(info.mode, len(references) - 1) if info.mode != 2 else 0
    return compensate(ref_index, info.mvs[0])


def encode_chroma_plane(
    plane: np.ndarray,
    references: List[np.ndarray],
    recon: np.ndarray,
    tile: Tile,
    block_infos: List[BlockInfo],
    qp: int,
    half_pel: bool = False,
    writer: Optional[BitWriter] = None,
    ops: Optional[OpCounts] = None,
) -> Tuple[int, float]:
    """Encode one tile of one chroma plane; returns ``(bits, ssd)``.

    ``plane``/``recon``/``references`` are chroma-resolution arrays;
    ``tile`` and ``block_infos`` are in luma coordinates.
    """
    qp_c = min(51, qp + CHROMA_QP_OFFSET)
    tile_c = _chroma_tile(tile)
    step = quantization_step(qp_c)
    bits = 0
    ssd = 0.0
    for info in block_infos:
        cx, cy = info.bx // 2, info.by // 2
        cw, ch = info.bw // 2, info.bh // 2
        block = plane[cy : cy + ch, cx : cx + cw].astype(np.float64)
        prediction = _predict_block(info, references, recon, tile_c, half_pel)
        residual = block - prediction
        ts = _chroma_transform_size(cw, ch)
        sub = blockify(residual, ts)
        sub_sad = np.abs(sub).sum(axis=(1, 2))
        active = sub_sad >= 3.0 * step
        levels = np.zeros(sub.shape, dtype=np.int32)
        if active.any():
            levels[active] = quantize(forward_dct(sub[active]), qp_c)
        zz = zigzag_scan(levels)
        block_bits = count_stack_bits(zz)
        bits += block_bits
        if ops is not None:
            ops.transform_blocks += int(active.sum())
            ops.quant_coeffs += int(active.sum()) * ts * ts
            ops.entropy_bits += block_bits
            ops.pred_pixels += cw * ch * 2
        if writer is not None:
            for i in range(zz.shape[0]):
                write_block(writer, zz[i])
        if levels.any():
            res_q = unblockify(inverse_dct(dequantize(levels, qp_c)), ch, cw)
            out = np.clip(np.rint(prediction + res_q), 0, 255).astype(np.uint8)
        else:
            out = np.clip(np.rint(prediction), 0, 255).astype(np.uint8)
        recon[cy : cy + ch, cx : cx + cw] = out
        diff = block - out
        ssd += float((diff * diff).sum())
    return bits, ssd


def decode_chroma_plane(
    reader: BitReader,
    references: List[np.ndarray],
    recon: np.ndarray,
    tile: Tile,
    block_infos: List[BlockInfo],
    qp: int,
    half_pel: bool = False,
) -> None:
    """Decode one tile of one chroma plane into ``recon`` (in place)."""
    qp_c = min(51, qp + CHROMA_QP_OFFSET)
    tile_c = _chroma_tile(tile)
    for info in block_infos:
        cx, cy = info.bx // 2, info.by // 2
        cw, ch = info.bw // 2, info.bh // 2
        prediction = _predict_block(info, references, recon, tile_c, half_pel)
        ts = _chroma_transform_size(cw, ch)
        num_sub = (cw // ts) * (ch // ts)
        vectors = np.stack([read_block(reader, ts * ts) for _ in range(num_sub)])
        levels = zigzag_unscan(vectors, ts)
        if levels.any():
            res_q = unblockify(inverse_dct(dequantize(levels, qp_c)), ch, cw)
            out = np.clip(np.rint(prediction + res_q), 0, 255).astype(np.uint8)
        else:
            out = np.clip(np.rint(prediction), 0, 255).astype(np.uint8)
        recon[cy : cy + ch, cx : cx + cw] = out
