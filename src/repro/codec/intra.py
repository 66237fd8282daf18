"""Intra prediction: DC, planar, horizontal, vertical.

HEVC defines 35 intra modes; the four implemented here are the ones
that capture the bulk of intra coding gain on smooth medical content
(DC/planar dominate mode statistics on low-texture regions).  As in
HEVC, tiles break intra prediction dependencies: reference samples are
only *available* inside the current tile, since tiles must be
independently decodable.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.tiling.tile import Tile

#: Neutral sample value used when no reference samples are available
#: (HEVC's 1 << (bitDepth - 1)).
DEFAULT_SAMPLE = 128

#: Cached read-only helper arrays, keyed by length / block size.  Intra
#: prediction runs once per block, so ramp/default construction would
#: otherwise dominate the arithmetic.
_DEFAULT_REFS: dict = {}
_PLANAR_RAMPS: dict = {}


def _default_ref(length: int) -> np.ndarray:
    ref = _DEFAULT_REFS.get(length)
    if ref is None:
        ref = np.full(length, DEFAULT_SAMPLE, float)
        ref.flags.writeable = False
        _DEFAULT_REFS[length] = ref
    return ref


def _planar_ramp(length: int) -> np.ndarray:
    ramp = _PLANAR_RAMPS.get(length)
    if ramp is None:
        ramp = np.arange(1, length + 1) / (length + 1)
        ramp.flags.writeable = False
        _PLANAR_RAMPS[length] = ramp
    return ramp


def _dc_value(top: Optional[np.ndarray], left: Optional[np.ndarray]) -> float:
    """Mean of the available reference samples (integer-valued floats,
    so the summation order cannot change the result)."""
    if top is None and left is None:
        return float(DEFAULT_SAMPLE)
    total = 0.0
    count = 0
    for ref in (top, left):
        if ref is not None:
            total += float(np.add.reduce(ref))
            count += ref.size
    return total / count


class IntraMode(enum.IntEnum):
    """Intra prediction modes; values are the coded 2-bit indices."""

    DC = 0
    PLANAR = 1
    HORIZONTAL = 2
    VERTICAL = 3


def reference_samples(
    reconstruction: np.ndarray,
    x: int,
    y: int,
    block_w: int,
    block_h: int,
    tile: Tile,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Top row and left column of reconstructed neighbours.

    Returns ``(top, left)`` where each is ``None`` when outside the
    current tile (tile boundaries break prediction).
    """
    top = None
    left = None
    if y - 1 >= tile.y:
        top = reconstruction[y - 1, x : x + block_w].astype(np.float64)
    if x - 1 >= tile.x:
        left = reconstruction[y : y + block_h, x - 1].astype(np.float64)
    return top, left


def predict(
    mode: IntraMode,
    top: Optional[np.ndarray],
    left: Optional[np.ndarray],
    block_w: int,
    block_h: int,
) -> np.ndarray:
    """Build the prediction block for ``mode`` from reference samples."""
    if mode is IntraMode.DC:
        return np.full((block_h, block_w), _dc_value(top, left))

    if mode is IntraMode.VERTICAL:
        row = top if top is not None else _default_ref(block_w)
        return np.tile(row, (block_h, 1))

    if mode is IntraMode.HORIZONTAL:
        col = left if left is not None else _default_ref(block_h)
        return np.tile(col.reshape(-1, 1), (1, block_w))

    if mode is IntraMode.PLANAR:
        row = top if top is not None else _default_ref(block_w)
        col = left if left is not None else _default_ref(block_h)
        # Simplified planar: blend the vertical and horizontal ramps
        # toward the opposite-corner reference estimates.
        top_right = row[-1]
        bottom_left = col[-1]
        wx = _planar_ramp(block_w)
        wy = _planar_ramp(block_h)
        horiz = col.reshape(-1, 1) * (1 - wx) + top_right * wx
        vert = row * (1 - wy.reshape(-1, 1)) + bottom_left * wy.reshape(-1, 1)
        return (horiz + vert) / 2.0

    raise ValueError(f"unknown intra mode {mode}")


def _raster_sad(original: np.ndarray, prediction) -> float:
    """SAD accumulated sample by sample in raster order.

    DC and planar predictions are not integers, so the order of the
    additions shows in the last ulp — and the modes tie to within an
    ulp wherever the neighbourhood is flat.  Raster order is what the
    native tile driver uses, so both pick the same mode.
    """
    return float(np.add.accumulate(np.abs(original - prediction).ravel())[-1])


def choose_mode(
    original: np.ndarray,
    top: Optional[np.ndarray],
    left: Optional[np.ndarray],
) -> Tuple[IntraMode, np.ndarray, float]:
    """Pick the SAD-best mode; returns (mode, prediction, sad).

    DC/horizontal/vertical SADs are computed by broadcasting against
    the reference row/column directly (bit-identical to materialising
    the tiled prediction first, since broadcasting repeats the exact
    same values); only the winning mode's prediction block is built
    via :func:`predict`, which the decoder shares.  Ties break toward
    the lower mode index, as the sequential loop did.
    """
    block_h, block_w = original.shape
    original_f = original.astype(np.float64, copy=False)
    dc = _dc_value(top, left)
    planar = predict(IntraMode.PLANAR, top, left, block_w, block_h)
    row = top if top is not None else _default_ref(block_w)
    col = left if left is not None else _default_ref(block_h)
    sads = (
        _raster_sad(original_f, dc),
        _raster_sad(original_f, planar),
        _raster_sad(original_f, col.reshape(-1, 1)),
        _raster_sad(original_f, row),
    )
    best_mode = IntraMode.DC
    best_sad = sads[0]
    for mode in (IntraMode.PLANAR, IntraMode.HORIZONTAL, IntraMode.VERTICAL):
        if sads[mode] < best_sad:
            best_mode = mode
            best_sad = sads[mode]
    if best_mode is IntraMode.PLANAR:
        pred = planar
    else:
        pred = predict(best_mode, top, left, block_w, block_h)
    return best_mode, pred, best_sad
