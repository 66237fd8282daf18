"""Bit-exact integer downscaling for the rendition ladder.

Rendition ladders (``repro.ladder``) derive every rung from the full
resolution ingest by *box averaging*: output pixel ``(i, j)`` is the
integer mean of the source rows ``[i*H // h_out, (i+1)*H // h_out)``
by columns ``[j*W // w_out, (j+1)*W // w_out)``, accumulated in int64
and floor-divided by the box population.  The scheme is chosen for
determinism, not visual polish:

* it is defined for *every* geometry — non-integer ratios and odd
  dimensions included — because the box edges are pure integer floor
  expressions and every box holds at least one pixel whenever the
  output is no larger than the input;
* the arithmetic is exact (integer sums commute, and the kernel's
  shift or multiply-shift by a tabulated reciprocal *is* the floor
  division — ``kernels.c`` carries the proof), so the native C kernel
  (:func:`repro.native.downscale_box`) is bit-identical to the NumPy
  oracle here by construction, the property `tests/test_ladder.py`
  checks with hypothesis;
* it **never upscales**: a rung larger than the ingest has boxes with
  zero pixels, so the request is rejected up front (the ladder-wide
  rule of the same name descends from this check).
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.video.frame import Frame

__all__ = [
    "box_edges",
    "downscale_box_reference",
    "downscale_plane",
    "downscale_frame",
]


def box_edges(n_in: int, n_out: int) -> np.ndarray:
    """The ``n_out + 1`` box boundaries ``edges[i] = i * n_in // n_out``.

    Strictly increasing whenever ``n_out <= n_in`` (each box spans at
    least ``floor(n_in / n_out) >= 1`` samples), which is what makes
    the reduceat segments below non-empty.
    """
    if n_out <= 0:
        raise ValueError(f"output extent must be positive, got {n_out}")
    if n_out > n_in:
        raise ValueError(
            f"box downscale never upscales: {n_in} -> {n_out}"
        )
    return (np.arange(n_out + 1, dtype=np.int64) * n_in) // n_out


def downscale_box_reference(
    plane: np.ndarray, out_h: int, out_w: int
) -> np.ndarray:
    """NumPy oracle: exact integer box downscale of a 2-D plane.

    Accepts any integer dtype (sums are taken in int64); returns uint8,
    matching the codec's sample type.  This is the semantic ground
    truth the native kernel is tested against.
    """
    if plane.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {plane.shape}")
    h, w = plane.shape
    redges = box_edges(h, out_h)
    cedges = box_edges(w, out_w)
    if (out_h, out_w) == (h, w):
        return plane.astype(np.uint8, copy=True)
    rows = np.add.reduceat(plane.astype(np.int64), redges[:-1], axis=0)
    sums = np.add.reduceat(rows, cedges[:-1], axis=1)
    counts = np.outer(np.diff(redges), np.diff(cedges))
    return (sums // counts).astype(np.uint8)


def downscale_plane(plane: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Box-downscale a uint8 plane, using the native kernel when loaded.

    Native and NumPy paths are bit-identical, so callers (and the
    ladder's bit-identity guarantees) never depend on which one ran.
    """
    if plane.ndim != 2:
        raise ValueError(f"plane must be 2-D, got shape {plane.shape}")
    h, w = plane.shape
    if not (1 <= out_h <= h) or not (1 <= out_w <= w):
        raise ValueError(
            f"box downscale never upscales: {w}x{h} -> {out_w}x{out_h}"
        )
    if plane.dtype == np.uint8 and plane.flags.c_contiguous:
        out = native.downscale_box(plane, out_h, out_w)
        if out is not None:
            return out
    return downscale_box_reference(plane, out_h, out_w)


def downscale_frame(frame: Frame, out_w: int, out_h: int) -> Frame:
    """Downscale a frame to ``out_w x out_h``.

    A same-size request never hands out a buffer somebody can still
    write: a frame whose plane is read-only (the serving layer's
    zero-copy ingest) is returned as it is — nothing can mutate it
    under the rung — and any other frame is copied, so a rung at ingest
    resolution never aliases a reused ingest buffer.
    """
    if (out_h, out_w) == frame.luma.shape:
        return frame.copy() if frame.luma.flags.writeable else frame
    return Frame(luma=downscale_plane(frame.luma, out_h, out_w),
                 index=frame.index)
