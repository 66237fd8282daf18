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
* the arithmetic is exact (integer sums commute), so the native C
  kernel (:func:`repro.native.downscale_box`) is bit-identical to the
  NumPy oracle here by construction, the property `tests/test_ladder.py`
  checks with hypothesis;
* it **never upscales**: a rung larger than the ingest has boxes with
  zero pixels, so the request is rejected up front (the ladder-wide
  rule of the same name descends from this check).

All quality accounting upstream stays luma-based (PSNR-Y); chroma
planes ride along through :func:`downscale_frame` using the same box
method at 4:2:0 geometry.
"""

from __future__ import annotations

from typing import Tuple

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


def chroma_dims(out_w: int, out_h: int) -> Tuple[int, int]:
    """4:2:0 chroma geometry for a ``out_w x out_h`` luma plane."""
    return out_w // 2, out_h // 2


def downscale_frame(frame: Frame, out_w: int, out_h: int) -> Frame:
    """Downscale a frame (luma + any 4:2:0 chroma) to ``out_w x out_h``.

    A same-size request never hands out a buffer somebody can still
    write: a frame whose planes are all read-only (the serving layer's
    zero-copy ingest) is returned as it is — nothing can mutate it
    under the rung — and any other frame is copied, so a rung at ingest
    resolution never aliases a reused ingest buffer.
    """
    if (out_h, out_w) == frame.luma.shape:
        planes = (frame.luma, frame.chroma_u, frame.chroma_v)
        if any(p is not None and p.flags.writeable for p in planes):
            return frame.copy()
        return frame
    luma = downscale_plane(frame.luma, out_h, out_w)
    cw, ch = chroma_dims(out_w, out_h)
    u = v = None
    if frame.chroma_u is not None and cw >= 1 and ch >= 1:
        u = downscale_plane(np.ascontiguousarray(frame.chroma_u), ch, cw)
        if frame.chroma_v is not None:
            v = downscale_plane(np.ascontiguousarray(frame.chroma_v), ch, cw)
    return Frame(luma=luma, index=frame.index, chroma_u=u, chroma_v=v)
