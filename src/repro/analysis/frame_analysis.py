"""Per-frame block statistics: O(1) texture and a batched motion probe.

Re-tiling asks the same two questions — Eq. 1's CV and Eq. 2's 6-point
score — of some fifty nested, overlapping rectangles of one frame.
Answering each from the pixels costs a pass over the rectangle; a
frame analysis makes one pass over the frame instead and answers every
block-aligned rectangle from what it kept:

* ``Σx`` and ``Σx²`` per ``block x block`` cell, as summed-area tables
  over the (small) cell map — any rectangle's sums are four lookups,
  exact integers, so mean and CV lose nothing;
* each cell's maximum and where it first occurs in row-major order —
  the first row-major maximum of a union of cells is the earliest of
  the maximal cells' own first maxima, which is the probe's max point;
* the planes themselves, from which the probe's six patches per
  rectangle are read.

There are two of them with one query, ``evaluate(rects, thresholds,
config)``, and :func:`analyse_frame` picks: :class:`NativeFrameAnalysis`
keeps the tables in ``kernels.c``'s layout and answers a batch in one
GIL-free foreign call — what the pipeline runs — and
:class:`FrameAnalysis` is the same arithmetic in NumPy: the oracle the
native one is tested against, and what runs without the compiled
kernels or on a plane outside their envelope.  The two agree to the
bit (``tests/test_native_kernels.py``): every sum is an exact integer,
and CV, mean and the probe's quotients are single IEEE operations on
them in both.

:func:`~repro.analysis.texture.coefficient_of_variation`,
:func:`~repro.analysis.texture.classify_texture` and
:meth:`~repro.analysis.motion_probe.MotionProbe.score` remain the
readable definitions; this module must agree with them on every
decision (``tests/test_frame_analysis.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.analysis.motion_probe import MotionProbeConfig
from repro.analysis.texture import TextureClass, TextureThresholds

_TEXTURE_CLASSES = tuple(TextureClass)


def _check_planes(
    current: np.ndarray, previous: Optional[np.ndarray], block: int
) -> None:
    if current.ndim != 2 or current.dtype != np.uint8:
        raise ValueError("content analysis needs a 2-D uint8 luma plane")
    if previous is not None and (
        previous.shape != current.shape or previous.dtype != np.uint8
    ):
        raise ValueError(
            f"previous plane {previous.shape}/{previous.dtype} does not "
            f"match current {current.shape}/uint8"
        )
    height, width = current.shape
    if block <= 0 or height % block or width % block:
        raise ValueError(
            f"block {block} does not divide frame {width}x{height}"
        )


def analyse_frame(
    current: np.ndarray, previous: Optional[np.ndarray], block: int
):
    """The analysis of a frame the pipeline queries: native where the
    kernels are loaded and both planes are inside their envelope
    (:func:`repro.native.analysis_fits`), NumPy otherwise."""
    _check_planes(current, previous, block)
    if (
        native.lib is not None and native.analysis_fits(current)
        and (previous is None or native.analysis_fits(previous))
    ):
        return NativeFrameAnalysis(current, previous, block)
    return FrameAnalysis(current, previous, block)


class NativeFrameAnalysis:
    """Block statistics of one luma plane (and its predecessor), kept
    and queried in ``kernels.c`` (:class:`repro.native.FrameTables`).
    Built by :func:`analyse_frame`, which has checked the planes."""

    def __init__(
        self, current: np.ndarray, previous: Optional[np.ndarray], block: int
    ):
        self.current = current
        self.previous = previous
        self.block = block
        self._tables = native.FrameTables(current, previous, block)

    def evaluate(
        self, rects: np.ndarray, thresholds: TextureThresholds,
        config: MotionProbeConfig,
    ) -> Tuple[List[float], List[TextureClass], List[float]]:
        """CV, texture class and motion score (0 without a previous
        plane) of each ``(x, y, width, height)`` row of ``rects``."""
        cvs, classes, scores = self._tables.query(
            rects,
            (thresholds.low, thresholds.high, thresholds.dark_mean),
            (config.alpha, config.beta, config.gamma,
             config.pixel_tolerance, config.patch_radius),
        )
        return cvs, [_TEXTURE_CLASSES[k] for k in classes], scores


class FrameAnalysis:
    """Block statistics of one luma plane (and its predecessor), in
    NumPy: the oracle of :class:`NativeFrameAnalysis` and the fallback
    of :func:`analyse_frame`.

    ``block`` must divide both frame dimensions; rectangles handed to
    :meth:`texture` and :meth:`motion_scores` are ``(x, y, width,
    height)`` rows whose every entry is a multiple of ``block``.
    ``previous=None`` is the first frame of a
    stream: there is no motion to score.
    """

    def __init__(
        self, current: np.ndarray, previous: Optional[np.ndarray], block: int
    ):
        _check_planes(current, previous, block)
        height, width = current.shape
        self.current = current
        self.previous = previous
        self.block = block
        rows, cols = height // block, width // block
        # One cell per row, its pixels contiguous in raster order.
        cells = (
            current.reshape(rows, block, cols, block)
            .transpose(0, 2, 1, 3)
            .reshape(rows * cols, block * block)
        )
        # A cell's Σx² is at most block² · 255²: 32 bits while the cell
        # is at most 256 samples on a side (the tables are 64-bit).
        acc = np.uint32 if block <= 256 else np.int64
        self._sat1 = _summed_area(cells.sum(axis=1, dtype=acc), rows, cols)
        self._sat2 = _summed_area(
            np.multiply(cells, cells, dtype=np.uint16).sum(axis=1, dtype=acc),
            rows, cols,
        )
        # Each cell's maximum and the frame raster index of its first
        # occurrence, packed so that the largest key over any union of
        # cells names the union's first row-major maximum: a larger
        # maximum wins, then the earlier raster index.
        first = cells.argmax(axis=1)
        cell_y, cell_x = np.divmod(np.arange(rows * cols), cols)
        in_y, in_x = np.divmod(first, block)
        raster = (cell_y * block + in_y) * width + cell_x * block + in_x
        self._cell_peak = (
            cells[np.arange(rows * cols), first] * np.int64(current.size)
            + (current.size - 1 - raster)
        ).reshape(rows, cols)

    def evaluate(
        self, rects: np.ndarray, thresholds: TextureThresholds,
        config: MotionProbeConfig,
    ) -> Tuple[List[float], List[TextureClass], List[float]]:
        """CV, texture class and motion score (0 without a previous
        plane) of each rectangle."""
        cvs, classes = self.texture(rects, thresholds)
        if self.previous is None:
            return cvs, classes, [0.0] * len(rects)
        return cvs, classes, self.motion_scores(rects, config)

    # ------------------------------------------------------------------
    # Texture (Eq. 1)
    # ------------------------------------------------------------------
    def texture(
        self, rects: np.ndarray, thresholds: TextureThresholds
    ) -> Tuple[List[float], List[TextureClass]]:
        """CV and texture class of each rectangle.

        The mean is ``Σx / n`` in float64 — what ``ndarray.mean`` of the
        region returns, its integer partial sums being exact — and the
        CV ``sqrt(n·Σx² − (Σx)²) / Σx`` from exact (unbounded) integers.
        """
        cells = rects // self.block
        x0, y0 = cells[:, 0], cells[:, 1]
        x1, y1 = x0 + cells[:, 2], y0 + cells[:, 3]
        sums = []
        for sat in (self._sat1, self._sat2):
            sums.append(
                (sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0]).tolist()
            )
        counts = (rects[:, 2] * rects[:, 3]).tolist()
        cvs, classes = [], []
        for n, s1, s2 in zip(counts, *sums):
            cv = math.sqrt(n * s2 - s1 * s1) / s1 if s1 else 0.0
            cvs.append(cv)
            classes.append(thresholds.classify(s1 / n, cv))
        return cvs, classes

    # ------------------------------------------------------------------
    # Motion (Eq. 2)
    # ------------------------------------------------------------------
    def _max_points(self, rects: np.ndarray) -> np.ndarray:
        """Raster index of each rectangle's first row-major maximum."""
        peaks = np.array([
            self._cell_peak[y : y + h, x : x + w].max()
            for x, y, w, h in (rects // self.block).tolist()
        ])
        return self.current.size - 1 - peaks % self.current.size

    def motion_scores(
        self, rects: np.ndarray, config: MotionProbeConfig
    ) -> List[float]:
        """Motion metric M of each rectangle against the previous frame.

        Probes the four corners, the centre and the current frame's
        maximum point of every rectangle; each probe compares the mean
        of a ``(2r+1)²`` patch clipped to the rectangle, kept as the
        float64 expression ``|Sa/n − Sb/n| > tolerance`` of the
        definition (an integer rewrite is not equivalent at the
        boundary).
        """
        if self.previous is None:
            raise ValueError("no previous frame to score motion against")
        width = self.current.shape[1]
        x, y, w, h = (rects[:, i : i + 1] for i in range(4))
        max_y, max_x = np.divmod(self._max_points(rects)[:, None], width)
        # (rects, 6) probe points in frame coordinates.
        py = np.hstack([y, y, y + h - 1, y + h - 1, y + h // 2, max_y])
        px = np.hstack([x, x + w - 1, x, x + w - 1, x + w // 2, max_x])
        offsets = np.arange(-config.patch_radius, config.patch_radius + 1)
        # (rects, 6, patch) rows / columns of every patch, and which of
        # them fall inside the rectangle.
        yy = py[:, :, None] + offsets
        xx = px[:, :, None] + offsets
        in_y = (yy >= y[:, :, None]) & (yy < (y + h)[:, :, None])
        in_x = (xx >= x[:, :, None]) & (xx < (x + w)[:, :, None])
        inside = in_y[:, :, :, None] & in_x[:, :, None, :]
        counts = in_y.sum(axis=2) * in_x.sum(axis=2)
        # Out-of-rectangle taps are masked, so where they are read from
        # does not matter as long as it is inside the plane.
        rows = np.where(in_y, yy, py[:, :, None])[:, :, :, None]
        cols = np.where(in_x, xx, px[:, :, None])[:, :, None, :]
        sums = [
            np.where(inside, plane[rows, cols], 0).sum(axis=(2, 3), dtype=np.int64)
            for plane in (self.current, self.previous)
        ]
        differs = patch_means_differ(*sums, counts, config.pixel_tolerance)
        scores = (
            config.alpha * differs[:, :4].sum(axis=1)
            + config.beta * differs[:, 4]
            + config.gamma * differs[:, 5]
        )
        return scores.tolist()


def patch_means_differ(
    sum_a: np.ndarray, sum_b: np.ndarray, counts: np.ndarray, tolerance: float
) -> np.ndarray:
    """Whether two patches of ``counts`` samples differ in their means
    by more than ``tolerance`` — Eq. 2's per-point boolean.

    Evaluated as the definition evaluates it, ``|Sa/n − Sb/n| > tol`` on
    float64 quotients.  The integer form ``|Sa − Sb| > tol·n`` is *not*
    the same predicate: at ``|Sa − Sb| = tol·n`` the two rounded
    quotients can land a hair more than ``tol`` apart.
    """
    return np.abs(sum_a / counts - sum_b / counts) > tolerance


def _summed_area(cell_sums: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``(rows + 1, cols + 1)`` table: entry ``[i, j]`` sums cells
    ``[:i, :j]``."""
    table = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    np.cumsum(
        np.cumsum(cell_sums.reshape(rows, cols), axis=0, dtype=np.int64),
        axis=1, out=table[1:, 1:],
    )
    return table


def tile_rects(tiles: Sequence) -> np.ndarray:
    """``(x, y, width, height)`` rows of a sequence of tiles."""
    return np.array(
        [(t.x, t.y, t.width, t.height) for t in tiles], dtype=np.int64
    ).reshape(-1, 4)
