"""Content-aware re-tiling (paper §III-B).

The strategy, following the paper:

1. **Corners first.**  Starting from a minimum-size tile in each corner,
   while the tile's motion *and* texture are low, grow it by 25% more
   pixels "first in the width and then in the height", keeping the last
   coordinates once the content stops being low.  Corners and borders
   of medical frames contain the least motion and texture, so this
   carves large cheap tiles out of the frame periphery.
2. **Borders.**  The grown corner extents define the four border strips
   (top/bottom/left/right edge tiles between the corners).
3. **Centre.**  The remaining centre region, which "more likely
   contains high motion and high texture", is partitioned into tiles of
   similar size, respecting a minimum tile size; at least 4 tiles are
   used for the high-texture/high-motion area to keep parallelization
   high.

The resulting layout is an exact rectangle partition: a 3x3 macro
structure (corner / edge / centre cells, degenerate cells omitted) with
the centre cell subdivided into a near-square grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import frame_analysis
from repro.analysis.evaluator import ContentEvaluator, TileContent
from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro.observability import get_registry, get_tracer
from repro.tiling.constraints import TilingConstraints
from repro.tiling.tile import Tile, TileGrid, split_evenly


@dataclass
class RetilingResult:
    """Output of a re-tiling pass: the grid plus per-tile content."""

    grid: TileGrid
    contents: List[TileContent]

    @property
    def num_tiles(self) -> int:
        return len(self.grid)


#: Target centre-tile edge length (samples) per texture class.  Higher
#: texture favours smaller tiles (more parallelism, per-tile tuning).
_TARGET_EDGE = {
    TextureClass.LOW: 256,
    TextureClass.MEDIUM: 160,
    TextureClass.HIGH: 112,
}


class ContentAwareRetiler:
    """Implements the paper's content-aware re-tiling."""

    def __init__(
        self,
        constraints: TilingConstraints = TilingConstraints(),
        evaluator: Optional[ContentEvaluator] = None,
    ):
        self.constraints = constraints
        self.evaluator = evaluator or ContentEvaluator()
        # Per frame geometry: the strips every side can grow to, as
        # (side index per strip, size per strip, rectangles).
        self._candidates: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    def retile(
        self, current: np.ndarray, previous: Optional[np.ndarray] = None
    ) -> RetilingResult:
        """Re-tile a frame based on its content.

        Parameters
        ----------
        current:
            Luma plane of the frame being tiled.
        previous:
            Luma plane of the previously processed frame (for the
            motion probe); ``None`` for the first frame of a video.
        """
        height, width = current.shape
        cons = self.constraints
        tracer = get_tracer()
        if width < 3 * cons.min_tile_width or height < 3 * cons.min_tile_height:
            # Frame too small for a border/centre split: single tile,
            # no re-tiling pass (and no retile-seconds observation).
            with tracer.span("stage.tiling"):
                grid = TileGrid.single(width, height)
            with tracer.span("stage.analysis", tiles=1):
                contents = self.evaluator.evaluate(grid, current, previous)
            return RetilingResult(grid, contents)

        started = time.perf_counter()
        with tracer.span("stage.tiling"):
            # Every strip and the centre lie on this lattice, so one
            # analysis of the frame answers all of them.
            analysis = frame_analysis.analyse_frame(
                current, previous, math.gcd(
                    width, height, cons.align,
                    cons.min_tile_width, cons.min_tile_height,
                ))
            left, right, top, bottom = self._grow_margins(analysis)
            grid = self._build_grid(analysis, left, right, top, bottom)
        with tracer.span("stage.analysis", tiles=len(grid)):
            contents = self.evaluator.evaluate(grid, current, previous, analysis)
        get_registry().observe(
            "repro_tiling_retile_seconds", time.perf_counter() - started,
            help="Wall time of one content-aware re-tiling pass "
                 "(margin growth, centre partition, grid evaluation)",
        )
        return RetilingResult(grid, contents)

    # ------------------------------------------------------------------
    # Margin growth
    # ------------------------------------------------------------------
    def _grow_margins(self, analysis) -> List[int]:
        """Grow a border strip from each side while its content stays
        low; returns the ``[left, right, top, bottom]`` margins.

        The paper grows each *corner tile*; the two corners sharing a
        side almost always agree on medical content (dark background),
        so we grow the full strip, which additionally guarantees an
        exact partition.  Growth is by ``growth_step`` more pixels per
        iteration, capped at ``max_margin_fraction`` of the dimension.
        The sizes a side can take do not depend on content, so all four
        sides' candidates are evaluated as one batch and each side keeps
        the last size before its first non-low strip.
        """
        height, width = analysis.current.shape
        sides, sizes, rects = self._margin_candidates(width, height)
        _, textures, _, motions = self.evaluator.evaluate_rects(
            rects, analysis
        )
        margins = [0] * 4  # 0 = no low-content strip at all
        growing = [True] * 4
        for index, size, texture, motion in zip(
            sides, sizes, textures, motions
        ):
            growing[index] = growing[index] and (
                texture is TextureClass.LOW and motion is MotionClass.LOW
            )
            if growing[index]:
                margins[index] = size
        return margins

    def _margin_candidates(self, width: int, height: int) -> tuple:
        """Every strip a side of a ``width x height`` frame can grow to:
        ``(side index per strip, size per strip, (x, y, w, h) rows)``,
        sides in ``[left, right, top, bottom]`` order."""
        cached = self._candidates.get((width, height))
        if cached is None:
            cons = self.constraints
            sides, sizes, rects = [], [], []
            for size in self._margin_sizes(width, cons.min_tile_width):
                sides += (0, 1)
                sizes += (size, size)
                rects += ((0, 0, size, height),
                          (width - size, 0, size, height))
            for size in self._margin_sizes(height, cons.min_tile_height):
                sides += (2, 3)
                sizes += (size, size)
                rects += ((0, 0, width, size),
                          (0, height - size, width, size))
            cached = self._candidates[(width, height)] = (
                sides, sizes, np.array(rects, dtype=np.int64).reshape(-1, 4)
            )
        return cached

    def _margin_sizes(self, dim: int, start: int) -> List[int]:
        """Candidate strip sizes along a dimension of ``dim`` samples."""
        cons = self.constraints
        limit = max(self._align_down(int(dim * cons.max_margin_fraction)), start)
        sizes = []
        size = start
        while size <= limit:
            sizes.append(size)
            grown = self._align_down(int(math.ceil(size * (1 + cons.growth_step))))
            size = max(grown, size + cons.align)
        return sizes

    def _align_down(self, value: int) -> int:
        align = self.constraints.align
        return (value // align) * align

    # ------------------------------------------------------------------
    # Grid assembly
    # ------------------------------------------------------------------
    def _build_grid(
        self,
        analysis,
        left: int,
        right: int,
        top: int,
        bottom: int,
    ) -> TileGrid:
        height, width = analysis.current.shape
        cons = self.constraints

        # Ensure a viable centre region.
        min_cw = max(cons.min_tile_width, 2 * cons.align)
        min_ch = max(cons.min_tile_height, 2 * cons.align)
        while width - left - right < min_cw and (left or right):
            if left >= right:
                left = self._shrink(left)
            else:
                right = self._shrink(right)
        while height - top - bottom < min_ch and (top or bottom):
            if top >= bottom:
                top = self._shrink(top)
            else:
                bottom = self._shrink(bottom)

        center_w = width - left - right
        center_h = height - top - bottom
        center = Tile(left, top, center_w, center_h)

        border_tiles = self._border_tiles(width, height, left, right, top, bottom)
        budget = cons.max_tiles - len(border_tiles)
        center_tiles = self._partition_center(center, analysis, budget)
        return TileGrid(width, height, border_tiles + center_tiles)

    def _shrink(self, margin: int) -> int:
        shrunk = self._align_down(int(margin * 0.5))
        return shrunk if shrunk >= self.constraints.align else 0

    def _border_tiles(
        self, width: int, height: int, left: int, right: int, top: int, bottom: int
    ) -> List[Tile]:
        """Corner and edge tiles of the 3x3 macro layout (degenerate cells omitted)."""
        xs = [0, left, width - right, width]
        ys = [0, top, height - bottom, height]
        tiles = []
        for row in range(3):
            for col in range(3):
                if row == 1 and col == 1:
                    continue  # centre handled separately
                w = xs[col + 1] - xs[col]
                h = ys[row + 1] - ys[row]
                if w > 0 and h > 0:
                    tiles.append(Tile(xs[col], ys[row], w, h))
        return tiles

    def _partition_center(
        self,
        center: Tile,
        analysis,
        budget: int,
    ) -> List[Tile]:
        """Split the centre into a near-square grid of similar-size tiles."""
        cons = self.constraints
        (content,) = self.evaluator.evaluate_tiles([center], analysis)
        target = _TARGET_EDGE[content.texture]

        cols = max(1, round(center.width / target))
        rows = max(1, round(center.height / target))

        # The high-texture/high-motion area gets at least
        # ``min_center_tiles`` tiles (paper: minimum of 4).
        busy = (
            content.texture is not TextureClass.LOW
            or content.motion is MotionClass.HIGH
        )
        if busy:
            while cols * rows < cons.min_center_tiles:
                if center.width / (cols + 1) >= center.height / (rows + 1):
                    cols += 1
                else:
                    rows += 1

        # Respect the minimum tile size and the global tile budget.
        cols = min(cols, max(1, center.width // cons.min_tile_width))
        rows = min(rows, max(1, center.height // cons.min_tile_height))
        while cols * rows > max(budget, 1):
            if cols >= rows and cols > 1:
                cols -= 1
            elif rows > 1:
                rows -= 1
            else:
                break

        col_widths = split_evenly(center.width, cols, align=cons.align)
        row_heights = split_evenly(center.height, rows, align=cons.align)
        tiles = []
        y = center.y
        for rh in row_heights:
            x = center.x
            for cw in col_widths:
                tiles.append(Tile(x, y, cw, rh))
                x += cw
            y += rh
        return tiles
