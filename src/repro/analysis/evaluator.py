"""Combined per-tile motion & texture evaluation (the "Motion & Texture
Evaluation" block of the paper's Fig. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.analysis import frame_analysis
from repro.analysis.frame_analysis import tile_rects
from repro.analysis.motion_probe import MotionClass, MotionProbeConfig
from repro.analysis.texture import TextureClass, TextureThresholds

if TYPE_CHECKING:  # avoid a circular import with repro.tiling
    from repro.tiling.tile import Tile, TileGrid


@dataclass(frozen=True)
class TileContent:
    """Evaluated content of one tile."""

    tile: Tile
    texture: TextureClass
    motion: MotionClass
    cv: float
    motion_score: float


class ContentEvaluator:
    """Evaluates texture and motion for each tile of a frame.

    Every statistic comes from one analysis of the frame
    (:func:`~repro.analysis.frame_analysis.analyse_frame`: block sums
    and a batched probe), never from a tile's own pixels:
    :meth:`evaluate_rects` answers any batch of block-aligned
    rectangles — the re-tiler's growing strips as well as a finished
    grid —, :meth:`evaluate_tiles` wraps its answers per tile and
    :meth:`evaluate` is the grid-level entry point.

    The paper notes (§III-A) that in bio-medical imaging the parts of
    the frame containing useful data move in the same direction, so
    "evaluating one initial tile for the motion can be sufficient to
    quantify the motion of all remaining tiles".  With
    ``shared_motion=True`` (the default, matching the paper), the
    motion class measured on the most central tile is propagated to
    every tile whose texture is not LOW; LOW-texture border tiles keep
    their individually-probed (typically LOW) motion.
    """

    def __init__(
        self,
        texture_thresholds: TextureThresholds = TextureThresholds(),
        motion_config: MotionProbeConfig = MotionProbeConfig(),
        shared_motion: bool = True,
    ):
        self.texture_thresholds = texture_thresholds
        self.motion_config = motion_config
        self.shared_motion = shared_motion

    def evaluate_rects(self, rects: np.ndarray, analysis) -> tuple:
        """``(cvs, textures, scores, motions)`` of a batch of ``(x, y,
        width, height)`` rows lying on ``analysis``' block lattice.
        Without a previous frame (first frame of a stream) there is no
        motion to score."""
        cvs, textures, scores = analysis.evaluate(
            rects, self.texture_thresholds, self.motion_config
        )
        threshold = self.motion_config.threshold
        motions = [
            MotionClass.HIGH if score >= threshold else MotionClass.LOW
            for score in scores
        ]
        return cvs, textures, scores, motions

    def evaluate_tiles(
        self, tiles: Sequence[Tile], analysis,
        rects: Optional[np.ndarray] = None,
    ) -> List[TileContent]:
        """:meth:`evaluate_rects` of a batch of tiles, per tile
        (``rects``: their :func:`tile_rects`, when the caller has
        them)."""
        cvs, textures, scores, motions = self.evaluate_rects(
            tile_rects(tiles) if rects is None else rects, analysis
        )
        return [
            TileContent(*row)
            for row in zip(tiles, textures, motions, cvs, scores)
        ]

    def evaluate(
        self,
        grid: TileGrid,
        current: np.ndarray,
        previous: Optional[np.ndarray],
        analysis=None,
    ) -> List[TileContent]:
        """Evaluate every tile of a grid against the previous frame.

        ``analysis`` is the caller's analysis of the same two planes,
        reused when the grid lies on its block lattice; otherwise one is
        built at the coarsest block the grid's own coordinates share.
        """
        rects = tile_rects(grid.tiles)
        block = math.gcd(*rects.ravel().tolist())
        if analysis is None or block % analysis.block:
            analysis = frame_analysis.analyse_frame(current, previous, block)
        contents = self.evaluate_tiles(grid.tiles, analysis, rects)
        if self.shared_motion and previous is not None and contents:
            contents = self._propagate_central_motion(grid, contents)
        return contents

    def _propagate_central_motion(
        self, grid: TileGrid, contents: List[TileContent]
    ) -> List[TileContent]:
        """Propagate the central tile's motion class to textured tiles."""
        fx, fy = grid.frame_width / 2.0, grid.frame_height / 2.0

        def off_centre(content: TileContent) -> float:
            tile = content.tile  # (tile.center - frame centre) squared
            return ((tile.x + tile.width / 2.0 - fx) ** 2
                    + (tile.y + tile.height / 2.0 - fy) ** 2)

        central = min(contents, key=off_centre)
        out = []
        for c in contents:
            if c.texture is TextureClass.LOW or c is central:
                out.append(c)
            else:
                out.append(
                    TileContent(c.tile, c.texture, central.motion, c.cv, c.motion_score)
                )
        return out
