"""Combined per-tile motion & texture evaluation (the "Motion & Texture
Evaluation" block of the paper's Fig. 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.analysis.frame_analysis import FrameAnalysis, tile_rects
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

    Every statistic comes from one :class:`FrameAnalysis` of the frame
    (block sums and a batched probe), never from a tile's own pixels:
    :meth:`evaluate_tiles` answers any batch of block-aligned tiles —
    the re-tiler's growing strips as well as a finished grid — and
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

    def evaluate_tiles(
        self, tiles: Sequence[Tile], analysis: FrameAnalysis
    ) -> List[TileContent]:
        """Evaluate a batch of tiles lying on ``analysis``' block
        lattice.  Without a previous frame (first frame of a stream)
        there is no motion."""
        rects = tile_rects(tiles)
        cvs, textures = analysis.texture(rects, self.texture_thresholds)
        if analysis.previous is None:
            scores = [0.0] * len(tiles)
        else:
            scores = analysis.motion_scores(rects, self.motion_config)
        threshold = self.motion_config.threshold
        return [
            TileContent(
                tile, texture,
                MotionClass.HIGH if score >= threshold else MotionClass.LOW,
                cv, score,
            )
            for tile, texture, cv, score in zip(tiles, textures, cvs, scores)
        ]

    def evaluate(
        self,
        grid: TileGrid,
        current: np.ndarray,
        previous: Optional[np.ndarray],
        analysis: Optional[FrameAnalysis] = None,
    ) -> List[TileContent]:
        """Evaluate every tile of a grid against the previous frame.

        ``analysis`` is the caller's analysis of the same two planes,
        reused when the grid lies on its block lattice; otherwise one is
        built at the coarsest block the grid's own coordinates share.
        """
        block = math.gcd(
            *(v for t in grid for v in (t.x, t.y, t.width, t.height))
        )
        if analysis is None or block % analysis.block:
            analysis = FrameAnalysis(current, previous, block)
        contents = self.evaluate_tiles(grid.tiles, analysis)
        if self.shared_motion and previous is not None and contents:
            contents = self._propagate_central_motion(grid, contents)
        return contents

    def _propagate_central_motion(
        self, grid: TileGrid, contents: List[TileContent]
    ) -> List[TileContent]:
        """Propagate the central tile's motion class to textured tiles."""
        fx, fy = grid.frame_width / 2.0, grid.frame_height / 2.0
        central = min(
            contents,
            key=lambda c: (c.tile.center[0] - fx) ** 2 + (c.tile.center[1] - fy) ** 2,
        )
        out = []
        for c in contents:
            if c.texture is TextureClass.LOW or c is central:
                out.append(c)
            else:
                out.append(
                    TileContent(c.tile, c.texture, central.motion, c.cv, c.motion_score)
                )
        return out
