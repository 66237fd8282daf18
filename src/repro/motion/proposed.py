"""The paper's proposed fast motion search for bio-medical videos
(§III-C2).

The policy exploits two bio-medical properties: motion is globally
consistent across tiles, and its direction persists within a GOP.
Per tile it selects algorithm and search window from (motion class,
position of the frame in its GOP, direction learned on the GOP's first
frame):

=============  =======================  ==========================
tile motion    first frame of GOP       remaining frames of GOP
=============  =======================  ==========================
low            cross search, 16x16      one-at-a-time along the
               window                   learned axis, 8x8 window
high           rotating hexagon, max    horizontal/vertical hexagon
               window                   by learned axis, reduced
                                        window
=============  =======================  ==========================

The learned state (dominant axis and a motion-vector predictor per
tile) is carried by :class:`GopMotionState`, reset at each GOP start.

Per tile, the policy's decision crosses into the encoder as plain data:
a :class:`TileHookSpec` snapshot goes in, a :class:`TileLearned` record
comes back and :func:`merge_learned` folds it into the GOP state.  That
is what lets the native tile driver (and pool workers in other
processes) run a tile without touching the stream's mutable policy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.motion_probe import MotionClass
from repro.motion.base import MotionSearch, MotionSearchResult, MotionVector, SearchContext
from repro.motion.cross import CrossSearch
from repro.motion.hexagon import HexagonOrientation, HexagonSearch
from repro.motion.one_at_a_time import OneAtATimeSearch


@dataclass(frozen=True)
class ProposedSearchConfig:
    """Window sizes of the proposed policy (paper values).

    The paper considers windows of 64, 32, 16 and 8: low-motion tiles
    use 16 on the GOP's first frame and 8 afterwards; high-motion tiles
    use the maximum allowable window (64) on the first frame and
    smaller values (32) afterwards.
    """

    low_first_window: int = 16
    low_rest_window: int = 8
    high_first_window: int = 64
    high_rest_window: int = 32


@dataclass
class GopMotionState:
    """Per-GOP learned motion: dominant axis and per-tile MV predictors."""

    dominant_axis: Optional[str] = None  # 'x' or 'y'
    tile_mv: Dict[int, MotionVector] = field(default_factory=dict)

    def learn(self, tile_id: int, mv: MotionVector) -> None:
        self.tile_mv[tile_id] = mv
        # Axis votes accumulate through the magnitudes of first-frame MVs.
        dx, dy = abs(mv[0]), abs(mv[1])
        if dx == dy == 0:
            return
        axis = "x" if dx >= dy else "y"
        if self.dominant_axis is None:
            self.dominant_axis = axis

    def predictor(self, tile_id: int) -> MotionVector:
        return self.tile_mv.get(tile_id, (0, 0))


@functools.lru_cache(maxsize=None)
def _select(
    cfg: ProposedSearchConfig, motion: MotionClass, is_first_in_gop: bool,
    axis: str,
) -> Tuple[MotionSearch, int]:
    """The module docstring's table as a function.  The algorithms are stateless
    value objects and the domain is a handful of combinations per
    config, so each is built once — selection sits on the per-tile (and,
    in the NumPy loop, per-block) hot path."""
    if motion is MotionClass.LOW:
        if is_first_in_gop:
            return CrossSearch(), cfg.low_first_window
        return OneAtATimeSearch(primary_axis=axis), cfg.low_rest_window
    if is_first_in_gop:
        return HexagonSearch(HexagonOrientation.ROTATING), cfg.high_first_window
    orientation = (
        HexagonOrientation.HORIZONTAL if axis == "x" else HexagonOrientation.VERTICAL
    )
    return HexagonSearch(orientation), cfg.high_rest_window


class BioMedicalSearchPolicy:
    """Selects and runs the per-tile search of the proposed method.

    One policy instance serves one video stream; call
    :meth:`start_gop` at every GOP boundary.
    """

    def __init__(self, config: ProposedSearchConfig = ProposedSearchConfig()):
        self.config = config
        self.state = GopMotionState()

    def start_gop(self) -> None:
        """Reset learned motion at a GOP boundary."""
        self.state = GopMotionState()

    def select(
        self, motion: MotionClass, is_first_in_gop: bool
    ) -> Tuple[MotionSearch, int]:
        """Return (algorithm, window) for a tile."""
        return _select(
            self.config, motion, is_first_in_gop,
            self.state.dominant_axis or "x",
        )

    def tile_spec(
        self,
        motion: MotionClass,
        is_first_in_gop: bool,
        tile_id: int,
        window: Optional[int] = None,
    ) -> "TileHookSpec":
        """Snapshot of this tile's decision for the encoder.

        ``window`` overrides the policy's own choice (the pipeline's
        framerate feedback may have shrunk it).
        """
        if window is None:
            window = self.select(motion, is_first_in_gop)[1]
        return TileHookSpec(
            motion=motion, is_first=is_first_in_gop, tile_id=tile_id,
            window=window, axis=self.state.dominant_axis,
            predictor=self.state.predictor(tile_id), search=self.config,
        )

    def search_block(
        self,
        ctx_factory,
        motion: MotionClass,
        is_first_in_gop: bool,
        tile_id: int,
        left_mv: MotionVector = (0, 0),
    ) -> MotionSearchResult:
        """Run the selected search for one block.

        ``ctx_factory(window) -> SearchContext`` builds the context with
        the window chosen by the policy.  The search is seeded with the
        best of the zero vector, the spatial (left-neighbour) predictor
        and the temporal predictor learned on the GOP's first frame —
        an AMVP-style candidate list.
        """
        algorithm, window = self.select(motion, is_first_in_gop)
        ctx: SearchContext = ctx_factory(window)
        start, _ = ctx.evaluate_many(
            [(0, 0), left_mv, self.state.predictor(tile_id)]
        )
        result = algorithm.search(ctx, start=start)
        if is_first_in_gop:
            self.state.learn(tile_id, result.mv)
        return result


@dataclass(frozen=True)
class TileHookSpec:
    """Picklable snapshot of one tile's proposed-search decision.

    Captures everything :meth:`BioMedicalSearchPolicy.search_block`
    reads for this tile — motion class, GOP position, the
    feedback-adjusted window, the GOP's learned dominant axis and this
    tile's MV predictor — so the native tile driver (or the per-block
    loop, through :func:`spec_hook`) can run the tile without sharing
    the stream's mutable policy state.
    """

    motion: MotionClass
    is_first: bool
    tile_id: int
    window: int
    axis: Optional[str]
    predictor: MotionVector
    search: ProposedSearchConfig = ProposedSearchConfig()

    def policy(self) -> BioMedicalSearchPolicy:
        """A tile-local policy seeded from the snapshot.

        On first-P frames the local dominant axis starts ``None`` so the
        tile's own first vote is captured (the axis is never *read* on
        first frames); on later frames it carries the learned axis,
        which ``select`` consumes and nothing mutates.
        """
        policy = BioMedicalSearchPolicy(self.search)
        policy.state = GopMotionState(
            dominant_axis=None if self.is_first else self.axis,
            tile_mv={self.tile_id: self.predictor},
        )
        return policy

    def algorithm(self) -> MotionSearch:
        """The search algorithm the policy selects for this tile (what
        ``self.policy().select(...)`` returns, without building one)."""
        axis = None if self.is_first else self.axis
        return _select(self.search, self.motion, self.is_first, axis or "x")[0]


@dataclass(frozen=True)
class TileLearned:
    """What one first-P-frame tile learned, reported back for merging.

    ``first_axis`` is the tile's first non-zero-MV axis vote (the
    quantity the dominant-axis election consumes) and ``final_mv`` the
    tile's last block MV (the value that survives in
    ``GopMotionState.tile_mv`` after the tile).
    """

    tile_id: int
    first_axis: Optional[str]
    final_mv: Optional[MotionVector]


def merge_learned(
    state: GopMotionState, learned: Sequence[Optional[TileLearned]]
) -> None:
    """Fold per-tile learning back into the shared GOP state.

    Replays the election in tile order: tiles are visited by index and
    the first axis vote wins — the first non-zero MV in tile-then-block
    order sets the dominant axis.  ``None`` entries (tiles that did not
    learn) are skipped.
    """
    for rec in sorted((r for r in learned if r is not None),
                      key=lambda r: r.tile_id):
        if rec.final_mv is not None:
            state.tile_mv[rec.tile_id] = rec.final_mv
        if state.dominant_axis is None and rec.first_axis is not None:
            state.dominant_axis = rec.first_axis


def spec_hook(spec: TileHookSpec, policy: BioMedicalSearchPolicy):
    """The motion hook equivalent to ``spec``, driving ``policy``.

    Used when a tile takes the encoder's per-block NumPy path: pins the
    spec's window (the policy's own window choice is ignored, as the
    pipeline may have shrunk it).
    """

    def hook(ctx_factory, left_mv):
        return policy.search_block(
            lambda _window: ctx_factory(spec.window),
            spec.motion, spec.is_first, spec.tile_id, left_mv=left_mv,
        )

    return hook
