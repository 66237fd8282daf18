"""Framerate feedback (paper §III-D2).

"The resulted encoding time of the performed allocation is readout once
a frame is released and, if it does not equal 1/FPS seconds, an
alternative (and less) complex encoding configuration is applied to the
next frame (only if the operating frequency is maximum).  This
alternative encoding configuration includes using a smaller search
window and higher QP for the tiles recognized as the bottleneck."

The feedback controller watches per-tile CPU times against the slot
budget and marks bottleneck tiles; the pipeline applies the lighter
configuration (QP bump + halved search window) to those tiles on the
next frame.  Over-utilisation is compensated by under-utilisation of
later frames: the controller also tracks the rolling one-second budget
the paper checks ("the required framerate (checked every second)").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Set


@dataclass
class FramerateFeedback:
    """Per-stream framerate feedback state."""

    fps: float
    #: Relative headroom: a tile is a bottleneck when its CPU time
    #: exceeds ``slot_share * (1 + tolerance)``.
    tolerance: float = 0.05

    _debt_seconds: float = field(default=0.0, init=False)
    _bottlenecks: Set[int] = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    @property
    def slot_duration(self) -> float:
        return 1.0 / self.fps

    @property
    def bottleneck_tiles(self) -> Set[int]:
        """Tiles to encode with the lighter configuration next frame."""
        return set(self._bottlenecks)

    @property
    def debt_seconds(self) -> float:
        """Accumulated overrun against the rolling framerate budget."""
        return self._debt_seconds

    def observe_frame(self, tile_cpu_times: Sequence[float],
                      frame_index: int = -1) -> None:
        """Record one frame's per-tile CPU times (seconds at the
        running frequency).

        The bottleneck set is recomputed: the tiles whose CPU time
        exceeds their proportional share of the slot.  The rolling debt
        tracks whether the stream keeps up with 1/FPS per frame.
        ``frame_index`` is accepted for interface parity with
        :class:`repro.resilience.degradation.DegradationController`
        (which logs it) and is otherwise unused here.
        """
        if not tile_cpu_times:
            raise ValueError("no tile times supplied")
        total = sum(tile_cpu_times)
        slot = self.slot_duration
        # Per-frame budget bookkeeping (work is parallel across cores,
        # so the frame's critical path is the max tile time).
        critical = max(tile_cpu_times)
        self._debt_seconds = max(0.0, self._debt_seconds + critical - slot)

        self._bottlenecks.clear()
        if critical > slot * (1 + self.tolerance):
            threshold = slot * (1 + self.tolerance)
            for i, t in enumerate(tile_cpu_times):
                if t > threshold:
                    self._bottlenecks.add(i)

    def adjust_tile(self, qp: int, window: int, is_bottleneck: bool,
                    qp_max: int, delta_qp: int) -> tuple:
        """The paper's single "alternative lighter configuration"
        (§III-D2): bottleneck tiles get a QP bump and a halved search
        window.  :class:`~repro.resilience.degradation.DegradationController`
        overrides this with the full graded ladder."""
        if is_bottleneck:
            qp = min(qp_max, qp + delta_qp)
            window = max(8, window // 2)
        return qp, window

    def framerate_satisfied(self) -> bool:
        """True when the rolling budget has no outstanding debt."""
        return self._debt_seconds <= 0.0

    def reset(self) -> None:
        self._debt_seconds = 0.0
        self._bottlenecks.clear()
