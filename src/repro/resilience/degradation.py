"""Deadline monitor and graded degradation ladder.

The paper's framerate feedback (§III-D2) is the ladder's first rung:
when a frame misses ``1/FPS``, the bottleneck tiles of the next frame
get a higher QP and a smaller search window.  Capped at ``QP_BUMP``
the controller is exactly that rule (the offline default of
:class:`~repro.transcode.pipeline.PipelineConfig`); uncapped it answers
sustained deadline pressure with the graded response a served stream
gets:

====================  ==============================================
level                 response applied to the next frame(s)
====================  ==============================================
``QP_BUMP``           bottleneck tiles get ``QP + ΔQP`` and a halved
                      search window
``WINDOW_SHRINK``     additionally, every tile's search window halves
``TILE_MERGE``        additionally, the next re-tiling halves the
                      maximum tile count (fewer, larger tiles — less
                      per-tile overhead, coarser parallelism)
``FRAME_DROP``        frames are skipped entirely until the rolling
                      budget recovers
====================  ==============================================

Escalation happens after ``escalate_after`` consecutive deadline
misses; de-escalation requires :data:`RECOVER_AFTER` consecutive
on-time frames *and* a drained debt — the hysteresis that stops a
stream from oscillating between levels when load hovers near the
budget.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Sequence, Set


class DegradationLevel(enum.IntEnum):
    """Rungs of the degradation ladder, mildest first."""

    NONE = 0
    QP_BUMP = 1
    WINDOW_SHRINK = 2
    TILE_MERGE = 3
    FRAME_DROP = 4


#: Relative headroom before a frame counts as a deadline miss.
TOLERANCE = 0.05
#: Outstanding debt (in slots) that forces one rung of escalation per
#: frame even without consecutive misses — a single huge spike leaves
#: the stream behind budget although every following frame is
#: individually on time.
ESCALATE_DEBT_SLOTS = 1.0
#: Consecutive on-time frames (with drained debt) to descend one rung —
#: the hysteresis.
RECOVER_AFTER = 3


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the deadline monitor and degradation ladder.

    The defaults are a served stream's full ladder."""

    #: Consecutive misses required to climb one rung.
    escalate_after: int = 1
    #: Highest rung the ladder may reach.
    max_level: DegradationLevel = DegradationLevel.FRAME_DROP
    #: Drop corrupt input frames instead of raising
    #: :class:`~repro.resilience.errors.CorruptFrameError`.
    drop_corrupt_frames: bool = True

    def __post_init__(self) -> None:
        if self.escalate_after < 1:
            raise ValueError("escalate_after must be >= 1")


@dataclass
class DegradationReport:
    """Summary of one stream's resilience behaviour."""

    frames_observed: int = 0
    deadline_misses: int = 0
    frames_dropped: int = 0
    corrupt_frames_dropped: int = 0
    #: ``kind -> count`` of the ladder's actions ("escalate",
    #: "recover", "frame_drop", "corrupt_drop").  A count, not a log:
    #: a served session lives for as long as its client keeps pushing.
    action_totals: Counter = field(default_factory=Counter)

    def action_counts(self) -> Dict[str, int]:
        """Deterministically ordered ``kind -> count`` map."""
        return dict(sorted(self.action_totals.items()))


class DegradationController:
    """Per-stream deadline monitor driving the degradation ladder.

    Every pipeline session owns one: ``observe_frame`` reads a frame's
    per-tile CPU times against the slot, ``bottleneck_tiles`` and
    ``adjust_tile`` shape the next frame, and ``merge_tiles`` /
    ``should_drop_frame`` are the upper rungs.
    """

    def __init__(self, fps: float, config: ResilienceConfig = ResilienceConfig()):
        if not (math.isfinite(fps) and fps > 0):
            raise ValueError("fps must be finite and positive")
        self.fps = fps
        self.config = config
        self._level = DegradationLevel.NONE
        self._miss_streak = 0
        self._hit_streak = 0
        self._debt_seconds = 0.0
        self._bottlenecks: Set[int] = set()
        self.report = DegradationReport()

    # -- observation ---------------------------------------------------
    @property
    def slot_duration(self) -> float:
        return 1.0 / self.fps

    @property
    def level(self) -> DegradationLevel:
        return self._level

    @property
    def debt_seconds(self) -> float:
        return self._debt_seconds

    @property
    def bottleneck_tiles(self) -> Set[int]:
        return set(self._bottlenecks)

    def framerate_satisfied(self) -> bool:
        return self._debt_seconds <= 0.0

    def observe_frame(self, tile_cpu_times: Sequence[float]) -> bool:
        """Record one encoded frame's per-tile CPU times.

        Returns ``True`` when the frame missed its deadline.  Work is
        parallel across cores, so the frame's critical path is the
        maximum tile time.
        """
        if not tile_cpu_times:
            raise ValueError("no tile times supplied")
        slot = self.slot_duration
        threshold = slot * (1 + TOLERANCE)
        critical = max(tile_cpu_times)
        self._debt_seconds = max(0.0, self._debt_seconds + critical - slot)
        self._bottlenecks = {
            i for i, t in enumerate(tile_cpu_times) if t > threshold
        }
        missed = critical > threshold
        self.report.frames_observed += 1
        if missed:
            self.report.deadline_misses += 1
            self._miss_streak += 1
            self._hit_streak = 0
            if self._miss_streak >= self.config.escalate_after:
                self._escalate()
                self._miss_streak = 0
        elif self._debt_seconds > ESCALATE_DEBT_SLOTS * slot:
            # On time, but still behind budget: keep climbing the
            # ladder so the backlog drains instead of lingering.
            self._hit_streak = 0
            self._miss_streak = 0
            self._escalate()
        else:
            self._hit_streak += 1
            self._miss_streak = 0
            if (
                self._hit_streak >= RECOVER_AFTER
                and self._debt_seconds <= 0.0
                and self._level > DegradationLevel.NONE
            ):
                self._recover()
                self._hit_streak = 0
        return missed

    def _escalate(self) -> None:
        if self._level >= self.config.max_level:
            return
        self._level = DegradationLevel(self._level + 1)
        self.report.action_totals["escalate"] += 1

    def _recover(self) -> None:
        self._level = DegradationLevel(self._level - 1)
        self.report.action_totals["recover"] += 1

    # -- responses -----------------------------------------------------
    def adjust_tile(self, qp: int, window: int, is_bottleneck: bool,
                    qp_max: int, delta_qp: int) -> tuple:
        """Apply the current rung's lighter configuration to one tile."""
        if self._level >= DegradationLevel.QP_BUMP and is_bottleneck:
            qp = min(qp_max, qp + delta_qp)
        if self._level >= DegradationLevel.WINDOW_SHRINK:
            window = max(8, window // 2)
        elif is_bottleneck and self._level >= DegradationLevel.QP_BUMP:
            window = max(8, window // 2)
        return qp, window

    @property
    def merge_tiles(self) -> bool:
        """Next re-tiling should use a reduced maximum tile count."""
        return self._level >= DegradationLevel.TILE_MERGE

    def should_drop_frame(self) -> bool:
        """At the top rung, drop frames while debt is outstanding."""
        return (
            self._level >= DegradationLevel.FRAME_DROP
            and self._debt_seconds > 0.0
        )

    def observe_dropped_frame(self) -> None:
        """Account for a deliberately dropped frame: its whole slot is
        reclaimed against the debt."""
        self._debt_seconds = max(0.0, self._debt_seconds - self.slot_duration)
        self.report.frames_dropped += 1
        self.report.action_totals["frame_drop"] += 1
        if self._debt_seconds <= 0.0:
            # Budget restored; resume encoding one rung down.
            self._recover()
            self._hit_streak = 0

    def observe_corrupt_frame(self) -> None:
        """Account for a corrupt input frame dropped by validation."""
        self.report.corrupt_frames_dropped += 1
        self.report.action_totals["corrupt_drop"] += 1

    # -- persistence ---------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the monitor's mutable state.

        Everything that influences *future* decisions is captured
        (level, debt, streaks, bottleneck set) plus the report counters
        so a resumed stream's summary stays continuous.  The action
        counts are not carried across a resume.
        """
        return {
            "level": int(self._level),
            "miss_streak": self._miss_streak,
            "hit_streak": self._hit_streak,
            "debt_seconds": self._debt_seconds,
            "bottlenecks": sorted(self._bottlenecks),
            "report": {
                "frames_observed": self.report.frames_observed,
                "deadline_misses": self.report.deadline_misses,
                "frames_dropped": self.report.frames_dropped,
                "corrupt_frames_dropped": self.report.corrupt_frames_dropped,
            },
        }

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self._level = DegradationLevel(int(state["level"]))
        self._miss_streak = int(state["miss_streak"])
        self._hit_streak = int(state["hit_streak"])
        self._debt_seconds = float(state["debt_seconds"])
        self._bottlenecks = {int(i) for i in state["bottlenecks"]}
        counters = state.get("report") or {}
        self.report.frames_observed = int(counters.get("frames_observed", 0))
        self.report.deadline_misses = int(counters.get("deadline_misses", 0))
        self.report.frames_dropped = int(counters.get("frames_dropped", 0))
        self.report.corrupt_frames_dropped = int(
            counters.get("corrupt_frames_dropped", 0)
        )

    def reset(self) -> None:
        self._debt_seconds = 0.0
        self._bottlenecks.clear()
        self._miss_streak = 0
        self._hit_streak = 0
        self._level = DegradationLevel.NONE
