"""Rendition-ladder configuration.

A *ladder* is an ordered set of output resolutions ("rungs") derived
from one ingest stream, largest first.  Rung 0 is the **primary**: the
full-resolution clinical deliverable, encoded at ingest geometry and
never pruned or dropped — lower rungs are bandwidth conveniences for
remote viewers, which is why both the Green-VCA planner and the
admission controller shed from the bottom up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "LadderRung",
    "LadderConfig",
    "DEFAULT_RUNGS",
    "RUNG_MULTIPLE",
    "default_rungs_for",
]


#: Rung dimensions must be multiples of the codec's transform size:
#: block partitioning leaves border blocks of ``dim % 16`` samples, and
#: the 8x8 transform requires those remainders to stay divisible by 8.
RUNG_MULTIPLE = 8


@dataclass(frozen=True)
class LadderRung:
    """One output resolution of a rendition ladder."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"rung dimensions must be positive, got "
                f"{self.width}x{self.height}"
            )
        if self.width % RUNG_MULTIPLE or self.height % RUNG_MULTIPLE:
            raise ValueError(
                f"rung dimensions must be multiples of {RUNG_MULTIPLE} "
                f"(the transform size), got {self.width}x{self.height}"
            )

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def name(self) -> str:
        """Conventional rendition label (``480p``-style, by height)."""
        return f"{self.height}p"


#: The paper's VGA world and its two classic sub-rungs: 3/4 linear
#: scale (480x360) and 1/2 linear scale (320x240).  Integer box
#: geometry exists for each (no rung exceeds the ingest).
DEFAULT_RUNGS: Tuple[LadderRung, ...] = (
    LadderRung(640, 480),
    LadderRung(480, 360),
    LadderRung(320, 240),
)


def default_rungs_for(width: int, height: int) -> Tuple[LadderRung, ...]:
    """A 3-rung ladder scaled to an arbitrary ingest geometry.

    Full resolution, 3/4 linear scale and 1/2 linear scale — the same
    shape as :data:`DEFAULT_RUNGS` produces for 640x480.  Dimensions
    are floored; rungs below the 32-sample minimum tile geometry
    (``TilingConstraints``) are omitted so tiny test ingests still
    yield a valid (shorter) ladder.
    """
    candidates = [
        (width, height),
        (width * 3 // 4, height * 3 // 4),
        (width // 2, height // 2),
    ]
    rungs = []
    for w, h in candidates:
        # Floor to the transform-size multiple the encoder requires.
        w -= w % RUNG_MULTIPLE
        h -= h % RUNG_MULTIPLE
        if w >= 32 and h >= 32 and (w, h) not in [
            (r.width, r.height) for r in rungs
        ]:
            rungs.append(LadderRung(w, h))
    return tuple(rungs)


@dataclass(frozen=True)
class LadderConfig:
    """Configuration of one rendition-ladder session.

    ``rungs`` must be strictly decreasing in area (largest = primary
    first); rung ids are positions in this tuple and stay stable across
    pruning, so a manifest or wire consumer can always map id ->
    geometry.
    """

    rungs: Tuple[LadderRung, ...] = DEFAULT_RUNGS
    #: Apply the Green-VCA pruning rule (arxiv 2304.12384): drop
    #: intermediate rungs whose predicted quality gain over the next
    #: lower rung falls below :attr:`min_gain_db` for the measured
    #: content complexity.  The primary and the lowest rung survive
    #: regardless.
    prune: bool = True
    #: Minimum predicted quality gain (dB) an intermediate rung must
    #: buy to stay in the ladder.
    min_gain_db: float = 1.0
    #: Segment length in GOPs — every segment boundary is a GOP
    #: boundary by construction, which is what makes mid-stream rung
    #: switching decode cleanly (each segment opens on an I frame).
    segment_gops: int = 2

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("ladder needs at least one rung")
        areas = [r.area for r in self.rungs]
        if any(a <= b for a, b in zip(areas, areas[1:])):
            raise ValueError(
                "ladder rungs must be strictly decreasing in area "
                f"(got {[f'{r.width}x{r.height}' for r in self.rungs]})"
            )
        if self.segment_gops < 1:
            raise ValueError("segment_gops must be >= 1")
        if self.min_gain_db < 0:
            raise ValueError("min_gain_db must be non-negative")

    @property
    def primary(self) -> LadderRung:
        return self.rungs[0]
