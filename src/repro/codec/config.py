"""Encoder configuration.

:class:`EncoderConfig` captures the per-tile encoding knobs the paper
tunes (§III-C): the quantization parameter, the motion search algorithm
and its window.  :class:`GopConfig` captures the GOP structure: the
paper uses a Random Access configuration with GOP size 8, re-tiling and
allocation once per GOP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.codec.quant import MAX_QP, MIN_QP
from repro.motion.base import MotionSearch
from repro.motion.registry import get_search


class FrameType(enum.Enum):
    """Frame coding types: I (intra-only) and P (one past reference,
    the previous frame's reconstruction).

    The paper's Random Access configuration uses B slices; this
    substrate does not — bi-prediction shifts absolute rate but not the
    content/QP/search-window dependences the paper's mechanisms
    exploit (see DESIGN.md).
    """

    I = "I"
    P = "P"


@dataclass(frozen=True)
class GopConfig:
    """Group-of-pictures structure (paper: RA, GOP of size 8): an I
    frame, then P frames."""

    size: int = 8

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("GOP size must be >= 1")

    def frame_type(self, frame_index: int) -> FrameType:
        return FrameType.P if frame_index % self.size else FrameType.I

    def is_gop_start(self, frame_index: int) -> bool:
        return frame_index % self.size == 0

    def position_in_gop(self, frame_index: int) -> int:
        return frame_index % self.size


@dataclass(frozen=True)
class EncoderConfig:
    """Per-tile encoding knobs.

    Attributes
    ----------
    qp:
        Quantization parameter (paper ladder: 22/27/32/37/42).
    search:
        Motion search algorithm name (see ``repro.motion.registry``).
        Ignored when the encoder is driven by a
        :class:`~repro.motion.proposed.BioMedicalSearchPolicy`.
    search_window:
        Maximum displacement per axis (paper windows: 64/32/16/8).
    block_size:
        Coding block edge (the substrate's CTU).
    lambda_mv:
        MV rate penalty weight in the search cost.
    """

    qp: int = 32
    search: str = "hexagon"
    search_window: int = 64
    block_size: int = 16
    lambda_mv: float = 4.0

    def __post_init__(self) -> None:
        if not MIN_QP <= self.qp <= MAX_QP:
            raise ValueError(f"QP must be in [{MIN_QP}, {MAX_QP}], got {self.qp}")
        if self.search_window < 0:
            raise ValueError("search_window must be non-negative")
        if self.block_size <= 0 or self.block_size % 8:
            raise ValueError("block_size must be a positive multiple of 8")
        get_search(self.search)  # validate the name eagerly

    def make_search(self) -> MotionSearch:
        """Instantiate the configured search algorithm."""
        return get_search(self.search)

    def with_qp(self, qp: int) -> "EncoderConfig":
        return replace(self, qp=qp)
