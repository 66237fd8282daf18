"""Frame and video containers.

The codec operates on 8-bit luma (Y) planes, matching the paper's focus:
texture evaluation uses "the diversity in luma samples" and motion
estimation operates on luma only.  All cost/quality accounting is
luma-based, which is the HEVC common-test-condition convention for
PSNR-Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

import numpy as np


@dataclass
class Frame:
    """A single video frame.

    Parameters
    ----------
    luma:
        ``(height, width)`` array of ``uint8`` luma samples.
    index:
        Display index of the frame within its video (0-based).
    """

    luma: np.ndarray
    index: int = 0

    def __post_init__(self) -> None:
        self.luma = np.asarray(self.luma)
        if self.luma.ndim != 2:
            raise ValueError(f"luma must be 2-D, got shape {self.luma.shape}")
        if self.luma.dtype != np.uint8:
            self.luma = np.clip(np.rint(self.luma), 0, 255).astype(np.uint8)

    @property
    def height(self) -> int:
        return int(self.luma.shape[0])

    @property
    def width(self) -> int:
        return int(self.luma.shape[1])

    @property
    def shape(self) -> tuple:
        return self.luma.shape

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    def crop(self, x: int, y: int, width: int, height: int) -> np.ndarray:
        """Return a view of the luma plane for the given rectangle."""
        if x < 0 or y < 0 or x + width > self.width or y + height > self.height:
            raise ValueError(
                f"crop ({x},{y},{width},{height}) outside frame "
                f"{self.width}x{self.height}"
            )
        return self.luma[y : y + height, x : x + width]

    def copy(self) -> "Frame":
        return Frame(luma=self.luma.copy(), index=self.index)

    @classmethod
    def blank(cls, width: int, height: int, value: int = 0, index: int = 0) -> "Frame":
        """Create a uniform frame (useful in tests)."""
        return cls(np.full((height, width), value, dtype=np.uint8), index=index)


@dataclass
class Video:
    """An ordered sequence of frames with a frame rate.

    Videos are small enough in this reproduction (hundreds of frames at
    VGA or below) to keep in memory; streaming input is modelled by
    iterating over the frames.
    """

    frames: List[Frame] = field(default_factory=list)
    fps: float = 24.0
    name: str = "video"

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        for i, frame in enumerate(self.frames):
            frame.index = i

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, idx: int) -> Frame:
        return self.frames[idx]

    @property
    def width(self) -> int:
        self._require_nonempty()
        return self.frames[0].width

    @property
    def height(self) -> int:
        self._require_nonempty()
        return self.frames[0].height

    @property
    def duration_seconds(self) -> float:
        return len(self.frames) / self.fps

    def append(self, frame: Frame) -> None:
        frame.index = len(self.frames)
        self.frames.append(frame)

    def _require_nonempty(self) -> None:
        if not self.frames:
            raise ValueError("video has no frames")

    @classmethod
    def from_arrays(
        cls, arrays: Sequence[np.ndarray], fps: float = 24.0, name: str = "video"
    ) -> "Video":
        return cls(frames=[Frame(a, index=i) for i, a in enumerate(arrays)], fps=fps, name=name)
