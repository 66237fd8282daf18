"""Tile geometry.

HEVC tiles are rectangular, independently decodable regions of a frame.
The paper's content-aware re-tiling (§III-B, Fig. 3b) produces an
*irregular* rectangle partition (grown corner/border tiles plus a
partitioned centre), so :class:`TileGrid` models an arbitrary exact
rectangle partition of the frame rather than only row/column grids.
Row/column grids (used for the paper's Table I uniform tilings and by
the Khan et al. baseline) are built through
:meth:`TileGrid.from_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Tile:
    """A rectangular tile: ``x, y`` is the top-left corner (inclusive).

    Coordinates are in luma samples.  A tile must be non-degenerate.
    """

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"degenerate tile {self}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"negative tile origin {self}")

    @property
    def x_end(self) -> int:
        """One past the rightmost column."""
        return self.x + self.width

    @property
    def y_end(self) -> int:
        """One past the bottom row."""
        return self.y + self.height

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def overlaps(self, other: "Tile") -> bool:
        return not (
            self.x_end <= other.x
            or other.x_end <= self.x
            or self.y_end <= other.y
            or other.y_end <= self.y
        )

    def contains_point(self, px: int, py: int) -> bool:
        return self.x <= px < self.x_end and self.y <= py < self.y_end

    def extract(self, plane: np.ndarray) -> np.ndarray:
        """View of this tile's samples in a frame-sized plane."""
        if self.x_end > plane.shape[1] or self.y_end > plane.shape[0]:
            raise ValueError(
                f"tile {self} outside plane {plane.shape[1]}x{plane.shape[0]}"
            )
        return plane[self.y : self.y_end, self.x : self.x_end]

    def with_size(self, width: int, height: int) -> "Tile":
        return Tile(self.x, self.y, width, height)


@dataclass
class TileGrid:
    """An exact rectangle partition of a ``frame_width x frame_height`` frame.

    The constructor verifies the partition invariant: tiles are pairwise
    disjoint and cover every sample exactly once.
    """

    frame_width: int
    frame_height: int
    tiles: List[Tile] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError("frame dimensions must be positive")
        if not self.tiles:
            raise ValueError("a tile grid needs at least one tile")
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` unless tiles exactly partition the frame."""
        total_area = 0
        spans = []  # (y, x, y_end, x_end, tile), top-left first
        for tile in self.tiles:
            x_end, y_end = tile.x + tile.width, tile.y + tile.height
            if x_end > self.frame_width or y_end > self.frame_height:
                raise ValueError(f"tile {tile} exceeds frame bounds")
            total_area += tile.width * tile.height
            spans.append((tile.y, tile.x, y_end, x_end, tile))
        if total_area != self.frame_width * self.frame_height:
            raise ValueError(
                f"tiles cover {total_area} samples, frame has "
                f"{self.frame_width * self.frame_height}"
            )
        # Area match + bounds + pairwise disjointness <=> exact cover.
        spans.sort(key=lambda span: span[:2])
        for i, (_, ax, ay_end, ax_end, a) in enumerate(spans):
            for by, bx, _, bx_end, b in spans[i + 1:]:
                if by >= ay_end:
                    break
                # b starts inside a's rows, so columns decide.
                if bx < ax_end and ax < bx_end:
                    raise ValueError(f"tiles overlap: {a} and {b}")

    def __len__(self) -> int:
        return len(self.tiles)

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles)

    def __getitem__(self, idx: int) -> Tile:
        return self.tiles[idx]

    def tile_at(self, px: int, py: int) -> Tile:
        """Tile containing sample ``(px, py)``."""
        for tile in self.tiles:
            if tile.contains_point(px, py):
                return tile
        raise ValueError(f"point ({px},{py}) outside frame")

    def coverage_map(self) -> np.ndarray:
        """``(H, W)`` int array mapping each sample to its tile index."""
        cover = np.full((self.frame_height, self.frame_width), -1, dtype=np.int32)
        for idx, tile in enumerate(self.tiles):
            cover[tile.y : tile.y_end, tile.x : tile.x_end] = idx
        return cover

    @classmethod
    def from_grid(
        cls,
        frame_width: int,
        frame_height: int,
        col_widths: Sequence[int],
        row_heights: Sequence[int],
    ) -> "TileGrid":
        """Build a row/column grid from explicit column widths and row heights."""
        if sum(col_widths) != frame_width:
            raise ValueError(
                f"column widths {col_widths} do not sum to {frame_width}"
            )
        if sum(row_heights) != frame_height:
            raise ValueError(
                f"row heights {row_heights} do not sum to {frame_height}"
            )
        tiles = []
        y = 0
        for rh in row_heights:
            x = 0
            for cw in col_widths:
                tiles.append(Tile(x, y, cw, rh))
                x += cw
            y += rh
        return cls(frame_width, frame_height, tiles)

    @classmethod
    def single(cls, frame_width: int, frame_height: int) -> "TileGrid":
        """The trivial 1x1 tiling."""
        return cls(frame_width, frame_height, [Tile(0, 0, frame_width, frame_height)])


def split_evenly(total: int, parts: int, align: int = 1) -> List[int]:
    """Split ``total`` into ``parts`` near-equal chunks aligned to ``align``.

    All chunks are multiples of ``align`` except that the last absorbs
    ``total % align``.  When ``total`` is too small for ``parts``
    chunks at the requested alignment, the alignment is halved (down to
    1) until feasible — mirroring how HEVC encoders fall back to finer
    CTU granularity for small pictures.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < parts:
        raise ValueError(f"cannot split {total} samples into {parts} parts")
    align = max(1, align)
    while align > 1 and total < parts * align:
        align //= 2
    base = max(align, (total // parts) // align * align)
    sizes = [base] * parts
    leftover = total - base * parts
    index = 0
    while leftover >= align:
        sizes[index % parts] += align
        leftover -= align
        index += 1
    sizes[-1] += leftover
    return sizes
