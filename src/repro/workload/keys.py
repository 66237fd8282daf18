"""LUT keys.

The paper's LUT approach works because "the proposed re-tiling approach
includes a limited number of different attainable tile structures and
numbers within a frame [and] the number of different combinations of
the encoding configurations are limited" (§III-D1).  A key therefore
combines the discrete per-tile descriptors: content class of the video,
texture/motion class of the tile, QP, search window, frame kind, and a
coarse (power-of-two) tile-area bucket.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro.codec.config import FrameType
from repro.video.generator import ContentClass


def area_bucket(area: int) -> int:
    """Power-of-two bucket index of a tile area (in luma samples)."""
    if area <= 0:
        raise ValueError("area must be positive")
    return area.bit_length() - 1


@dataclass(frozen=True)
class WorkloadKey:
    """Discrete descriptor of one tile-encoding task."""

    texture: TextureClass
    motion: MotionClass
    qp: int
    search_window: int
    frame_type: FrameType
    area_bucket: int
    content_class: Optional[ContentClass] = None
    #: Output luma height of the rendition rung this task encodes
    #: (e.g. 480/360/240).  ``None`` is the legacy single-resolution
    #: key — pre-ladder checkpoints deserialize to it unchanged, and
    #: full-resolution sessions keep using it so their statistics pool
    #: with everything recorded before ladders existed.
    resolution: Optional[int] = None

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # Computed once per key (four of the fields are enums, whose
        # hash is a Python-level call): the LUT hashes the same key
        # objects twice per observation.
        return hash((self.texture, self.motion, self.qp, self.search_window,
                     self.frame_type, self.area_bucket, self.content_class,
                     self.resolution))

    def generalized(self) -> "WorkloadKey":
        """Key with the content class erased.

        Used as a fallback: the paper notes the LUT "obtained [for] one
        MRI or CT data [applies] to the rest of images in the same
        class"; across classes, the class-agnostic statistics still
        give a first estimate before per-class data accumulates.
        """
        return self._generalized

    @functools.cached_property
    def _generalized(self) -> "WorkloadKey":
        # Built once per key: the LUT asks on every observation, and
        # the pipeline hands it the same key objects frame after frame.
        return WorkloadKey(
            texture=self.texture,
            motion=self.motion,
            qp=self.qp,
            search_window=self.search_window,
            frame_type=self.frame_type,
            area_bucket=self.area_bucket,
            content_class=None,
            resolution=self.resolution,
        )

    # -- serialization (LUT checkpointing) -----------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form (enum names/values, not objects)."""
        return {
            "texture": self.texture.name,
            "motion": self.motion.name,
            "qp": self.qp,
            "search_window": self.search_window,
            "frame_type": self.frame_type.name,
            "area_bucket": self.area_bucket,
            "content_class": (
                None if self.content_class is None else self.content_class.value
            ),
            "resolution": self.resolution,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadKey":
        """Inverse of :meth:`to_dict`; raises ``KeyError``/``ValueError``
        on unknown enum names (treated as corruption by the checkpoint
        loader)."""
        content = data["content_class"]
        # ``get``: checkpoints written before the ladder grew the key a
        # resolution dimension stay loadable (they deserialize to the
        # legacy ``resolution=None`` keys they were recorded under).
        resolution = data.get("resolution")
        return cls(
            texture=TextureClass[data["texture"]],
            motion=MotionClass[data["motion"]],
            qp=int(data["qp"]),
            search_window=int(data["search_window"]),
            frame_type=FrameType[data["frame_type"]],
            area_bucket=int(data["area_bucket"]),
            content_class=None if content is None else ContentClass(content),
            resolution=None if resolution is None else int(resolution),
        )
