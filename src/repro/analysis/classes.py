"""Body-part content classification (paper §III-D1).

"Medical images are classifiable in very limited categories based on
part of the body that is under the study ... This feature allows us to
use the obtained LUT of one MRI or CT data [for] the rest of images in
the same class."

To *use* that property online, the server must recognise a new video's
class before its own LUT entries exist.  This module provides a
lightweight nearest-centroid classifier over cheap frame statistics —
the features are deliberately computable from the same pass that
evaluates texture (mean, CV) plus two structure cues (edge density and
a speckle index that separates ultrasound).

Centroids ship pre-fitted for the synthetic corpus but can be re-fitted
on any labelled collection via :meth:`ContentClassifier.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.video.frame import Frame, Video
from repro.video.generator import ContentClass


@dataclass(frozen=True)
class FrameFeatures:
    """Cheap per-frame statistics used for classification."""

    mean_luma: float
    cv: float
    edge_density: float
    speckle_index: float

    def as_vector(self) -> np.ndarray:
        return np.array([
            self.mean_luma / 255.0,
            self.cv,
            self.edge_density,
            self.speckle_index,
        ])


def extract_features(luma: np.ndarray) -> FrameFeatures:
    """Compute the classification features of one luma plane."""
    plane = np.asarray(luma, dtype=np.float64)
    if plane.size == 0:
        raise ValueError("empty frame")
    mean = float(plane.mean())
    cv = float(plane.std() / mean) if mean > 0 else 0.0
    # Edge density: fraction of strong gradients.
    gy, gx = np.gradient(plane)
    magnitude = np.hypot(gx, gy)
    edge_density = float((magnitude > 25.0).mean())
    # Speckle index: high-frequency energy relative to local mean in
    # the bright region (ultrasound speckle is multiplicative noise).
    bright = plane > 40.0
    if bright.any():
        local = plane[bright]
        highpass = magnitude[bright]
        speckle = float(np.median(highpass) / (np.median(local) + 1e-9))
    else:
        speckle = 0.0
    return FrameFeatures(mean, cv, edge_density, speckle)


class ContentClassifier:
    """Nearest-centroid classifier over :class:`FrameFeatures`."""

    def __init__(self, centroids: Optional[Dict[ContentClass, np.ndarray]] = None):
        self.centroids: Dict[ContentClass, np.ndarray] = dict(centroids or {})

    def fit(self, labelled: Iterable[Tuple[ContentClass, Video]]) -> "ContentClassifier":
        """Fit centroids from labelled videos (uses every 4th frame)."""
        buckets: Dict[ContentClass, List[np.ndarray]] = {}
        for label, video in labelled:
            for frame in video.frames[::4] or video.frames[:1]:
                buckets.setdefault(label, []).append(
                    extract_features(frame.luma).as_vector()
                )
        if not buckets:
            raise ValueError("no labelled videos supplied")
        self.centroids = {
            label: np.mean(np.stack(vectors), axis=0)
            for label, vectors in buckets.items()
        }
        return self

    def classify_frame(self, frame: Frame) -> ContentClass:
        return self._nearest(extract_features(frame.luma).as_vector())

    def classify_features(self, features: FrameFeatures) -> ContentClass:
        """Classify from pre-extracted features.

        The rendition ladder computes one :func:`extract_features` pass
        at full resolution and reuses it for classification *and* rung
        planning — this entry point is what makes that sharing
        possible without re-running the feature pass.
        """
        return self._nearest(features.as_vector())

    def classify_video(self, video: Video, stride: int = 4) -> ContentClass:
        """Majority vote over sampled frames."""
        if len(video) == 0:
            raise ValueError("empty video")
        votes: Dict[ContentClass, int] = {}
        for frame in video.frames[::stride] or video.frames[:1]:
            label = self.classify_frame(frame)
            votes[label] = votes.get(label, 0) + 1
        return max(votes.items(), key=lambda kv: (kv[1], kv[0].value))[0]

    def _nearest(self, vector: np.ndarray) -> ContentClass:
        if not self.centroids:
            raise ValueError("classifier has no centroids; call fit() first")
        best = None
        best_dist = float("inf")
        for label, centroid in self.centroids.items():
            dist = float(np.linalg.norm(vector - centroid))
            if dist < best_dist:
                best, best_dist = label, dist
        return best


def default_classifier(seed: int = 0, width: int = 160, height: int = 128) -> ContentClassifier:
    """A classifier fitted on the synthetic corpus (one video per
    class, a few frames each — fast enough to build at import site)."""
    from repro.video.generator import (
        BioMedicalVideoGenerator,
        GeneratorConfig,
        MotionPreset,
    )
    labelled = []
    for cc in ContentClass:
        video = BioMedicalVideoGenerator(GeneratorConfig(
            width=width, height=height, num_frames=4, seed=seed,
            content_class=cc, motion=MotionPreset.PAN_RIGHT,
        )).generate()
        labelled.append((cc, video))
    return ContentClassifier().fit(labelled)
