"""Texture evaluation via the coefficient of variation (paper Eq. 1).

The paper quantifies the texture of a tile with the coefficient of
variation (CV) of its luma samples — the ratio of the standard
deviation to the mean — and classifies it against two thresholds::

    T = low     if CV <= T_th,l
        medium  if T_th,l < CV <= T_th,h
        high    if CV > T_th,h

The thresholds are not given numerically in the paper; the defaults
below were calibrated on the synthetic video corpus so that borders of
centred anatomy classify *low* and organ interiors classify *high*
(reproducing the behaviour of Fig. 1/Fig. 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class TextureClass(enum.IntEnum):
    """Ordered texture classes; higher value means more texture."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


@dataclass(frozen=True)
class TextureThresholds:
    """CV thresholds (T_th,l and T_th,h in the paper's Eq. 1).

    ``dark_mean`` guards the CV's denominator: a near-black region
    (mean luma below ``dark_mean``) carries no diagnostic content and
    is classified LOW regardless of its CV, which would otherwise blow
    up through the tiny mean.  Medical frame borders are exactly such
    regions (paper Fig. 1).
    """

    low: float = 0.25
    high: float = 0.60
    dark_mean: float = 40.0

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(
                f"need 0 <= low <= high, got low={self.low} high={self.high}"
            )
        if self.dark_mean < 0:
            raise ValueError("dark_mean must be non-negative")

    def classify(self, mean: float, cv: float) -> TextureClass:
        """Eq. 1 on a region's mean luma and CV (dark regions are LOW)."""
        if mean < self.dark_mean or cv <= self.low:
            return TextureClass.LOW
        if cv <= self.high:
            return TextureClass.MEDIUM
        return TextureClass.HIGH


def coefficient_of_variation(samples: np.ndarray) -> float:
    """CV = standard deviation / mean of the luma samples.

    A zero-mean (all-black) region has no meaningful CV; it is reported
    as 0.0, i.e. minimal texture, which matches the intent of the
    classifier (nothing to encode there).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty sample region")
    mean = float(samples.mean())
    if mean == 0.0:
        return 0.0
    return float(samples.std() / mean)


def classify_texture(
    samples: np.ndarray, thresholds: TextureThresholds = TextureThresholds()
) -> TextureClass:
    """Classify a tile's texture per the paper's Eq. 1."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty sample region")
    return thresholds.classify(
        float(samples.mean()), coefficient_of_variation(samples)
    )
