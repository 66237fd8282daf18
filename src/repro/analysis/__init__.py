"""Content analysis: low-overhead texture and motion evaluation
(paper §III-A).
"""

from repro.analysis.texture import (
    TextureClass,
    TextureThresholds,
    coefficient_of_variation,
    classify_texture,
)
from repro.analysis.motion_probe import (
    MotionClass,
    MotionProbe,
    MotionProbeConfig,
)
from repro.analysis.frame_analysis import FrameAnalysis
from repro.analysis.evaluator import ContentEvaluator, TileContent
from repro.analysis.classes import (
    ContentClassifier,
    FrameFeatures,
    default_classifier,
    extract_features,
)

__all__ = [
    "ContentClassifier",
    "FrameFeatures",
    "default_classifier",
    "extract_features",
    "TextureClass",
    "TextureThresholds",
    "coefficient_of_variation",
    "classify_texture",
    "MotionClass",
    "MotionProbe",
    "MotionProbeConfig",
    "ContentEvaluator",
    "FrameAnalysis",
    "TileContent",
]
