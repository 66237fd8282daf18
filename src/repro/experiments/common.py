"""Shared experiment infrastructure: the synthetic corpus and encode
helpers used by the Table I/II and Fig. 3/4 harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.evaluator import ContentEvaluator
from repro.codec.config import EncoderConfig, FrameType, GopConfig
from repro.codec.encoder import FrameEncoder, SequenceStats, VideoEncoder
from repro.motion.proposed import (
    BioMedicalSearchPolicy,
    ProposedSearchConfig,
    merge_learned,
)
from repro.platform.cost_model import CostModel
from repro.platform.mpsoc import XEON_E5_2667
from repro.tiling.tile import TileGrid
from repro.video.frame import Video
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


def medical_corpus(
    width: int = 640,
    height: int = 480,
    num_frames: int = 48,
    seed: int = 0,
    num_videos: int = 10,
) -> List[Video]:
    """The experiment corpus: "10 different anonymized bio-medical
    videos ... that represent a wide set of typical videos used in
    diagnostic procedures" (paper §IV-A) — here, one synthetic video
    per (content class, motion preset) pair."""
    pairings = [
        (ContentClass.BRAIN, MotionPreset.ROTATE),
        (ContentClass.BRAIN, MotionPreset.PAN_RIGHT),
        (ContentClass.BONE, MotionPreset.PAN_DOWN),
        (ContentClass.BONE, MotionPreset.STILL),
        (ContentClass.LUNG, MotionPreset.PAN_RIGHT),
        (ContentClass.LUNG, MotionPreset.ROTATE),
        (ContentClass.CARDIAC, MotionPreset.PULSATE),
        (ContentClass.CARDIAC, MotionPreset.PAN_DOWN),
        (ContentClass.ULTRASOUND, MotionPreset.PAN_RIGHT),
        (ContentClass.ULTRASOUND, MotionPreset.STILL),
    ]
    videos = []
    for i in range(num_videos):
        cls, motion = pairings[i % len(pairings)]
        cfg = GeneratorConfig(
            width=width,
            height=height,
            num_frames=num_frames,
            content_class=cls,
            motion=motion,
            seed=seed + i,
        )
        videos.append(BioMedicalVideoGenerator(cfg).generate())
    return videos


def encode_cpu_seconds(stats: SequenceStats, cost_model: Optional[CostModel] = None) -> float:
    """Total simulated CPU time (s at f_max) of an encoded sequence."""
    model = cost_model or CostModel()
    return model.seconds(stats.ops, XEON_E5_2667.f_max)


@dataclass
class EncodeOutcome:
    """Sequence statistics plus simulated CPU time."""

    stats: SequenceStats
    cpu_seconds: float

    @property
    def psnr(self) -> float:
        return self.stats.average_psnr

    @property
    def total_bits(self) -> int:
        return self.stats.total_bits


def encode_with_search(
    video: Video,
    grid: TileGrid,
    search: str,
    qp: int = 32,
    window: int = 64,
    gop: GopConfig = GopConfig(8),
    cost_model: Optional[CostModel] = None,
) -> EncodeOutcome:
    """Encode with one classical search algorithm everywhere."""
    config = EncoderConfig(qp=qp, search=search, search_window=window)
    stats = VideoEncoder(config, gop).encode(video, grid)
    return EncodeOutcome(stats, encode_cpu_seconds(stats, cost_model))


def encode_with_proposed_policy(
    video: Video,
    grid: TileGrid,
    qp: int = 32,
    gop: GopConfig = GopConfig(8),
    search_config: ProposedSearchConfig = ProposedSearchConfig(),
    cost_model: Optional[CostModel] = None,
) -> EncodeOutcome:
    """Encode with the paper's combined bio-medical search (§III-C2).

    Drives the per-tile policy over a *fixed* grid (the Table I
    setting: uniform tiling, only the motion search differs): each
    frame's tile motion classes come from the content evaluator, the
    policy learns the motion direction on the first P frame of each
    GOP, and window sizes shrink for the rest of the GOP.
    """
    if len(video) == 0:
        raise ValueError("cannot encode an empty video")
    config = EncoderConfig(qp=qp, search="hexagon", search_window=64)
    evaluator = ContentEvaluator()
    policy = BioMedicalSearchPolicy(search_config)
    frame_encoder = FrameEncoder()
    stats = SequenceStats()
    reference: Optional[np.ndarray] = None
    previous_original: Optional[np.ndarray] = None
    configs = [config] * len(grid)

    for frame in video:
        frame_type = gop.frame_type(frame.index)
        pos = gop.position_in_gop(frame.index)
        if pos == 0:
            policy.start_gop()
        specs = None
        if frame_type is FrameType.P:
            contents = evaluator.evaluate(grid, frame.luma, previous_original)
            is_first = pos <= 1
            specs = [
                policy.tile_spec(content.motion, is_first, i)
                for i, content in enumerate(contents)
            ]
        frame_stats, reconstruction = frame_encoder.encode(
            frame.luma, grid, configs, frame_type,
            reference=reference, frame_index=frame.index, hook_specs=specs,
        )
        merge_learned(policy.state, [t.learned for t in frame_stats.tiles])
        stats.frames.append(frame_stats)
        reference = reconstruction
        previous_original = frame.luma
    return EncodeOutcome(stats, encode_cpu_seconds(stats, cost_model))

