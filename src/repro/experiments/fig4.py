"""Fig. 4: average power savings of the proposed approach vs Khan et
al. [19] for different numbers of users (paper §IV-B2).

The paper sweeps 1, 2, 3, 4, 5, 6, 8, 10 and 12 users at equal
throughput (both approaches sustain every user's 24 fps) and reports up
to 44% average power savings; savings persist (40% down to 7%) even
beyond 16 users, where [19] saturates.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.allocation import KhanAllocator, ProposedAllocator
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.transcode.pipeline import PipelineConfig, PipelineMode, StreamTranscoder
from repro.transcode.server import TranscodingServer
from repro.video.frame import Video
from repro.experiments.common import medical_corpus

#: User counts on the paper's Fig. 4 x-axis.
FIG4_USER_COUNTS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@dataclass
class Fig4Result:
    """Power savings (%) per user count."""

    savings_percent: Dict[int, float] = field(default_factory=dict)
    power_proposed_w: Dict[int, float] = field(default_factory=dict)
    power_baseline_w: Dict[int, float] = field(default_factory=dict)

    @property
    def average_savings(self) -> float:
        return float(np.mean(list(self.savings_percent.values())))

    @property
    def peak_savings(self) -> float:
        return float(np.max(list(self.savings_percent.values())))


def run_fig4(
    width: int = 640,
    height: int = 480,
    num_frames: int = 16,
    seed: int = 0,
    num_videos: int = 4,
    fps: float = 24.0,
    user_counts: Sequence[int] = FIG4_USER_COUNTS,
    platform: MpsocConfig = XEON_E5_2667,
    videos: Optional[Sequence[Video]] = None,
) -> Fig4Result:
    """Regenerate Fig. 4 on the synthetic corpus."""
    server = TranscodingServer(platform=platform, fps=fps)
    if videos is None:
        videos = medical_corpus(
            width=width, height=height, num_frames=num_frames,
            seed=seed, num_videos=num_videos,
        )
    traces_p = [
        StreamTranscoder(
            PipelineConfig(mode=PipelineMode.PROPOSED, fps=fps, platform=platform)
        ).run(v)
        for v in videos
    ]
    traces_b = [
        StreamTranscoder(PipelineConfig.khan(fps=fps, platform=platform)).run(v)
        for v in videos
    ]
    alloc_p, alloc_b = ProposedAllocator(platform), KhanAllocator(platform)
    result = Fig4Result()
    for n in user_counts:
        rep_p = server.serve(traces_p, alloc_p, num_users=n)
        rep_b = server.serve(traces_b, alloc_b, num_users=n)
        result.power_proposed_w[n] = rep_p.average_power_w
        result.power_baseline_w[n] = rep_b.average_power_w
        result.savings_percent[n] = (
            (1.0 - rep_p.average_power_w / rep_b.average_power_w) * 100.0
        )
    return result


def format_fig4(result: Fig4Result) -> str:
    lines = [
        "FIG. 4 — average power savings vs [19] per number of users",
        f"{'users':>8}{'baseline (W)':>14}{'proposed (W)':>14}{'savings (%)':>13}",
    ]
    for n in sorted(result.savings_percent):
        lines.append(
            f"{n:>8}{result.power_baseline_w[n]:>14.1f}"
            f"{result.power_proposed_w[n]:>14.1f}"
            f"{result.savings_percent[n]:>13.1f}"
        )
    lines.append(
        f"average savings: {result.average_savings:.1f}% "
        f"(paper: up to 44% on average), peak {result.peak_savings:.1f}%"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--frames", type=int, default=16)
    parser.add_argument("--videos", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run_fig4(
        width=args.width, height=args.height, num_frames=args.frames,
        seed=args.seed, num_videos=args.videos,
    )
    print(format_fig4(result))


if __name__ == "__main__":
    main()
