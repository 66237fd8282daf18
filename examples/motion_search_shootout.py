#!/usr/bin/env python
"""Motion-search shootout on bio-medical content (the paper's §III-C2
motivation): encode the same video with every search algorithm in the
library and compare CPU cost, quality and rate.

Run:
    python examples/motion_search_shootout.py [--frames 16]
"""

import argparse

from repro.experiments.common import (
    encode_with_proposed_policy,
    encode_with_search,
)
from repro.tiling.uniform import uniform_tiling
from repro.video.generator import ContentClass, MotionPreset, generate_video

ALGORITHMS = [
    "full", "tz", "cross", "one_at_a_time", "hexagon_horizontal",
    "hexagon_vertical", "hexagon_rotating",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=320)
    parser.add_argument("--height", type=int, default=240)
    parser.add_argument("--frames", type=int, default=16)
    parser.add_argument("--window", type=int, default=16)
    parser.add_argument("--qp", type=int, default=32)
    args = parser.parse_args()

    video = generate_video(
        content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
        width=args.width, height=args.height, num_frames=args.frames,
        motion_magnitude=4.0, seed=0,
    )
    grid = uniform_tiling(video.width, video.height, 2, 2)

    print(f"video: {video.name}, {len(video)} frames, "
          f"tiling 2x2, window {args.window}, QP {args.qp}\n")
    print(f"{'algorithm':<22}{'cpu (s)':>9}{'PSNR (dB)':>11}"
          f"{'kbits':>8}{'SAD evals':>11}")

    rows = []
    for name in ALGORITHMS:
        outcome = encode_with_search(
            video, grid, name, qp=args.qp, window=args.window
        )
        rows.append((name, outcome))
    proposed = encode_with_proposed_policy(video, grid, qp=args.qp)
    rows.append(("proposed (paper)", proposed))

    reference_cpu = dict(rows)["full"].cpu_seconds
    for name, outcome in sorted(rows, key=lambda r: r[1].cpu_seconds):
        print(f"{name:<22}{outcome.cpu_seconds:>9.3f}{outcome.psnr:>11.2f}"
              f"{outcome.total_bits / 1000:>8.0f}"
              f"{outcome.stats.ops.me_candidates:>11,}")
    print(f"\n(full search = quality upper bound at "
          f"{reference_cpu:.3f} simulated CPU seconds)")


if __name__ == "__main__":
    main()
