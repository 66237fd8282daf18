"""Table I: speedup, PSNR loss, and bitrate degradation of (a) the
proposed motion estimation and (b) hexagon search, both against TZ
search, for uniform tilings 1x1 ... 5x6 (paper §IV-B1).

The paper encodes a 400-frame 640x480 medical video; the defaults here
use a shorter sequence so the harness completes in minutes on a pure-
Python codec — the metrics are ratios, which stabilise after a few
GOPs.  Pass ``--frames 400 --width 640 --height 480`` for the full run.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.platform.cost_model import CostModel
from repro.tiling.uniform import TABLE1_TILINGS, uniform_tiling
from repro.video.frame import Video
from repro.video.generator import ContentClass, MotionPreset, generate_video
from repro.experiments.common import (
    EncodeOutcome,
    encode_with_proposed_policy,
    encode_with_search,
)


@dataclass
class Table1Row:
    """Results of one algorithm at one tiling, relative to TZ search."""

    tiling: Tuple[int, int]
    speedup: float
    psnr_loss_db: float
    compression_loss_pct: float


@dataclass
class Table1Result:
    """Full Table I: per-tiling rows for the proposed and hexagon ME."""

    proposed: List[Table1Row]
    hexagon: List[Table1Row]

    def average_speedup(self, which: str = "proposed") -> float:
        rows = self.proposed if which == "proposed" else self.hexagon
        return sum(r.speedup for r in rows) / len(rows)


def _relative(outcome: EncodeOutcome, reference: EncodeOutcome,
              tiling: Tuple[int, int]) -> Table1Row:
    return Table1Row(
        tiling=tiling,
        speedup=reference.cpu_seconds / outcome.cpu_seconds,
        psnr_loss_db=reference.psnr - outcome.psnr,
        compression_loss_pct=(
            (outcome.total_bits - reference.total_bits)
            / reference.total_bits * 100.0
        ),
    )


def run_table1(
    width: int = 640,
    height: int = 480,
    num_frames: int = 32,
    seed: int = 0,
    qp: int = 32,
    motion_magnitude: float = 6.0,
    tilings: Optional[Sequence[Tuple[int, int]]] = None,
    video: Optional[Video] = None,
) -> Table1Result:
    """Regenerate Table I.

    ``tilings`` are (cols, rows) pairs; the paper's set is used by
    default.  A custom ``video`` overrides the synthetic default (a
    brain MRI-like pan sequence, the closest match to the paper's
    "400-frame medical video").
    """
    if video is None:
        video = generate_video(
            content_class=ContentClass.BRAIN,
            width=width, height=height, num_frames=num_frames,
            motion=MotionPreset.PAN_RIGHT, seed=seed,
            motion_magnitude=motion_magnitude,
        )
    tilings = list(tilings) if tilings is not None else list(TABLE1_TILINGS)
    cost_model = CostModel()
    proposed_rows = []
    hexagon_rows = []
    for cols, rows in tilings:
        grid = uniform_tiling(video.width, video.height, cols, rows)
        reference = encode_with_search(
            video, grid, "tz", qp=qp, window=64, cost_model=cost_model
        )
        hexagon = encode_with_search(
            video, grid, "hexagon", qp=qp, window=64, cost_model=cost_model
        )
        proposed = encode_with_proposed_policy(
            video, grid, qp=qp, cost_model=cost_model
        )
        proposed_rows.append(_relative(proposed, reference, (cols, rows)))
        hexagon_rows.append(_relative(hexagon, reference, (cols, rows)))
    return Table1Result(proposed=proposed_rows, hexagon=hexagon_rows)


def format_table1(result: Table1Result) -> str:
    """Render the result in the paper's Table I layout."""
    headers = [f"{c}x{r}" for (c, r) in (row.tiling for row in result.proposed)]
    lines = [
        "TABLE I — speedup / PSNR loss / bitrate degradation vs TZ search",
        "            " + "".join(f"{h:>8}" for h in headers),
    ]
    for label, rows in (("Proposed", result.proposed), ("Hexagonal", result.hexagon)):
        lines.append(
            f"{label:<10}  "
            + "".join(f"{r.speedup:>8.1f}" for r in rows)
            + "   speedup (x)"
        )
        lines.append(
            "            "
            + "".join(f"{r.psnr_loss_db:>8.2f}" for r in rows)
            + "   PSNR loss (dB)"
        )
        lines.append(
            "            "
            + "".join(f"{r.compression_loss_pct:>8.1f}" for r in rows)
            + "   compression loss (%)"
        )
    lines.append(
        f"average speedup: proposed {result.average_speedup('proposed'):.1f}x, "
        f"hexagon {result.average_speedup('hexagon'):.1f}x"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--frames", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--qp", type=int, default=32)
    args = parser.parse_args(argv)
    result = run_table1(
        width=args.width, height=args.height,
        num_frames=args.frames, seed=args.seed, qp=args.qp,
    )
    print(format_table1(result))


if __name__ == "__main__":
    main()
