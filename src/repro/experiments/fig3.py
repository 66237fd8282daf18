"""Fig. 3: tile structure and per-tile CPU time of one frame — the
proposed content-aware approach vs Khan et al. [19] (paper §IV-B2).

The paper's figure shows [19] producing few equal-CPU-time tiles (one
per core, all cores at maximum frequency) while the proposed re-tiling
yields more tiles with an order of magnitude of diversity in CPU time,
fitting on fewer cores of which only a subset runs flat-out at f_max.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.allocation import KhanAllocator, ProposedAllocator, UserDemand
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.schedule import CorePlan
from repro.tiling.tile import Tile
from repro.transcode.pipeline import PipelineConfig, PipelineMode, StreamTranscoder
from repro.video.frame import Video
from repro.video.generator import ContentClass, MotionPreset, generate_video


@dataclass
class ApproachSnapshot:
    """One approach's steady-state tiling + allocation snapshot."""

    name: str
    tiles: List[Tile]
    tile_cpu_times: List[float]
    cores_used: int
    cores_at_fmax_whole_slot: int
    core_plans: List[CorePlan]

    @property
    def frame_cpu_time(self) -> float:
        return sum(self.tile_cpu_times)


@dataclass
class Fig3Result:
    proposed: ApproachSnapshot
    baseline: ApproachSnapshot
    fps: float


def _snapshot(name: str, trace, allocator, fps: float) -> ApproachSnapshot:
    gop = trace.steady_state_gop()
    times = gop.mean_tile_cpu_times()
    demand = UserDemand(user_id=0, threads=gop.threads(user_id=0))
    result = allocator.allocate([demand], fps)
    schedule = result.schedule
    plans = [p for p in schedule.plans() if p.busy_seconds > 0]
    return ApproachSnapshot(
        name=name,
        tiles=list(gop.grid),
        tile_cpu_times=times,
        cores_used=schedule.active_cores,
        cores_at_fmax_whole_slot=schedule.cores_at_fmax_whole_slot,
        core_plans=plans,
    )


def run_fig3(
    width: int = 640,
    height: int = 480,
    num_frames: int = 16,
    seed: int = 0,
    fps: float = 24.0,
    platform: MpsocConfig = XEON_E5_2667,
    video: Optional[Video] = None,
) -> Fig3Result:
    """Regenerate Fig. 3 for one (synthetic) medical video.

    The default video is a high-texture bone sequence under a pan —
    a demanding frame like the one the paper's figure illustrates.
    """
    if video is None:
        video = generate_video(
            content_class=ContentClass.BONE,
            width=width, height=height, num_frames=num_frames,
            motion=MotionPreset.PAN_DOWN, seed=seed, motion_magnitude=4.0,
        )
    proposed_trace = StreamTranscoder(
        PipelineConfig(mode=PipelineMode.PROPOSED, fps=fps, platform=platform)
    ).run(video)
    baseline_trace = StreamTranscoder(
        PipelineConfig.khan(fps=fps, platform=platform)
    ).run(video)
    return Fig3Result(
        proposed=_snapshot("proposed", proposed_trace, ProposedAllocator(platform), fps),
        baseline=_snapshot("khan[19]", baseline_trace, KhanAllocator(platform), fps),
        fps=fps,
    )


def format_fig3(result: Fig3Result) -> str:
    lines = [
        "FIG. 3 — tile structure and per-tile CPU time (s)",
        f"(slot = 1/FPS = {1.0 / result.fps:.4f} s)",
    ]
    for snap in (result.baseline, result.proposed):
        lines.append(f"\n[{snap.name}] {len(snap.tiles)} tiles, "
                     f"frame CPU time {snap.frame_cpu_time:.4f} s")
        for tile, t in zip(snap.tiles, snap.tile_cpu_times):
            lines.append(
                f"  tile ({tile.x:>4},{tile.y:>4}) {tile.width:>4}x{tile.height:<4}"
                f"  cpu {t:.4f} s"
            )
        lines.append(
            f"  cores used: {snap.cores_used}, fully busy at f_max: "
            f"{snap.cores_at_fmax_whole_slot}"
        )
    lines.append(
        f"\nsummary: proposed uses {result.proposed.cores_used} cores "
        f"({result.proposed.cores_at_fmax_whole_slot} at f_max whole slot) vs "
        f"[19] {result.baseline.cores_used} cores "
        f"({result.baseline.cores_at_fmax_whole_slot} at f_max whole slot)"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--frames", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    result = run_fig3(
        width=args.width, height=args.height,
        num_frames=args.frames, seed=args.seed,
    )
    print(format_fig3(result))


if __name__ == "__main__":
    main()
