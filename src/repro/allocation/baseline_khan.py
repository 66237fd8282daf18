"""Baseline: Khan et al., "Power-efficient workload balancing for video
applications", IEEE TVLSI 2016 — the paper's reference [19] and the
approach it compares against.

Per the paper's description (§IV-B2): "knowing the total capacity of
each core, a limited number of predefined tile sizes and encoding
configurations are created based on the capacity of each core, so that
the workload of each one can completely utilize a core's capacity.
Therefore, only one tile is assigned to each core. ... the re-tiling
approach considered in the related work is only performed once the
frequency of all cores is set to the minimum or maximum value."

Modelled consequences:

* a user's frame is split into ``N = ceil(W * FPS)`` equal-area tiles
  (``W`` = frame CPU time at f_max), one tile per dedicated core;
* no content awareness: uniform tiling, a single frame-wide QP, the
  encoder's default motion search at full window;
* used cores hold f_max for the whole slot (the all-min/all-max
  re-tiling/DVFS trigger almost never fires in steady state, as the
  paper argues), modelled by ``DvfsPolicy.ALWAYS_ON``;
* users are admitted while their summed tile (= core) count fits the
  platform.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.allocation.demand import UserDemand
from repro.allocation.proposed import AllocationResult
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.schedule import CoreSlot, DvfsPolicy, SlotSchedule
from repro.tiling.tile import TileGrid
from repro.tiling.uniform import uniform_tiling


def khan_tiling(
    frame_width: int,
    frame_height: int,
    num_cores: int,
    align: int = 16,
) -> TileGrid:
    """Workload-balanced tiling of [19]: ``num_cores`` equal-area tiles.

    Without content information, equal workload means equal area; the
    grid is chosen as the most square ``cols x rows`` factorisation so
    tiles stay well-shaped (as in [19]'s predefined tile structures).
    """
    if num_cores <= 0:
        raise ValueError("num_cores must be positive")
    best = (num_cores, 1)
    for rows in range(1, num_cores + 1):
        if num_cores % rows:
            continue
        cols = num_cores // rows
        if cols * align > frame_width or rows * align > frame_height:
            continue
        if abs(cols - rows) < abs(best[0] - best[1]):
            best = (cols, rows)
    cols, rows = best
    return uniform_tiling(frame_width, frame_height, cols, rows, align=align)


class KhanAllocator:
    """One-tile-per-core allocation at f_max (the [19] baseline)."""

    def __init__(self, platform: MpsocConfig = XEON_E5_2667):
        self.platform = platform

    def admit(self, demands: Sequence[UserDemand], fps: float) -> tuple:
        """Admit users while one core per thread is available."""
        ranked = sorted(demands, key=lambda d: (d.num_threads, d.user_id))
        admitted: List[UserDemand] = []
        used = 0
        for demand in ranked:
            need = demand.num_threads
            if need == 0:
                continue
            if used + need > self.platform.num_cores:
                break
            admitted.append(demand)
            used += need
        admitted_ids = {d.user_id for d in admitted}
        rejected = [d for d in demands if d.user_id not in admitted_ids]
        return admitted, rejected, used

    def allocate(
        self,
        demands: Sequence[UserDemand],
        fps: float,
        carry_in: Optional[dict] = None,
    ) -> AllocationResult:
        """One dedicated core per thread; cores at f_max."""
        if not 0.0 < fps < math.inf:
            raise ValueError("fps must be finite and positive")
        slot_duration = 1.0 / fps
        admitted, rejected, used = self.admit(demands, fps)
        slots = []
        core_id = 0
        for demand in admitted:
            for task in demand.threads:
                slot = CoreSlot(
                    core_id=core_id,
                    carry_in_fmax=(carry_in or {}).get(core_id, 0.0),
                )
                slot.assign(task)
                slots.append(slot)
                core_id += 1
        if not slots:
            slots = [CoreSlot(core_id=0)]
        schedule = SlotSchedule(
            slots, slot_duration, self.platform, policy=DvfsPolicy.ALWAYS_ON
        )
        return AllocationResult(admitted=admitted, rejected=rejected, schedule=schedule)

    def cores_for_user(self, frame_cpu_time_fmax: float, fps: float) -> int:
        """Tile/core count for a user under [19]'s capacity rule."""
        if not 0.0 < fps < math.inf:
            raise ValueError("fps must be finite and positive")
        if frame_cpu_time_fmax <= 0:
            return 1
        return max(1, math.ceil(frame_cpu_time_fmax * fps))
