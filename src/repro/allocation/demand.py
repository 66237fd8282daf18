"""User demand descriptors shared by the allocators."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.platform.schedule import ThreadTask


@dataclass
class UserDemand:
    """One user's per-slot encoding demand.

    ``threads`` carries the per-tile CPU times (seconds at f_max) that
    must be executed every ``1/FPS`` slot to sustain the user's frame
    rate.
    """

    user_id: int
    threads: List[ThreadTask] = field(default_factory=list)

    @property
    def total_cpu_time_fmax(self) -> float:
        return sum(t.cpu_time_fmax for t in self.threads)

    @property
    def num_threads(self) -> int:
        return len(self.threads)


def cores_needed(demand: UserDemand, fps: float) -> float:
    """Core demand of a user (Algorithm 2, line 1).

    ``N_core^i = (sum_j T^i_{fmax,j}) * FPS`` — the per-slot CPU time of
    all the user's threads divided by the slot duration.  The value is
    *fractional*: Algorithm 2's packing stage shares cores between
    users' threads, so admission sums fractional demands against the
    core count (rounding up here would forfeit exactly the packing gain
    the paper exploits).
    """
    if not 0.0 < fps < math.inf:
        raise ValueError("fps must be finite and positive")
    if not demand.threads:
        return 0.0
    return demand.total_cpu_time_fmax * fps
