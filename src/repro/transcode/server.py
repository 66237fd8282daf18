"""Multi-user serving simulation (paper §IV-B2, Table II and Fig. 4).

The paper serves a saturated queue of users, each requesting the online
transcoding of one video, on a 32-core server.  Encoding every user's
video in full is redundant — users of the same body-part class have the
same workload statistics (the property behind the paper's LUT reuse) —
so the simulation measures a small set of representative streams once
(:class:`~repro.transcode.pipeline.StreamTranscoder`) and instantiates
users by cycling over the measured traces, exactly as a trace-driven
datacentre simulator would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.allocation.demand import UserDemand
from repro.allocation.proposed import AllocationResult
from repro.observability import get_registry, get_tracer
from repro.platform.mpsoc import MpsocConfig, XEON_E5_2667
from repro.platform.power import PowerModel
from repro.transcode.pipeline import StreamTrace


def _deadline_margin(result: AllocationResult, slot_duration: float) -> float:
    """Worst-core slack against the ``1/FPS`` deadline, in seconds.

    Computed at f_max (the paper's feasibility measure): a negative
    margin means at least one core must carry work into the next slot
    even at the maximum frequency.
    """
    slots = result.schedule.slots
    if not slots:
        return slot_duration
    return slot_duration - max(s.load_fmax for s in slots)


@dataclass
class ServingReport:
    """Outcome of one serving experiment.

    Quality fields are ``None`` when no user was admitted (an empty
    sample has no min/max/mean — the previous NaN sentinel leaked
    RuntimeWarnings into every downstream aggregation).
    """

    num_users_served: int
    num_users_requested: int
    average_power_w: float
    psnr_avg: Optional[float]
    psnr_min: Optional[float]
    psnr_max: Optional[float]
    bitrate_avg_mbps: Optional[float]
    bitrate_min_mbps: Optional[float]
    bitrate_max_mbps: Optional[float]
    allocation: Optional[AllocationResult] = None


def _sample_stats(values: Sequence[float]) -> Tuple[
        Optional[float], Optional[float], Optional[float]]:
    """(mean, min, max) of a sample, or all-``None`` when empty."""
    if not values:
        return None, None, None
    return float(np.mean(values)), float(np.min(values)), float(np.max(values))


class TranscodingServer:
    """Serves users from measured stream traces."""

    def __init__(
        self,
        platform: MpsocConfig = XEON_E5_2667,
        power_model: Optional[PowerModel] = None,
        fps: float = 24.0,
    ):
        if not 0.0 < fps < math.inf:
            raise ValueError("fps must be finite and positive")
        self.platform = platform
        self.power_model = power_model or PowerModel()
        self.fps = fps

    # ------------------------------------------------------------------
    def demands(
        self, traces: Sequence[StreamTrace], num_users: int
    ) -> List[UserDemand]:
        """Instantiate ``num_users`` demands by cycling the traces."""
        if not traces:
            raise ValueError("need at least one measured trace")
        out = []
        for uid in range(num_users):
            trace = traces[uid % len(traces)]
            gop = trace.steady_state_gop()
            out.append(UserDemand(user_id=uid, threads=gop.threads(user_id=uid)))
        return out

    # ------------------------------------------------------------------
    def serve(
        self,
        traces: Sequence[StreamTrace],
        allocator,
        num_users: Optional[int] = None,
    ) -> ServingReport:
        """Serve users with the given allocator.

        ``num_users=None`` models the saturated queue of the paper's
        Table II (more requests than resources): enough candidates are
        offered that admission is resource-bound.  A concrete
        ``num_users`` models Fig. 4's fixed-population comparison.
        """
        if num_users is None:
            requested = 4 * self.platform.num_cores
        else:
            requested = num_users
        user_demands = self.demands(traces, requested)
        with get_tracer().span("server.serve", requested=requested):
            result = allocator.allocate(user_demands, self.fps)
        margin = _deadline_margin(result, 1.0 / self.fps)
        registry = get_registry()
        registry.set_gauge(
            "repro_slot_deadline_margin_seconds", margin, context="serve",
            help="Worst-core slack against the 1/FPS deadline at f_max",
        )
        registry.set_gauge(
            "repro_server_users_served", result.num_users_served,
            context="serve", help="Users admitted by the last serve pass",
        )

        power = result.schedule.average_power(self.power_model)
        psnrs = []
        rates = []
        for demand in result.admitted:
            trace = traces[demand.user_id % len(traces)]
            psnrs.append(trace.average_psnr)
            rates.append(trace.bitrate_mbps)
        psnr_stats = _sample_stats(psnrs)
        rate_stats = _sample_stats(rates)
        return ServingReport(
            num_users_served=result.num_users_served,
            num_users_requested=requested,
            average_power_w=power,
            psnr_avg=psnr_stats[0],
            psnr_min=psnr_stats[1],
            psnr_max=psnr_stats[2],
            bitrate_avg_mbps=rate_stats[0],
            bitrate_min_mbps=rate_stats[1],
            bitrate_max_mbps=rate_stats[2],
            allocation=result,
        )
