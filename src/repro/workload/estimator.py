"""Workload estimator: LUT first, analytical fallback for cold start.

The estimator answers "how many CPU-seconds (at f_max) will encoding
this tile take?".  Warm paths read the LUT histograms; before any
observation exists for a key, a per-pixel analytical seed keeps the
allocator functional (the paper primes its LUT from previously
processed videos of the same body-part class — the seed plays that
role for the very first frames).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.motion_probe import MotionClass
from repro.codec.config import FrameType
from repro.observability import get_registry
from repro.workload.keys import WorkloadKey
from repro.workload.lut import WorkloadLut


@dataclass(frozen=True)
class SeedModel:
    """Analytical per-pixel CPU-time seed (seconds per luma sample).

    The defaults approximate the substrate cost model's behaviour at
    f_max: inter frames are dominated by motion estimation, whose cost
    grows with the search window; texture raises entropy/transform
    cost; high motion raises the number of search iterations.
    """

    base_per_pixel: float = 2.0e-8
    window_weight: float = 1.5e-9
    texture_weight: float = 0.5
    motion_weight: float = 0.8
    intra_factor: float = 0.6

    def estimate(self, key: WorkloadKey, area: int) -> float:
        per_pixel = self.base_per_pixel
        if key.frame_type is FrameType.P:
            per_pixel += self.window_weight * key.search_window
            per_pixel *= 1.0 + self.motion_weight * int(key.motion is MotionClass.HIGH)
        else:
            per_pixel *= self.intra_factor
        per_pixel *= 1.0 + self.texture_weight * int(key.texture) / 2.0
        # Lower QP -> more coefficients survive -> more entropy work.
        per_pixel *= 1.0 + (42 - key.qp) / 40.0
        return per_pixel * area


class WorkloadEstimator:
    """LUT-backed workload estimation with quantile control.

    ``quantile=None`` estimates with the histogram mean; a quantile
    (e.g. 0.9) gives conservative estimates for tight framerate
    guarantees.
    """

    def __init__(
        self,
        lut: Optional[WorkloadLut] = None,
        seed: SeedModel = SeedModel(),
        quantile: Optional[float] = None,
    ):
        self.lut = lut if lut is not None else WorkloadLut()
        self.seed = seed
        self.quantile = quantile
        # One estimator is shared by every session of a serving
        # process; with a multi-thread encode pool the histogram
        # read-modify-writes of an observation need mutual exclusion.
        self._observe_lock = threading.Lock()

    def estimate(self, key: WorkloadKey, area: int) -> float:
        """Estimated CPU time (seconds at f_max) for one tile encode."""
        hist = self.lut.lookup(key)
        get_registry().inc(
            "repro_lut_lookups_total",
            result="miss" if hist is None else "hit",
            help="Workload-LUT lookups by outcome",
        )
        if hist is None:
            return self.seed.estimate(key, area)
        if self.quantile is None:
            return hist.mean
        return hist.quantile(self.quantile)

    def observe(self, key: WorkloadKey, cpu_time: float) -> None:
        """Record a measured tile CPU time after the frame retires."""
        self.observe_many((key,), (cpu_time,))

    def observe_many(
        self, keys: Sequence[WorkloadKey], cpu_times: Sequence[float]
    ) -> None:
        """Record a frame's tile CPU times under one lock acquisition:
        the LUT ends in the state the same :meth:`observe` calls, in
        order, leave it in."""
        with self._observe_lock:
            self.lut.observe_many(keys, cpu_times)
        get_registry().inc(
            "repro_lut_updates_total", len(keys),
            help="Workload-LUT histogram updates",
        )

    def estimation_error(self, key: WorkloadKey, area: int, actual: float) -> float:
        """Signed over(+)/under(-) estimation for diagnostics/tests."""
        return self.estimate(key, area) - actual
