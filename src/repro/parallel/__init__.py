"""Alternative frame/stream parallelization schemes (paper §II-C).

HEVC offers two frame-level parallelization schemes besides tiles:

* **Wavefront Parallel Processing (WPP)** [17] — CTU rows run in
  parallel, but each CTU waits for its left neighbour and the
  top-right neighbour of the row above; "wavefront dependencies
  prevent all partitions from being processed concurrently"
  (:mod:`repro.parallel.wavefront`).
* **GOP-level parallelism** [16] — whole GOPs encode independently,
  which scales throughput but adds a full GOP of latency — unusable
  for the paper's *online* requirement
  (:mod:`repro.parallel.gop_level`).

These models quantify the paper's argument for tiles: the comparison
example (``examples/parallelization_comparison.py``) and tests measure
achievable speedup and latency of each scheme.

Tile parallelism itself is not just modelled but *implemented*:
:mod:`repro.parallel.executor` encodes a frame's tiles concurrently on
a thread pool, bit-exact with the serial encoder.
"""

from repro.parallel.wavefront import WavefrontSchedule, simulate_wavefront
from repro.parallel.gop_level import GopParallelModel, GopParallelPlan
from repro.parallel.executor import (
    TileHookSpec,
    TileLearned,
    TileParallelExecutor,
    default_workers,
    merge_learned,
    recommended_parallel,
)

__all__ = [
    "WavefrontSchedule",
    "simulate_wavefront",
    "GopParallelModel",
    "GopParallelPlan",
    "TileHookSpec",
    "TileLearned",
    "TileParallelExecutor",
    "default_workers",
    "merge_learned",
    "recommended_parallel",
]
