"""Resilience subsystem: typed errors, deadline monitoring, graceful
degradation and LUT checkpoints for the transcoding server.

The paper's allocator promises *online* operation — every admitted
stream must retire a frame each ``1/FPS`` slot — but says nothing about
what happens when reality diverges from the plan: a core dies, a frame
arrives corrupt, an encode blows past its LUT estimate.  This package
supplies the missing failure semantics:

* :mod:`repro.resilience.errors` — typed error taxonomy.
* :mod:`repro.resilience.degradation` — deadline monitor with a graded
  degradation ladder (QP bump → window shrink → tile merge → frame
  drop) and hysteresis-based recovery.
* :mod:`repro.resilience.checkpoint` — checksummed LUT checkpoint /
  restore with corruption fallback.
"""

from repro.resilience.errors import (
    AllocationError,
    CorruptFrameError,
    LutCorruptionError,
    TranscodeError,
)
from repro.resilience.degradation import (
    DegradationController,
    DegradationLevel,
    DegradationReport,
    ResilienceConfig,
)
from repro.resilience.checkpoint import CheckpointLoadResult, load_lut, save_lut

__all__ = [
    "AllocationError",
    "CheckpointLoadResult",
    "CorruptFrameError",
    "DegradationController",
    "DegradationLevel",
    "DegradationReport",
    "LutCorruptionError",
    "ResilienceConfig",
    "TranscodeError",
    "load_lut",
    "save_lut",
]
