"""Seeded fault injection for chaos drills and resilience tests.

All randomness flows through one ``numpy`` generator seeded from
:class:`FaultConfig.seed`, so a drill with the same seed injects the
same faults in the same order — the property the ``repro fault-drill``
acceptance check (byte-identical reports across runs) relies on.

Fault classes modelled (the ones an online transcoding server actually
meets):

* **core failures** — a core dies mid-service and its threads must be
  re-packed (``sample_core_failures`` / ``failure_schedule``),
* **CPU-time spikes** — an encode takes far longer than its LUT
  estimate (``perturb_cpu_time``),
* **corrupt input frames** — NaN-poisoned or mis-shaped luma planes
  (``corrupt_video``),
* **LUT-entry corruption** — in-memory histogram state damaged
  (``corrupt_lut``) and checkpoint-file damage (``corrupt_file``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.video.frame import Video
from repro.workload.lut import WorkloadLut


@dataclass(frozen=True)
class FaultConfig:
    """Rates of each injected fault class (all probabilities per
    opportunity: per core, per frame, per LUT entry)."""

    seed: int = 0
    core_failure_rate: float = 0.0
    frame_corruption_rate: float = 0.0
    time_spike_rate: float = 0.0
    time_spike_factor: float = 8.0
    lut_corruption_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("core_failure_rate", "frame_corruption_rate",
                     "time_spike_rate", "lut_corruption_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.time_spike_factor < 1.0:
            raise ValueError("time_spike_factor must be >= 1")


class FaultInjector:
    """Injects seeded faults and counts what it injected."""

    def __init__(self, config: FaultConfig = FaultConfig()):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        #: ``fault kind -> number injected`` (deterministic given seed).
        self.counts: Dict[str, int] = {}

    def _tally(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    # -- input faults --------------------------------------------------
    def corrupt_video(self, video: Video) -> List[int]:
        """Corrupt frames in-place with the configured probability.

        Alternates between the two corruption shapes validation must
        catch: NaN-poisoned float luma and a truncated (mis-shaped)
        plane.  Frame 0 is spared so the stream keeps a valid geometry
        reference; returns the corrupted indices.
        """
        corrupted: List[int] = []
        for frame in video.frames[1:]:
            if self.rng.random() >= self.config.frame_corruption_rate:
                continue
            if len(corrupted) % 2 == 0:
                bad = frame.luma.astype(np.float64)
                bad[:: max(1, bad.shape[0] // 4)] = np.nan
                frame.luma = bad
            else:
                frame.luma = frame.luma[:-8, :]
            corrupted.append(frame.index)
            self._tally("corrupt_frame")
        return corrupted

    # -- timing faults -------------------------------------------------
    def perturb_cpu_time(self, cpu_time: float) -> float:
        """Occasionally multiply an encode's CPU time by the spike
        factor (models cache pollution, co-runner interference, a
        pathological content block)."""
        if self.config.time_spike_rate <= 0.0:
            return cpu_time
        if self.rng.random() < self.config.time_spike_rate:
            self._tally("time_spike")
            return cpu_time * self.config.time_spike_factor
        return cpu_time

    # -- platform faults -----------------------------------------------
    def sample_core_failures(self, core_ids: List[int]) -> List[int]:
        """Fail the configured *fraction* of the listed cores (chosen
        uniformly without replacement); returns the failed ids, sorted.

        A quota rather than per-core Bernoulli draws: a drill asked for
        "20% core failures" must actually exercise the re-packing path,
        not skip it on a lucky seed.
        """
        quota = int(round(self.config.core_failure_rate * len(core_ids)))
        if quota == 0:
            return []
        chosen = self.rng.choice(core_ids, size=quota, replace=False)
        self._tally("core_failure", quota)
        return sorted(int(c) for c in chosen)

    def failure_schedule(self, core_ids: List[int],
                         num_slots: int) -> Dict[int, List[int]]:
        """Assign each failing core a failure slot in ``[1, num_slots)``.

        Returns ``slot -> [core ids failing at that slot]`` with
        deterministic ordering.  With a single slot there is no room to
        fail mid-service, so the map is empty.
        """
        failed = self.sample_core_failures(core_ids)
        schedule: Dict[int, List[int]] = {}
        if num_slots <= 1:
            return schedule
        for cid in failed:
            slot = int(self.rng.integers(1, num_slots))
            schedule.setdefault(slot, []).append(cid)
        return {s: sorted(cids) for s, cids in sorted(schedule.items())}

    # -- LUT faults ----------------------------------------------------
    def corrupt_lut(self, lut: WorkloadLut) -> int:
        """Damage histogram entries in-place with the configured rate
        (NaN running sum or negative bin counts); returns the number of
        entries corrupted."""
        damaged = 0
        for i, hist in enumerate(lut.tables.values()):
            if self.rng.random() >= self.config.lut_corruption_rate:
                continue
            if i % 2 == 0:
                hist._sum = float("nan")
            else:
                hist.counts[: len(hist.counts) // 2] = -1
            damaged += 1
        self._tally("lut_entry_corruption", damaged)
        return damaged

    def corrupt_file(self, path) -> None:
        """Flip bytes in the middle of a checkpoint file so its
        checksum no longer matches."""
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            if not data:
                return
            mid = len(data) // 2
            for off in range(mid, min(mid + 16, len(data))):
                data[off] ^= 0x5A
            fh.seek(0)
            fh.write(bytes(data))
            fh.truncate()
        self._tally("checkpoint_corruption")
