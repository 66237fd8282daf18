"""CPU-time histograms and the workload LUT.

"We store the histogram of the CPU time in the LUT and keep updating it
throughout the whole video encoding.  We use the stored histograms to
estimate the workload for robust thread allocation and DVFS."
(paper §III-D1)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.workload.keys import WorkloadKey


class CpuTimeHistogram:
    """Log-spaced histogram of observed CPU times (seconds).

    Bins span ``[t_min, t_max)`` geometrically; values outside clamp to
    the edge bins.  Exact running sum/count are kept alongside so the
    mean estimate does not suffer binning error; the histogram supports
    robust quantile estimates for conservative allocation.
    """

    def __init__(
        self,
        t_min: float = 1e-6,
        t_max: float = 10.0,
        num_bins: int = 64,
    ):
        if not 0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        if num_bins < 2:
            raise ValueError("need at least 2 bins")
        self.t_min = t_min
        self.t_max = t_max
        self.num_bins = num_bins
        self._log_min = math.log(t_min)
        self._log_ratio = math.log(t_max / t_min)
        self.counts = np.zeros(num_bins, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def _bin_center(self, index: int) -> float:
        frac = (index + 0.5) / self.num_bins
        return math.exp(self._log_min + frac * self._log_ratio)

    def observe(self, cpu_time: float) -> None:
        if cpu_time < 0:
            raise ValueError("CPU time must be non-negative")
        # The bin, in line: the LUT observes every tile of every frame
        # twice (its key and the key's class-agnostic twin).
        last = self.num_bins - 1
        if cpu_time <= self.t_min:
            index = 0
        elif cpu_time >= self.t_max:
            index = last
        else:
            frac = (math.log(cpu_time) - self._log_min) / self._log_ratio
            index = int(frac * self.num_bins)
            if index > last:
                index = last
        self.counts[index] += 1
        self._sum += cpu_time
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._sum / self._count

    def quantile(self, q: float) -> float:
        """Approximate quantile from the histogram bins."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            raise ValueError("no observations")
        target = q * self._count
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += int(c)
            if cumulative >= target:
                return self._bin_center(i)
        return self._bin_center(self.num_bins - 1)

    # -- integrity & serialization -------------------------------------
    def is_consistent(self) -> bool:
        """Internal-consistency check used to detect corrupted
        entries: bin counts must be non-negative and sum to the running
        count, and the running sum must be finite and non-negative."""
        if not math.isfinite(self._sum) or self._sum < 0:
            return False
        if self._count < 0 or (self.counts < 0).any():
            return False
        return int(self.counts.sum()) == self._count

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the histogram state."""
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "num_bins": self.num_bins,
            "counts": [int(c) for c in self.counts],
            "sum": self._sum,
            "count": self._count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CpuTimeHistogram":
        """Rebuild a histogram from :meth:`to_dict` output; raises
        ``ValueError``/``KeyError``/``TypeError`` on malformed data."""
        hist = cls(
            t_min=float(data["t_min"]),
            t_max=float(data["t_max"]),
            num_bins=int(data["num_bins"]),
        )
        counts = data["counts"]
        if len(counts) != hist.num_bins:
            raise ValueError("bin count mismatch")
        hist.counts = np.asarray(counts, dtype=np.int64)
        hist._sum = float(data["sum"])
        hist._count = int(data["count"])
        if not hist.is_consistent():
            raise ValueError("inconsistent histogram state")
        return hist


@dataclass
class WorkloadLut:
    """Dictionary of histograms keyed by :class:`WorkloadKey`.

    Lookups fall back to the content-class-agnostic key so that a LUT
    trained on one video of a class immediately serves other videos
    (the paper's LUT-reuse property).
    """

    tables: Dict[WorkloadKey, CpuTimeHistogram] = field(default_factory=dict)

    def observe(self, key: WorkloadKey, cpu_time: float) -> None:
        self.observe_many((key,), (cpu_time,))

    def observe_many(
        self, keys: Sequence[WorkloadKey], cpu_times: Sequence[float]
    ) -> None:
        """Observations in order, each under its key and the key's
        content-class-agnostic twin."""
        tables = self.tables
        for key, cpu_time in zip(keys, cpu_times):
            for k in (key, key.generalized()):
                hist = tables.get(k)
                if hist is None:
                    hist = tables[k] = CpuTimeHistogram()
                hist.observe(cpu_time)

    def lookup(self, key: WorkloadKey) -> Optional[CpuTimeHistogram]:
        hist = self.tables.get(key)
        if hist is not None and hist.count > 0:
            return hist
        hist = self.tables.get(key.generalized())
        if hist is not None and hist.count > 0:
            return hist
        return None

    def __len__(self) -> int:
        return len(self.tables)

    # -- integrity & serialization -------------------------------------
    def validate(self) -> int:
        """Drop internally-inconsistent histograms (e.g. after in-place
        corruption); returns how many entries were removed.  Dropping
        an entry is safe: lookups fall back to the generalized key or
        the analytical seed, exactly as before the entry existed."""
        bad = [k for k, h in self.tables.items() if not h.is_consistent()]
        for k in bad:
            del self.tables[k]
        return len(bad)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot with deterministically ordered
        entries (keyed by the serialized :class:`WorkloadKey`)."""
        entries = [
            {"key": key.to_dict(), "histogram": hist.to_dict()}
            for key, hist in self.tables.items()
        ]
        entries.sort(key=lambda e: json.dumps(e["key"], sort_keys=True))
        return {"entries": entries}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadLut":
        lut = cls()
        for entry in data["entries"]:
            key = WorkloadKey.from_dict(entry["key"])
            lut.tables[key] = CpuTimeHistogram.from_dict(entry["histogram"])
        return lut
