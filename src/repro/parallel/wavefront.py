"""Wavefront Parallel Processing (WPP) schedule simulation [17].

In WPP each CTU row is a thread, but CTU ``(r, c)`` may start only
after its left neighbour ``(r, c-1)`` and the top-right neighbour of
the previous row ``(r-1, c+1)`` finish (the CABAC-context and
intra-prediction dependencies).  This module list-schedules a frame's
CTU cost matrix onto ``num_cores`` workers under those dependencies
and reports the makespan — the quantitative form of the paper's
"wavefront dependencies prevent all partitions from being processed
concurrently".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class WavefrontSchedule:
    """Outcome of a WPP simulation."""

    makespan: float
    num_cores: int
    total_work: float
    start_times: np.ndarray  # (rows, cols) start time of each CTU
    finish_times: np.ndarray

    @property
    def serial_time(self) -> float:
        return self.total_work

    @property
    def speedup(self) -> float:
        """Speedup over single-core encoding."""
        if self.makespan <= 0:
            return 1.0
        return self.total_work / self.makespan

    @property
    def efficiency(self) -> float:
        """Fraction of the core-seconds actually used."""
        if self.makespan <= 0:
            return 1.0
        return self.total_work / (self.makespan * self.num_cores)

    @property
    def critical_path(self) -> float:
        """Lower bound on the makespan from the dependency chain."""
        return float(self.finish_times.max())


def _dependencies(r: int, c: int, cols: int) -> List[Tuple[int, int]]:
    deps = []
    if c > 0:
        deps.append((r, c - 1))
    if r > 0:
        deps.append((r - 1, min(c + 1, cols - 1)))
    return deps


def simulate_wavefront(costs: np.ndarray, num_cores: int) -> WavefrontSchedule:
    """List-schedule a CTU cost matrix under WPP dependencies.

    ``costs[r, c]`` is the CPU time of CTU ``(row r, column c)``.
    Rows are bound to workers in round-robin order when more rows than
    cores exist (the standard WPP thread pool behaviour); within its
    assigned rows a worker processes CTUs left to right, waiting for
    the top-right dependency.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise ValueError("costs must be a 2-D (rows x cols) matrix")
    if num_cores < 1:
        raise ValueError("need at least one core")
    rows, cols = costs.shape

    start = np.zeros((rows, cols))
    finish = np.zeros((rows, cols))
    # Event-driven list scheduling: a CTU becomes *pending* when all
    # its dependencies completed; the earliest-ready pending CTU is
    # dispatched to the earliest-free worker.
    scheduled = set()
    free_heap = [(0.0, w) for w in range(num_cores)]
    heapq.heapify(free_heap)

    pending: List[Tuple[float, int, int]] = [(0.0, 0, 0)]
    heapq.heapify(pending)
    completed = 0
    total = rows * cols
    while completed < total:
        if not pending:
            raise RuntimeError("wavefront deadlock: no ready CTU")
        ready_time, r, c = heapq.heappop(pending)
        if (r, c) in scheduled:
            continue
        scheduled.add((r, c))
        free_time, worker = heapq.heappop(free_heap)
        begin = max(ready_time, free_time)
        end = begin + costs[r, c]
        start[r, c] = begin
        finish[r, c] = end
        heapq.heappush(free_heap, (end, worker))
        completed += 1
        # Determine newly ready CTUs among the possible dependents.
        dependents = []
        if c + 1 < cols:
            dependents.append((r, c + 1))
        if r + 1 < rows:
            # (r+1, c') depends on (r, c'+1): our completion enables
            # (r+1, c-1).
            if 0 <= c - 1 < cols:
                dependents.append((r + 1, c - 1))
            elif c == cols - 1:
                # Last CTU of a row also gates (r+1, cols-1) whose
                # top-right dependency clamps to (r, cols-1).
                dependents.append((r + 1, cols - 1))
        for nr, nc in dependents:
            if (nr, nc) in scheduled:
                continue
            deps = _dependencies(nr, nc, cols)
            if all(d in scheduled for d in deps):
                ready = max(finish[d] for d in deps)
                heapq.heappush(pending, (float(ready), nr, nc))

    return WavefrontSchedule(
        makespan=float(finish.max()),
        num_cores=num_cores,
        total_work=float(costs.sum()),
        start_times=start,
        finish_times=finish,
    )
