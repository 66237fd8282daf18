"""Machine-speed probe: ``calibrate.py OUT`` runs beside a measurement.

The recorded machine is a shared VM whose speed wanders by a quarter
over seconds, which would drown any bound in noise.  This process runs
a small fixed kernel twelve times a second and writes how much *CPU
time* (not wall time: the probe may be descheduled, that is not
slowness) each pass took.  The mean over the measured window, over
:data:`REFERENCE_MS`, is the run's *speed index*; compute-bound metrics
are scaled by it to what the reference machine speed would have given.

The kernel is deliberately none of the program's code — a speed-up of
the encoder must not speed the yardstick up with it.  It is plain
NumPy over two VGA planes (a SAD, like motion search: wide integer
arithmetic streaming through the cache), which tracks the server's CPU
time per frame with a correlation of 0.94-0.97 on the recorded box.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: CPU time of one kernel pass on the recorded machine at its fastest.
REFERENCE_MS = 5.0
PERIOD_S = 0.08


def kernel_pass(a: np.ndarray, b: np.ndarray) -> int:
    total = 0
    for _ in range(8):
        total += int(np.abs(a - b).sum())
    return total


def planes():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 255, (480, 640), dtype=np.uint8).astype(np.int16)
    return a, np.roll(a, 3, axis=1)


def speed_index(samples, t0_ns: int, t1_ns: int) -> float:
    """Mean kernel CPU time inside ``[t0, t1)`` over the reference:
    1.0 at reference speed, 1.25 when the machine runs a quarter slow."""
    inside = [cpu_ns for t_ns, cpu_ns in samples if t0_ns <= t_ns < t1_ns]
    if len(inside) < 10:
        raise ValueError(f"only {len(inside)} calibration samples")
    return sum(inside) / len(inside) / 1e6 / REFERENCE_MS


def read_samples(path) -> list:
    samples = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2:        # a torn last line is dropped
                samples.append((int(parts[0]), int(parts[1])))
    return samples


def main(out_path: str) -> None:
    a, b = planes()
    with open(out_path, "w") as out:
        while True:
            time.sleep(PERIOD_S)
            t = time.monotonic_ns()
            c = time.thread_time_ns()
            kernel_pass(a, b)
            out.write(f"{t} {time.thread_time_ns() - c}\n")
            out.flush()


if __name__ == "__main__":
    try:
        main(sys.argv[1])
    except KeyboardInterrupt:
        pass
