"""Video quality and rate metrics (PSNR, MSE, bitrate).

PSNR is computed on luma (PSNR-Y), the convention used by the paper's
Table I/II numbers and by the HEVC common test conditions.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: Peak sample value for 8-bit video.
PEAK_8BIT = 255.0

#: PSNR value reported for a bit-exact reconstruction (MSE == 0).
#: A finite cap keeps averages well-defined; 100 dB is far above any
#: lossy operating point.
LOSSLESS_PSNR_DB = 100.0


def mse(reference: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error between two planes of identical shape."""
    reference = np.asarray(reference, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if reference.shape != reconstructed.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {reconstructed.shape}"
        )
    diff = reference - reconstructed
    return float(np.mean(diff * diff))


def psnr(reference: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for 8-bit planes."""
    err = mse(reference, reconstructed)
    if err == 0:
        return LOSSLESS_PSNR_DB
    return 10.0 * math.log10(PEAK_8BIT * PEAK_8BIT / err)


def psnr_from_mse(err: float) -> float:
    """PSNR (dB) from a precomputed MSE."""
    if err < 0:
        raise ValueError(f"MSE must be non-negative, got {err}")
    if err == 0:
        return LOSSLESS_PSNR_DB
    return 10.0 * math.log10(PEAK_8BIT * PEAK_8BIT / err)


def average_psnr(psnrs: Iterable[float]) -> float:
    """Arithmetic mean of PSNR values (CTC convention): exactly the
    float64 ``numpy.mean`` returns, without a trip through an array —
    the serving path takes a frame's mean over its eight to twelve
    tiles per frame, where NumPy's dispatch costs more than the sum.

    The order is NumPy's: below eight values a running sum; from eight
    (up to its 128-value block) eight interleaved partial sums folded
    as a balanced tree, then the tail.  Longer inputs go to NumPy.
    """
    values = list(psnrs)
    count = len(values)
    if not count:
        raise ValueError("no PSNR values to average")
    if count > 128:
        return float(np.mean(values))
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total / count
    lanes = values[:8]
    full = count - count % 8
    for start in range(8, full, 8):
        for lane in range(8):
            lanes[lane] += values[start + lane]
    total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
             + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
    for value in values[full:]:
        total += value
    return total / count


def bitrate_mbps(total_bits: int, num_frames: int, fps: float) -> float:
    """Average bitrate in Mbps given total coded bits of a sequence."""
    if num_frames <= 0:
        raise ValueError("num_frames must be positive")
    if fps <= 0:
        raise ValueError("fps must be positive")
    seconds = num_frames / fps
    return total_bits / seconds / 1e6


def bd_rate_proxy(bits_a: Sequence[int], bits_b: Sequence[int]) -> float:
    """Relative rate difference (%) of stream *a* vs stream *b*.

    A lightweight stand-in for BD-rate when both streams are encoded at
    the same quality operating point, as in the paper's Table I
    "compression loss (%)" rows: positive means *a* spends more bits.
    """
    total_a = float(sum(bits_a))
    total_b = float(sum(bits_b))
    if total_b <= 0:
        raise ValueError("reference stream has no bits")
    return (total_a - total_b) / total_b * 100.0
