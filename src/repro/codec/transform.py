"""2-D DCT / inverse DCT on stacks of square transform blocks.

HEVC uses integer approximations of the DCT-II; the orthonormal
floating DCT-II used here has the same energy-compaction behaviour,
and determinism is preserved because quantization (not the transform)
is the only lossy stage: encoder and decoder run the *same* inverse
transform on the *same* dequantized coefficients.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Transform block edge length used by the codec substrate.
TRANSFORM_SIZE = 8

#: Per-size cache of orthonormal DCT-II basis matrices.
_BASES: Dict[int, np.ndarray] = {}


def dct_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix ``C`` with ``C @ C.T == I``.

    Row ``k`` is ``s_k * cos(pi * (2j + 1) * k / (2n))`` with
    ``s_0 = sqrt(1/n)`` and ``s_k = sqrt(2/n)`` otherwise, so
    ``C @ x`` is the 1-D orthonormal DCT-II of ``x``.
    """
    basis = _BASES.get(n)
    if basis is None:
        k = np.arange(n).reshape(-1, 1)
        j = np.arange(n).reshape(1, -1)
        basis = np.cos(np.pi * (2 * j + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
        basis[0] *= np.sqrt(0.5)
        basis.flags.writeable = False
        _BASES[n] = basis
    return basis


def _matmul_in_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the trailing two axes, summed in index order.

    Every product is rounded once and added to the running sum in
    ascending ``k`` — the arithmetic of the plain triple loop in
    ``native/kernels.c`` (built without FMA contraction).  ``a @ b``
    itself may go through BLAS, whose blocking and fused multiply-adds
    land an ulp elsewhere: enough to flip a level at a quantization
    boundary or a sample at a ``.5`` rounding boundary, and so to make
    the native tile driver and this reference (or an encoder and a
    decoder) disagree.  ``accumulate`` is sequential by definition; the
    order of a ``reduce`` is NumPy's business.
    """
    products = a[..., :, :, None] * b[..., None, :, :]
    return np.add.accumulate(products, axis=-2)[..., -1, :]


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the trailing two axes.

    ``blocks`` has shape ``(..., N, N)`` of residual samples.  The
    separable transform is two dense matrix products
    (``(C @ X) @ C.T``), evaluated in the fixed order of
    :func:`_matmul_in_order`; it broadcasts over arbitrary leading
    stack axes.
    """
    basis = dct_basis(blocks.shape[-1])
    return _matmul_in_order(
        _matmul_in_order(basis, blocks.astype(np.float64, copy=False)),
        basis.T,
    )


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct` (``(C.T @ X) @ C``)."""
    basis = dct_basis(coefficients.shape[-1])
    return _matmul_in_order(
        _matmul_in_order(basis.T, coefficients.astype(np.float64, copy=False)),
        basis,
    )


def blockify(region: np.ndarray, size: int = TRANSFORM_SIZE) -> np.ndarray:
    """Split an ``(H, W)`` region into a ``(H//size * W//size, size, size)``
    stack, row-major.  ``H`` and ``W`` must be multiples of ``size``."""
    h, w = region.shape
    if h % size or w % size:
        raise ValueError(f"region {w}x{h} not divisible by transform size {size}")
    return (
        region.reshape(h // size, size, w // size, size)
        .swapaxes(1, 2)
        .reshape(-1, size, size)
    )


def unblockify(blocks: np.ndarray, height: int, width: int,
               size: int = TRANSFORM_SIZE) -> np.ndarray:
    """Inverse of :func:`blockify`."""
    rows, cols = height // size, width // size
    if blocks.shape[0] != rows * cols:
        raise ValueError(
            f"{blocks.shape[0]} blocks cannot tile a {width}x{height} region"
        )
    return (
        blocks.reshape(rows, cols, size, size)
        .swapaxes(1, 2)
        .reshape(height, width)
    )
