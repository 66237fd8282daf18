"""Native (C) kernel layer for the encode hot path.

The per-block encode loop spends most of its time in interpreter and
NumPy dispatch overhead on tiny arrays.  This package compiles
``kernels.c`` once per machine with the system C compiler (``cc``) and
loads it through :mod:`ctypes`; the Python wrappers below present the
same contracts as the NumPy implementations they accelerate:

* :func:`sad_batch` — integer SADs of one block against many reference
  windows, **bit-identical** to the NumPy strided-view path (both
  accumulate ``|ref - block|`` in int64);
* :func:`choose_intra` — fused intra mode decision; the winning
  prediction block is bit-identical to ``repro.codec.intra.predict``
  (the kernels are compiled with ``-ffp-contract=off`` so the C
  arithmetic follows the same one-rounding-per-operation IEEE
  semantics as NumPy), while the SAD reductions may differ from
  NumPy's pairwise summation in the last ulp — which only matters on
  exact cost ties;
* :func:`intra_sads` — the four intra-mode SADs (same ulp caveat);
* :func:`encode_residual` — the fused residual pipeline (zero-skip ->
  DCT -> quantize -> zigzag bit count), returning the same integer
  levels and bit counts as the staged NumPy pipeline up to coefficient
  rounding at quantization boundaries;
* :func:`encode_tile` — the whole block raster of an I/P tile in **one
  foreign call** (intra choice, seeded motion search, mode decision,
  residual, reconstruction, bit emission, op counts, first-P-frame
  learning).  ctypes drops the GIL for the call, so tiles encoded from
  different threads run on different cores.

Call overhead matters as much as kernel speed here: every exported
function is declared with ``c_void_p`` pointer arguments so callers
pass raw ``ndarray.ctypes.data`` integers (no per-call ``data_as``
pointer objects), and small fixed-size outputs live in thread-local
scratch buffers whose pointers are computed once.  Hot inner loops
(``SearchContext``) go further and cache the plane/block pointers for
the lifetime of the context, calling ``lib.sad_batch_u8`` directly.

Everything degrades gracefully: if no compiler is available, if
compilation fails, or if ``REPRO_NATIVE=0`` is set, :data:`lib` is
``None`` and callers fall back to pure NumPy.  The compiled object is
cached under ``_build/``, keyed by a hash of the source and flags.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

_HERE = Path(__file__).resolve().parent
_SOURCE = _HERE / "kernels.c"
_BUILD_DIR = _HERE / "_build"

#: ``-ffp-contract=off`` disables FMA contraction: a fused multiply-add
#: rounds once where NumPy rounds twice, which would break the
#: bit-exactness of the intra prediction arithmetic.
#: ``-Wall -Werror`` is the compile-time guard: a kernel change that
#: introduces any warning fails the build, and the package falls back
#: to NumPy (tests comparing native vs. fallback would then expose the
#: regression as a missing-native skip rather than silent corruption).
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared", "-Wall", "-Werror"]

#: Half-extent of the motion-search cost cache table (must match
#: ``MS_H`` in ``kernels.c``): the C driver caches candidate costs for
#: displacements in ``[-MOTION_CACHE_HALF, MOTION_CACHE_HALF]`` per
#: axis.  The wrapper refuses windows/seeds that could step outside.
MOTION_CACHE_HALF = 160

#: The loaded shared library, or None when native kernels are off.
lib: Optional[ctypes.CDLL] = None


def _compile(extra_cflags: Sequence[str] = ()) -> Optional[Path]:
    cflags = [*_CFLAGS, *extra_cflags]
    source = _SOURCE.read_text()
    digest = hashlib.sha256(
        (source + "\0" + " ".join(cflags)).encode()
    ).hexdigest()[:16]
    so_path = _BUILD_DIR / f"kernels-{digest}.so"
    if so_path.exists():
        return so_path
    _BUILD_DIR.mkdir(exist_ok=True)
    # Compile into a temp file then rename, so concurrent interpreters
    # (the tile-parallel worker pool) never load a half-written object.
    fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=_BUILD_DIR)
    os.close(fd)
    cmd = ["cc", *cflags, str(_SOURCE), "-o", tmp_name, "-lm"]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        os.replace(tmp_name, so_path)
        # Durable publish: fsync the directory so a crash right after
        # the rename cannot roll back the entry and leave the next
        # interpreter recompiling against a vanished cache.  Best
        # effort — the .so is reproducible, losing it is only slow.
        try:
            dir_fd = os.open(_BUILD_DIR, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass
        return so_path
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        return None


def _load(extra_cflags: Sequence[str] = ()) -> Optional[ctypes.CDLL]:
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    try:
        so_path = _compile(extra_cflags)
        if so_path is None:
            return None
        cdll = ctypes.CDLL(str(so_path))
    except OSError:
        return None
    ptr = ctypes.c_void_p  # callers pass ndarray.ctypes.data integers
    i64 = ctypes.c_int64
    i32 = ctypes.c_int
    f64 = ctypes.c_double
    cdll.sad_batch_u8.argtypes = [ptr, i64, i64, ptr, i32, i32, ptr, ptr, i32, ptr]
    cdll.sad_batch_u8.restype = None
    cdll.sad_cost_batch_u8.argtypes = [
        ptr, i64, ptr, i32, i32, ptr, ptr, i32, i64, i64, f64, ptr,
    ]
    cdll.sad_cost_batch_u8.restype = None
    cdll.sad_pred_d.argtypes = [ptr, ptr, i64, ptr]
    cdll.sad_pred_d.restype = None
    cdll.ssd_recon_u8.argtypes = [ptr, ptr, i64, ptr]
    cdll.ssd_recon_u8.restype = None
    cdll.intra_sads.argtypes = [ptr, i32, i32, ptr, ptr, f64, ptr, ptr]
    cdll.intra_sads.restype = None
    cdll.choose_intra.argtypes = [ptr, i32, i32, ptr, ptr, ptr, ptr, ptr]
    cdll.choose_intra.restype = None
    cdll.encode_residual.argtypes = [ptr, ptr, i32, i32, f64, ptr, ptr, ptr, ptr]
    cdll.encode_residual.restype = None
    cdll.reconstruct_block_u8.argtypes = [ptr, ptr, i32, i32, f64, ptr, ptr, i64]
    cdll.reconstruct_block_u8.restype = None
    cdll.encode_block_fused.argtypes = [
        ptr, ptr, i32, i32, f64, ptr, ptr, ptr, ptr, i64, ptr, ptr,
    ]
    cdll.encode_block_fused.restype = None
    cdll.simd_detect.argtypes = []
    cdll.simd_detect.restype = i32
    cdll.simd_set_level.argtypes = [i32]
    cdll.simd_set_level.restype = None
    cdll.simd_get_level.argtypes = []
    cdll.simd_get_level.restype = i32
    cdll.motion_search_u8.argtypes = [
        ptr, i64, i64, i64, ptr, i64, i32, i32, i64, i64, i32, f64,
        i32, i32, ptr, ptr, i32, ptr, ptr, ptr, ptr, ptr,
    ]
    cdll.motion_search_u8.restype = None
    cdll.entropy_write_levels.argtypes = [ptr, i64, ptr, ptr, i64]
    cdll.entropy_write_levels.restype = i64
    cdll.encode_tile_u8.argtypes = [
        ptr, i64, ptr, i64, i64, i64, ptr, i64,      # cur, ref, recon
        i64, i64, i64, i64, i32,                     # tile x/y/w/h, bs
        f64, f64, ptr, ptr,                          # step, lambda, tables
        i32, i32, i32, i32, i32, i64, i64,           # search + policy
        ptr, ptr, ptr,                               # cost cache
        ptr, i64, ptr, i32, ptr, ptr,                # bits, info, outputs
    ]
    cdll.encode_tile_u8.restype = None
    cdll.downscale_box_u8.argtypes = [ptr, i64, i64, i64, ptr, i64, i64]
    cdll.downscale_box_u8.restype = None
    return cdll


def available() -> bool:
    """Whether the compiled kernels are loaded in this process."""
    return lib is not None


class _Scratch(threading.local):
    """Per-thread fixed-size output buffers with precomputed pointers.

    ctypes releases the GIL during foreign calls, so module-global
    scratch would race if two threads encoded concurrently;
    thread-local storage keeps the cached pointers safe.
    """

    def __init__(self):
        self.f4 = np.empty(4, dtype=np.float64)
        self.f4_ptr = self.f4.ctypes.data
        self.mode = np.empty(1, dtype=np.int32)
        self.mode_ptr = self.mode.ctypes.data
        self.sad = np.empty(1, dtype=np.float64)
        self.sad_ptr = self.sad.ctypes.data
        self.stats = np.empty(2, dtype=np.int64)
        self.stats_ptr = self.stats.ctypes.data
        self.cap = 0
        # Bit emission buffer (grown by the tile driver to its
        # worst-case bound), motion seeds and outputs.
        self.bitbuf = np.empty(1 << 16, dtype=np.uint8)
        self.bitbuf_ptr = self.bitbuf.ctypes.data
        self.tile_i = np.empty(9, dtype=np.int64)
        self.tile_i_ptr = self.tile_i.ctypes.data
        self.tile_d = np.empty(3, dtype=np.float64)
        self.tile_d_ptr = self.tile_d.ctypes.data
        self.seed_dx = np.empty(8, dtype=np.int64)
        self.seed_dx_ptr = self.seed_dx.ctypes.data
        self.seed_dy = np.empty(8, dtype=np.int64)
        self.seed_dy_ptr = self.seed_dy.ctypes.data
        self.mout = np.empty(4, dtype=np.int64)
        self.mout_ptr = self.mout.ctypes.data
        self.mcost = np.empty(1, dtype=np.float64)
        self.mcost_ptr = self.mcost.ctypes.data
        # The ~1.7 MiB motion cost-cache table is lazy: only threads
        # that actually drive the native motion search pay for it.
        self.mcache_costs: Optional[np.ndarray] = None

    def ensure_motion(self) -> None:
        """Allocate the epoch-stamped motion cost cache on first use."""
        if self.mcache_costs is None:
            dim = 2 * MOTION_CACHE_HALF + 1
            self.mcache_costs = np.empty(dim * dim, dtype=np.float64)
            self.mcache_stamps = np.zeros(dim * dim, dtype=np.int64)
            self.mcache_epoch = np.zeros(1, dtype=np.int64)
            self.mcache_costs_ptr = self.mcache_costs.ctypes.data
            self.mcache_stamps_ptr = self.mcache_stamps.ctypes.data
            self.mcache_epoch_ptr = self.mcache_epoch.ctypes.data

    def ensure(self, n: int) -> None:
        """Grow the candidate scratch (xs, ys, costs) to hold ``n``."""
        if n > self.cap:
            self.cap = max(2 * n, 64)
            self.xs = np.empty(self.cap, dtype=np.int64)
            self.ys = np.empty(self.cap, dtype=np.int64)
            self.costs = np.empty(self.cap, dtype=np.float64)
            self.sads = np.empty(self.cap, dtype=np.int64)
            self.xs_ptr = self.xs.ctypes.data
            self.ys_ptr = self.ys.ctypes.data
            self.costs_ptr = self.costs.ctypes.data
            self.sads_ptr = self.sads.ctypes.data


_scratch = _Scratch()


def scratch() -> _Scratch:
    """This thread's scratch buffers (for direct ``lib`` callers)."""
    return _scratch


def sad_batch(
    reference: np.ndarray,
    block: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    istep: int = 1,
) -> np.ndarray:
    """Integer SADs of ``block`` at anchors ``(ys, xs)`` of ``reference``.

    ``reference`` must be C-contiguous uint8, ``block`` C-contiguous
    int32, ``xs``/``ys`` int64.  ``istep`` is the element pitch inside
    each window (2 samples the half-pel grid at integer positions).
    """
    n = int(xs.size)
    out = np.empty(n, dtype=np.int64)
    lib.sad_batch_u8(
        reference.ctypes.data,
        reference.strides[0],
        istep,
        block.ctypes.data,
        block.shape[0], block.shape[1],
        xs.ctypes.data, ys.ctypes.data,
        n,
        out.ctypes.data,
    )
    return out


def intra_sads(
    block_f: np.ndarray,
    top: Optional[np.ndarray],
    left: Optional[np.ndarray],
    dc: float,
    planar: np.ndarray,
) -> Tuple[float, float, float, float]:
    """The four intra-mode SADs ``(dc, planar, horizontal, vertical)``."""
    bh, bw = block_f.shape
    out = _scratch.f4
    lib.intra_sads(
        block_f.ctypes.data, bh, bw,
        top.ctypes.data if top is not None else None,
        left.ctypes.data if left is not None else None,
        dc,
        planar.ctypes.data,
        _scratch.f4_ptr,
    )
    return float(out[0]), float(out[1]), float(out[2]), float(out[3])


def choose_intra(
    block_f: np.ndarray,
    top: Optional[np.ndarray],
    left: Optional[np.ndarray],
) -> Tuple[int, np.ndarray, float]:
    """Fused intra decision: returns ``(mode_index, prediction, sad)``.

    The prediction block is bit-identical to
    ``repro.codec.intra.predict(mode, top, left, ...)``; mode selection
    matches ``choose_mode`` (strict <, DC-first tie-break).
    """
    bh, bw = block_f.shape
    pred = np.empty((bh, bw), dtype=np.float64)
    sc = _scratch
    lib.choose_intra(
        block_f.ctypes.data, bh, bw,
        top.ctypes.data if top is not None else None,
        left.ctypes.data if left is not None else None,
        pred.ctypes.data, sc.mode_ptr, sc.sad_ptr,
    )
    return int(sc.mode[0]), pred, float(sc.sad[0])


def encode_residual(
    block_f: np.ndarray,
    prediction: np.ndarray,
    step: float,
    basis: np.ndarray,
    zz_order: np.ndarray,
) -> Tuple[np.ndarray, int, int]:
    """Fused residual pipeline for one ``(h, w)`` coding block.

    Returns ``(levels, bits, num_active)`` where ``levels`` is the
    ``(n, 8, 8)`` int32 stack in blockify order, ``bits`` the exact
    entropy bit count of the zigzag-scanned levels, and ``num_active``
    the number of sub-blocks that went through the transform.
    """
    h, w = block_f.shape
    n = (h // 8) * (w // 8)
    levels = np.empty((n, 8, 8), dtype=np.int32)
    sc = _scratch
    lib.encode_residual(
        block_f.ctypes.data,
        prediction.ctypes.data,
        h, w, step,
        basis.ctypes.data,
        zz_order.ctypes.data,
        levels.ctypes.data,
        sc.stats_ptr,
    )
    return levels, int(sc.stats[0]), int(sc.stats[1])


def motion_search(
    reference: np.ndarray,
    block: np.ndarray,
    bx: int,
    by: int,
    window: int,
    lambda_mv: float,
    alg: int,
    param: int,
    seeds,
) -> Optional[Tuple[Tuple[int, int], float, int, int]]:
    """Run the C search driver; returns ``(mv, cost, evals, sad)``.

    Replicates ``SearchContext`` + the cross / one-at-a-time / hexagon
    loops evaluation-for-evaluation: same candidates in the same order,
    same cost cache semantics, same strict-< tie-breaks, same
    evaluation counters.  ``seeds`` is the AMVP candidate list probed
    first (the plain path passes ``[(0, 0), start]``, the bio-medical
    policy adds the learned predictor).  Returns ``None`` when the
    inputs fall outside the driver's envelope (non-uint8 planes,
    windows larger than the cache table) — callers then run the Python
    search.
    """
    if lib is None:
        return None
    bh, bw = block.shape
    if (
        reference.dtype != np.uint8
        or not reference.flags.c_contiguous
        or block.dtype != np.uint8
        or block.strides[1] != 1
        # Pattern offsets reach at most window + window // 2 (cross)
        # past the origin; keep everything inside the cache table.
        or window + window // 2 >= MOTION_CACHE_HALF
        or len(seeds) > 8
    ):
        return None
    raw = (
        reference.ctypes.data, reference.strides[0],
        reference.shape[0], reference.shape[1],
        block.ctypes.data, block.strides[0],
        bh, bw, bx, by,
    )
    return motion_search_raw(raw, window, lambda_mv, alg, param, seeds)


def motion_search_raw(
    raw: Tuple[int, int, int, int, int, int, int, int, int, int],
    window: int,
    lambda_mv: float,
    alg: int,
    param: int,
    seeds,
) -> Optional[Tuple[Tuple[int, int], float, int, int]]:
    """Pointer-level twin of :func:`motion_search` for pre-vetted planes.

    ``raw`` is ``(ref_ptr, ref_stride, ref_h, ref_w, blk_ptr, blk_stride,
    bh, bw, bx, by)`` with both planes already known to be C-contiguous
    uint8 — the per-tile encoder loop computes it once per block from
    hoisted base pointers so the hot path never touches ``ndarray.ctypes``
    (each access builds a fresh ctypes helper object).
    """
    if window + window // 2 >= MOTION_CACHE_HALF or len(seeds) > 8:
        return None
    sc = _scratch
    sdx = sc.seed_dx
    sdy = sc.seed_dy
    i = 0
    for sx, sy in seeds:
        if -MOTION_CACHE_HALF < sx < MOTION_CACHE_HALF and \
                -MOTION_CACHE_HALF < sy < MOTION_CACHE_HALF:
            sdx[i] = sx
            sdy[i] = sy
            i += 1
        else:
            return None
    if sc.mcache_costs is None:
        sc.ensure_motion()
    lib.motion_search_u8(
        raw[0], raw[1], raw[2], raw[3], raw[4], raw[5],
        raw[6], raw[7], raw[8], raw[9], window, lambda_mv, alg, param,
        sc.seed_dx_ptr, sc.seed_dy_ptr, i,
        sc.mcache_costs_ptr, sc.mcache_stamps_ptr, sc.mcache_epoch_ptr,
        sc.mout_ptr, sc.mcost_ptr,
    )
    dx, dy, evals, sad = sc.mout.tolist()
    return (dx, dy), sc.mcost[0].item(), evals, sad


class TileResult(NamedTuple):
    """Outcome of one :func:`encode_tile` call."""

    bits: int
    ssd: float
    pred_pixels: int
    sad_pixel_ops: int
    me_candidates: int
    transform_blocks: int
    #: ``(payload, nbits)`` for ``BitWriter.append_bits`` when emitting.
    payload: Optional[Tuple[bytes, int]]
    #: ``[use_inter, mv_x, mv_y]`` per block in raster order, on request.
    info: Optional[List[List[int]]]
    #: First non-zero-MV axis vote and the tile's last block MV (only
    #: meaningful when the call was learning).
    first_axis: Optional[str]
    final_mv: Tuple[int, int]
    motion_seconds: float
    entropy_seconds: float


#: Bytes of emission buffer per tile pixel, above the worst case: an
#: 8x8 sub-block emits at most ue(64) + 64 * (ue(0) + se(level)) bits
#: with |level| <= 8 * 255 / Qstep(QP 0) < 2^12, i.e. < 27 bits per
#: pixel, and a block header (flag + MVD or mode) is < 1 bit per pixel.
_TILE_BYTES_PER_PIXEL = 4


def encode_tile(
    original: np.ndarray,
    reference: Optional[np.ndarray],
    reconstruction: np.ndarray,
    tile,
    block_size: int,
    step: float,
    lambda_mv: float,
    basis_ptr: int,
    zz_order_ptr: int,
    search: Tuple[int, int, int] = (0, 0, 0),
    predictor: Optional[Tuple[int, int]] = None,
    learn: bool = False,
    emit: bool = False,
    want_info: bool = False,
    measure: bool = False,
) -> TileResult:
    """Encode one I/P tile's whole block raster in the C driver.

    The caller (``TileEncoder.encode``) has vetted the envelope: all
    planes are C-contiguous uint8 of one shape, the tile lies inside
    them with 8-aligned width and height, ``block_size <= 64``, and
    ``search = (alg, param, window)`` plus ``predictor`` fit the motion
    cost-cache table.  ``reference`` is ``None`` on I frames.  The GIL
    is released for the whole call; every mutable buffer handed over is
    either this thread's scratch or the tile's own region of
    ``reconstruction``.
    """
    sc = _scratch
    if reference is not None and sc.mcache_costs is None:
        sc.ensure_motion()
    if emit:
        cap = _TILE_BYTES_PER_PIXEL * tile.area + 64
        if sc.bitbuf.size < cap:
            sc.bitbuf = np.empty(cap, dtype=np.uint8)
            sc.bitbuf_ptr = sc.bitbuf.ctypes.data
    info = None
    if want_info:
        blocks = -(-tile.width // block_size) * -(-tile.height // block_size)
        info = np.empty((blocks, 3), dtype=np.int32)
    has_ref = reference is not None
    lib.encode_tile_u8(
        original.ctypes.data, original.strides[0],
        reference.ctypes.data if has_ref else None,
        reference.strides[0] if has_ref else 0,
        reference.shape[0] if has_ref else 0,
        reference.shape[1] if has_ref else 0,
        reconstruction.ctypes.data, reconstruction.strides[0],
        tile.x, tile.y, tile.width, tile.height, block_size,
        step, lambda_mv, basis_ptr, zz_order_ptr,
        search[0], search[1], search[2],
        predictor is not None, learn,
        predictor[0] if predictor else 0, predictor[1] if predictor else 0,
        sc.mcache_costs_ptr if has_ref else None,
        sc.mcache_stamps_ptr if has_ref else None,
        sc.mcache_epoch_ptr if has_ref else None,
        sc.bitbuf_ptr if emit else None, sc.bitbuf.size if emit else 0,
        info.ctypes.data if want_info else None, measure,
        sc.tile_i_ptr, sc.tile_d_ptr,
    )
    (bits, pred_pixels, sad_pixel_ops, me_candidates, transform_blocks,
     emitted, axis, final_dx, final_dy) = sc.tile_i.tolist()
    ssd, motion_s, entropy_s = sc.tile_d.tolist()
    if emitted < 0:
        raise RuntimeError(
            f"tile bit buffer overflow ({sc.bitbuf.size} bytes for {tile})"
        )
    return TileResult(
        bits=bits, ssd=ssd, pred_pixels=pred_pixels,
        sad_pixel_ops=sad_pixel_ops, me_candidates=me_candidates,
        transform_blocks=transform_blocks,
        payload=(
            (sc.bitbuf[: (emitted + 7) // 8].tobytes(), emitted)
            if emit else None
        ),
        info=info.tolist() if want_info else None,
        first_axis=(None, "x", "y")[axis],
        final_mv=(final_dx, final_dy),
        motion_seconds=motion_s, entropy_seconds=entropy_s,
    )


def entropy_write(
    levels: np.ndarray, zz_order: np.ndarray
) -> Optional[Tuple[bytes, int]]:
    """Batch-emit the residual syntax of an ``(n, 8, 8)`` level stack.

    Returns ``(payload, nbits)`` where the first ``nbits`` bits of
    ``payload`` (MSB-first) are exactly what ``write_block`` would have
    produced for each sub-block in order; splice with
    ``BitWriter.append_bits``.  ``None`` when the native layer is off.
    """
    if lib is None:
        return None
    sc = _scratch
    nbits = lib.entropy_write_levels(
        levels.ctypes.data, levels.shape[0], zz_order.ctypes.data,
        sc.bitbuf_ptr, sc.bitbuf.size,
    )
    if nbits < 0:
        return None
    return sc.bitbuf[: (nbits + 7) // 8].tobytes(), int(nbits)


def downscale_box(
    src: np.ndarray, out_h: int, out_w: int
) -> Optional[np.ndarray]:
    """Exact integer box downscale of a C-contiguous uint8 plane.

    Bit-identical to ``repro.video.scale.downscale_box_reference`` for
    every valid geometry (``1 <= out_h <= h``, ``1 <= out_w <= w``);
    ``None`` when the native layer is off or the input falls outside
    the kernel's envelope — callers then run the NumPy oracle.
    """
    if lib is None:
        return None
    if src.dtype != np.uint8 or not src.flags.c_contiguous:
        return None
    h, w = src.shape
    if not (1 <= out_h <= h) or not (1 <= out_w <= w):
        return None
    out = np.empty((out_h, out_w), dtype=np.uint8)
    lib.downscale_box_u8(
        src.ctypes.data, src.strides[0], h, w,
        out.ctypes.data, out_h, out_w,
    )
    return out


#: Active SIMD level of the SAD kernels: 0 = scalar/SSE2 baseline,
#: 1 = AVX2, 2 = AVX-512.  Set at import from the CPU capabilities,
#: clamped by the ``REPRO_NATIVE_SIMD`` environment escape hatch.
simd_level: int = 0


def _init_simd(cdll: ctypes.CDLL) -> int:
    want = cdll.simd_detect()
    env = os.environ.get("REPRO_NATIVE_SIMD")
    if env is not None:
        try:
            want = min(want, int(env))
        except ValueError:
            pass
    cdll.simd_set_level(want)
    return int(cdll.simd_get_level())


def rebuild(extra_cflags: Sequence[str]) -> None:
    """Swap :data:`lib` for a build with ``extra_cflags`` appended.

    The flags are part of the cache key, so an instrumented object
    (``make sanitize``: ``-fsanitize=address,undefined``) never shadows
    the production one.  Raises when that build cannot be produced or
    loaded — an instrumented run must never quietly test the NumPy
    fallback instead.
    """
    global lib, simd_level
    cdll = _load(extra_cflags)
    if cdll is None:
        raise RuntimeError(
            f"native kernels did not build/load with {list(extra_cflags)}"
        )
    lib = cdll
    simd_level = _init_simd(cdll)


lib = _load()
if lib is not None:
    simd_level = _init_simd(lib)
