"""Native (C) tier of the codec: the tile driver.

The codec has two tiers.  This package is the fast one: it compiles
``kernels.c`` once per machine with the system C compiler (``cc``),
loads it through :mod:`ctypes`, and wraps its two entry points:

* :func:`encode_tile` — the whole block raster of an I/P tile in **one
  foreign call** (intra choice, seeded motion search, mode decision,
  residual, reconstruction, bit emission, op counts, first-P-frame
  learning).  ctypes drops the GIL for the call, so tiles encoded from
  different threads run on different cores.
* :func:`downscale_box` — the rendition ladder's exact integer box
  downscale.

The other tier is the per-block loop in :mod:`repro.codec.encoder`,
which is pure NumPy: it is the reference the driver is tested against
(``tests/test_native_kernels.py`` runs it with :data:`lib` replaced by a
stub that raises on any access) and the only thing that runs what the
driver declines (B frames, half-pel, search algorithms without a
``native_spec``, oversized windows, odd layouts —
``TileEncoder._driver_plan``) or anything at all under
``REPRO_NATIVE=0``.  The two tiers agree to the bit: the C arithmetic
is IEEE, one rounding per operation (``-ffp-contract=off``), the NumPy
transform and SAD reductions accumulate in the same order, and where
the driver takes a shorter way to a number (integer residuals, a
norm bound instead of a DCT, an abandoned planar trial) the way is an
equality, argued in ``kernels.c`` and DESIGN.md §8.
Nothing between the tiers is native, because nothing would use it:
in every ``BENCHMARK.json`` workload and every golden all tiles take
the driver (16 frames each of a VGA, a 96x96 and a 3-rung-ladder
session: 904 ``encode_tile_u8`` and 32 ``downscale_box_u8`` calls, no
declined tile); in the offline report harness 6768 tiles take the
driver and the 1848 tiles of Table I's TZ-search reference, whose cost
is reported in operation counts, take the loop.

Every exported function is declared with ``c_void_p`` pointer
arguments so callers pass raw ``ndarray.ctypes.data`` integers (no
per-call ``data_as`` pointer objects), and the driver's fixed-size
outputs live in thread-local scratch whose pointers are computed once.

Everything degrades gracefully: if no compiler is available, if
compilation fails (:data:`build_error` then holds the compiler's
message), or if ``REPRO_NATIVE=0`` is set, :data:`lib` is ``None`` and
every tile runs the NumPy loop.  The compiled object is cached under
``_build/``, keyed by a hash of the source and flags.
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
#: bit-exactness of the intra prediction and transform arithmetic.
#: ``-Wall -Werror`` is the compile-time guard: a kernel change that
#: introduces any warning fails the build, and the package falls back
#: to NumPy with the compiler's message kept in :data:`build_error`
#: (``tests/test_native_kernels.py`` fails on it wherever a compiler
#: exists, so a broken kernel cannot pass as a missing-native skip).
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared", "-Wall", "-Werror"]

#: Half-extent of the motion-search cost cache table (must match
#: ``MS_H`` in ``kernels.c``): the C driver caches candidate costs for
#: displacements in ``[-MOTION_CACHE_HALF, MOTION_CACHE_HALF]`` per
#: axis.  ``TileEncoder._driver_plan`` declines windows/seeds that
#: could step outside.
MOTION_CACHE_HALF = 160

#: The loaded shared library, or None when native kernels are off.
lib: Optional[ctypes.CDLL] = None

#: Why the last build produced nothing to call (the compiler's stderr,
#: or the failure to run it or to load its output); ``None`` once one
#: succeeds.
build_error: Optional[str] = None


def _compile(extra_cflags: Sequence[str] = ()) -> Optional[Path]:
    global build_error
    build_error = None
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
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = getattr(exc, "stderr", None)
        build_error = (
            stderr.decode(errors="replace").strip() if stderr else repr(exc)
        )
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        return None


def _load(extra_cflags: Sequence[str] = ()) -> Optional[ctypes.CDLL]:
    global build_error
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    try:
        so_path = _compile(extra_cflags)
        if so_path is None:
            return None
        cdll = ctypes.CDLL(str(so_path))
    except OSError as exc:
        build_error = repr(exc)
        return None
    ptr = ctypes.c_void_p  # callers pass ndarray.ctypes.data integers
    i64 = ctypes.c_int64
    i32 = ctypes.c_int
    f64 = ctypes.c_double
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
        # Bit emission buffer (grown by encode_tile to its worst-case
        # bound) and the driver's integer / double outputs.
        self.bitbuf = np.empty(1 << 16, dtype=np.uint8)
        self.bitbuf_ptr = self.bitbuf.ctypes.data
        self.tile_i = np.empty(9, dtype=np.int64)
        self.tile_i_ptr = self.tile_i.ctypes.data
        self.tile_d = np.empty(3, dtype=np.float64)
        self.tile_d_ptr = self.tile_d.ctypes.data
        # The ~1.7 MiB motion cost-cache table is lazy: only threads
        # that encode P tiles pay for it.
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


_scratch = _Scratch()


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
    #: Stage clocks, zero unless the call was measuring.  ``motion`` is
    #: the search; ``entropy`` is everything after the mode decision —
    #: residual, zero tests, DCT, quantization, run-length syntax,
    #: reconstruction and SSD — and includes writing bits only when
    #: emitting.  The intra choice is in neither.
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


#: Always 0: the SAD kernels have no runtime dispatch (SSE2 ``psadbw``
#: on x86 for block widths that are a multiple of 16, the plain C loop
#: otherwise).  Kept only because ``bench/machine.py`` reads it into the
#: machine record (ROADMAP item 17 drops it there, then here).
simd_level: int = 0


def rebuild(extra_cflags: Sequence[str]) -> None:
    """Swap :data:`lib` for a build with ``extra_cflags`` appended.

    The flags are part of the cache key, so an instrumented object
    (``make sanitize``: ``-fsanitize=address,undefined``) never shadows
    the production one.  Raises when that build cannot be produced or
    loaded — an instrumented run must never quietly test the NumPy
    fallback instead.
    """
    global lib
    cdll = _load(extra_cflags)
    if cdll is None:
        raise RuntimeError(
            f"native kernels did not build/load with {list(extra_cflags)}"
            + (f":\n{build_error}" if build_error else "")
        )
    lib = cdll


lib = _load()
