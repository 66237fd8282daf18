"""Native (C) tier of the codec: the tile driver.

The codec has two tiers.  This package is the fast one: it compiles
``kernels.c`` once per machine with the system C compiler (``cc``),
loads it through :mod:`ctypes`, and wraps its two entry points:

* :func:`encode_frame` — every tile of an I/P frame in **one foreign
  call**: a table with one row per tile goes in, the driver runs each
  tile's whole block raster (intra choice, seeded motion search, mode
  decision, residual, reconstruction, bit emission, op counts,
  first-P-frame learning) in table order, and one row of counters and
  clocks per tile comes back.  ctypes drops the GIL for the call, so
  frames encoded from different threads run on different cores.
  :func:`encode_tile` is the one-row case.
* :func:`downscale_box` — the rendition ladder's exact integer box
  downscale.

The other tier is the per-block loop in :mod:`repro.codec.encoder`,
which is pure NumPy: it is the reference the driver is tested against
(``tests/test_native_kernels.py`` runs it with :data:`lib` replaced by a
stub that raises on any access) and the only thing that runs what the
driver declines (B frames, half-pel, search algorithms without a
``native_spec``, oversized windows, odd layouts —
``repro.codec.encoder._driver_row``) or anything at all under
``REPRO_NATIVE=0``.  The two tiers agree to the bit: the C arithmetic
is IEEE, one rounding per operation (``-ffp-contract=off``), the NumPy
transform and SAD reductions accumulate in the same order, and where
the driver takes a shorter way to a number (integer residuals, a
norm bound instead of a DCT, an abandoned planar trial) the way is an
equality, argued in ``kernels.c`` and DESIGN.md §8.
Nothing between the tiers is native, because nothing would use it:
in every ``BENCHMARK.json`` workload and every golden all tiles take
the driver (16 frames each of a VGA, a 96x96 and a 3-rung-ladder
session: 904 tiles in 80 ``encode_frame_u8`` calls and 32
``downscale_box_u8`` calls, no declined tile); in the offline report
harness 6768 tiles take the driver and the 1848 tiles of Table I's
TZ-search reference, whose cost is reported in operation counts, take
the loop.

Every exported function is declared with ``c_void_p`` pointer
arguments so callers pass raw ``ndarray.ctypes.data`` integers (no
per-call ``data_as`` pointer objects); the motion cost cache is
thread-local scratch whose pointers are computed once, every other
buffer is private to the call.

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
#: axis.  ``repro.codec.encoder._driver_row`` declines windows/seeds that
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
    cdll.encode_frame_u8.argtypes = [
        ptr, i64, ptr, i64, i64, i64, ptr, i64,      # cur, ref, recon
        i64, ptr, ptr,                               # tile table
        ptr, ptr,                                    # basis, zigzag order
        ptr, ptr, ptr,                               # cost cache
        ptr, ptr, i32, ptr, ptr,                     # bits, info, outputs
    ]
    cdll.encode_frame_u8.restype = None
    cdll.downscale_box_u8.argtypes = [ptr, i64, i64, i64, ptr, i64, i64, ptr]
    cdll.downscale_box_u8.restype = None
    return cdll


def available() -> bool:
    """Whether the compiled kernels are loaded in this process."""
    return lib is not None


class _Scratch(threading.local):
    """Per-thread motion cost cache with precomputed pointers.

    ctypes releases the GIL during foreign calls, so module-global
    scratch would race if two threads encoded concurrently;
    thread-local storage keeps the cached pointers safe.
    """

    def __init__(self):
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
    """One tile's outcome: a row of what :func:`encode_frame` returns
    (all of it, for the one-row :func:`encode_tile`)."""

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
    #: meaningful when the row was learning).
    first_axis: Optional[str]
    final_mv: Tuple[int, int]
    #: Stage clocks, zero unless the call was measuring.  ``motion`` is
    #: the search; ``entropy`` is everything after the mode decision —
    #: residual, zero tests, DCT, quantization, run-length syntax,
    #: reconstruction and SSD — and includes writing bits only when
    #: emitting.  The intra choice is in neither; ``wall`` is the whole
    #: tile.
    motion_seconds: float
    entropy_seconds: float
    wall_seconds: float


#: Widths of a tile-table row and of a result row (``ROW_I`` / ``ROW_D``
#: / ``OUT_I`` / ``OUT_D`` in ``kernels.c``).
_ROW_INTS, _ROW_DOUBLES, _OUT_INTS, _OUT_DOUBLES = 15, 2, 9, 4

#: Bytes of emission buffer per tile pixel, above the worst case: an
#: 8x8 sub-block emits at most ue(64) + 64 * (ue(0) + se(level)) bits
#: with |level| <= 8 * 255 / Qstep(QP 0) < 2^12, i.e. < 27 bits per
#: pixel, and a block header (flag + MVD or mode) is < 1 bit per pixel.
_TILE_BYTES_PER_PIXEL = 4


def encode_frame(
    original: np.ndarray,
    reference: Optional[np.ndarray],
    reconstruction: np.ndarray,
    rows: Sequence[tuple],
    basis_ptr: int,
    zz_order_ptr: int,
    emit: bool = False,
    want_info: bool = False,
    measure: bool = False,
) -> List[TileResult]:
    """Encode the tiles of one I/P frame in the C driver, in one call.

    ``rows`` holds one ``(x, y, width, height, block_size, alg, param,
    window, use_pred, learn, pred_dx, pred_dy, step, lambda_mv)`` per
    tile; the results come back in the same order.  The caller
    (``FrameEncoder.encode`` / ``TileEncoder.encode``) has vetted the
    envelope: all planes are C-contiguous uint8 of one shape, every
    tile lies inside them with 8-aligned width and height,
    ``block_size <= 64``, and the search and predictor fit the motion
    cost-cache table.  ``reference`` is ``None`` on I frames.  The GIL
    is released for the whole call; every mutable buffer handed over is
    either this thread's scratch, private to the call, or a tile's own
    region of ``reconstruction``.
    """
    sc = _scratch
    has_ref = reference is not None
    if has_ref and sc.mcache_costs is None:
        sc.ensure_motion()
    ints: List[int] = []
    doubles: List[float] = []
    # Where each tile's bits (bytes into ``bitbuf``) and block infos
    # (int32s into ``info``) start; one entry past the last tile.
    offsets = [(0, 0)]
    for row in rows:
        width, height, block = row[2], row[3], row[4]
        bits_off, info_off = offsets[-1]
        cap = _TILE_BYTES_PER_PIXEL * width * height + 64 if emit else 0
        ints += row[:12]
        ints += (bits_off, cap, info_off)
        doubles += row[12:]
        if want_info:
            info_off += 3 * (-(-width // block) * -(-height // block))
        offsets.append((bits_off + cap, info_off))
    n = len(rows)
    table_i = np.array(ints, dtype=np.int64)
    table_d = np.array(doubles, dtype=np.float64)
    if table_i.size != n * _ROW_INTS or table_d.size != n * _ROW_DOUBLES:
        raise ValueError("malformed tile table row")
    bitbuf = np.empty(offsets[-1][0], dtype=np.uint8)
    info = np.empty(offsets[-1][1], dtype=np.int32)
    out_i = np.empty((n, _OUT_INTS), dtype=np.int64)
    out_d = np.empty((n, _OUT_DOUBLES), dtype=np.float64)
    lib.encode_frame_u8(
        original.ctypes.data, original.strides[0],
        reference.ctypes.data if has_ref else None,
        reference.strides[0] if has_ref else 0,
        reference.shape[0] if has_ref else 0,
        reference.shape[1] if has_ref else 0,
        reconstruction.ctypes.data, reconstruction.strides[0],
        n, table_i.ctypes.data, table_d.ctypes.data,
        basis_ptr, zz_order_ptr,
        sc.mcache_costs_ptr if has_ref else None,
        sc.mcache_stamps_ptr if has_ref else None,
        sc.mcache_epoch_ptr if has_ref else None,
        bitbuf.ctypes.data if emit else None,
        info.ctypes.data if want_info else None, measure,
        out_i.ctypes.data, out_d.ctypes.data,
    )
    results = []
    for t, (counts, clocks) in enumerate(zip(out_i.tolist(), out_d.tolist())):
        emitted = counts[5]
        if emitted < 0:
            raise RuntimeError(
                f"tile bit buffer overflow (tile {t}: {rows[t][:4]})"
            )
        bits_at, info_at = offsets[t]
        payload = info_rows = None
        if emit:
            stop = bits_at + (emitted + 7) // 8
            payload = (bitbuf[bits_at:stop].tobytes(), emitted)
        if want_info:
            info_rows = info[info_at:offsets[t + 1][1]].reshape(-1, 3).tolist()
        results.append(TileResult(
            counts[0], clocks[0], counts[1], counts[2], counts[3], counts[4],
            payload, info_rows, (None, "x", "y")[counts[6]],
            (counts[7], counts[8]), clocks[1], clocks[2], clocks[3],
        ))
    return results


def encode_tile(
    original: np.ndarray,
    reference: Optional[np.ndarray],
    reconstruction: np.ndarray,
    row: tuple,
    basis_ptr: int,
    zz_order_ptr: int,
    emit: bool = False,
    want_info: bool = False,
    measure: bool = False,
) -> TileResult:
    """Encode one I/P tile: :func:`encode_frame` over a table of the
    one ``row`` (same contract, same foreign call)."""
    return encode_frame(
        original, reference, reconstruction, [row], basis_ptr, zz_order_ptr,
        emit, want_info, measure,
    )[0]


def downscale_box(
    src: np.ndarray, out_h: int, out_w: int
) -> Optional[np.ndarray]:
    """Exact integer box downscale of a C-contiguous uint8 plane.

    Bit-identical to ``repro.video.scale.downscale_box_reference`` for
    every valid geometry (``1 <= out_h <= h``, ``1 <= out_w <= w``);
    ``None`` when the native layer is off or the input falls outside
    the kernel's envelope (a plane of 2^24 samples or more: its box
    sums could leave the kernel's 32-bit lanes) — callers then run the
    NumPy oracle.
    """
    if lib is None:
        return None
    if src.dtype != np.uint8 or not src.flags.c_contiguous:
        return None
    h, w = src.shape
    if not (1 <= out_h <= h) or not (1 <= out_w <= w) or h * w >= 1 << 24:
        return None
    out = np.empty((out_h, out_w), dtype=np.uint8)
    # The kernel's column edges and one row of column sums.
    scratch = np.empty(out_w + 1 + w, dtype=np.uint32)
    lib.downscale_box_u8(
        src.ctypes.data, src.strides[0], h, w,
        out.ctypes.data, out_h, out_w, scratch.ctypes.data,
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
