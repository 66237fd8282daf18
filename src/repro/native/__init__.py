"""Native (C) tier of the codec: the tile driver.

The codec has two tiers.  This package is the fast one: it compiles
``kernels.c`` once per machine with the system C compiler (``cc``),
loads it through :mod:`ctypes`, and wraps its three entry points:

* :func:`encode_frame` — every tile of an I/P frame in **one foreign
  call**: a :class:`TileTable` with one row per tile goes in, the
  driver runs each tile's whole block raster (intra choice, seeded
  motion search, mode decision, residual, reconstruction, bit
  emission, op counts, first-P-frame learning) in table order, and one
  row of counters and clocks per tile comes back in the table.  ctypes
  drops the GIL for the call, so frames encoded from different threads
  run on different cores.  A lone tile is a table of one row.
* :class:`FrameTables` — the re-tiler's content analysis: a frame's
  block statistics built once, then CV, texture class and motion score
  of any batch of block-aligned rectangles
  (:class:`repro.analysis.frame_analysis.NativeFrameAnalysis`).
* :func:`downscale_box` — the rendition ladder's exact integer box
  downscale.

The other tier is the per-block loop in :mod:`repro.codec.encoder`,
which is pure NumPy: it is the reference the driver is tested against
(``tests/test_native_kernels.py`` runs it with :data:`lib` replaced by a
stub that raises on any access) and the only thing that runs what the
driver declines (B frames, half-pel, search algorithms without a
``native_spec``, oversized windows, odd layouts —
``repro.codec.encoder.driver_table`` / ``search_columns``) or anything
at all under
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
per-call ``data_as`` pointer objects; fetching one costs more than a
foreign call, so whatever outlives a call keeps its own): the motion
cost cache is thread-local scratch whose pointers are computed once, a
:class:`TileTable` and a :class:`FrameTables` fetch theirs when built,
and only the planes of the frame at hand are looked up per call.

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
from typing import List, Optional, Sequence, Tuple

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
#: axis.  ``repro.codec.encoder.search_columns`` declines windows/seeds
#: that could step outside.
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
    # (fleet workers, test runs) never load a half-written object.
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
        ptr, i32, ptr, ptr,                          # bits, measure, outputs
    ]
    cdll.encode_frame_u8.restype = None
    f64 = ctypes.c_double
    cdll.analyze_frame_u8.argtypes = [
        ptr, i64, ptr, i64, i64, i64, i64,           # cur, prev, h, w, block
        ptr, i32, ptr, i64,                          # tables, build, rects
        f64, f64, f64, f64, f64, f64, f64, i64,      # Eq. 1 / Eq. 2 constants
        ptr, ptr, ptr,                               # outputs
    ]
    cdll.analyze_frame_u8.restype = i64
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


#: Widths of a tile-table row and of a result row (``ROW_I`` / ``ROW_D``
#: / ``OUT_I`` / ``OUT_D`` in ``kernels.c``).
_ROW_INTS, _ROW_DOUBLES, _OUT_INTS, _OUT_DOUBLES = 14, 2, 9, 4

#: Bytes of emission buffer per tile pixel, above the worst case: an
#: 8x8 sub-block emits at most ue(64) + 64 * (ue(0) + se(level)) bits
#: with |level| <= 8 * 255 / Qstep(QP 0) < 2^12, i.e. < 27 bits per
#: pixel, and a block header (flag + MVD or mode) is < 1 bit per pixel.
_TILE_BYTES_PER_PIXEL = 4


class TileTable:
    """The frame driver's view of one tile grid: a table row per tile
    going in, a result row per tile coming back.

    What a grid fixes — each tile's rectangle and block size, and where
    its bits land in the emission buffer — is written once, here.  What
    a frame can change is rewritten by :meth:`load` before each
    :func:`encode_frame`: per tile ``(alg, param, window, use_pred,
    learn, pred_dx, pred_dy)`` and ``(step, lambda_mv)``.  A
    table outlives its frame: the pipeline builds one per GOP and rung,
    and nothing is allocated or marshalled per frame but those columns.

    After a call, :attr:`counts` rows are ``[bits, pred_pixels,
    sad_pixel_ops, me_candidates, transform_blocks, emitted,
    first_axis, final_dx, final_dy]`` (``first_axis``: 0 none, 1 ``x``,
    2 ``y`` — the tile's first non-zero-MV axis vote; with the tile's
    last block MV, meaningful only for a row that was learning) and
    :attr:`clocks` rows ``[ssd, motion_s, entropy_s, tile_wall_s]``
    (the seconds zero unless the call was measuring: ``motion`` is the
    search; ``entropy`` everything after the mode decision — residual,
    zero tests, DCT, quantization, run-length syntax, reconstruction
    and SSD — and includes writing bits only when emitting; the intra
    choice is in neither).
    """

    def __init__(self, rects: Sequence[Tuple[int, int, int, int]],
                 block_sizes: Sequence[int]):
        n = self.size = len(rects)
        self.block_sizes = list(block_sizes)
        self._rows_i = np.zeros((n, _ROW_INTS), dtype=np.int64)
        self._rows_d = np.zeros((n, _ROW_DOUBLES), dtype=np.float64)
        self._out_i = np.empty((n, _OUT_INTS), dtype=np.int64)
        self._out_d = np.empty((n, _OUT_DOUBLES), dtype=np.float64)
        fixed = []
        # Where each tile's bits start in the emission buffer (bytes);
        # one entry past the last tile.
        self._offsets = [0]
        for (x, y, width, height), block in zip(rects, block_sizes):
            bits_off = self._offsets[-1]
            cap = _TILE_BYTES_PER_PIXEL * width * height + 64
            fixed.append((x, y, width, height, block, bits_off, cap))
            self._offsets.append(bits_off + cap)
        fixed = np.array(fixed, dtype=np.int64).reshape(n, 7)
        self._rows_i[:, :5] = fixed[:, :5]
        self._rows_i[:, 12:] = fixed[:, 5:]
        self._bits: Optional[np.ndarray] = None
        self._ptrs = (n, self._rows_i.ctypes.data, self._rows_d.ctypes.data)
        self._out_ptrs = (self._out_i.ctypes.data, self._out_d.ctypes.data)

    def load(self, searches: Optional[Sequence[tuple]],
             quants: Sequence[tuple]) -> None:
        """Write one frame's columns: per tile ``(alg, param, window,
        use_pred, learn, pred_dx, pred_dy)`` — ``None`` for an I frame,
        which reads none of them — and ``(step, lambda_mv)``."""
        if searches is not None:
            self._rows_i[:, 5:12] = searches
        self._rows_d[:] = quants

    @property
    def counts(self) -> List[List[int]]:
        return self._out_i.tolist()

    @property
    def clocks(self) -> List[List[float]]:
        return self._out_d.tolist()

    def payload(self, tile: int, emitted: int) -> Tuple[bytes, int]:
        """``(payload, nbits)`` for ``BitWriter.append_bits``: the
        ``emitted`` bits tile ``tile`` wrote in an emitting call."""
        start = self._offsets[tile]
        stop = start + (emitted + 7) // 8
        return self._bits[start:stop].tobytes(), emitted


def encode_frame(
    original: np.ndarray,
    reference: Optional[np.ndarray],
    reconstruction: np.ndarray,
    table: TileTable,
    basis_ptr: int,
    zz_order_ptr: int,
    emit: bool = False,
    measure: bool = False,
) -> None:
    """Encode the tiles of one frame in the C driver, in one call; the
    results are ``table``'s result rows (and, when emitting, its
    :meth:`~TileTable.payload`).

    The caller (``FrameEncoder.encode`` / ``TileEncoder.encode``) has
    vetted the envelope: all planes are C-contiguous uint8 of one
    shape, every tile of the table lies inside them with 8-aligned
    width and height, ``block_size <= 64``, and the loaded searches and
    predictors fit the motion cost-cache table.  ``reference`` is
    ``None`` on I frames.  The GIL is released for the whole call;
    every mutable buffer handed over is either this thread's scratch,
    the table's own, or a tile's own region of ``reconstruction``.
    """
    sc = _scratch
    has_ref = reference is not None
    if has_ref and sc.mcache_costs is None:
        sc.ensure_motion()
    if emit and table._bits is None:
        table._bits = np.empty(table._offsets[-1], dtype=np.uint8)
    lib.encode_frame_u8(
        original.ctypes.data, original.strides[0],
        reference.ctypes.data if has_ref else None,
        reference.strides[0] if has_ref else 0,
        reference.shape[0] if has_ref else 0,
        reference.shape[1] if has_ref else 0,
        reconstruction.ctypes.data, reconstruction.strides[0],
        *table._ptrs, basis_ptr, zz_order_ptr,
        sc.mcache_costs_ptr if has_ref else None,
        sc.mcache_stamps_ptr if has_ref else None,
        sc.mcache_epoch_ptr if has_ref else None,
        table._bits.ctypes.data if emit else None, measure,
        *table._out_ptrs,
    )


def analysis_fits(plane: np.ndarray) -> bool:
    """Whether :class:`FrameTables` can take a luma plane: unit-stride
    uint8 rows, and small enough for the kernel's integers — a
    rectangle of ``n`` samples needs ``n * Σx² <= n² * 255²`` inside 63
    bits (``n <= 2^23``) and one cell row's ``Σx²`` inside 32
    (``width < 2^16``).  Anything else takes the NumPy analysis."""
    height, width = plane.shape
    return (
        plane.dtype == np.uint8 and plane.strides[1] == 1
        and plane.strides[0] >= width
        and height * width <= 1 << 23 and width < 1 << 16
    )


class FrameTables:
    """One frame's block statistics in ``kernels.c``'s layout (two
    summed-area tables and the per-cell peak keys) and the foreign call
    that fills and queries them.

    The caller (:func:`repro.analysis.frame_analysis.analyse_frame`)
    has vetted the planes: :func:`analysis_fits`, one shape, ``block``
    divides both dimensions.  The tables are filled by the first
    :meth:`query`, so analysing a frame and asking the first batch of
    rectangles of it is one crossing; every pointer the call takes
    except the batch's own is computed here, once.
    """

    def __init__(
        self, current: np.ndarray, previous: Optional[np.ndarray], block: int
    ):
        height, width = current.shape
        rows, cols = height // block, width // block
        self._planes = (current, previous)  # keeps the pointers valid
        self._table_words = 2 * (rows + 1) * (cols + 1) + rows * cols
        has_prev = previous is not None
        self._frame = (
            current.ctypes.data, current.strides[0],
            previous.ctypes.data if has_prev else None,
            previous.strides[0] if has_prev else 0,
            height, width, block,
        )
        self._built = False
        self._words: Optional[np.ndarray] = None
        self._reserve(64)

    def _reserve(self, capacity: int) -> None:
        """One allocation, one pointer fetched: the tables, then room
        for ``capacity`` rectangles and their three result columns."""
        old = self._words
        tables = self._table_words
        self._words = np.empty(tables + 7 * capacity, dtype=np.int64)
        if old is not None:
            self._words[:tables] = old[:tables]
        base = self._words.ctypes.data
        spans = [tables + k * capacity for k in (0, 4, 5, 6, 7)]
        self._capacity = capacity
        self._rects = self._words[spans[0]:spans[1]].reshape(capacity, 4)
        self._cv = self._words[spans[1]:spans[2]].view(np.float64)
        self._score = self._words[spans[2]:spans[3]].view(np.float64)
        self._class = self._words[spans[3]:spans[4]]
        self._tables_ptr = base
        self._rects_ptr = base + 8 * spans[0]
        self._out_ptrs = tuple(base + 8 * span for span in spans[1:4])

    def query(
        self,
        rects,
        texture: Tuple[float, float, float],
        probe: Tuple[float, float, float, float, int],
    ) -> Tuple[List[float], List[int], List[float]]:
        """``(cvs, texture class indices, motion scores)`` of the
        ``(x, y, width, height)`` rows of ``rects`` (an ``(n, 4)``
        integer array or nested sequence), in one foreign call with
        the GIL released.

        ``texture`` is ``(low, high, dark_mean)`` of Eq. 1, ``probe``
        ``(alpha, beta, gamma, pixel_tolerance, patch_radius)`` of Eq.
        2; without a previous plane every score is 0.  The rectangles
        are checked inside the call, before anything is read through
        them: one off the block lattice or outside the plane raises
        ``ValueError``.
        """
        n = len(rects)
        if n > self._capacity:
            self._reserve(n)
        self._rects[:n] = rects
        bad = lib.analyze_frame_u8(
            *self._frame, self._tables_ptr, not self._built,
            self._rects_ptr, n, *texture, *probe, *self._out_ptrs,
        )
        self._built = True
        if bad >= 0:
            height, width, block = self._frame[4:]
            raise ValueError(
                f"rectangle {self._rects[bad].tolist()} is off the "
                f"{block}-sample lattice or outside the {width}x{height} "
                "plane"
            )
        return (self._cv[:n].tolist(), self._class[:n].tolist(),
                self._score[:n].tolist())


def downscale_box(
    src: np.ndarray, out_h: int, out_w: int
) -> Optional[np.ndarray]:
    """Exact integer box downscale of a C-contiguous uint8 plane.

    Bit-identical to ``repro.video.scale.downscale_box_reference`` for
    every valid geometry (``1 <= out_h <= h``, ``1 <= out_w <= w``);
    ``None`` when the native layer is off or the input falls outside
    the kernel's envelope (a plane of 2^24 samples or more: its box
    sums could leave the kernel's 32-bit lanes, and its populations the
    range the kernel's multiply-shift quotient is proved for) — callers
    then run the NumPy oracle.
    """
    if lib is None:
        return None
    if src.dtype != np.uint8 or not src.flags.c_contiguous:
        return None
    h, w = src.shape
    if not (1 <= out_h <= h) or not (1 <= out_w <= w) or h * w >= 1 << 24:
        return None
    out = np.empty((out_h, out_w), dtype=np.uint8)
    # The kernel's per-column table and one row of lanes (its largest
    # user: out_w + 1 edges and w 32-bit column sums).
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
