"""Tile / frame / video encoders.

The encoding loop mirrors a real HEVC encoder structure:

* frames are encoded tile by tile; tiles are independent within a
  frame (no prediction across tile boundaries) — the property the
  paper's per-tile workload allocation builds on (here in the modelled
  domain: a frame's tiles run in one native call, and sessions are what
  spreads over cores);
* each tile is encoded in ``block_size`` coding blocks (raster order):
  intra or inter prediction, residual transform (8x8 DCT),
  quantization, entropy coding, and reconstruction through the same
  dequant/inverse-transform path the decoder uses;
* every stage updates an :class:`~repro.codec.ops.OpCounts`, which the
  MPSoC cost model converts to CPU time (the simulation substitute for
  the paper's wall-clock measurements).

The optional ``writer`` produces a decodable bitstream
(:class:`~repro.codec.decoder.FrameDecoder` reads it back); without a
writer the encoder only *counts* the identical bits, which is much
faster and is what the benchmark harness uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.codec.bitstream import BitWriter
from repro.codec.config import EncoderConfig, FrameType, GopConfig
from repro.codec.entropy import count_stack_bits, write_block
from repro.codec.inter import clamp_mv, motion_compensate, mvd_bit_length, write_mvd
from repro.codec.intra import choose_mode, reference_samples
from repro.codec.ops import OpCounts
from repro.codec.quant import dequantize, quantization_step, quantize
from repro.codec.transform import (
    TRANSFORM_SIZE,
    blockify,
    dct_basis,
    forward_dct,
    inverse_dct,
    unblockify,
)
from repro.codec.zigzag import zigzag_indices, zigzag_scan
from repro import native
from repro.observability import get_registry, get_tracer
from repro.motion.base import MotionSearchResult, SearchContext
from repro.motion.proposed import TileHookSpec, TileLearned, spec_hook
from repro.tiling.tile import Tile, TileGrid
from repro.video.frame import Video
from repro.video.metrics import psnr_from_mse

#: Signature of the block loop's internal motion hook: receives a
#: context factory ``(window) -> SearchContext`` and the MV predictor,
#: returns the search result.  Built from a :class:`TileHookSpec` by
#: :func:`spec_hook`; no public signature takes one.
MotionHook = Callable[[Callable[[int], SearchContext], tuple], MotionSearchResult]

def _zz_order8() -> np.ndarray:
    """Zigzag scan order of an 8x8 block as flat row-major indices."""
    rows, cols = zigzag_indices(TRANSFORM_SIZE)
    order = (rows * TRANSFORM_SIZE + cols).astype(np.int32)
    order.flags.writeable = False
    return order


_ZZ_ORDER8 = _zz_order8()

#: Pointer ints of the module-constant native kernel inputs, computed
#: once (the arrays are immutable and live for the process lifetime).
_BASIS8 = np.ascontiguousarray(dct_basis(TRANSFORM_SIZE))
_BASIS8_PTR = _BASIS8.ctypes.data
_ZZ_ORDER8_PTR = _ZZ_ORDER8.ctypes.data


def reference_plane(
    reference: Optional[np.ndarray], frame_type: FrameType
) -> Optional[np.ndarray]:
    """The plane a frame of ``frame_type`` predicts from: the previous
    reconstruction for a P frame (required), nothing for an I frame."""
    if frame_type is FrameType.I:
        return None
    if reference is None:
        raise ValueError("P frame requires a reference frame")
    return reference


def reconstruct_block(prediction: np.ndarray, levels: np.ndarray, qp: int) -> np.ndarray:
    """Shared encoder/decoder reconstruction path.

    ``levels`` is the ``(n, 8, 8)`` stack of quantized coefficient
    blocks covering the prediction block.  Returns the reconstructed
    samples as ``uint8``.  The per-block encoder loop and the decoder
    call exactly this function; the native tile driver's
    reconstruction (in ``encode_block_plane``, ``kernels.c``) performs
    the same operations in the same order (see
    ``transform._matmul_in_order``),
    so a decoder without ``kernels.c`` rebuilds a driver-encoded
    stream sample for sample.
    """
    h, w = prediction.shape
    if not levels.any():
        # All-zero residual: the inverse transform of zeros is zeros,
        # so skip it (encoder and decoder share this shortcut).
        out = np.rint(prediction)
    else:
        out = unblockify(inverse_dct(dequantize(levels, qp)), h, w)
        out = out + prediction
        np.rint(out, out=out)
    # Same samples as clip(rint(x), 0, 255): rint first, then bound.
    np.minimum(out, 255.0, out=out)
    np.maximum(out, 0.0, out=out)
    return out.astype(np.uint8)


def _planes_fit_driver(
    original: np.ndarray, reconstruction: np.ndarray,
    reference: Optional[np.ndarray],
) -> bool:
    """The native driver's plane contract: C-contiguous uint8 planes
    of one shape (checked once per frame, not per tile)."""
    planes = [original, reconstruction]
    if reference is not None:
        planes.append(reference)
    return not any(
        p.dtype != np.uint8 or not p.flags.c_contiguous
        or p.shape != original.shape
        for p in planes
    )


def driver_table(
    tiles: Sequence[Tile], block_sizes: Sequence[int], frame_shape: tuple
):
    """The native frame driver's table for these tiles
    (:class:`repro.native.TileTable`, per-frame columns still to be
    loaded), or the reason (a ``str``) the driver cannot run one of
    them: its geometry contract (see ``encode_tile`` in ``kernels.c``)
    is tiles inside the frame, whole 8x8 transforms, blocks of at most
    64 samples."""
    height, width = frame_shape
    for tile, block_size in zip(tiles, block_sizes):
        if (
            block_size > 64
            or tile.x + tile.width > width
            or tile.y + tile.height > height
        ):
            return "layout"
        if tile.width % TRANSFORM_SIZE or tile.height % TRANSFORM_SIZE:
            return "partial_block"
    return native.TileTable(
        [(t.x, t.y, t.width, t.height) for t in tiles], block_sizes
    )


#: A table row's search columns on an I frame (the driver reads none).
_NO_SEARCH = (0, 0, 0, False, False, 0, 0)


def search_columns(
    algorithm, window: int, predictor: Optional[tuple], learn: bool
):
    """One tile's ``(alg, param, window, use_pred, learn, pred_dx,
    pred_dy)`` columns of the driver's table, or the reason (a ``str``)
    the driver cannot run the search."""
    spec = algorithm.native_spec()
    if spec is None:
        return "search"
    # Pattern offsets reach at most window + window // 2 (cross) past
    # the origin; seeds and candidates must stay inside the driver's
    # cost-cache table.
    half = native.MOTION_CACHE_HALF
    if window + window // 2 >= half:
        return "window"
    if predictor is None:
        return (*spec, window, False, learn, 0, 0)
    dx, dy = predictor
    if not (-half < dx < half and -half < dy < half):
        return "window"
    return (*spec, window, True, learn, dx, dy)


def _tile_columns(
    config: EncoderConfig,
    frame_type: FrameType,
    hook_spec: Optional[TileHookSpec],
):
    """``(search columns, (step, lambda_mv))`` of one tile's table row
    from its config and hook spec, or the reason (a ``str``) the native
    driver cannot run its search."""
    if frame_type is FrameType.I:
        search = _NO_SEARCH
    elif hook_spec is not None:
        search = search_columns(hook_spec.algorithm(), hook_spec.window,
                                hook_spec.predictor, hook_spec.is_first)
    else:
        search = search_columns(config.make_search(), config.search_window,
                                None, False)
    if isinstance(search, str):
        return search
    return search, (quantization_step(config.qp), config.lambda_mv)


@dataclass
class TileStats:
    """Per-tile encoding outcome."""

    tile: Tile
    bits: int
    ssd: float
    ops: OpCounts
    #: Wall-clock seconds spent in the motion-search and residual
    #: coding (transform/quant/entropy) stages of this tile, measured
    #: only when the encode ran with ``measure_stages=True`` (or the
    #: span tracer was enabled); ``None`` otherwise.  A frame-level
    #: encode adds the whole tile under ``"encode"``; the caller emits
    #: the stage spans from these.
    stage_seconds: Optional[Dict[str, float]] = None
    #: What the tile learned for the proposed search policy (first P
    #: frame of a GOP, encodes driven by a ``hook_spec`` only); fold
    #: into the GOP state with :func:`repro.motion.proposed.merge_learned`.
    learned: Optional[TileLearned] = None

    @property
    def num_pixels(self) -> int:
        return self.tile.area

    @property
    def mse(self) -> float:
        return self.ssd / self.tile.area

    @property
    def psnr(self) -> float:
        return psnr_from_mse(self.mse)


_AXES = (None, "x", "y")


def _row_learned(learner: Optional[int],
                 counts: Sequence[int]) -> Optional[TileLearned]:
    """What a result row's tile learned; ``learner`` is the policy's
    tile id when the row was learning, else ``None``."""
    if learner is None:
        return None
    return TileLearned(learner, _AXES[counts[6]], (counts[7], counts[8]))


def _driver_tile_stats(
    tile: Tile,
    counts: Sequence[int],
    clocks: Sequence[float],
    learner: Optional[int],
    measured: bool,
) -> TileStats:
    """One tile's rows of the native driver's results
    (:attr:`repro.native.TileTable.counts` / ``clocks``) in the
    encoder's types; ``learner`` is the policy's tile id when the row
    was learning."""
    bits, pred_pixels, sad_pixel_ops, me_candidates, blocks = counts[:5]
    stages = None
    if measured:
        stages = {"motion": clocks[1], "entropy": clocks[2]}
    return TileStats(
        tile=tile, bits=bits, ssd=clocks[0],
        ops=OpCounts(
            pred_pixels=pred_pixels,
            sad_pixel_ops=sad_pixel_ops,
            me_candidates=me_candidates,
            transform_blocks=blocks,
            quant_coeffs=blocks * TRANSFORM_SIZE * TRANSFORM_SIZE,
            entropy_bits=bits,
        ),
        stage_seconds=stages,
        learned=_row_learned(learner, counts),
    )


def _check_emitted(counts: Sequence[int], tile: Tile) -> None:
    if counts[5] < 0:
        raise RuntimeError(f"tile bit buffer overflow ({tile})")


class FrameStats:
    """Per-frame encoding outcome.

    A frame the native driver encoded keeps the driver's result rows
    (:meth:`rows`) and builds :attr:`tiles` from them when first asked:
    the pipeline records a frame straight from the rows and never asks.
    A frame the per-tile loop encoded is built from its ``tiles``.
    :attr:`threads` is how many threads ran the frame's tiles (the
    driver's count; 1 for a frame that stayed on its caller).
    """

    def __init__(
        self,
        frame_index: int,
        frame_type: FrameType,
        tiles: Optional[List[TileStats]] = None,
        *,
        grid_tiles: Sequence[Tile] = (),
        counts: Optional[List[List[int]]] = None,
        clocks: Optional[List[List[float]]] = None,
        measured: bool = False,
        learners: Optional[Sequence[Optional[int]]] = None,
        threads: int = 1,
    ):
        self.frame_index = frame_index
        self.frame_type = frame_type
        self.threads = threads
        self._tiles = tiles
        self._grid_tiles = grid_tiles
        self._counts = counts
        self._clocks = clocks
        self._measured = measured
        #: Per tile, the policy's tile id where the row was learning.
        self._learners = learners

    @property
    def tiles(self) -> List[TileStats]:
        if self._tiles is None:
            learners = self._learners or [None] * len(self._grid_tiles)
            self._tiles = [
                _driver_tile_stats(*row, self._measured)
                for row in zip(self._grid_tiles, self._counts, self._clocks,
                               learners)
            ]
            if self._measured:
                for stats, clocks in zip(self._tiles, self._clocks):
                    stats.stage_seconds["encode"] = clocks[3]
        return self._tiles

    def rows(self) -> tuple:
        """``(counts, clocks)``: per tile ``[bits, pred_pixels,
        sad_pixel_ops, me_candidates, transform_blocks, ...]`` and
        ``[ssd, ...]``, the head of the driver's result rows
        (:class:`repro.native.TileTable`) whichever tier encoded the
        frame."""
        if self._counts is None:
            self._counts = [
                [t.bits, t.ops.pred_pixels, t.ops.sad_pixel_ops,
                 t.ops.me_candidates, t.ops.transform_blocks]
                for t in self._tiles
            ]
            self._clocks = [[t.ssd] for t in self._tiles]
        return self._counts, self._clocks

    def learned(self) -> List[Optional[TileLearned]]:
        """What each tile learned for the proposed search policy (see
        :attr:`TileStats.learned`), for ``merge_learned``."""
        if self._tiles is not None:
            return [t.learned for t in self._tiles]
        if self._learners is None:
            return []
        return [_row_learned(learner, row)
                for learner, row in zip(self._learners, self._counts)]

    @property
    def bits(self) -> int:
        return sum(t.bits for t in self.tiles)

    @property
    def ssd(self) -> float:
        return sum(t.ssd for t in self.tiles)

    @property
    def num_pixels(self) -> int:
        return sum(t.num_pixels for t in self.tiles)

    @property
    def psnr(self) -> float:
        return psnr_from_mse(self.ssd / self.num_pixels)

    @property
    def ops(self) -> OpCounts:
        total = OpCounts()
        for t in self.tiles:
            total += t.ops
        return total


@dataclass
class SequenceStats:
    """Whole-sequence encoding outcome."""

    frames: List[FrameStats] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return sum(f.bits for f in self.frames)

    @property
    def average_psnr(self) -> float:
        if not self.frames:
            raise ValueError("no frames encoded")
        return float(np.mean([f.psnr for f in self.frames]))

    @property
    def ops(self) -> OpCounts:
        total = OpCounts()
        for f in self.frames:
            total += f.ops
        return total

    def bitrate_mbps(self, fps: float) -> float:
        if not self.frames:
            raise ValueError("no frames encoded")
        return self.total_bits / (len(self.frames) / fps) / 1e6


class TileEncoder:
    """Encodes one tile of one frame."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        #: Lazily-built search algorithm (one instance per tile encode
        #: instead of one per block).
        self._search = None

    def _get_search(self):
        if self._search is None:
            self._search = self.config.make_search()
        return self._search

    def _driver_table(self, original, reference, reconstruction, tile,
                      frame_type, hook_spec):
        """The driver's table of this one tile, loaded for the frame,
        or the reason (a ``str``) the driver cannot run it."""
        if not _planes_fit_driver(original, reconstruction, reference):
            return "layout"
        table = driver_table([tile], [self.config.block_size],
                             original.shape)
        if isinstance(table, str):
            return table
        columns = _tile_columns(self.config, frame_type, hook_spec)
        if isinstance(columns, str):
            return columns
        table.load([columns[0]], [columns[1]])
        return table

    def encode(
        self,
        original: np.ndarray,
        reference: Optional[np.ndarray],
        reconstruction: np.ndarray,
        tile: Tile,
        frame_type: FrameType,
        writer: Optional[BitWriter] = None,
        measure_stages: bool = False,
        hook_spec: Optional[TileHookSpec] = None,
    ) -> TileStats:
        """Encode ``tile`` of ``original`` into ``reconstruction``.

        ``reference`` is the reconstructed previous frame (P; ignored
        on an I frame).  ``reconstruction`` is the current frame's
        output buffer, filled in place.  ``measure_stages`` accumulates
        per-stage wall time into :attr:`TileStats.stage_seconds`
        (tracing support; off by default so the hot path pays nothing).

        ``hook_spec`` drives the motion search with the proposed policy
        as plain data; what a first-P-frame tile learned comes back in
        :attr:`TileStats.learned`.

        A tile on contiguous uint8 planes runs as **one** native call
        (:func:`repro.native.encode_frame` over a table of one row, GIL
        released for the whole tile).  Everything the driver declines
        runs the per-block loop below, which is pure NumPy — same bits,
        same reconstruction, same op counts — and is counted in
        ``repro_codec_tile_fallback_total{reason}``.
        """
        reference = reference_plane(reference, frame_type)
        if frame_type is FrameType.I:
            hook_spec = None  # no motion estimation to drive
        if native.lib is not None:
            table = self._driver_table(
                original, reference, reconstruction, tile, frame_type,
                hook_spec,
            )
            if not isinstance(table, str):
                native.encode_frame(
                    original, reference, reconstruction, table,
                    _BASIS8_PTR, _ZZ_ORDER8_PTR,
                    emit=writer is not None, measure=measure_stages,
                )
                (counts,), (clocks,) = table.counts, table.clocks
                _check_emitted(counts, tile)
                if writer is not None:
                    writer.append_bits(*table.payload(0, counts[5]))
                learner = None
                if hook_spec is not None and hook_spec.is_first:
                    learner = hook_spec.tile_id
                return _driver_tile_stats(tile, counts, clocks, learner,
                                          measure_stages)
            get_registry().inc(
                "repro_codec_tile_fallback_total", reason=table,
                help="Tiles the native tile driver declined, by reason",
            )
        policy = motion_hook = None
        if hook_spec is not None:
            policy = hook_spec.policy()
            motion_hook = spec_hook(hook_spec, policy)
        ops = OpCounts()
        stage_acc = {"motion": 0.0, "entropy": 0.0} if measure_stages else None
        bits, ssd = self._encode_tile_blocks(
            original, reference, reconstruction, tile, writer, motion_hook,
            ops, stage_acc,
        )
        learned = None
        if policy is not None and hook_spec.is_first:
            learned = TileLearned(
                tile_id=hook_spec.tile_id,
                first_axis=policy.state.dominant_axis,
                final_mv=policy.state.tile_mv.get(hook_spec.tile_id),
            )
        return TileStats(tile=tile, bits=bits, ssd=ssd, ops=ops,
                         stage_seconds=stage_acc, learned=learned)

    def _encode_tile_blocks(
        self,
        original: np.ndarray,
        reference: Optional[np.ndarray],
        reconstruction: np.ndarray,
        tile: Tile,
        writer: Optional[BitWriter],
        motion_hook: Optional[MotionHook],
        ops: OpCounts,
        stage_acc: Optional[Dict[str, float]],
    ) -> tuple:
        """The per-block raster loop — NumPy only, the reference the
        tile driver is tested against; returns ``(bits, ssd)``.
        ``reference`` is ``None`` on an I frame."""
        bs = self.config.block_size
        bits = 0
        ssd = 0.0
        for by in range(tile.y, tile.y_end, bs):
            left_mv = (0, 0)
            for bx in range(tile.x, tile.x_end, bs):
                bw = min(bs, tile.x_end - bx)
                bh = min(bs, tile.y_end - by)
                block = original[by : by + bh, bx : bx + bw]
                block_bits, block_ssd, left_mv = self._encode_block(
                    block, bx, by, bw, bh, tile, reference, reconstruction,
                    left_mv, writer, motion_hook, ops, stage_acc,
                )
                bits += block_bits
                ssd += block_ssd
        return bits, ssd

    # ------------------------------------------------------------------
    def _search_reference(
        self,
        reference: np.ndarray,
        block: np.ndarray,
        bx: int,
        by: int,
        bw: int,
        bh: int,
        left_mv: tuple,
        motion_hook: Optional[MotionHook],
        ops: OpCounts,
    ) -> tuple:
        """Motion-search the reference; returns (mv, prediction)."""
        cfg = self.config

        def ctx_factory(window: int) -> SearchContext:
            return SearchContext(
                reference, block, bx, by, window, lambda_mv=cfg.lambda_mv
            )

        if motion_hook is not None:
            result = motion_hook(ctx_factory, left_mv)
        else:
            result = self._get_search().search(
                ctx_factory(cfg.search_window), start=left_mv
            )
        ops.sad_pixel_ops += result.pixel_ops
        ops.me_candidates += result.sad_evaluations
        mv = clamp_mv(
            result.mv, bx, by, bw, bh, reference.shape[1], reference.shape[0]
        )
        return mv, motion_compensate(reference, bx, by, mv, bw, bh)

    def _encode_block(
        self,
        block: np.ndarray,
        bx: int,
        by: int,
        bw: int,
        bh: int,
        tile: Tile,
        reference: Optional[np.ndarray],
        reconstruction: np.ndarray,
        left_mv: tuple,
        writer: Optional[BitWriter],
        motion_hook: Optional[MotionHook],
        ops: OpCounts,
        stage_acc: Optional[Dict[str, float]] = None,
    ) -> tuple:
        """Returns ``(bits, ssd, next left MV predictor)``."""
        cfg = self.config
        block_f = block.astype(np.float64)
        area = bw * bh
        is_p = reference is not None

        # --- intra candidate -------------------------------------------------
        top, left = reference_samples(reconstruction, bx, by, bw, bh, tile)
        intra_mode, intra_pred, intra_sad = choose_mode(block_f, top, left)
        ops.pred_pixels += 4 * area  # four intra mode trials

        # --- inter candidate (P frames: the one reference) -------------------
        if stage_acc is not None:
            _t_motion = time.perf_counter()
        use_inter = False
        inter_rate = 0
        mv = left_mv
        prediction = intra_pred
        if is_p:
            mv, inter_pred = self._search_reference(
                reference, block, bx, by, bw, bh, left_mv, motion_hook, ops,
            )
            inter_sad = float(np.abs(block_f - inter_pred).sum())
            ops.pred_pixels += area
            inter_rate = mvd_bit_length(mv, left_mv)
            use_inter = inter_sad + cfg.lambda_mv * inter_rate <= intra_sad
            if use_inter:
                prediction = inter_pred
            else:
                mv = left_mv  # an intra block leaves the predictor alone
        if stage_acc is not None:
            stage_acc["motion"] += time.perf_counter() - _t_motion

        # --- residual coding --------------------------------------------------
        # Zero-block early skip: an orthonormal 8x8 DCT coefficient is
        # bounded by SAD/4, and a level survives quantization only when
        # |coef| >= 0.75 * Qstep, so a sub-block with SAD < 3 * Qstep
        # provably quantizes to all zeros — skip its transform.  This
        # is the skip-mode analogue that makes low-activity content
        # cheap in real encoders; the output bitstream is identical.
        if stage_acc is not None:
            _t_entropy = time.perf_counter()
        step = quantization_step(cfg.qp)
        residual = block_f - prediction
        sub = blockify(residual, TRANSFORM_SIZE)
        # Raster-order accumulation per sub-block, as in the tile driver
        # (an intra residual is not integer-valued, so order shows).
        sub_sad = np.add.accumulate(
            np.abs(sub).reshape(sub.shape[0], -1), axis=1
        )[:, -1]
        active = sub_sad >= 3.0 * step
        levels = np.zeros(sub.shape, dtype=np.int32)
        num_active = int(active.sum())
        if num_active:
            coefs = forward_dct(sub[active])
            levels[active] = quantize(coefs, cfg.qp)
        zz = zigzag_scan(levels)
        residual_bits = count_stack_bits(zz)
        ops.transform_blocks += num_active
        ops.quant_coeffs += num_active * TRANSFORM_SIZE * TRANSFORM_SIZE

        header_bits = 0
        if is_p:
            header_bits += 1  # inter/intra flag
        if use_inter:
            header_bits += inter_rate
        else:
            header_bits += 2  # intra mode index
        total_bits = header_bits + residual_bits
        ops.entropy_bits += total_bits

        if writer is not None:
            if is_p:
                writer.write_bits(0 if use_inter else 1, 1)
            if use_inter:
                write_mvd(writer, mv, left_mv)
            else:
                writer.write_bits(int(intra_mode), 2)
            for i in range(zz.shape[0]):
                write_block(writer, zz[i])

        if stage_acc is not None:
            stage_acc["entropy"] += time.perf_counter() - _t_entropy

        # --- reconstruction ----------------------------------------------------
        recon = reconstruct_block(prediction, levels, cfg.qp)
        reconstruction[by : by + bh, bx : bx + bw] = recon
        diff = block_f - recon
        ssd = float((diff * diff).sum())
        ops.pred_pixels += area
        return total_bits, ssd, mv


class FrameEncoder:
    """Encodes a full frame over a tile grid with per-tile configs."""

    #: Frame-type codes in the bitstream header (two bits; 2 and 3 are
    #: not in the grammar and the decoder rejects them).
    FRAME_TYPE_CODES = {FrameType.I: 0, FrameType.P: 1}

    def encode(
        self,
        original: np.ndarray,
        grid: TileGrid,
        configs: Optional[Sequence[EncoderConfig]],
        frame_type: FrameType,
        reference: Optional[np.ndarray] = None,
        frame_index: int = 0,
        writer: Optional[BitWriter] = None,
        hook_specs: Optional[Sequence[Optional[TileHookSpec]]] = None,
        measure_stages: bool = False,
        table: Optional["native.TileTable"] = None,
        learners: Optional[Sequence[Optional[int]]] = None,
    ) -> tuple:
        """Returns ``(FrameStats, reconstruction)``.

        ``reference`` is the previous frame's reconstruction (P frames;
        ignored on an I frame).  ``hook_specs`` carries the proposed
        policy's per-tile decisions as data (see
        :meth:`TileEncoder.encode`); after a first-P-frame call fold
        ``stats.learned()`` into the policy with ``merge_learned``.

        The whole frame is **one** native call
        (:func:`repro.native.encode_frame`: the planes are vetted once,
        every tile is a row of the driver's table, the GIL is released
        for all of them, and a large frame's tiles run on the cores no
        other frame is using — :attr:`FrameStats.threads` says on how
        many threads).  A frame with any tile the driver declines —
        or a run without the compiled kernels — is encoded tile by tile
        through :meth:`TileEncoder.encode`, which counts each declined
        tile in ``repro_codec_tile_fallback_total{reason}``.

        A caller that encodes frame after frame over one grid passes
        ``table``: the grid's :func:`driver_table`, which it has loaded
        for this frame (:func:`search_columns`,
        :meth:`repro.native.TileTable.load`) — then ``configs`` and
        ``hook_specs`` are not read (``learners`` names, per tile, the
        policy tile id of a row that is learning) and nothing is built
        per frame but the result.  Such a frame must fit the driver
        (C-contiguous uint8 planes of one shape).

        ``measure_stages`` clocks each tile's motion search, residual
        coding and whole encode into :attr:`TileStats.stage_seconds`
        (``motion`` / ``entropy`` / ``encode``); an enabled span tracer
        turns it on by itself and receives them as ``stage.*`` spans.
        """
        if table is None:
            if len(configs) != len(grid):
                raise ValueError(
                    f"{len(configs)} configs for {len(grid)} tiles"
                )
            if hook_specs is not None and len(hook_specs) != len(grid):
                raise ValueError("hook_specs length must match tile count")
            if frame_type is FrameType.I or hook_specs is None:
                hook_specs = [None] * len(grid)  # no policy drives the search
        if original.shape != (grid.frame_height, grid.frame_width):
            raise ValueError(
                f"frame {original.shape} does not match grid "
                f"{grid.frame_height}x{grid.frame_width}"
            )
        if writer is not None:
            writer.write_bits(self.FRAME_TYPE_CODES[frame_type], 2)
        reconstruction = np.zeros_like(original)
        tracer = get_tracer()
        measure = measure_stages or tracer.enabled
        reference = reference_plane(reference, frame_type)
        planes_fit = _planes_fit_driver(original, reconstruction, reference)
        if table is not None:
            if (native.lib is None or not planes_fit
                    or table.size != len(grid)):
                raise ValueError(
                    "a driver table needs the native driver and contiguous "
                    "uint8 planes over its own grid"
                )
        elif native.lib is not None and planes_fit:
            table, learners = self._load_table(
                grid, configs, frame_type, hook_specs, original.shape)
        if table is not None:
            threads = native.encode_frame(
                original, reference, reconstruction, table,
                _BASIS8_PTR, _ZZ_ORDER8_PTR,
                emit=writer is not None, measure=measure,
            )
            stats = FrameStats(
                frame_index, frame_type, grid_tiles=grid.tiles,
                counts=table.counts, clocks=table.clocks, measured=measure,
                learners=learners, threads=threads,
            )
            if writer is not None:
                # Splice the per-tile payloads in, in tile order.
                for i, (tile, counts) in enumerate(zip(grid, stats.rows()[0])):
                    _check_emitted(counts, tile)
                    writer.append_bits(*table.payload(i, counts[5]))
        else:
            stats = FrameStats(frame_index, frame_type,
                               self._encode_tiles_one_by_one(
                original, grid, configs, frame_type, reference,
                reconstruction, writer, hook_specs, measure,
            ))
        if tracer.enabled:
            for i, tile_stats in enumerate(stats.tiles):
                stages = tile_stats.stage_seconds
                tracer.record_span("stage.encode", stages["encode"], tile=i,
                                   frame=frame_index, type=frame_type.value)
                tracer.record_span("stage.motion", stages["motion"],
                                   tile=i, frame=frame_index)
                tracer.record_span("stage.entropy", stages["entropy"],
                                   tile=i, frame=frame_index)
        return stats, reconstruction

    @staticmethod
    def _load_table(grid, configs, frame_type, hook_specs, frame_shape):
        """``(table, learners)`` for one frame from per-tile configs
        and hook specs: the grid's :func:`driver_table`, loaded;
        ``(None, None)`` (nothing encoded, nothing counted) when the
        driver declines any tile."""
        searches, quants, learners = [], [], []
        for config, spec in zip(configs, hook_specs):
            columns = _tile_columns(config, frame_type, spec)
            if isinstance(columns, str):
                return None, None
            searches.append(columns[0])
            quants.append(columns[1])
            learners.append(
                spec.tile_id if spec is not None and spec.is_first else None
            )
        table = driver_table(grid.tiles, [c.block_size for c in configs],
                             frame_shape)
        if isinstance(table, str):
            return None, None
        table.load(searches, quants)
        return table, learners

    @staticmethod
    def _encode_tiles_one_by_one(
        original, grid, configs, frame_type, reference, reconstruction,
        writer, hook_specs, measure,
    ) -> List[TileStats]:
        """The per-tile loop: what runs when the driver cannot take the
        frame whole (each tile still takes it where it can)."""
        tile_stats = []
        for i, tile in enumerate(grid):
            t0 = time.perf_counter()
            stats = TileEncoder(configs[i]).encode(
                original, reference, reconstruction, tile, frame_type,
                writer=writer, measure_stages=measure,
                hook_spec=hook_specs[i],
            )
            if measure:
                stats.stage_seconds["encode"] = time.perf_counter() - t0
            tile_stats.append(stats)
        return tile_stats


class VideoEncoder:
    """Encodes a video with a fixed tile grid and uniform config.

    This is the encoder used for the paper's Table I experiments
    (uniform tilings, one search algorithm for the whole sequence).
    The full content-aware pipeline lives in
    :mod:`repro.transcode.pipeline`.
    """

    def __init__(self, config: EncoderConfig, gop: GopConfig = GopConfig()):
        self.config = config
        self.gop = gop
        self._frame_encoder = FrameEncoder()

    def encode(
        self, video: Video, grid: Optional[TileGrid] = None
    ) -> SequenceStats:
        """Encode ``video``; returns sequence statistics."""
        if len(video) == 0:
            raise ValueError("cannot encode an empty video")
        if grid is None:
            grid = TileGrid.single(video.width, video.height)
        configs = [self.config] * len(grid)
        stats = SequenceStats()
        reference: Optional[np.ndarray] = None
        for frame in video:
            frame_stats, reference = self._frame_encoder.encode(
                frame.luma, grid, configs, self.gop.frame_type(frame.index),
                reference=reference, frame_index=frame.index,
            )
            stats.frames.append(frame_stats)
        return stats
