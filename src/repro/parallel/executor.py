"""Tile-parallel frame encoding on a thread pool.

HEVC tiles are independently decodable: intra prediction breaks at
tile boundaries, motion search only *reads* the (immutable) reference
plane, and each tile writes a disjoint region of the reconstruction.
The per-tile encode loop is therefore embarrassingly parallel within a
frame — the property the paper's per-tile workload allocation relies
on (§II-C) — and this module exploits it for real wall-clock speedup
with a :class:`concurrent.futures.ThreadPoolExecutor` whose workers
share the frame planes directly (no fork, no pickle): the native tile
driver runs a whole tile in one GIL-free call, so N threads encode N
tiles at once.  Tiles the driver declines (TZ search, half-pel) take
the pure-NumPy block loop, which holds the GIL — they still encode
correctly on the pool, they just do not overlap.

The parallel path is **bit-exact** with the serial
:class:`~repro.codec.encoder.FrameEncoder`:

* every worker encodes its tile into a private :class:`BitWriter`;
  the parent splices the flushed payloads back in tile order with
  :meth:`BitWriter.append_bits`, producing a byte-identical stream;
* every worker reconstructs its tile in place in the one frame plane —
  identical because no tile ever writes outside its own region;
* the proposed search policy's per-GOP learned state travels as
  plain-data :class:`~repro.motion.proposed.TileHookSpec` snapshots —
  the same data the serial encoder hands its native tile driver — and
  returns in :attr:`TileStats.learned` for ``merge_learned``.  This is
  sound because within one frame the policy state is *per-tile*: the
  dominant axis is only read on non-first GOP frames (when no learning
  happens) and the MV predictor chain is keyed by tile id, so tiles
  never observe each other's in-frame updates.

Everything is opt-in (``PipelineConfig.parallel_tiles``,
``VideoEncoder(parallel_workers=...)``, ``--parallel-workers`` on the
CLI); the default remains the serial encoder.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.codec.bitstream import BitWriter
from repro.codec.chroma import BlockInfo
from repro.codec.config import EncoderConfig, FrameType
from repro.codec.encoder import (
    FrameEncoder,
    FrameStats,
    TileEncoder,
    TileStats,
    normalize_references,
)
from repro.motion.proposed import TileHookSpec, TileLearned, merge_learned
from repro.observability import get_registry, get_tracer
from repro.tiling.tile import TileGrid

__all__ = [
    "TileHookSpec",
    "TileLearned",
    "TileParallelExecutor",
    "default_workers",
    "merge_learned",
    "recommended_parallel",
]


def default_workers() -> int:
    """Pool size when none is configured: one worker per core."""
    return max(1, os.cpu_count() or 1)


def recommended_parallel(num_tiles: int,
                         workers: Optional[int] = None) -> bool:
    """Whether the pool can run tiles concurrently at all.

    Real concurrency exists only while the native tile driver holds
    the hot loops (ctypes releases the GIL for the call's duration) —
    pure-NumPy encoding from several threads just interleaves under
    the GIL, strictly slower than encoding inline — and only when more
    than one tile can be in flight.
    """
    effective = workers if workers is not None else default_workers()
    return native.lib is not None and effective > 1 and num_tiles > 1


def _encode_tile_worker(task: tuple):
    """Encode one tile on a pool thread (or inline).

    The tile is reconstructed in place in the frame's shared
    ``reconstruction`` plane (no tile ever writes, or reads, outside its
    own region).  Returns ``(stats, payload, nbits, infos)``; counters
    go straight to the process-wide registry, which pool threads share
    with their caller.
    """
    (original, references, reconstruction, tile, config, frame_type, spec,
     want_infos, want_stages) = task
    writer = BitWriter()
    infos: Optional[List[BlockInfo]] = [] if want_infos else None
    t0 = time.perf_counter()
    stats = TileEncoder(config).encode(
        original,
        references,
        reconstruction,
        tile,
        frame_type,
        writer=writer,
        block_info_out=infos,
        measure_stages=want_stages,
        hook_spec=spec,
    )
    elapsed = time.perf_counter() - t0
    if want_stages and stats.stage_seconds is not None:
        stats.stage_seconds["encode"] = elapsed
    registry = get_registry()
    registry.inc(
        "repro_parallel_tiles_encoded_total",
        help="Tiles encoded by pool workers",
    )
    registry.observe(
        "repro_parallel_tile_encode_seconds", elapsed,
        help="Wall time of one worker tile encode",
    )
    # bits_written must be captured before flush(), which zero-pads the
    # stream to a byte boundary; the parent splices exactly nbits so
    # the padding never reaches the merged stream.
    nbits = writer.bits_written
    return stats, writer.flush(), nbits, infos


class TileParallelExecutor:
    """Encodes a frame's tiles concurrently, bit-exact with the serial
    :class:`~repro.codec.encoder.FrameEncoder`.

    The pool is created lazily on the first parallel frame and reused
    across frames; tasks hand workers *views* of the shared frame
    planes, and concurrency comes from the native tile driver dropping
    the GIL.  Where a pool could not deliver concurrency
    (:func:`recommended_parallel`: one worker, one tile, or no native
    kernels) every tile is encoded inline through the same worker
    function — the deterministic reference, and what a single-core
    machine or a ``REPRO_NATIVE=0`` run gets.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers if workers else default_workers()
        self._pool: Optional[ThreadPoolExecutor] = None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-tile",
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "TileParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- encoding -------------------------------------------------------
    def encode_frame(
        self,
        original: np.ndarray,
        grid: TileGrid,
        configs: Sequence[EncoderConfig],
        frame_type: FrameType,
        reference=None,
        frame_index: int = 0,
        writer: Optional[BitWriter] = None,
        hook_specs: Optional[Sequence[Optional[TileHookSpec]]] = None,
        block_infos_out: Optional[List[List[BlockInfo]]] = None,
    ) -> Tuple[FrameStats, np.ndarray]:
        """Drop-in parallel replacement for ``FrameEncoder.encode``
        (the search policy crosses as :class:`TileHookSpec` data)."""
        if len(configs) != len(grid):
            raise ValueError(f"{len(configs)} configs for {len(grid)} tiles")
        if hook_specs is not None and len(hook_specs) != len(grid):
            raise ValueError("hook_specs length must match tile count")
        if original.shape != (grid.frame_height, grid.frame_width):
            raise ValueError(
                f"frame {original.shape} does not match grid "
                f"{grid.frame_height}x{grid.frame_width}"
            )
        references = normalize_references(reference, frame_type)
        if writer is not None:
            writer.write_bits(FrameEncoder.FRAME_TYPE_CODES[frame_type], 2)
        want_infos = block_infos_out is not None
        tracer = get_tracer()
        want_stages = tracer.enabled
        reconstruction = np.zeros_like(original)
        tasks = [
            (
                original,
                references,
                reconstruction,
                tile,
                configs[i],
                frame_type,
                hook_specs[i] if hook_specs is not None else None,
                want_infos,
                want_stages,
            )
            for i, tile in enumerate(grid)
        ]
        if recommended_parallel(len(grid), self.workers):
            results = list(self._ensure_pool().map(_encode_tile_worker, tasks))
        else:
            results = [_encode_tile_worker(t) for t in tasks]

        tile_stats: List[TileStats] = []
        for i, (stats, payload, nbits, infos) in enumerate(results):
            tile_stats.append(stats)
            if writer is not None:
                writer.append_bits(payload, nbits)
            if want_infos:
                block_infos_out.append(infos or [])
            if want_stages and stats.stage_seconds:
                tracer.record_span(
                    "stage.encode", stats.stage_seconds.get("encode", 0.0),
                    tile=i, frame=frame_index, type=frame_type.value,
                )
                for stage in ("motion", "entropy"):
                    if stage in stats.stage_seconds:
                        tracer.record_span(
                            f"stage.{stage}", stats.stage_seconds[stage],
                            tile=i, frame=frame_index,
                        )
        return (
            FrameStats(
                frame_index=frame_index,
                frame_type=frame_type,
                tiles=tile_stats,
            ),
            reconstruction,
        )
