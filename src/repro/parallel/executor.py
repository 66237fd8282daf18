"""Tile-parallel frame encoding on a process or thread pool.

HEVC tiles are independently decodable: intra prediction breaks at
tile boundaries, motion search only *reads* the (immutable) reference
plane, and each tile writes a disjoint region of the reconstruction.
The per-tile encode loop is therefore embarrassingly parallel within a
frame — the property the paper's per-tile workload allocation relies
on (§II-C) — and this module exploits it for real wall-clock speedup
with a :class:`concurrent.futures.ProcessPoolExecutor` or, when the
GIL-releasing native kernels are active, a
:class:`concurrent.futures.ThreadPoolExecutor` whose workers share
the frame planes directly (no fork, no pickle, no patch shipping).

The parallel path is **bit-exact** with the serial
:class:`~repro.codec.encoder.FrameEncoder`:

* every worker encodes its tile into a private :class:`BitWriter`;
  the parent splices the flushed payloads back in tile order with
  :meth:`BitWriter.append_bits`, producing a byte-identical stream;
* reconstruction patches are stitched into the frame plane — identical
  because no tile ever writes outside its own region;
* the proposed search policy's per-GOP learned state travels as
  picklable :class:`~repro.motion.proposed.TileHookSpec` snapshots —
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

import multiprocessing
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
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
from repro.observability.metrics import MetricsRegistry
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


def recommended_parallel(
    num_tiles: int,
    workers: Optional[int] = None,
    backend: str = "process",
) -> bool:
    """Whether the pool can pay for its dispatch overhead.

    The answer is backend-specific.  The process pool's fork/pickle
    costs are fixed per frame and amortize only when more than one
    tile can actually run concurrently.  The thread pool's dispatch is
    microseconds and its workers share memory, but real concurrency
    exists only while the native kernels hold the hot loops (ctypes
    releases the GIL for the call's duration) — pure-NumPy encoding
    from multiple threads just interleaves under the GIL.
    """
    effective = workers if workers is not None else default_workers()
    if backend == "thread":
        return native.lib is not None and effective > 1 and num_tiles > 1
    return effective > 1 and num_tiles > 1


def _encode_tile_worker(task: tuple):
    """Encode one tile in a worker process (module-level: picklable).

    Returns ``(stats, recon_patch, payload, nbits, infos, metrics)``
    where ``metrics`` is a fresh worker-local :class:`MetricsRegistry`
    snapshot — global registries do not cross the process boundary, so
    workers report their counters as data and the parent merges them on
    join.
    """
    (original, references, tile, config, frame_type, spec, want_infos,
     want_stages) = task
    reconstruction = np.zeros_like(original)
    writer = BitWriter()
    infos: Optional[List[BlockInfo]] = [] if want_infos else None
    local_metrics = MetricsRegistry()
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
        metrics=local_metrics,
    )
    elapsed = time.perf_counter() - t0
    if want_stages and stats.stage_seconds is not None:
        stats.stage_seconds["encode"] = elapsed
    local_metrics.inc(
        "repro_parallel_tiles_encoded_total",
        help="Tiles encoded by pool workers",
    )
    local_metrics.observe(
        "repro_parallel_tile_encode_seconds", elapsed,
        help="Wall time of one worker tile encode",
    )
    patch = np.ascontiguousarray(
        reconstruction[tile.y : tile.y_end, tile.x : tile.x_end]
    )
    # bits_written must be captured before flush(), which zero-pads the
    # stream to a byte boundary; the parent splices exactly nbits so
    # the padding never reaches the merged stream.
    nbits = writer.bits_written
    return (stats, patch, writer.flush(), nbits, infos,
            local_metrics.to_dict())


class TileParallelExecutor:
    """Encodes a frame's tiles concurrently, bit-exact with the serial
    :class:`~repro.codec.encoder.FrameEncoder`.

    The pool is created lazily on the first parallel frame and reused
    across frames.  ``backend="process"`` forks workers (fork context
    where available, so they inherit the compiled native kernels
    without re-importing); ``backend="thread"`` runs the same worker
    function on a thread pool — tasks hand workers *views* of the
    shared frame planes, nothing is pickled, and concurrency comes
    from the native kernels dropping the GIL.  With ``workers == 1``
    every tile is encoded inline through the same worker function —
    useful as a deterministic reference and on single-core machines,
    where a pool would only add overhead.
    """

    def __init__(self, workers: Optional[int] = None,
                 backend: str = "process"):
        if backend not in ("process", "thread"):
            raise ValueError(f"unknown tile-pool backend {backend!r}")
        self.workers = workers if workers else default_workers()
        self.backend = backend
        if backend == "thread" and self.workers > 1 and native.lib is None:
            # Refuse to build a pool that cannot deliver concurrency:
            # without the GIL-releasing native kernels, N encode
            # threads just interleave under the GIL — strictly slower
            # than inline encoding, and silently so.
            if os.environ.get("REPRO_NATIVE") == "0":
                detail = (
                    "native kernels are disabled by REPRO_NATIVE=0 in "
                    "the environment; unset it to use the thread backend"
                )
            else:
                detail = (
                    "the native kernels failed to build (no C compiler "
                    "or compilation error; re-run with REPRO_NATIVE "
                    "unset and check stderr for the build failure)"
                )
            raise ValueError(
                f"backend='thread' with workers={self.workers} needs the "
                f"native kernels to release the GIL, but {detail}. "
                "Use backend='process' for GIL-free parallelism without "
                "native kernels, or workers=1 for inline encoding."
            )
        self._pool: Optional[Executor] = None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-tile",
                )
            else:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # platforms without fork
                    ctx = multiprocessing.get_context()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=ctx
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
        (minus ``motion_hooks``: closures cannot cross a process
        boundary)."""
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
        tasks = [
            (
                original,
                references,
                tile,
                configs[i],
                frame_type,
                hook_specs[i] if hook_specs is not None else None,
                want_infos,
                want_stages,
            )
            for i, tile in enumerate(grid)
        ]
        if self.workers == 1 or len(grid) == 1:
            results = [_encode_tile_worker(t) for t in tasks]
        else:
            results = list(self._ensure_pool().map(_encode_tile_worker, tasks))

        reconstruction = np.zeros_like(original)
        tile_stats: List[TileStats] = []
        registry = get_registry()
        for i, (tile, (stats, patch, payload, nbits, infos,
                       worker_metrics)) in enumerate(zip(grid, results)):
            reconstruction[tile.y : tile.y_end, tile.x : tile.x_end] = patch
            tile_stats.append(stats)
            if writer is not None:
                writer.append_bits(payload, nbits)
            if want_infos:
                block_infos_out.append(infos or [])
            registry.merge(worker_metrics)
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
