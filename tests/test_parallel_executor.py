"""Tile-parallel encoding is bit-exact with the serial encoder.

The inline (``workers=1``) tests exercise the whole parallel code path
— per-tile writers, payload splicing, reconstruction stitching, policy
snapshot/merge — without a pool; the pool tests repeat the guarantees
on real worker threads (the ``slow``-marked ones over whole
transcodes; run with ``-m slow`` or no marker filter).
"""

import os

import numpy as np
import pytest

from repro import native
from repro.analysis.motion_probe import MotionClass
from repro.codec.bitstream import BitWriter
from repro.codec.config import EncoderConfig, FrameType, GopConfig
from repro.codec.encoder import FrameEncoder, VideoEncoder
from repro.motion.proposed import GopMotionState
from repro.observability import scoped
from repro.parallel.executor import (
    TileHookSpec,
    TileLearned,
    TileParallelExecutor,
    merge_learned,
    recommended_parallel,
)
from repro.tiling.uniform import uniform_tiling
from repro.transcode.pipeline import PipelineConfig, PipelineMode, StreamTranscoder
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


@pytest.fixture(scope="module")
def video():
    cfg = GeneratorConfig(
        width=128, height=96, num_frames=6, seed=3,
        content_class=ContentClass.CARDIAC, motion=MotionPreset.PAN_DOWN,
        motion_magnitude=2.0,
    )
    return BioMedicalVideoGenerator(cfg).generate()


#: Heterogeneous per-tile configs, including a half-pel tile, so the
#: equivalence claim covers every encode path.
def _configs():
    return [
        EncoderConfig(qp=30, search="hexagon", search_window=24),
        EncoderConfig(qp=34),
        EncoderConfig(qp=32, half_pel=True),
        EncoderConfig(qp=28, search="tz"),
    ]


def _assert_frames_equal(serial, parallel):
    s_stats, s_rec = serial
    p_stats, p_rec = parallel
    assert np.array_equal(s_rec, p_rec)
    for a, b in zip(s_stats.tiles, p_stats.tiles):
        assert a.bits == b.bits
        assert a.ssd == b.ssd
        assert a.ops == b.ops


def _encode_sequence(video, executor):
    """Encode I, P, B frames through the serial and given encoder,
    asserting identical stats/recon and returning both bitstreams."""
    grid = uniform_tiling(128, 96, 2, 2)
    configs = _configs()
    fe = FrameEncoder()
    ws, wp = BitWriter(), BitWriter()
    infos_s, infos_p = [], []
    serial = fe.encode(video[0].luma, grid, configs, FrameType.I,
                       writer=ws, block_infos_out=infos_s)
    par = executor.encode_frame(video[0].luma, grid, configs, FrameType.I,
                                writer=wp, block_infos_out=infos_p)
    _assert_frames_equal(serial, par)
    s2 = fe.encode(video[1].luma, grid, configs, FrameType.P,
                   reference=serial[1], writer=ws)
    p2 = executor.encode_frame(video[1].luma, grid, configs, FrameType.P,
                               reference=par[1], writer=wp)
    _assert_frames_equal(s2, p2)
    s3 = fe.encode(video[2].luma, grid, configs, FrameType.B,
                   reference=[s2[1], serial[1]], writer=ws)
    p3 = executor.encode_frame(video[2].luma, grid, configs, FrameType.B,
                               reference=[p2[1], par[1]], writer=wp)
    _assert_frames_equal(s3, p3)
    assert infos_s == infos_p
    assert ws.bits_written == wp.bits_written
    return ws.flush(), wp.flush()


def test_inline_executor_bitstream_identical(video):
    with TileParallelExecutor(workers=1) as executor:
        serial_bytes, parallel_bytes = _encode_sequence(video, executor)
    assert serial_bytes == parallel_bytes


def test_merge_learned_replays_serial_election():
    state = GopMotionState()
    merge_learned(state, [
        TileLearned(tile_id=2, first_axis="y", final_mv=(0, 3)),
        TileLearned(tile_id=0, first_axis=None, final_mv=(0, 0)),
        TileLearned(tile_id=1, first_axis="x", final_mv=(4, 1)),
    ])
    # Tile 0 voted nothing, so tile 1 (lowest index with a vote) wins —
    # the same outcome as the serial tile-then-block visit order.
    assert state.dominant_axis == "x"
    assert state.tile_mv == {0: (0, 0), 1: (4, 1), 2: (0, 3)}


def test_hook_spec_is_picklable():
    import pickle

    spec = TileHookSpec(motion=MotionClass.HIGH, is_first=True, tile_id=1,
                        window=16, axis=None, predictor=(2, -1))
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_recommended_parallel():
    assert not recommended_parallel(num_tiles=1, workers=8)
    assert not recommended_parallel(num_tiles=8, workers=1)
    assert recommended_parallel(num_tiles=4, workers=2) \
        == (native.lib is not None)


def test_executor_validates_shapes(video):
    grid = uniform_tiling(128, 96, 2, 2)
    with TileParallelExecutor(workers=1) as executor:
        with pytest.raises(ValueError):
            executor.encode_frame(video[0].luma, grid,
                                  [_configs()[0]], FrameType.I)
        with pytest.raises(ValueError):
            executor.encode_frame(video[0].luma[:64], grid,
                                  _configs(), FrameType.I)


def test_pipeline_inline_parallel_identical(video):
    """Proposed pipeline (policy snapshot/merge path) with workers=1."""
    serial = StreamTranscoder(PipelineConfig(fps=24.0)).run(video)
    cfg = PipelineConfig(fps=24.0, parallel_tiles=True, parallel_workers=1)
    with StreamTranscoder(cfg) as transcoder:
        parallel = transcoder.run(video)
    assert serial.total_bits == parallel.total_bits
    assert serial.frame_psnrs == parallel.frame_psnrs
    for fs, fp in zip(serial.frame_records, parallel.frame_records):
        for a, b in zip(fs.tiles, fp.tiles):
            assert (a.bits, a.psnr, a.qp, a.search_window) == \
                   (b.bits, b.psnr, b.qp, b.search_window)


@pytest.mark.slow
@pytest.mark.parametrize("mode", [PipelineMode.PROPOSED, PipelineMode.KHAN])
def test_pool_pipeline_identical(video, mode):
    """Full transcode through a real pool: identical trace to serial."""
    if mode is PipelineMode.KHAN:
        serial_cfg = PipelineConfig.khan(fps=24.0)
        par_cfg = PipelineConfig.khan(
            fps=24.0, parallel_tiles=True, parallel_workers=2
        )
    else:
        serial_cfg = PipelineConfig(fps=24.0)
        par_cfg = PipelineConfig(
            fps=24.0, parallel_tiles=True, parallel_workers=2
        )
    serial = StreamTranscoder(serial_cfg).run(video)
    with StreamTranscoder(par_cfg) as transcoder:
        parallel = transcoder.run(video)
    assert serial.total_bits == parallel.total_bits
    assert serial.frame_psnrs == parallel.frame_psnrs


@pytest.mark.slow
def test_video_encoder_pool_identical(video):
    grid = uniform_tiling(128, 96, 2, 2)
    serial = VideoEncoder(EncoderConfig(qp=32), GopConfig(4)).encode(video, grid)
    parallel = VideoEncoder(
        EncoderConfig(qp=32), GopConfig(4), parallel_workers=2
    ).encode(video, grid)
    assert serial.average_psnr == parallel.average_psnr
    assert [f.bits for f in serial.frames] == [f.bits for f in parallel.frames]


def test_recommended_parallel_thread_backend(monkeypatch):
    if native.lib is not None:
        assert recommended_parallel(num_tiles=4, workers=2)
    # Without GIL-releasing kernels, threads only interleave: the
    # recommendation must fall back to "don't".
    monkeypatch.setattr(native, "lib", None)
    assert not recommended_parallel(num_tiles=4, workers=2)


class TestThreadBackendWithoutNativeKernels:
    """A multi-worker thread pool without GIL-releasing kernels is a
    silent pessimization, so the executor works that out itself and
    encodes inline — same bits, no pool."""

    def test_encodes_inline_without_pool(self, video, monkeypatch):
        monkeypatch.setattr(native, "lib", None)
        for workers in (1, 2):
            with TileParallelExecutor(workers=workers) as executor:
                serial_bytes, parallel_bytes = _encode_sequence(
                    video, executor)
                assert executor._pool is None
            assert serial_bytes == parallel_bytes


def test_thread_pool_bitstream_identical(video):
    """Shared-memory thread workers splice the same bitstream as the
    serial encoder."""
    with TileParallelExecutor(workers=2) as executor:
        serial_bytes, parallel_bytes = _encode_sequence(video, executor)
    assert serial_bytes == parallel_bytes


def test_thread_pool_pipeline_identical(video):
    """Full proposed-pipeline transcode through the tile pool:
    identical trace to serial (policy snapshot/merge included)."""
    serial = StreamTranscoder(PipelineConfig(fps=24.0)).run(video)
    cfg = PipelineConfig(fps=24.0, parallel_tiles=True,
                         parallel_workers=2)
    with StreamTranscoder(cfg) as transcoder:
        parallel = transcoder.run(video)
    assert serial.total_bits == parallel.total_bits
    assert serial.frame_psnrs == parallel.frame_psnrs
    for fs, fp in zip(serial.frame_records, parallel.frame_records):
        for a, b in zip(fs.tiles, fp.tiles):
            assert (a.bits, a.psnr, a.qp, a.search_window) == \
                   (b.bits, b.psnr, b.qp, b.search_window)


@pytest.mark.skipif(native.lib is None,
                    reason="only the native tile driver declines tiles")
@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "thread"])
def test_declined_tiles_counted_once_in_parent(video, workers):
    """A tile the native driver declines (half-pel here) is counted in
    the *caller's* registry exactly once however the tile ran."""
    grid = uniform_tiling(128, 96, 2, 1)
    configs = [EncoderConfig(qp=32, half_pel=True)] * 2
    encoder = FrameEncoder()
    _, ref = encoder.encode(video[0].luma, grid, configs, FrameType.I)

    def declined(encode):
        with scoped() as (registry, _):
            encode(video[1].luma, grid, configs, FrameType.P, reference=ref)
            return registry.value("repro_codec_tile_fallback_total",
                                  reason="half_pel")

    assert declined(encoder.encode) == 2
    with TileParallelExecutor(workers=workers) as executor:
        assert declined(executor.encode_frame) == 2


# ----------------------------------------------------------------------
# Sessions on concurrent threads (the serving layer's encode pool)
# ----------------------------------------------------------------------
def _session_video(seed, content, width=128, height=96, frames=10):
    cfg = GeneratorConfig(
        width=width, height=height, num_frames=frames, seed=seed,
        content_class=content, motion=MotionPreset.PAN_RIGHT,
        motion_magnitude=2.0,
    )
    return BioMedicalVideoGenerator(cfg).generate()


def _run_session(video):
    """Push a video through a fresh session; digest of every output."""
    import zlib

    session = StreamTranscoder(PipelineConfig(fps=24.0)).open_session()
    outputs = []
    for frame in video.frames:
        outputs += session.push(frame)
    outputs += session.finish()
    return [
        (o.frame_index, o.frame_type, zlib.crc32(o.reconstruction),
         [(t.bits, t.psnr, t.qp, t.search_window, t.cpu_time_fmax)
          for t in o.record.tiles])
        for o in outputs
    ]


def _run_concurrently(videos, timeout=120.0):
    import threading

    results = [None] * len(videos)
    barrier = threading.Barrier(len(videos))

    def worker(i):
        barrier.wait(timeout)
        results[i] = _run_session(videos[i])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(videos))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive()
    return results


def test_concurrent_sessions_bit_identical_to_serial():
    """Sessions pushed from several threads at once (more threads than
    cores, aggressive switching) produce exactly their serial traces:
    the tile driver's scratch and motion cache are per thread, and the
    policy state crosses the GIL-free call only as data."""
    import sys

    if not native.available():
        pytest.skip("native kernels unavailable")
    videos = [
        _session_video(11, ContentClass.BRAIN),
        _session_video(12, ContentClass.CARDIAC),
    ] * 2
    serial = [_run_session(v) for v in videos]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        concurrent = _run_concurrently(videos)
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
@pytest.mark.xfail(
    strict=False,
    reason="ISSUE 12 target; re-measured at ISSUE 22 (a GOP planned once: "
           "native re-tiling, a tile table per GOP) on the 2-vCPU KVM "
           "builder, 0/10 passes: solo 0.021-0.023 s, duo 0.046-0.051 s = "
           "2.1-2.3x (parent: 0.027-0.029 / 0.061-0.069 s, 2.2-2.4x).  A "
           "320x240 push is 0.62 ms, 0.39 of it GIL-free; the GIL-held 37% "
           "that remains is records 0.08, re-tiling 0.03, per-tile policy "
           "and session bookkeeping 0.12.  Both sides got faster and the "
           "ratio did not move, because it is not ours to move here: the "
           "builder's second vCPU comes and goes, and that day two threads "
           "of nothing but GIL-free NumPy took 2.6x the time of one",
)
def test_two_sessions_scale_across_cores():
    """Two concurrent 320x240 sessions finish in < 1.4x the wall time
    of one: the encode runs GIL-free, one native call per tile."""
    import time

    if not native.available():
        pytest.skip("native kernels unavailable")
    videos = [
        _session_video(21, ContentClass.BRAIN, 320, 240, 32),
        _session_video(22, ContentClass.BONE, 320, 240, 32),
    ]
    _run_session(videos[0])  # warm the classifier, caches, scratch

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    # Best of a few: a shared machine can take a core away mid-run.
    solo = min(timed(lambda: _run_session(videos[0])) for _ in range(3))
    duo = min(timed(lambda: _run_concurrently(videos)) for _ in range(5))
    assert duo < 1.4 * solo, f"solo {solo:.3f} s, duo {duo:.3f} s"
