"""The native tile driver is bit-exact with the pure-NumPy block loop.

The codec has two tiers: ``encode_frame_u8`` (one C call per frame, a
table row per tile; one row for a lone tile) and the per-block NumPy
loop, which is the driver's reference and the only thing that runs what
the driver declines.  The tests here encode the same tiles and frames
through both and assert byte-level equality — with the reference side
running under :func:`tests.conftest.native_forbidden`, so it
demonstrably never enters ``kernels.c`` — which is also what keeps
``REPRO_NATIVE=0`` a faithful fallback.  The ladder's box downscale
(``downscale_box_u8``) is held to its NumPy oracle here too, so that
``make sanitize`` sees it.
"""

import math
import os
import shutil
import subprocess
import sys
import zlib
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import native
from repro.analysis.motion_probe import MotionClass
from repro.codec.bitstream import BitReader, BitWriter
from repro.codec.config import EncoderConfig, FrameType
from repro.codec.encoder import FrameEncoder, TileEncoder
from repro.codec.entropy import read_block
from repro.codec.inter import read_mvd
from repro.codec.ops import OpCounts
from repro.codec.quant import quantization_step
from repro.motion.proposed import TileHookSpec, spec_hook
from repro.observability import scoped
from repro.tiling.tile import Tile, TileGrid
from repro.tiling.uniform import uniform_tiling
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, MotionPreset, generate_video
from repro.video.scale import downscale_box_reference
from tests.conftest import counted_native, native_forbidden

#: Everything below compares against the driver except the
#: ``REPRO_NATIVE=0`` check itself, which `make reference` still runs.
needs_driver = pytest.mark.skipif(
    not native.available(), reason="native kernels unavailable"
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FALLBACK = "repro_codec_tile_fallback_total"


@pytest.mark.skipif(
    shutil.which("cc") is None or os.environ.get("REPRO_NATIVE") == "0",
    reason="no C compiler, or the native tier is switched off",
)
def test_kernels_build_where_a_compiler_exists():
    """Where ``cc`` exists the driver must be loaded.  ``kernels.c``
    builds under ``-Werror`` and a failed build falls back to NumPy, so
    without this test a kernel that does not compile turns every driver
    test below into a skip and the suite green."""
    assert native.available(), (
        f"kernels.c did not build or load:\n{native.build_error}")
    assert native.build_error is None


@needs_driver
def test_tile_encode_identical_without_native(monkeypatch):
    """Whole-tile encodes (intra + inter + fused residual; TZ search
    declined to the block loop) agree between the native and pure-NumPy
    paths."""
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, (64, 96), dtype=np.uint8)
    prev = np.roll(base, 2, axis=1)
    grid = uniform_tiling(96, 64, 2, 1)
    for config in (
        EncoderConfig(qp=32),
        EncoderConfig(qp=26, search="tz", search_window=16),
    ):
        fe = FrameEncoder()
        configs = [config] * len(grid)
        n_stats, n_rec = fe.encode(base, grid, configs, FrameType.I)
        np_i, pp = fe.encode(prev, grid, configs, FrameType.P, reference=n_rec)
        monkeypatch.setattr(native, "lib", None)
        f_stats, f_rec = fe.encode(base, grid, configs, FrameType.I)
        fp_i, fp = fe.encode(prev, grid, configs, FrameType.P, reference=f_rec)
        monkeypatch.undo()
        np.testing.assert_array_equal(n_rec, f_rec)
        np.testing.assert_array_equal(pp, fp)
        for a, b in zip(list(n_stats.tiles) + list(np_i.tiles),
                        list(f_stats.tiles) + list(fp_i.tiles)):
            assert a.bits == b.bits
            assert a.ssd == b.ssd
            assert a.ops == b.ops


def _session_digest(video, monkeypatch):
    """What a push-fed session over ``video`` produced: every tile's
    bits, SSD and op counters, and every frame's reconstruction."""
    tiles = []
    encode = FrameEncoder.encode

    def recording(self, original, *args, **kwargs):
        frame_stats, reconstruction = encode(self, original, *args, **kwargs)
        tiles.extend(
            (zlib.crc32(original), t.tile.x, t.tile.y, t.bits, t.ssd,
             astuple(t.ops))
            for t in frame_stats.tiles)
        return frame_stats, reconstruction

    with monkeypatch.context() as patch:
        patch.setattr(FrameEncoder, "encode", recording)
        with StreamTranscoder(PipelineConfig()) as transcoder:
            session = transcoder.open_session()
            outputs = [o for f in video for o in session.push(f)]
            outputs += session.finish()
    assert tiles
    return sorted(tiles), [
        (o.frame_index, o.record.bits, zlib.crc32(o.reconstruction))
        for o in outputs]


@needs_driver
def test_generator_content_identical_without_native(monkeypatch):
    """A push-fed session over generator content (flat background,
    smooth organ: intra modes tie to the ulp, residual sums sit on
    quantization boundaries) encodes the same with and without the
    driver.  Holds because the NumPy transform and SADs accumulate in
    the driver's order; a BLAS matmul or pairwise sum diverges from
    frame 3 of this clip on."""
    video = generate_video(ContentClass.ULTRASOUND, 96, 96, 16,
                           MotionPreset.PAN_RIGHT, seed=4)
    with_driver = _session_digest(video, monkeypatch)
    monkeypatch.setattr(native, "lib", None)
    assert _session_digest(video, monkeypatch) == with_driver


@needs_driver
@pytest.mark.slow
@pytest.mark.parametrize("size", [(640, 480), (480, 360)])
@pytest.mark.parametrize("content", list(ContentClass))
def test_generator_content_identical_at_served_sizes(content, size,
                                                     monkeypatch):
    """One GOP per content class at the sizes the bench serves.  The
    480x360 rung is the only place the served path meets remainder
    blocks (16x8: a neighbour count of 24, the DC path that is not a
    power of two)."""
    video = generate_video(content, size[0], size[1], 8, seed=11)
    with_driver = _session_digest(video, monkeypatch)
    monkeypatch.setattr(native, "lib", None)
    assert _session_digest(video, monkeypatch) == with_driver


def test_native_disabled_by_environment():
    """REPRO_NATIVE=0 must short-circuit loading (fallback guarantee)."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro import native; print(native.available())"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "REPRO_NATIVE": "0", "PATH": "/usr/bin:/bin"},
        cwd=str(REPO_ROOT),
        check=True,
    )
    assert out.stdout.strip() == "False"


# ----------------------------------------------------------------------
# Tile driver (one table row) vs the per-block loop
# ----------------------------------------------------------------------


def _smooth_noise(rng, height, width):
    """Random float plane in [0, 255] whose neighbouring samples
    correlate (a cheap 3-tap smoothing along each axis)."""
    plane = rng.integers(0, 256, (height, width)).astype(np.float64)
    for axis in (0, 1):
        plane = (plane + np.roll(plane, 1, axis)
                 + np.roll(plane, -1, axis)) / 3.0
    return plane


def _moving_planes(seed, height, width):
    """A textured reference and a shifted, noisy current plane, so the
    inter/intra decision goes both ways across a tile."""
    rng = np.random.default_rng(seed)
    big = _smooth_noise(rng, height + 16, width + 16)
    dx, dy = (int(v) for v in rng.integers(-4, 5, 2))
    ref = big[8:8 + height, 8:8 + width]
    cur = big[8 + dy:8 + dy + height, 8 + dx:8 + dx + width]
    cur = cur + rng.normal(0.0, 2.0, cur.shape)
    flat = rng.integers(0, 2, (height // 16 + 1, width // 16 + 1))
    flat = np.kron(flat, np.ones((16, 16)))[:height, :width].astype(bool)
    cur = np.where(flat, cur, rng.integers(0, 256, cur.shape))
    return tuple(
        np.ascontiguousarray(np.clip(np.rint(p), 0, 255).astype(np.uint8))
        for p in (ref, cur)
    )


def _oracle(config, cur, ref, tile, frame_type, spec, emit):
    """The per-block loop on fresh buffers: the driver's reference.
    Runs with the ctypes handle forbidden — it is NumPy all the way."""
    recon = np.zeros_like(cur)
    writer = BitWriter() if emit else None
    ops = OpCounts()
    hook = policy = None
    if spec is not None and frame_type is FrameType.P:
        policy = spec.policy()
        hook = spec_hook(spec, policy)
    with native_forbidden():
        bits, ssd = TileEncoder(config)._encode_tile_blocks(
            cur, ref if frame_type is FrameType.P else None, recon, tile,
            writer, hook, ops, None,
        )
    learned = None
    if policy is not None and spec.is_first:
        learned = (policy.state.dominant_axis,
                   policy.state.tile_mv.get(spec.tile_id))
    stream = (writer.bits_written, writer.flush()) if emit else None
    return bits, ssd, ops, recon, stream, learned


def _p_tile_syntax(stream, tile, block_size):
    """``(by, bx, use_inter, mv)`` per block of one P-frame tile's
    emitted stream, read the way the grammar says (DESIGN §8): an inter
    flag, then an MVD against the left neighbour's MV or a 2-bit intra
    mode, then one run-length block per 8x8 transform."""
    reader = BitReader(stream[1])
    blocks = []
    for by in range(tile.y, tile.y_end, block_size):
        left_mv = (0, 0)
        for bx in range(tile.x, tile.x_end, block_size):
            bw = min(block_size, tile.x_end - bx)
            bh = min(block_size, tile.y_end - by)
            use_inter = reader.read_bits(1) == 0
            if use_inter:
                left_mv = read_mvd(reader, left_mv)
            else:
                reader.read_bits(2)
            for _ in range((bw // 8) * (bh // 8)):
                read_block(reader, 64)
            blocks.append((by, bx, use_inter, left_mv if use_inter else None))
    assert len(stream[1]) * 8 - reader.bits_remaining == stream[0]
    return blocks


@st.composite
def _tile_cases(draw):
    tile = Tile(draw(st.integers(0, 24)), draw(st.integers(0, 24)),
                8 * draw(st.integers(2, 20)), 8 * draw(st.integers(2, 20)))
    frame = (tile.y_end + draw(st.integers(0, 24)),
             tile.x_end + draw(st.integers(0, 24)))
    window = draw(st.sampled_from([8, 16, 32, 64]))
    spec = None
    if draw(st.booleans()):
        # (motion, is_first, axis) spans cross, one-at-a-time x/y and
        # the three hexagon orientations.
        spec = TileHookSpec(
            motion=draw(st.sampled_from([MotionClass.LOW, MotionClass.HIGH])),
            is_first=draw(st.booleans()), tile_id=draw(st.integers(0, 5)),
            window=window, axis=draw(st.sampled_from([None, "x", "y"])),
            predictor=(draw(st.integers(-6, 6)), draw(st.integers(-6, 6))),
        )
    config = EncoderConfig(
        qp=draw(st.sampled_from([22, 32, 42])),
        search=draw(st.sampled_from([
            "cross", "one_at_a_time", "hexagon", "hexagon_vertical",
            "hexagon_rotating"])),
        search_window=window,
        block_size=draw(st.sampled_from([8, 16, 16, 32, 64])),
    )
    return dict(
        tile=tile, frame=frame, config=config, spec=spec,
        frame_type=draw(st.sampled_from([FrameType.I, FrameType.P, FrameType.P])),
        emit=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _assert_driver_matches_oracle(config, cur, ref, tile, frame_type, spec,
                                  emit):
    """Encode ``tile`` through the driver and compare the outcome with
    the per-block loop's; returns the stats and the emitted stream
    (every mode and motion vector is in it)."""
    bits, ssd, ops, want_recon, stream, learned = _oracle(
        config, cur, ref, tile, frame_type, spec, emit)
    region = np.s_[tile.y:tile.y_end, tile.x:tile.x_end]
    outside = np.ones(cur.shape, dtype=bool)
    outside[region] = False
    recon = np.full_like(cur, 7)  # outside the tile: untouched
    writer = BitWriter() if emit else None
    with scoped() as (registry, _):
        stats = TileEncoder(config).encode(
            cur, ref if frame_type is FrameType.P else None, recon,
            tile, frame_type, writer=writer, measure_stages=True,
            hook_spec=spec if frame_type is FrameType.P else None,
        )
        assert FALLBACK not in registry.names()
    assert (stats.bits, stats.ssd, stats.ops) == (bits, ssd, ops)
    np.testing.assert_array_equal(recon[region], want_recon[region])
    assert (recon[outside] == 7).all()
    if emit:
        assert (writer.bits_written, writer.flush()) == stream
        assert stream[0] == bits
    got = stats.learned
    assert (learned is None) == (got is None)
    if got is not None:
        assert got.tile_id == spec.tile_id
        assert (got.first_axis, got.final_mv) == learned
    assert set(stats.stage_seconds) == {"motion", "entropy"}
    assert all(v >= 0.0 for v in stats.stage_seconds.values())
    return stats, stream


@needs_driver
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tile_cases())
def test_tile_driver_matches_block_loop(case):
    """One native call per tile == the per-block loop: bits, SSD, every
    op counter, reconstruction, emitted bitstream and what a
    first-P-frame tile learned."""
    ref, cur = _moving_planes(case["seed"], *case["frame"])
    _assert_driver_matches_oracle(
        case["config"], cur, ref, case["tile"], case["frame_type"],
        case["spec"], case["emit"])


def _flush_to_buffer_end(plane, offset):
    """A C-contiguous copy of ``plane`` that starts ``offset`` bytes
    into its allocation (an odd address for an odd offset) and ends on
    the allocation's last byte, so a row load that runs past the plane
    runs into ASan's red zone."""
    buf = np.empty(offset + plane.size, dtype=np.uint8)
    out = buf[offset:].reshape(plane.shape)
    out[...] = plane
    return out


@needs_driver
def test_sad_kernels_bit_identical():
    """Both SAD kernels (the plain C loop and SSE2 ``psadbw``) encode
    the same tile as the NumPy reference when block widths, tile
    offsets and row pitch are not multiples of the vector width and the
    planes start at unaligned addresses — the geometry ``make
    sanitize`` needs to see an out-of-bounds vector load in
    ``sad_win_sse2``."""
    # Block widths 16, 32, 64 (SSE2: one, two, four 16-byte loads per
    # row) and the remainder blocks at the tile's right edge: 8 and 24
    # wide take the scalar loop, 48 wide SSE2 again.
    for block_size, tile in (
        (16, Tile(5, 3, 72, 40)),
        (32, Tile(13, 9, 104, 72)),
        (64, Tile(27, 1, 112, 72)),
        (64, Tile(1, 21, 152, 136)),
    ):
        height, width = tile.y_end + 19, tile.x_end + 23  # odd row pitch
        ref, cur = _moving_planes(17 + block_size, height, width)
        ref, cur = _flush_to_buffer_end(ref, 1), _flush_to_buffer_end(cur, 3)
        config = EncoderConfig(qp=27, search="cross", search_window=32,
                               block_size=block_size)
        # Plain cross search, then the policy's rotating hexagon.
        for spec in (
            None, TileHookSpec(MotionClass.HIGH, True, 0, 64, None, (3, -2)),
        ):
            _assert_driver_matches_oracle(
                config, cur, ref, tile, FrameType.P, spec, True)


@needs_driver
@pytest.mark.parametrize("frame_type", [FrameType.I, FrameType.P])
def test_row_loads_stay_inside_the_planes(frame_type):
    """The 8-byte SAD and copy loops of the residual path and the
    intra neighbour gathers at the last rows and columns of planes with
    an odd pitch and an odd base address: the tile's 8-wide remainder
    column ends on the plane's last column, its last row on the
    allocation's last byte (``make sanitize`` is what looks)."""
    tile = Tile(5, 3, 72, 40)
    ref, cur = _moving_planes(23, tile.y_end, tile.x_end)  # pitch 77
    # Flat last rows and columns, equal in both planes: the edge
    # sub-blocks are predicted exactly (inter on P, DC on I) and take
    # the row-copy reconstruction.
    for plane in (ref, cur):
        plane[-16:] = plane[:, -16:] = 90
    ref, cur = _flush_to_buffer_end(ref, 1), _flush_to_buffer_end(cur, 3)
    for block_size in (16, 32):
        config = EncoderConfig(qp=27, search="hexagon", search_window=16,
                               block_size=block_size)
        _assert_driver_matches_oracle(
            config, cur, ref, tile, frame_type, None, True)


# ----------------------------------------------------------------------
# Content where an ulp or a tie decides
# ----------------------------------------------------------------------

#: Power-of-two quantization steps (8, 16, 32, 64): ``|c| / Qstep +
#: 0.25`` lands on integers and ``3 * Qstep`` is an integer SAD.
_EDGE_QPS = (22, 28, 34, 40)
#: Tile at the plane's top-left corner (no neighbours, then one side
#: only) whose last block row and column are remainders: 16x8, 8x16 and
#: 8x8 at block size 16, 24 wide at block size 32 — neighbour counts of
#: 24 and 56, the DC path that is not a power of two.
_EDGE_TILE = Tile(0, 0, 56, 40)
_EDGE_SHAPE = (56, 72)


def _textured(seed):
    """Smooth texture kept inside [64, 192], so a crafted difference
    never clips and intra prediction never beats a near-exact match."""
    plane = _smooth_noise(np.random.default_rng(seed), *_EDGE_SHAPE)
    return np.rint(64 + plane / 2).astype(np.uint8)


def _edge_planes(name):
    """``(ref, cur)`` for one named content case."""
    rng = np.random.default_rng(len(name))
    if name in ("black", "grey", "white"):
        # All four intra SADs tie at zero: DC, planar abandoned on >=.
        cur = np.full(_EDGE_SHAPE, {"black": 0, "grey": 119, "white": 255}
                      [name], dtype=np.uint8)
        return cur, cur
    if name == "same":  # inter cost is rate only, zero skip everywhere
        cur = _textured(1)
        return cur, cur
    if name in ("rows", "columns"):
        # Step edges along one axis: horizontal / vertical prediction
        # wins, with an integer prediction.
        line = rng.integers(0, 256, (_EDGE_SHAPE[0], 1), dtype=np.uint8)
        cur = np.ascontiguousarray(np.broadcast_to(line, _EDGE_SHAPE))
        if name == "columns":
            line = rng.integers(0, 256, (1, _EDGE_SHAPE[1]), dtype=np.uint8)
            cur = np.ascontiguousarray(np.broadcast_to(line, _EDGE_SHAPE))
        noisy = cur.astype(np.int64) + rng.integers(-9, 10, _EDGE_SHAPE)
        return np.clip(noisy, 0, 255).astype(np.uint8), cur
    if name == "clamp":
        # 0 / 255 checks: the quantization error lands below 0 and
        # above 255 before the reconstruction is bounded.
        cells = rng.integers(0, 2, (_EDGE_SHAPE[0] // 2, _EDGE_SHAPE[1] // 2))
        cur = (np.kron(cells, np.ones((2, 2))) * 255).astype(np.uint8)
        return np.roll(cur, 1, axis=0), cur
    raise AssertionError(name)


@needs_driver
@pytest.mark.parametrize("frame_type", [FrameType.I, FrameType.P])
@pytest.mark.parametrize("name", [
    "black", "grey", "white", "same", "rows", "columns", "clamp"])
def test_edge_content_matches_block_loop(name, frame_type):
    """Each named content through the driver and the block loop, at the
    four power-of-two steps and over full, remainder and neighbourless
    blocks."""
    ref, cur = _edge_planes(name)
    for qp in _EDGE_QPS:
        for block_size in (16, 32):
            config = EncoderConfig(qp=qp, search="hexagon", search_window=16,
                                   block_size=block_size)
            _assert_driver_matches_oracle(
                config, cur, ref, _EDGE_TILE, frame_type, None, emit=True)


def _four_squares(total):
    """``total`` as a sum of four squares (Lagrange), largest first."""
    for a in range(math.isqrt(total), -1, -1):
        for b in range(math.isqrt(total - a * a), -1, -1):
            for c in range(math.isqrt(total - a * a - b * b), -1, -1):
                d = math.isqrt(total - a * a - b * b - c * c)
                if a * a + b * b + c * c + d * d == total:
                    return [a, b, c, d]
    raise AssertionError(total)


def _with_sad(sad):
    """64 differences of alternating sign whose absolute sum is ``sad``."""
    mags = np.full(64, sad // 64)
    mags[: sad % 64] += 1
    return mags * np.where(np.arange(64) % 2, -1, 1)


def _with_energy(energy):
    """64 differences of alternating sign whose squares sum to
    ``energy``, spread wide so that their SAD clears the zero skip."""
    bulk = max(1, math.isqrt(energy // 60))
    count = min(60, energy // (bulk * bulk))
    mags = np.zeros(64, dtype=np.int64)
    mags[:count] = bulk
    mags[60:] = _four_squares(energy - count * bulk * bulk)
    return mags * np.where(np.arange(64) % 2, -1, 1)


@needs_driver
@pytest.mark.parametrize("qp", _EDGE_QPS)
def test_thresholds_of_the_zero_tests_match_block_loop(qp):
    """Inter sub-blocks whose residual sits on a decision boundary of
    the integer path: SAD one below and exactly on ``3 * Qstep`` (the
    zero skip is a strict ``<``), and sum of squares just below and
    just above ``0.54 * Qstep^2`` (proven zero without a DCT vs
    transformed — the levels are zero either way, and both count as
    transformed)."""
    step = quantization_step(qp)
    assert step == int(step)
    proof = int(0.54 * step * step)
    ref = _textured(2)
    cur = ref.astype(np.int64)
    crafted = {
        (0, 0): _with_sad(3 * int(step) - 1),
        (0, 16): _with_sad(3 * int(step)),
        (16, 0): _with_energy(proof),
        (16, 16): _with_energy(proof + 1),
    }
    for (y, x), diff in crafted.items():
        cur[y:y + 8, x:x + 8] += diff.reshape(8, 8)
    cur = cur.astype(np.uint8)
    for (y, x), diff in crafted.items():
        got = cur[y:y + 8, x:x + 8].astype(np.int64) - ref[y:y + 8, x:x + 8]
        assert (got.ravel() == diff).all()
    assert proof < 0.54 * step * step < proof + 1
    for origin in ((16, 0), (16, 16)):  # past the zero skip
        assert np.abs(crafted[origin]).sum() >= 3 * step
    config = EncoderConfig(qp=qp, search="hexagon", search_window=16,
                           block_size=16)
    for emit in (False, True):
        stats, stream = _assert_driver_matches_oracle(
            config, cur, ref, _EDGE_TILE, FrameType.P, None, emit)
    # The crafted blocks are coded against the co-located reference,
    # so the residuals above are the ones the thresholds saw.
    by_origin = {(by, bx): (use_inter, mv) for by, bx, use_inter, mv
                 in _p_tile_syntax(stream, _EDGE_TILE, 16)}
    for origin in crafted:
        assert by_origin[origin] == (True, (0, 0))
    # Everything else in the tile equals the reference and the SAD one
    # below the bound is skipped: the other three count as transformed.
    assert stats.ops.transform_blocks == 3


@needs_driver
def test_inter_wins_an_exact_tie_with_intra():
    """``cost <= intra_sad``.  At a tile's first block every intra mode
    predicts the neutral 128 exactly (planar too: ``128 * (1 - w) +
    128 * w`` is 128 for every weight), so a block of 128s with twenty
    samples at 129 has an intra SAD of 20 — and a reference that
    differs from it in twelve samples costs 12 + lambda * 2 bits = 20."""
    ref = _textured(3)
    cur = ref.copy()
    cur[:16, :16] = ref[:16, :16] = 128
    cur[0, :16] = cur[1, :4] = 129
    ref[0, :8] = 129
    config = EncoderConfig(qp=32, search="hexagon", search_window=16,
                           block_size=16)
    assert config.lambda_mv == 4.0
    _, stream = _assert_driver_matches_oracle(
        config, cur, ref, _EDGE_TILE, FrameType.P, None, True)
    assert _p_tile_syntax(stream, _EDGE_TILE, 16)[0] == (0, 0, True, (0, 0))


def _fallback_case(reason):
    """``(config, cur, reference, tile, frame_type)`` forcing the
    driver to decline with ``reason``."""
    rng = np.random.default_rng(5)
    cur = rng.integers(0, 256, (64, 80), dtype=np.uint8)
    ref = np.roll(cur, 1, axis=1)
    tile = Tile(16, 16, 48, 32)
    config = EncoderConfig(qp=32, search_window=16)
    if reason == "layout":
        cur = np.asfortranarray(cur)
    elif reason == "partial_block":
        tile = Tile(16, 16, 44, 32)
    elif reason == "search":
        config = EncoderConfig(qp=32, search="tz", search_window=16)
    elif reason == "window":
        config = EncoderConfig(qp=32, search_window=128)
    return config, cur, ref, tile, FrameType.P


@needs_driver
@pytest.mark.parametrize("reason", ["layout", "search", "window"])
def test_tile_driver_fallback_is_counted(reason, monkeypatch):
    """Everything the driver declines is counted by reason and runs
    the per-block loop without one call into ``kernels.c`` — encoding
    what ``REPRO_NATIVE=0`` encodes."""
    config, cur, reference, tile, frame_type = _fallback_case(reason)
    recon = np.zeros(cur.shape, dtype=np.uint8)
    with scoped() as (registry, _), native_forbidden():
        stats = TileEncoder(config).encode(
            cur, reference, recon, tile, frame_type)
        assert registry.value(FALLBACK, reason=reason) == 1
    monkeypatch.setattr(native, "lib", None)
    numpy_recon = np.zeros(cur.shape, dtype=np.uint8)
    with scoped() as (registry, _):
        numpy_stats = TileEncoder(config).encode(
            cur, reference, numpy_recon, tile, frame_type)
        # No driver, nothing declined: the counter is never created.
        assert FALLBACK not in registry.names()
    np.testing.assert_array_equal(recon, numpy_recon)
    assert (stats.bits, stats.ops) == (numpy_stats.bits, numpy_stats.ops)


@needs_driver
def test_tile_driver_declines_unaligned_tile():
    """A tile that is not a whole number of 8x8 transforms never reaches
    the driver (it would silently skip the remainder); the per-block
    loop rejects it as it always has."""
    config, cur, ref, tile, frame_type = _fallback_case("partial_block")
    with scoped() as (registry, _):
        with pytest.raises(ValueError, match="transform size"):
            TileEncoder(config).encode(
                cur, ref, np.zeros_like(cur), tile, frame_type)
        assert registry.value(FALLBACK, reason="partial_block") == 1


# ----------------------------------------------------------------------
# Frame entry (every tile in one foreign call) vs the per-block loop
# ----------------------------------------------------------------------


def _frame_oracle(configs, cur, ref, grid, frame_type, specs, emit):
    """The frame as the block loop encodes it — tile by tile through
    :func:`_oracle` (NumPy only, no ``FrameEncoder``), the tiles'
    regions, streams and learning put together in grid order."""
    recon = np.zeros_like(cur)
    writer = BitWriter() if emit else None
    if emit:
        writer.write_bits(FrameEncoder.FRAME_TYPE_CODES[frame_type], 2)
    tiles, learned = [], []
    for i, tile in enumerate(grid):
        bits, ssd, ops, tile_recon, stream, tile_learned = _oracle(
            configs[i], cur, ref, tile, frame_type,
            specs[i] if specs else None, emit)
        region = np.s_[tile.y:tile.y_end, tile.x:tile.x_end]
        recon[region] = tile_recon[region]
        if emit:
            writer.append_bits(stream[1], stream[0])
        tiles.append((bits, ssd, ops))
        learned.append(tile_learned)
    stream = (writer.bits_written, writer.flush()) if emit else None
    return tiles, recon, stream, learned


def _assert_frame_matches_oracle(configs, cur, ref, grid, frame_type, specs,
                                 emit, repeats=1):
    """Encode the frame through ``FrameEncoder.encode`` — one foreign
    call — ``repeats`` times and compare everything each run returns
    with one run of the block loop's, whichever threads took which
    tiles (each run's thread count is within the mask and the grid)."""
    if frame_type is FrameType.I:
        specs = None
    tiles, want_recon, stream, learned = _frame_oracle(
        configs, cur, ref, grid, frame_type, specs, emit)
    for _ in range(repeats):
        writer = BitWriter() if emit else None
        with scoped() as (registry, _), counted_native() as calls:
            stats, recon = FrameEncoder().encode(
                cur, grid, configs, frame_type,
                reference=ref if frame_type is FrameType.P else None,
                frame_index=5, writer=writer, hook_specs=specs,
                measure_stages=True,
            )
            assert FALLBACK not in registry.names()
        assert calls == {"encode_frame_u8": 1}
        assert (stats.frame_index, stats.frame_type) == (5, frame_type)
        assert [t.tile for t in stats.tiles] == list(grid)
        assert [(t.bits, t.ssd, t.ops) for t in stats.tiles] == tiles
        np.testing.assert_array_equal(recon, want_recon)
        if emit:
            assert (writer.bits_written, writer.flush()) == stream
            assert stream[0] == 2 + sum(bits for bits, _, _ in tiles)
        for i, (tile_stats, want) in enumerate(zip(stats.tiles, learned)):
            got = tile_stats.learned
            assert (want is None) == (got is None)
            if got is not None:
                assert got.tile_id == specs[i].tile_id
                assert (got.first_axis, got.final_mv) == want
            assert set(tile_stats.stage_seconds) == {
                "motion", "entropy", "encode"}
            assert all(v >= 0.0 for v in tile_stats.stage_seconds.values())
        assert 1 <= stats.threads <= min(_affinity_cpus(), len(grid))


def _mixed_table(num_tiles, is_first):
    """Per-tile configs and hook specs that differ row by row: QP 22 /
    32 / 40, windows 8 to 64, both motion classes, and every third tile
    with no spec at all (the configured search, no predictor)."""
    configs = [
        EncoderConfig(qp=(22, 32, 40)[i % 3], search="hexagon",
                      search_window=(16, 32)[i % 2])
        for i in range(num_tiles)
    ]
    specs = [
        None if i % 3 == 2 else TileHookSpec(
            motion=(MotionClass.LOW, MotionClass.HIGH)[i % 2],
            is_first=is_first, tile_id=i, window=(8, 16, 32, 64)[i % 4],
            axis=(None, "x", "y")[i % 3], predictor=(i % 5 - 2, 1 - i % 3),
        )
        for i in range(num_tiles)
    ]
    return configs, specs


@needs_driver
@pytest.mark.parametrize("size", [(640, 480), (480, 360)])
def test_frame_entry_matches_block_loop_at_served_sizes(size):
    """An I frame, the GOP's first P frame (every spec learning) and a
    later one on a 4x3 grid whose rows differ in QP, window, predictor
    and search — at 480x360 the tiles are 120x120, so every tile ends
    in 16x8 / 8x16 / 8x8 remainder blocks."""
    width, height = size
    ref, cur = _moving_planes(41, height, width)
    grid = uniform_tiling(width, height, 4, 3)
    for frame_type, is_first, emit in (
        (FrameType.I, False, True),
        (FrameType.P, True, True),
        (FrameType.P, False, True),
        (FrameType.P, False, False),  # the served path: bits only counted
    ):
        configs, specs = _mixed_table(len(grid), is_first)
        _assert_frame_matches_oracle(
            configs, cur, ref, grid, frame_type, specs, emit)


@st.composite
def _frame_cases(draw):
    cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # Tile edges on multiples of 8 that need not be multiples of the
    # block size: remainder blocks on some tiles and not on others.
    width = 8 * draw(st.integers(2 * cols, 5 * cols))
    height = 8 * draw(st.integers(2 * rows, 5 * rows))
    num_tiles = cols * rows
    is_first = draw(st.booleans())
    configs, specs = [], []
    for i in range(num_tiles):
        window = draw(st.sampled_from([8, 16, 32, 64]))
        configs.append(EncoderConfig(
            qp=draw(st.sampled_from([22, 32, 40])),
            search=draw(st.sampled_from([
                "cross", "one_at_a_time", "hexagon", "hexagon_rotating"])),
            search_window=window,
            block_size=draw(st.sampled_from([8, 16, 16, 32])),
        ))
        specs.append(None if draw(st.booleans()) else TileHookSpec(
            motion=draw(st.sampled_from([MotionClass.LOW, MotionClass.HIGH])),
            is_first=is_first, tile_id=i, window=window,
            axis=draw(st.sampled_from([None, "x", "y"])),
            predictor=(draw(st.integers(-6, 6)), draw(st.integers(-6, 6))),
        ))
    return dict(
        size=(width, height), grid=(cols, rows), configs=configs, specs=specs,
        frame_type=draw(st.sampled_from([FrameType.I, FrameType.P, FrameType.P])),
        emit=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


@needs_driver
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_frame_cases())
def test_frame_entry_matches_block_loop(case):
    """One native call per frame == the per-block loop over its tiles,
    whatever the table mixes."""
    width, height = case["size"]
    ref, cur = _moving_planes(case["seed"], height, width)
    grid = uniform_tiling(width, height, *case["grid"])
    _assert_frame_matches_oracle(
        case["configs"], cur, ref, grid, case["frame_type"], case["specs"],
        case["emit"])


@needs_driver
def test_frame_with_a_declined_tile_runs_tile_by_tile():
    """One tile the driver must decline (TZ search) sends the whole
    frame down the per-tile loop: the oracle's output, that one tile
    counted under its reason, and the other tiles still in the driver —
    one row each."""
    ref, cur = _moving_planes(43, 96, 128)
    grid = uniform_tiling(128, 96, 2, 2)
    configs = [EncoderConfig(qp=32, search="hexagon", search_window=16)
               for _ in grid]
    configs[2] = EncoderConfig(qp=32, search="tz", search_window=16)
    tiles, want_recon, stream, _ = _frame_oracle(
        configs, cur, ref, grid, FrameType.P, None, True)
    writer = BitWriter()
    with scoped() as (registry, _), counted_native() as calls:
        stats, recon = FrameEncoder().encode(
            cur, grid, configs, FrameType.P, reference=ref, writer=writer)
        fallbacks = next(f for f in registry.to_dict()["metrics"]
                         if f["name"] == FALLBACK)
        assert [(s["labels"], s["value"]) for s in fallbacks["samples"]] == [
            ({"reason": "search"}, 1.0)]
    assert calls == {"encode_frame_u8": len(grid) - 1}
    assert [(t.bits, t.ssd, t.ops) for t in stats.tiles] == tiles
    np.testing.assert_array_equal(recon, want_recon)
    assert (writer.bits_written, writer.flush()) == stream
    assert all(t.stage_seconds is None for t in stats.tiles)


# ----------------------------------------------------------------------
# The frame split: a large frame's tiles on helper threads
# ----------------------------------------------------------------------


def _affinity_cpus():
    return len(os.sched_getaffinity(0))


def _class_frames(content, width, height):
    video = generate_video(content, width, height, 2, seed=23)
    return video[0].luma, video[1].luma


@needs_driver
@pytest.mark.parametrize("size", [(640, 480), (480, 360)])
@pytest.mark.parametrize("content", list(ContentClass))
def test_split_frame_matches_block_loop(content, size):
    """An I frame and a GOP's first P frame of each content class, on a
    4x3 grid whose rows differ in QP, window, predictor and search: the
    frame the driver splits is the block loop's frame.  At 480x360 the
    tiles are 120x120, so every tile ends in 16x8 remainder blocks,
    whose DC prediction takes the serial float chain."""
    width, height = size
    ref, cur = _class_frames(content, width, height)
    grid = uniform_tiling(width, height, 4, 3)
    for frame_type in (FrameType.I, FrameType.P):
        configs, specs = _mixed_table(len(grid), is_first=True)
        _assert_frame_matches_oracle(configs, cur, ref, grid, frame_type,
                                     specs, emit=True, repeats=3)


@needs_driver
@pytest.mark.parametrize("content", list(ContentClass))
def test_split_with_one_dominant_tile_matches_block_loop(content):
    """One tile covers 62.5 % of the frame and four small ones the
    rest: claimed largest first, the big tile goes to the caller and
    the small ones to whichever thread is free — same frame."""
    ref, cur = _class_frames(content, 640, 480)
    grid = TileGrid(640, 480, [Tile(0, 0, 400, 480)] + [
        Tile(400, y, 240, 120) for y in range(0, 480, 120)])
    for frame_type in (FrameType.I, FrameType.P):
        configs, specs = _mixed_table(len(grid), is_first=False)
        _assert_frame_matches_oracle(configs, cur, ref, grid, frame_type,
                                     specs, emit=True, repeats=3)


def _frame_threads(width, height, frames):
    """``FrameStats.threads`` of ``frames`` encodes of one P frame."""
    ref, cur = _class_frames(ContentClass.BRAIN, width, height)
    grid = uniform_tiling(width, height, 4, 3)
    configs = [EncoderConfig(qp=32, search="hexagon", search_window=32)
               for _ in grid]
    return [FrameEncoder().encode(cur, grid, configs, FrameType.P,
                                  reference=ref)[0].threads
            for _ in range(frames)]


@needs_driver
def test_a_vga_frame_splits_and_a_small_one_does_not():
    """A VGA frame's tiles reach a second thread wherever the affinity
    mask has a second CPU (a helper's wake-up can miss one frame, not
    a hundred); a 96x96 frame never leaves its caller."""
    if _affinity_cpus() < 2:
        pytest.skip("one CPU in the affinity mask: every frame is serial")
    threads = _frame_threads(640, 480, 100)
    assert 2 <= max(threads) <= min(_affinity_cpus(), 12)
    assert set(_frame_threads(96, 96, 20)) == {1}


_PINNED = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from repro import native
assert native.available(), native.build_error
from tests.test_native_kernels import _frame_threads
print(sorted(set(_frame_threads(640, 480, 20))))
"""


@needs_driver
def test_a_process_pinned_to_one_cpu_encodes_serially():
    """The helper count comes from the affinity mask: a process that
    taskset or a cpuset holds to one CPU starts no helper."""
    out = subprocess.run(
        [sys.executable, "-c", _PINNED], capture_output=True, text=True,
        cwd=str(REPO_ROOT), timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)])},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[1]"


def _fork_encode(queue):
    """In the forked child: the digest of the frame the parent encodes
    too, and the most threads any of 50 VGA encodes reported."""
    threads = _frame_threads(640, 480, 50)
    stats, recon = _fork_frame()
    queue.put((_frame_digest(stats, recon), max(threads)))


def _fork_frame():
    ref, cur = _class_frames(ContentClass.CARDIAC, 640, 480)
    grid = uniform_tiling(640, 480, 4, 3)
    configs, specs = _mixed_table(len(grid), is_first=True)
    return FrameEncoder().encode(cur, grid, configs, FrameType.P,
                                 reference=ref, hook_specs=specs)


def _frame_digest(stats, recon):
    return ([(t.bits, t.ssd, astuple(t.ops)) for t in stats.tiles],
            zlib.crc32(recon))


@needs_driver
def test_a_forked_child_rebuilds_the_pool():
    """The parent's helpers do not survive fork(): a child that
    encodes gets a pool of its own (no wait on a helper that is not
    there, no lock a vanished thread held) and the parent's output."""
    import multiprocessing

    _frame_threads(640, 480, 5)  # the parent's helpers are running
    want = _frame_digest(*_fork_frame())
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_fork_encode, args=(queue,))
    child.start()
    try:
        got, threads = queue.get(timeout=60)
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert got == want
    if _affinity_cpus() >= 2:
        assert threads >= 2


# ----------------------------------------------------------------------
# Box downscale (downscale_box_u8) vs its NumPy oracle
# ----------------------------------------------------------------------


def _assert_downscale_matches_oracle(plane, out_h, out_w):
    """``plane`` through the kernel from a buffer that ends on its
    allocation's last byte (and starts at an odd address), against
    ``downscale_box_reference``."""
    got = native.downscale_box(_flush_to_buffer_end(plane, 1), out_h, out_w)
    assert got is not None
    np.testing.assert_array_equal(
        got, downscale_box_reference(plane, out_h, out_w))


@needs_driver
@pytest.mark.parametrize("shape, out_shape", [
    ((480, 640), (360, 480)),  # the ladder's middle rung: boxes 1 or 2 wide
    ((480, 640), (240, 320)),  # its bottom rung: the SSE2 2x2 path
    ((480, 640), (270, 480)),  # 16:9 of the same width: 1, 2 rows x 1, 2 wide
    ((360, 480), (270, 360)),  # a rung of a rung
    ((480, 640), (160, 480)),  # three-row boxes: the reciprocal, not a shift
    ((480, 640), (480, 640)),  # same size: every box one sample
    ((61, 97), (7, 13)),       # prime extents, boxes 7-8 wide, 8-9 tall
    ((61, 97), (1, 1)),        # one box: the whole plane
    ((61, 97), (61, 96)),      # one output column short: a lone 2-wide box
    ((7, 13), (7, 13)),
    ((14, 26), (7, 13)),       # exact half: one SSE2 step and a 5-wide tail
    ((10, 12), (5, 6)),        # exact half below the SSE2 gate (w_out < 8)
    ((9, 7), (2, 3)),
], ids=lambda v: "x".join(map(str, v)))
def test_downscale_matches_oracle_at_served_and_odd_geometries(shape,
                                                               out_shape):
    rng = np.random.default_rng(shape[0] * out_shape[1])
    _assert_downscale_matches_oracle(
        rng.integers(0, 256, shape, dtype=np.uint8), *out_shape)
    # All 255: the largest sum a box of this geometry can hold.
    _assert_downscale_matches_oracle(
        np.full(shape, 255, dtype=np.uint8), *out_shape)


@st.composite
def _downscale_cases(draw):
    h, w = draw(st.integers(1, 72)), draw(st.integers(1, 72))
    return (h, w, draw(st.integers(1, h)), draw(st.integers(1, w)),
            draw(st.integers(0, 2**16)))


@needs_driver
@settings(max_examples=200, deadline=None)
@given(_downscale_cases())
def test_downscale_matches_oracle(case):
    h, w, out_h, out_w, seed = case
    plane = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    _assert_downscale_matches_oracle(plane, out_h, out_w)


def _reciprocal_quotient(acc, population):
    """``kernels.c``'s quotient, in uint64 as it is there."""
    magic = np.uint64((1 << 56) // population + 1)
    return (acc * magic) >> np.uint64(56)


def test_reciprocal_quotient_is_floor_division():
    """``(acc * (2**56 // d + 1)) >> 56 == acc // d`` for every sum a
    box of ``d`` samples can hold.  The left side never decreases in
    ``acc``, so it is checked where the right side steps: at both ends
    of every run ``q*d .. q*d + d - 1`` and at the top sum ``255*d`` —
    for every population to 4096, then every 4099th (a prime stride: all
    residues) to the envelope's last, 2**24 - 1."""
    q = np.arange(256, dtype=np.uint64)
    populations = list(range(1, 4097)) + list(range(4097, 1 << 24, 4099))
    for d in populations + [(1 << 24) - 1]:
        first = q * np.uint64(d)
        assert np.array_equal(_reciprocal_quotient(first, d), q), d
        last = first[:255] + np.uint64(d - 1)
        assert np.array_equal(_reciprocal_quotient(last, d), q[:255]), d
        assert int(last[-1]) * ((1 << 56) // d + 1) < 1 << 64  # as claimed


@needs_driver
def test_downscale_quotient_steps_where_floor_division_does():
    """The same ends of runs, through the kernel: a plane of ``d`` rows
    cut into one box of one column (population ``d``) and one of two
    (``2 * d``), each holding a chosen sum.  One and two rows are the
    16-bit-lane routine's shifts; from three on, the general routine's
    reciprocals."""
    def column(rows, cols, mean, extra):
        plane = np.full((rows, cols), mean, dtype=np.uint8)
        plane.reshape(-1)[:extra] += 1
        return plane

    def check(d, widths=(1, 2)):
        runs = [(0, 0), (0, 1), (1, 0), (127, 1), (254, 0), (254, 1),
                (255, 0)]
        for mean, at_end in runs:
            plane = _flush_to_buffer_end(np.hstack([
                column(d, cols, mean, at_end * (d * cols - 1))
                for cols in widths]), 1)
            got = native.downscale_box(plane, 1, len(widths))
            assert got.tolist() == [[mean] * len(widths)], (d, mean, at_end)

    for d in range(1, 131):
        check(d)
    for d in (255, 256, 257, 4095, 4096, 4097, 65535, 65536, 65537,
              (1 << 20) + 7):
        check(d)
    check((1 << 24) - 1, widths=(1,))  # the envelope's last population
    # Seventeen lanes and more: the SSE2 quotients and the lanes they
    # leave, over rows of one box height and of both.
    rng = np.random.default_rng(8)
    for shape, out_h in (((3, 17), 3), ((6, 33), 3), ((5, 40), 3),
                         ((7, 18), 4), ((9, 35), 9)):
        plane = rng.integers(0, 256, shape, dtype=np.uint8)
        for fill in (plane, np.full_like(plane, 255)):
            _assert_downscale_matches_oracle(
                fill, out_h, shape[1] - shape[1] // 3)


@needs_driver
def test_downscale_declines_planes_its_lanes_cannot_sum():
    """A box sum is at most 255 * h * w; from 2^24 samples on it could
    leave the kernel's 32-bit lanes, and the caller's oracle runs."""
    assert native.downscale_box(
        np.zeros((4096, 4096), dtype=np.uint8), 1, 1) is None
    # The largest plane it takes, at the largest sum it can hold.
    assert native.downscale_box(
        np.full((4095, 4096), 255, dtype=np.uint8), 1, 1).tolist() == [[255]]


# ----------------------------------------------------------------------
# Content analysis and re-tiling: analyze_frame_u8 vs the NumPy analysis
# ----------------------------------------------------------------------
from dataclasses import replace  # noqa: E402

from repro.analysis import frame_analysis  # noqa: E402
from repro.analysis.evaluator import ContentEvaluator  # noqa: E402
from repro.analysis.frame_analysis import (  # noqa: E402
    FrameAnalysis,
    NativeFrameAnalysis,
    analyse_frame,
)
from repro.analysis.motion_probe import (  # noqa: E402
    MotionProbe,
    MotionProbeConfig,
)
from repro.analysis.texture import (  # noqa: E402
    TextureClass,
    TextureThresholds,
)
from repro.tiling.constraints import TilingConstraints  # noqa: E402
from repro.tiling.content_aware import ContentAwareRetiler  # noqa: E402


def _numpy_retile(retiler, current, previous, monkeypatch):
    """The same re-tiling with the NumPy analysis — the oracle — and
    the ctypes handle forbidden: it is NumPy all the way."""
    with monkeypatch.context() as patch, native_forbidden():
        patch.setattr(frame_analysis, "analyse_frame", FrameAnalysis)
        return retiler.retile(current, previous)


def _assert_same_retiling(retiler, current, previous, monkeypatch):
    """Grids, classes, CVs and motion scores: equal, not close."""
    with counted_native() as calls:
        fast = retiler.retile(current, previous)
    oracle = _numpy_retile(retiler, current, previous, monkeypatch)
    assert fast.grid.tiles == oracle.grid.tiles
    assert fast.contents == oracle.contents
    # One crossing per batch of questions: the margins (which also
    # builds the tables), the centre, the finished grid — one in all
    # for a frame too small to split.
    assert set(calls) == {"analyze_frame_u8"}
    assert calls["analyze_frame_u8"] == (3 if len(fast.grid) > 1 else 1)
    return fast


def _both_analyses(current, previous, block):
    fast = analyse_frame(current, previous, block)
    assert isinstance(fast, NativeFrameAnalysis)
    return fast, FrameAnalysis(current, previous, block)


def _assert_same_answers(current, previous, block, rects,
                         thresholds=TextureThresholds(),
                         config=MotionProbeConfig()):
    fast, oracle = _both_analyses(current, previous, block)
    rects = np.asarray(rects, dtype=np.int64).reshape(-1, 4)
    got = fast.evaluate(rects, thresholds, config)
    with native_forbidden():
        want = oracle.evaluate(rects, thresholds, config)
    assert got == want
    return got


@needs_driver
@pytest.mark.parametrize("size", [(640, 480), (480, 360), (320, 240),
                                  (96, 96)])
@pytest.mark.parametrize("content", list(ContentClass))
def test_native_retiling_matches_numpy_on_generated_content(
        content, size, monkeypatch):
    width, height = size
    for seed in range(2):
        video = generate_video(content_class=content, width=width,
                               height=height, num_frames=3, seed=seed)
        planes = [_flush_to_buffer_end(f.luma, 1 + 2 * seed)
                  for f in video.frames]
        retiler = ContentAwareRetiler()
        _assert_same_retiling(retiler, planes[0], None, monkeypatch)
        _assert_same_retiling(retiler, planes[2], planes[1], monkeypatch)


@needs_driver
def test_native_retiling_under_tile_merge_constraints(monkeypatch):
    """The halved tile cap the degradation ladder's TILE_MERGE rung
    re-tiles with, and a frame too small to split at all."""
    constraints = TilingConstraints()
    merged = replace(constraints, max_tiles=max(
        constraints.min_center_tiles + 1, constraints.max_tiles // 2))
    video = generate_video(content_class=ContentClass.BRAIN, width=640,
                           height=480, num_frames=2, seed=16)
    previous, current = (f.luma for f in video.frames)
    full = _assert_same_retiling(
        ContentAwareRetiler(constraints), current, previous, monkeypatch)
    capped = _assert_same_retiling(
        ContentAwareRetiler(merged), current, previous, monkeypatch)
    assert len(capped.grid) <= merged.max_tiles < len(full.grid)
    single = _assert_same_retiling(
        ContentAwareRetiler(), current[:64, :64].copy(),
        previous[:64, :64].copy(), monkeypatch)
    assert len(single.grid) == 1


@needs_driver
def test_native_texture_sits_on_both_thresholds():
    """Two-valued planes whose CV is exactly 0.25 (150 | 90) and 0.6
    (200 | 50): ``<=`` keeps each in the lower class, and one ulp of
    threshold either way moves it — the same way in both tiers.  The
    dark-mean guard is a strict ``<``."""
    rect = [(0, 0, 32, 32)]
    for (a, b), cv, classes in (
        ((150, 90), 0.25, (TextureClass.LOW, TextureClass.MEDIUM)),
        ((200, 50), 0.6, (TextureClass.MEDIUM, TextureClass.HIGH)),
    ):
        plane = np.full((32, 32), a, dtype=np.uint8)
        plane[:, 16:] = b
        cvs, textures, _ = _assert_same_answers(plane, None, 16, rect)
        assert cvs == [cv] and textures == [classes[0]]
        below = math.nextafter(cv, 0.0)
        shifted = (TextureThresholds(low=below) if cv == 0.25
                   else TextureThresholds(high=below))
        _, textures, _ = _assert_same_answers(plane, None, 16, rect, shifted)
        assert textures == [classes[1]]
    plane = np.full((32, 32), 150, dtype=np.uint8)
    plane[:, 16:] = 90  # mean exactly 120
    for dark_mean, texture in ((120.0, TextureClass.MEDIUM),
                               (math.nextafter(120.0, 200.0),
                                TextureClass.LOW)):
        thresholds = TextureThresholds(low=0.1, dark_mean=dark_mean)
        _, textures, _ = _assert_same_answers(plane, None, 16, rect,
                                              thresholds)
        assert textures == [texture]


@needs_driver
@pytest.mark.parametrize("count", [4, 6, 9])
def test_native_probe_keeps_the_float_predicate(count):
    """Patches whose sums differ by exactly ``tol * n`` — where the
    float64 quotients and the integer form disagree for n = 6, 9 — at a
    tile corner (4 taps), an edge (6) and an interior point (9)."""
    config = MotionProbeConfig()
    shape = {4: (16, 16), 6: (2, 16), 9: (16, 16)}[count]
    rng = np.random.default_rng(count)
    scores = set()
    for _ in range(200):
        current = rng.integers(0, 256, shape, dtype=np.uint8)
        previous = current.copy()
        y, x = (0, 0) if count == 4 else (shape[0] // 2, shape[1] // 2)
        patch = (slice(max(0, y - 1), y + 2), slice(max(0, x - 1), x + 2))
        flat = previous[patch].reshape(-1).astype(np.int64)
        assert flat.size == count
        delta = config.pixel_tolerance * count
        for i in range(flat.size):
            step = min(delta, 255 - int(flat[i]))
            flat[i] += step
            delta -= step
        previous[patch] = flat.reshape(previous[patch].shape)
        _, _, got = _assert_same_answers(
            current, previous, 2, [(0, 0, shape[1], shape[0])])
        assert got == [MotionProbe(config).score(current, previous)]
        scores.update(got)
    # Quotients by 4 are exact and never exceed the tolerance; by 6 and
    # 9 they round, and some pairs land a hair above it.
    assert (scores == {0.0}) if count == 4 else (len(scores) > 1)


@needs_driver
def test_native_max_point_is_the_first_row_major_maximum():
    """All-0 and all-255 planes (every sample is a maximum), a single
    peak anywhere, equal peaks in different cells and in one cell: the
    probe's sixth point is the first in raster order, which shows in
    the score when only one of the tied maxima moved."""
    config = MotionProbeConfig(alpha=0.0, beta=0.0, gamma=1.0)
    whole = [(0, 0, 48, 32), (16, 0, 32, 32), (0, 16, 48, 16)]
    for value in (0, 255):
        flat = np.full((32, 48), value, dtype=np.uint8)
        moved = flat.copy()
        moved[0, 0] = 255 - value  # the first sample of two rectangles
        assert _assert_same_answers(flat, moved, 16, whole, config=config)[2] \
            == [1.0, 0.0, 0.0]
    rng = np.random.default_rng(8)
    base = rng.integers(0, 200, (32, 48), dtype=np.uint8)
    for peaks in (
        [(31, 47)], [(0, 0)], [(5, 20)],           # a single peak
        [(3, 40), (20, 2)], [(20, 2), (20, 40)],   # ties across cells
        [(17, 18), (17, 30)], [(18, 17), (30, 17)],  # ties within a cell
    ):
        current = base.copy()
        for y, x in peaks:
            current[y, x] = 255
        for y, x in peaks:  # each peak in turn is the one that moved
            previous = current.copy()
            previous[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 0
            _, _, scores = _assert_same_answers(
                current, previous, 16, whole, config=config)
            first = min(peaks)
            # Whole frame: the max point is the first peak.
            assert scores[0] == (1.0 if (y, x) == first else 0.0)
    # Without a previous plane nothing is scored.
    assert _assert_same_answers(base, None, 16, whole)[2] == [0.0] * 3


@st.composite
def _analysis_cases(draw):
    block = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 24]))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["random", "black", "white", "sparse"]))
    seed = draw(st.integers(0, 2**32 - 1))
    previous = draw(st.sampled_from(["none", "same", "other"]))
    rects = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.integers(0, cols - 1))
        y = draw(st.integers(0, rows - 1))
        rects.append((x * block, y * block,
                      draw(st.integers(1, cols - x)) * block,
                      draw(st.integers(1, rows - y)) * block))
    return block, rows, cols, kind, seed, previous, rects


@needs_driver
@given(_analysis_cases(),
       st.sampled_from([TextureThresholds(),
                        TextureThresholds(low=0.1, high=0.3, dark_mean=0.0)]),
       st.sampled_from([MotionProbeConfig(), MotionProbeConfig(patch_radius=0),
                        MotionProbeConfig(patch_radius=2, pixel_tolerance=0),
                        MotionProbeConfig(alpha=0.5, beta=1.25, gamma=2.0,
                                          pixel_tolerance=1.5)]))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_native_analysis_matches_numpy(case, thresholds, config):
    """Every lattice (the SSE2 cell pass at 8 / 16 / 24, the scalar one
    elsewhere), planes that end on their allocation's last byte."""
    block, rows, cols, kind, seed, previous, rects = case
    height, width = rows * block, cols * block
    rng = np.random.default_rng(seed)

    def plane(offset):
        if kind == "black":
            out = np.zeros((height, width), dtype=np.uint8)
        elif kind == "white":
            out = np.full((height, width), 255, dtype=np.uint8)
        elif kind == "sparse":  # many equal maxima: ties everywhere
            out = (rng.integers(0, 4, (height, width)) * 85).astype(np.uint8)
        else:
            out = rng.integers(0, 256, (height, width), dtype=np.uint8)
        return _flush_to_buffer_end(out, offset)

    current = plane(1)
    previous = {"none": None, "same": current.copy(),
                "other": plane(3)}[previous]
    _assert_same_answers(current, previous, block, rects, thresholds, config)


@needs_driver
def test_native_analysis_declines_what_it_cannot_hold():
    """Outside the kernel's envelope ``analyse_frame`` hands out the
    NumPy analysis: rows that are not unit-stride, planes whose sums
    could leave the kernel's integers.  Rectangles off the lattice or
    outside the plane are refused before anything is read."""
    rng = np.random.default_rng(2)
    plane = rng.integers(0, 256, (32, 64), dtype=np.uint8)
    assert isinstance(analyse_frame(plane, None, 8), NativeFrameAnalysis)
    for odd in (plane[:, ::2], plane.T):  # strided columns
        assert isinstance(analyse_frame(odd, None, 8), FrameAnalysis)
    assert isinstance(analyse_frame(plane, plane[:, ::-1], 8), FrameAnalysis)
    assert isinstance(analyse_frame(plane[::2], None, 8),
                      NativeFrameAnalysis)  # a row pitch is fine
    _assert_same_answers(plane[::2], plane[1::2], 8, [(8, 0, 32, 16)])
    wide = np.zeros((1, 1 << 16), dtype=np.uint8)
    assert not native.analysis_fits(wide)
    assert native.analysis_fits(wide[:, :-1])
    big = np.zeros((2064, 4096), dtype=np.uint8)
    assert not native.analysis_fits(big)
    assert native.analysis_fits(big[:2048])
    with native_forbidden():
        assert isinstance(analyse_frame(big, None, 16), FrameAnalysis)
    # The largest plane it takes, all white: n * S2 at its maximum.
    white = np.full((2048, 4096), 255, dtype=np.uint8)
    cvs, textures, _ = _assert_same_answers(
        white, None, 2048, [(0, 0, 4096, 2048)])
    assert cvs == [0.0] and textures == [TextureClass.LOW]
    fast = analyse_frame(plane, None, 8)
    for rect in ((4, 0, 8, 8), (0, 0, 8, 12), (0, 0, 72, 8), (0, 24, 8, 16),
                 (-8, 0, 8, 8), (0, 0, 0, 8)):
        with pytest.raises(ValueError, match="lattice"):
            fast.evaluate(np.array([rect]), TextureThresholds(),
                          MotionProbeConfig())


@needs_driver
def test_grid_evaluation_takes_the_native_analysis(vga_frame_pair):
    """``ContentEvaluator.evaluate`` on its own (the bench's
    ``analysis.evaluate`` row): one crossing, the NumPy answers."""
    previous, current = vga_frame_pair
    for cols, rows in ((1, 1), (5, 3)):
        grid = uniform_tiling(640, 480, cols, rows)
        with counted_native() as calls:
            fast = ContentEvaluator().evaluate(grid, current, previous)
        assert dict(calls) == {"analyze_frame_u8": 1}
        with native_forbidden():
            oracle = ContentEvaluator().evaluate(
                grid, current, previous,
                FrameAnalysis(current, previous, 32))
        assert fast == oracle
