"""The native tile driver is bit-exact with the pure-NumPy block loop.

The codec has two tiers: ``encode_tile_u8`` (one C call per tile) and
the per-block NumPy loop, which is the driver's reference and the only
thing that runs what the driver declines.  The tests here encode the
same tile through both and assert byte-level equality — with the
reference side running under :func:`tests.conftest.native_forbidden`,
so it demonstrably never enters ``kernels.c`` — which is also what
keeps ``REPRO_NATIVE=0`` a faithful fallback.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import native
from repro.analysis.motion_probe import MotionClass
from repro.codec.bitstream import BitWriter
from repro.codec.config import EncoderConfig, FrameType
from repro.codec.encoder import FrameEncoder, TileEncoder
from repro.codec.ops import OpCounts
from repro.motion.proposed import TileHookSpec, spec_hook
from repro.observability import scoped
from repro.tiling.tile import Tile
from repro.tiling.uniform import uniform_tiling
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass, MotionPreset, generate_video
from tests.conftest import native_forbidden

#: Everything below compares against the driver except the
#: ``REPRO_NATIVE=0`` check itself, which `make reference` still runs.
needs_driver = pytest.mark.skipif(
    not native.available(), reason="native kernels unavailable"
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FALLBACK = "repro_codec_tile_fallback_total"


@needs_driver
def test_tile_encode_identical_without_native(monkeypatch):
    """Whole-tile encodes (intra + inter + half-pel + fused residual)
    agree between the native and pure-NumPy paths."""
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, (64, 96), dtype=np.uint8)
    prev = np.roll(base, 2, axis=1)
    grid = uniform_tiling(96, 64, 2, 1)
    for config in (
        EncoderConfig(qp=32),
        EncoderConfig(qp=26, search="tz", search_window=16),
        EncoderConfig(qp=38, half_pel=True),
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

    def run():
        with StreamTranscoder(PipelineConfig()) as transcoder:
            session = transcoder.open_session()
            outputs = [o for f in video for o in session.push(f)]
            outputs += session.finish()
        return [(o.frame_index, o.record.bits, o.reconstruction.tobytes())
                for o in outputs]

    with_driver = run()
    monkeypatch.setattr(native, "lib", None)
    assert run() == with_driver


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
# Tile driver (encode_tile_u8) vs the per-block loop
# ----------------------------------------------------------------------


def _moving_planes(seed, height, width):
    """A textured reference and a shifted, noisy current plane, so the
    inter/intra decision goes both ways across a tile."""
    rng = np.random.default_rng(seed)
    big = rng.integers(0, 256, (height + 16, width + 16)).astype(np.float64)
    for axis in (0, 1):  # cheap smoothing: neighbouring samples correlate
        big = (big + np.roll(big, 1, axis) + np.roll(big, -1, axis)) / 3.0
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


def _oracle(config, cur, ref, tile, frame_type, spec, emit, want_info):
    """The per-block loop on fresh buffers: the driver's reference.
    Runs with the ctypes handle forbidden — it is NumPy all the way."""
    recon = np.zeros_like(cur)
    writer = BitWriter() if emit else None
    infos = [] if want_info else None
    ops = OpCounts()
    hook = policy = None
    if spec is not None and frame_type is FrameType.P:
        policy = spec.policy()
        hook = spec_hook(spec, policy)
    with native_forbidden():
        bits, ssd = TileEncoder(config)._encode_tile_blocks(
            cur, [ref] if frame_type is FrameType.P else [], recon, tile,
            frame_type, writer, hook, ops, None, infos, None,
        )
    learned = None
    if policy is not None and spec.is_first:
        learned = (policy.state.dominant_axis,
                   policy.state.tile_mv.get(spec.tile_id))
    stream = (writer.bits_written, writer.flush()) if emit else None
    return bits, ssd, ops, recon, stream, infos, learned


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
        emit=draw(st.booleans()), want_info=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _assert_driver_matches_oracle(config, cur, ref, tile, frame_type, spec,
                                  emit, want_info):
    """Encode ``tile`` through the driver and compare the outcome with
    the per-block loop's."""
    bits, ssd, ops, want_recon, stream, want_infos, learned = _oracle(
        config, cur, ref, tile, frame_type, spec, emit, want_info)
    region = np.s_[tile.y:tile.y_end, tile.x:tile.x_end]
    outside = np.ones(cur.shape, dtype=bool)
    outside[region] = False
    recon = np.full_like(cur, 7)  # outside the tile: untouched
    writer = BitWriter() if emit else None
    infos = [] if want_info else None
    with scoped() as (registry, _):
        stats = TileEncoder(config).encode(
            cur, ref if frame_type is FrameType.P else None, recon,
            tile, frame_type, writer=writer, block_info_out=infos,
            measure_stages=True,
            hook_spec=spec if frame_type is FrameType.P else None,
        )
        assert FALLBACK not in registry.names()
    assert (stats.bits, stats.ssd, stats.ops) == (bits, ssd, ops)
    np.testing.assert_array_equal(recon[region], want_recon[region])
    assert (recon[outside] == 7).all()
    if emit:
        assert (writer.bits_written, writer.flush()) == stream
        assert stream[0] == bits
    assert infos == want_infos
    got = stats.learned
    assert (learned is None) == (got is None)
    if got is not None:
        assert got.tile_id == spec.tile_id
        assert (got.first_axis, got.final_mv) == learned
    assert set(stats.stage_seconds) == {"motion", "entropy"}
    assert all(v >= 0.0 for v in stats.stage_seconds.values())


@needs_driver
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tile_cases())
def test_tile_driver_matches_block_loop(case):
    """One native call per tile == the per-block loop: bits, SSD, every
    op counter, reconstruction, emitted bitstream, BlockInfo list and
    what a first-P-frame tile learned."""
    ref, cur = _moving_planes(case["seed"], *case["frame"])
    _assert_driver_matches_oracle(
        case["config"], cur, ref, case["tile"], case["frame_type"],
        case["spec"], case["emit"], case["want_info"])


def _at_odd_address(plane, offset):
    """A C-contiguous copy of ``plane`` whose base address is
    ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(plane.size + 64 + offset, dtype=np.uint8)
    start = offset + (-buf.ctypes.data) % 64
    out = buf[start:start + plane.size].reshape(plane.shape)
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
        ref, cur = _at_odd_address(ref, 1), _at_odd_address(cur, 3)
        config = EncoderConfig(qp=27, search="cross", search_window=32,
                               block_size=block_size)
        # Plain cross search, then the policy's rotating hexagon.
        for spec in (
            None, TileHookSpec(MotionClass.HIGH, True, 0, 64, None, (3, -2)),
        ):
            _assert_driver_matches_oracle(
                config, cur, ref, tile, FrameType.P, spec, True, True)


def _fallback_case(reason):
    """``(config, cur, references, tile, frame_type)`` forcing the
    driver to decline with ``reason``."""
    rng = np.random.default_rng(5)
    cur = rng.integers(0, 256, (64, 80), dtype=np.uint8)
    ref = np.roll(cur, 1, axis=1)
    tile = Tile(16, 16, 48, 32)
    config = EncoderConfig(qp=32, search_window=16)
    frame_type, references = FrameType.P, ref
    if reason == "b_frame":
        frame_type, references = FrameType.B, [ref, cur]
    elif reason == "half_pel":
        config = EncoderConfig(qp=32, half_pel=True)
    elif reason == "layout":
        cur = np.asfortranarray(cur)
    elif reason == "partial_block":
        tile = Tile(16, 16, 44, 32)
    elif reason == "search":
        config = EncoderConfig(qp=32, search="tz", search_window=16)
    elif reason == "window":
        config = EncoderConfig(qp=32, search_window=128)
    return config, cur, references, tile, frame_type


@needs_driver
@pytest.mark.parametrize("reason", [
    "b_frame", "half_pel", "layout", "search", "window",
])
def test_tile_driver_fallback_is_counted(reason, monkeypatch):
    """Everything the driver declines is counted by reason and runs
    the per-block loop without one call into ``kernels.c`` — encoding
    what ``REPRO_NATIVE=0`` encodes."""
    config, cur, references, tile, frame_type = _fallback_case(reason)
    recon = np.zeros(cur.shape, dtype=np.uint8)
    with scoped() as (registry, _), native_forbidden():
        stats = TileEncoder(config).encode(
            cur, references, recon, tile, frame_type)
        assert registry.value(FALLBACK, reason=reason) == 1
    monkeypatch.setattr(native, "lib", None)
    numpy_recon = np.zeros(cur.shape, dtype=np.uint8)
    with scoped() as (registry, _):
        numpy_stats = TileEncoder(config).encode(
            cur, references, numpy_recon, tile, frame_type)
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
