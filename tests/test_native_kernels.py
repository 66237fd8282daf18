"""The native (C) kernels are bit-exact with the NumPy reference paths.

Every test runs the same computation twice — once through the compiled
kernels, once with ``native.lib`` monkeypatched away — and asserts
byte-level equality.  This is the contract that lets the encoder and
decoder dispatch independently (both native or both NumPy) without
drift, and lets ``REPRO_NATIVE=0`` remain a faithful fallback.
"""

import numpy as np
import pytest

from repro import native
from repro.codec.config import EncoderConfig, FrameType
from repro.codec.encoder import FrameEncoder, reconstruct_block
from repro.codec.intra import IntraMode, choose_mode, predict
from repro.tiling.uniform import uniform_tiling

pytestmark = pytest.mark.skipif(
    not native.available(), reason="native kernels unavailable"
)


def _blocks(rng, n=200):
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            block = rng.integers(0, 256, (16, 16)).astype(np.float64)
        elif kind == 1:  # smooth gradient
            gy, gx = np.mgrid[0:16, 0:16]
            block = (rng.uniform(40, 200) + gx * rng.uniform(-2, 2)
                     + gy * rng.uniform(-2, 2)).clip(0, 255)
        elif kind == 2:  # flat
            block = np.full((16, 16), float(rng.integers(0, 256)))
        else:  # near-flat with noise
            block = (128.0 + rng.normal(0, 2, (16, 16))).clip(0, 255)
        top = None if rng.integers(0, 2) else rng.integers(0, 256, 16).astype(np.float64)
        left = None if rng.integers(0, 2) else rng.integers(0, 256, 16).astype(np.float64)
        yield np.ascontiguousarray(block), top, left


def test_choose_intra_matches_choose_mode():
    rng = np.random.default_rng(0)
    for block, top, left in _blocks(rng):
        mode_n, pred_n, sad_n = native.choose_intra(block, top, left)
        assert native.lib is not None
        saved, native.lib = native.lib, None
        try:
            mode_p, pred_p, sad_p = choose_mode(block, top, left)
        finally:
            native.lib = saved
        assert IntraMode(mode_n) is mode_p
        # The SAD reduction order differs (C sequential vs NumPy
        # pairwise), so the scalar may drift by an ulp; the bit-exact
        # contract is the mode decision and the prediction block.
        assert sad_n == pytest.approx(sad_p, rel=1e-12)
        np.testing.assert_array_equal(pred_n, pred_p)
        # Decoder contract: the winner's prediction equals predict().
        np.testing.assert_array_equal(
            pred_n, predict(IntraMode(mode_n), top, left, 16, 16)
        )


def test_reconstruct_block_matches_numpy():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pred = np.ascontiguousarray(rng.uniform(0, 255, (16, 16)))
        levels = rng.integers(-12, 13, (4, 8, 8)).astype(np.int32)
        if rng.integers(0, 4) == 0:
            levels[:] = 0
        qp = int(rng.integers(10, 50))
        native_out = reconstruct_block(pred, levels, qp)
        saved, native.lib = native.lib, None
        try:
            numpy_out = reconstruct_block(pred, levels, qp)
        finally:
            native.lib = saved
        np.testing.assert_array_equal(native_out, numpy_out)
        assert native_out.dtype == np.uint8


def test_sad_batch_matches_numpy_windows():
    rng = np.random.default_rng(2)
    ref = rng.integers(0, 256, (40, 56), dtype=np.uint8)
    block = rng.integers(0, 256, (8, 8)).astype(np.int32)
    xs = rng.integers(0, 48, 32).astype(np.int64)
    ys = rng.integers(0, 32, 32).astype(np.int64)
    sads = native.sad_batch(ref, block, xs, ys)
    for i in range(32):
        window = ref[ys[i] : ys[i] + 8, xs[i] : xs[i] + 8].astype(np.int64)
        assert sads[i] == np.abs(window - block).sum()


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


def test_native_disabled_by_environment():
    """REPRO_NATIVE=0 must short-circuit loading (fallback guarantee)."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c",
         "from repro import native; print(native.available())"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "REPRO_NATIVE": "0", "PATH": "/usr/bin:/bin"},
        cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_motion_driver_matches_python_search():
    """The C motion-search driver replays every Python algorithm —
    cross, one-at-a-time (both axes), hexagon (all orientations) —
    with identical vectors, costs and evaluation counts, and reports
    the true SAD of the winning vector."""
    from repro.motion.base import SearchContext
    from repro.motion.cross import CrossSearch
    from repro.motion.hexagon import HexagonOrientation, HexagonSearch
    from repro.motion.one_at_a_time import OneAtATimeSearch

    algos = [
        CrossSearch(),
        OneAtATimeSearch("x"),
        OneAtATimeSearch("y"),
        HexagonSearch(HexagonOrientation.HORIZONTAL),
        HexagonSearch(HexagonOrientation.VERTICAL),
        HexagonSearch(HexagonOrientation.ROTATING),
    ]
    rng = np.random.default_rng(11)
    trials = 0
    for trial in range(120):
        h = int(rng.integers(32, 128))
        w = int(rng.integers(32, 128))
        ref = rng.integers(0, 256, (h, w), dtype=np.uint8)
        cur = np.clip(
            ref.astype(np.int16) + rng.integers(-8, 9, (h, w)), 0, 255
        ).astype(np.uint8)
        bs = int(rng.choice([8, 16]))
        if h < bs or w < bs:
            continue
        bx = int(rng.integers(0, w - bs + 1))
        by = int(rng.integers(0, h - bs + 1))
        block = cur[by:by + bs, bx:bx + bs]
        window = int(rng.choice([4, 8, 16, 32, 64]))
        lam = float(rng.choice([0.0, 1.0, 4.0]))
        seeds = [(0, 0)] + [
            (int(rng.integers(-window, window + 1)),
             int(rng.integers(-window, window + 1)))
            for _ in range(int(rng.integers(0, 2)))
        ]
        algo = algos[trial % len(algos)]
        spec = algo.native_spec()

        ctx = SearchContext(ref, block, bx, by, window, lambda_mv=lam)
        start, _ = ctx.evaluate_many(seeds)
        res = algo.search(ctx, start=start)

        out = native.motion_search(ref, block, bx, by, window, lam,
                                   spec[0], spec[1], seeds)
        assert out is not None
        mv, cost, evals, sad = out
        assert mv == res.mv, (trial, algo.name)
        assert cost == res.cost, (trial, algo.name)
        assert evals == res.sad_evaluations, (trial, algo.name)
        ry, rx = by + mv[1], bx + mv[0]
        want = int(np.abs(
            ref[ry:ry + bs, rx:rx + bs].astype(np.int64)
            - block.astype(np.int64)
        ).sum())
        assert sad == want, (trial, algo.name)
        trials += 1
    assert trials > 100


def test_entropy_writer_matches_bitwriter():
    """The batched C entropy entry point emits the exact bit pattern
    of the Python ``write_block`` loop (bit count and payload)."""
    from repro.codec.bitstream import BitWriter
    from repro.codec.encoder import _ZZ_ORDER8
    from repro.codec.entropy import write_block
    from repro.codec.zigzag import zigzag_scan

    rng = np.random.default_rng(13)
    for _ in range(80):
        n_sub = int(rng.integers(1, 9))
        levels = rng.integers(-40, 41, (n_sub, 8, 8)).astype(np.int32)
        levels[rng.random((n_sub, 8, 8)) < 0.8] = 0
        w = BitWriter()
        zz = zigzag_scan(levels)
        for i in range(n_sub):
            write_block(w, zz[i])
        want_bits = w.bits_written
        want = w.flush()
        got = native.entropy_write(np.ascontiguousarray(levels), _ZZ_ORDER8)
        assert got is not None
        payload, nbits = got
        assert nbits == want_bits
        assert payload[: (nbits + 7) // 8] == want


def test_sad_simd_levels_bit_identical():
    """Every SIMD tier the CPU supports (scalar, AVX2, AVX-512)
    returns identical SADs and identical motion-search outcomes —
    the NumPy oracle checks the scalar tier, transitivity covers
    the rest."""
    detected = native.lib.simd_detect()
    rng = np.random.default_rng(17)
    ref = rng.integers(0, 256, (72, 88), dtype=np.uint8)
    cases = []
    for bs in (8, 16):
        block = rng.integers(0, 256, (bs, bs)).astype(np.int32)
        xs = rng.integers(0, 88 - bs + 1, 64).astype(np.int64)
        ys = rng.integers(0, 72 - bs + 1, 64).astype(np.int64)
        cases.append((block, xs, ys))
    cur = np.clip(
        ref.astype(np.int16) + rng.integers(-6, 7, ref.shape), 0, 255
    ).astype(np.uint8)

    per_level = {}
    try:
        for level in range(detected + 1):
            native.lib.simd_set_level(level)
            assert native.lib.simd_get_level() == level
            sads = [native.sad_batch(ref, b, xs, ys).copy()
                    for b, xs, ys in cases]
            ms = native.motion_search(
                ref, cur[24:40, 32:48], 32, 24, 16, 1.0, 3, 0, [(0, 0)]
            )
            per_level[level] = (sads, ms)
    finally:
        native.lib.simd_set_level(detected)

    # Scalar tier against the NumPy oracle.
    for (block, xs, ys), sads in zip(cases, per_level[0][0]):
        bs = block.shape[0]
        for i in range(len(xs)):
            window = ref[ys[i]:ys[i] + bs, xs[i]:xs[i] + bs].astype(np.int64)
            assert sads[i] == np.abs(window - block).sum()
    # Vector tiers against scalar.
    for level in range(1, detected + 1):
        for a, b in zip(per_level[0][0], per_level[level][0]):
            np.testing.assert_array_equal(a, b)
        assert per_level[level][1] == per_level[0][1]


def test_simd_disabled_by_environment():
    """REPRO_NATIVE_SIMD=0 must pin the dispatch to the scalar tier."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c",
         "from repro import native; "
         "print(native.simd_level, native.lib.simd_get_level())"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "REPRO_NATIVE_SIMD": "0",
             "PATH": "/usr/bin:/bin", "HOME": "/root"},
        cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        check=True,
    )
    assert out.stdout.split() == ["0", "0"]


# ----------------------------------------------------------------------
# Tile driver (encode_tile_u8) vs the per-block loop
# ----------------------------------------------------------------------
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.analysis.motion_probe import MotionClass  # noqa: E402
from repro.codec.bitstream import BitWriter  # noqa: E402
from repro.codec.encoder import TileEncoder  # noqa: E402
from repro.codec.ops import OpCounts  # noqa: E402
from repro.motion.proposed import TileHookSpec, spec_hook  # noqa: E402
from repro.observability import scoped  # noqa: E402
from repro.tiling.tile import Tile  # noqa: E402

FALLBACK = "repro_codec_tile_fallback_total"


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
    """The per-block loop on fresh buffers: the driver's reference."""
    recon = np.zeros_like(cur)
    writer = BitWriter() if emit else None
    infos = [] if want_info else None
    ops = OpCounts()
    hook = policy = None
    if spec is not None and frame_type is FrameType.P:
        policy = spec.policy()
        hook = spec_hook(spec, policy)
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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_tile_cases())
def test_tile_driver_matches_block_loop(case):
    """One native call per tile == the per-block loop: bits, SSD, every
    op counter, reconstruction, emitted bitstream, BlockInfo list and
    what a first-P-frame tile learned — on every SIMD tier."""
    tile, config, spec = case["tile"], case["config"], case["spec"]
    frame_type, emit, want_info = (
        case["frame_type"], case["emit"], case["want_info"])
    ref, cur = _moving_planes(case["seed"], *case["frame"])
    want = _oracle(config, cur, ref, tile, frame_type, spec, emit, want_info)

    detected = native.lib.simd_detect()
    try:
        for level in range(detected + 1):
            native.lib.simd_set_level(level)
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
            bits, ssd, ops, want_recon, stream, want_infos, learned = want
            assert (stats.bits, stats.ssd, stats.ops) == (bits, ssd, ops)
            region = np.s_[tile.y:tile.y_end, tile.x:tile.x_end]
            np.testing.assert_array_equal(recon[region], want_recon[region])
            outside = np.ones(recon.shape, dtype=bool)
            outside[region] = False
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
    finally:
        native.lib.simd_set_level(detected)


def _fallback_case(reason):
    """``(config, cur, references, tile, frame_type, kwargs)`` forcing
    the driver to decline with ``reason``."""
    rng = np.random.default_rng(5)
    cur = rng.integers(0, 256, (64, 80), dtype=np.uint8)
    ref = np.roll(cur, 1, axis=1)
    tile = Tile(16, 16, 48, 32)
    config = EncoderConfig(qp=32, search_window=16)
    frame_type, references, kwargs = FrameType.P, ref, {}
    if reason == "b_frame":
        frame_type, references = FrameType.B, [ref, cur]
    elif reason == "half_pel":
        config = EncoderConfig(qp=32, half_pel=True)
    elif reason == "layout":
        cur = np.asfortranarray(cur)
    elif reason == "partial_block":
        tile = Tile(16, 16, 44, 32)
    elif reason == "motion_hook":
        spec = TileHookSpec(MotionClass.LOW, True, 0, 16, None, (0, 0))
        kwargs["motion_hook"] = spec_hook(spec, spec.policy())
    elif reason == "search":
        config = EncoderConfig(qp=32, search="tz", search_window=16)
    elif reason == "window":
        config = EncoderConfig(qp=32, search_window=128)
    return config, cur, references, tile, frame_type, kwargs


@pytest.mark.parametrize("reason", [
    "b_frame", "half_pel", "layout", "motion_hook", "search", "window",
])
def test_tile_driver_fallback_is_counted(reason, monkeypatch):
    """Everything the driver declines runs the per-block loop, counted
    by reason — and still encodes what the pure-NumPy path encodes."""
    config, cur, references, tile, frame_type, kwargs = _fallback_case(reason)
    recon = np.zeros(cur.shape, dtype=np.uint8)
    with scoped() as (registry, _):
        stats = TileEncoder(config).encode(
            cur, references, recon, tile, frame_type, **kwargs)
        assert registry.value(FALLBACK, reason=reason) == 1
    monkeypatch.setattr(native, "lib", None)
    kwargs = _fallback_case(reason)[-1]  # hooks carry state: a fresh one
    numpy_recon = np.zeros(cur.shape, dtype=np.uint8)
    with scoped() as (registry, _):
        numpy_stats = TileEncoder(config).encode(
            cur, references, numpy_recon, tile, frame_type, **kwargs)
        # No driver, nothing declined: the counter is never created.
        assert FALLBACK not in registry.names()
    np.testing.assert_array_equal(recon, numpy_recon)
    assert (stats.bits, stats.ops) == (numpy_stats.bits, numpy_stats.ops)


def test_tile_driver_declines_unaligned_tile():
    """A tile that is not a whole number of 8x8 transforms never reaches
    the driver (it would silently skip the remainder); the per-block
    loop rejects it as it always has."""
    config, cur, ref, tile, frame_type, _ = _fallback_case("partial_block")
    with scoped() as (registry, _):
        with pytest.raises(ValueError, match="transform size"):
            TileEncoder(config).encode(
                cur, ref, np.zeros_like(cur), tile, frame_type)
        assert registry.value(FALLBACK, reason="partial_block") == 1
