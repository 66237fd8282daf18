"""The block-statistics analysis against the per-pixel definitions.

``FrameAnalysis`` answers texture and motion from block sums and one
batched gather; ``coefficient_of_variation``, ``classify_texture`` and
``MotionProbe.score`` are the paper's Eq. 1-3 written out.  Every
decision the pipeline takes from the former must be the one the latter
would have taken: same grids, same classes, same motion scores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.evaluator import ContentEvaluator, TileContent
from repro.analysis.frame_analysis import (
    FrameAnalysis,
    patch_means_differ,
    tile_rects,
)
from repro.analysis.motion_probe import (
    MotionClass,
    MotionProbe,
    MotionProbeConfig,
)
from repro.analysis.texture import (
    TextureThresholds,
    classify_texture,
    coefficient_of_variation,
)
from repro.tiling.content_aware import ContentAwareRetiler
from repro.tiling.constraints import TilingConstraints
from repro.tiling.tile import Tile, TileGrid
from repro.tiling.uniform import uniform_tiling
from repro.video.generator import ContentClass, generate_video


def per_pixel_content(tile, current, previous, thresholds, config):
    """One tile evaluated from its own pixels by the definitions."""
    region = tile.extract(current)
    cv = coefficient_of_variation(region)
    texture = classify_texture(region, thresholds)
    if previous is None:
        return TileContent(tile, texture, MotionClass.LOW, cv, 0.0)
    score = MotionProbe(config).score(region, tile.extract(previous))
    motion = MotionClass.HIGH if score >= config.threshold else MotionClass.LOW
    return TileContent(tile, texture, motion, cv, score)


class PerPixelEvaluator(ContentEvaluator):
    """The evaluator the pipeline used to have: the oracle."""

    def evaluate_rects(self, rects, analysis):
        contents = [
            per_pixel_content(Tile(*rect), analysis.current,
                              analysis.previous, self.texture_thresholds,
                              self.motion_config)
            for rect in np.asarray(rects).tolist()
        ]
        return ([c.cv for c in contents], [c.texture for c in contents],
                [c.motion_score for c in contents],
                [c.motion for c in contents])


def assert_same_contents(fast, oracle):
    assert len(fast) == len(oracle)
    for a, b in zip(fast, oracle):
        assert (a.tile, a.texture, a.motion, a.motion_score) == (
            b.tile, b.texture, b.motion, b.motion_score)
        assert a.cv == pytest.approx(b.cv, rel=1e-12, abs=0.0)


# ----------------------------------------------------------------------
# Re-tiling: identical grids and contents on generated content
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [(640, 480), (480, 360), (320, 240), (96, 96)])
@pytest.mark.parametrize("content", list(ContentClass))
def test_retiling_matches_per_pixel_definitions(content, size):
    width, height = size
    for seed in range(3):
        video = generate_video(content_class=content, width=width,
                               height=height, num_frames=3, seed=seed)
        planes = [f.luma for f in video.frames]
        for current, previous in ((planes[0], None), (planes[2], planes[1])):
            fast = ContentAwareRetiler().retile(current, previous)
            oracle = ContentAwareRetiler(
                evaluator=PerPixelEvaluator()).retile(current, previous)
            assert fast.grid.tiles == oracle.grid.tiles, (seed, previous is None)
            assert_same_contents(fast.contents, oracle.contents)


def test_unaligned_final_grid_is_analysed_on_its_own_lattice():
    """Constraints whose centre split leaves the retiler's lattice
    (alignment 40 halves to 20 and 10, the lattice is gcd = 8) still
    evaluate every tile exactly."""
    video = generate_video(content_class=ContentClass.BRAIN, width=320,
                           height=240, num_frames=2, seed=4)
    previous, current = (f.luma for f in video.frames)
    cons = TilingConstraints(min_tile_width=8, min_tile_height=8, align=40,
                             max_tiles=40, min_center_tiles=30)
    fast = ContentAwareRetiler(cons).retile(current, previous)
    oracle = ContentAwareRetiler(cons, PerPixelEvaluator()).retile(
        current, previous)
    assert any(v % 8 for t in fast.grid for v in (t.x, t.y, t.width, t.height))
    assert fast.grid.tiles == oracle.grid.tiles
    assert_same_contents(fast.contents, oracle.contents)


def test_margin_growth_extracts_no_pixel_region(monkeypatch):
    """Growing four margins over ~40 candidate strips, partitioning the
    centre and evaluating the grid never slices a tile out of a plane."""
    video = generate_video(content_class=ContentClass.CARDIAC, width=640,
                           height=480, num_frames=2, seed=1)
    previous, current = (f.luma for f in video.frames)
    calls = []
    real = Tile.extract
    monkeypatch.setattr(
        Tile, "extract", lambda self, plane: calls.append(self) or real(self, plane)
    )
    result = ContentAwareRetiler().retile(current, previous)
    assert len(result.grid) > 1 and not calls
    Tile(0, 0, 8, 8).extract(current)
    assert len(calls) == 1  # the counter does count


# ----------------------------------------------------------------------
# Random planes, random block-aligned tiles
# ----------------------------------------------------------------------
@st.composite
def plane_and_tiles(draw):
    block = draw(st.sampled_from([1, 2, 4, 8]))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    height, width = rows * block, cols * block
    kind = draw(st.sampled_from(["random", "black", "constant", "sparse"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def plane():
        if kind == "black":
            return np.zeros((height, width), dtype=np.uint8)
        if kind == "constant":
            return np.full((height, width), rng.integers(1, 256), dtype=np.uint8)
        if kind == "sparse":  # many equal maxima: argmax ties everywhere
            return (rng.integers(0, 4, (height, width)) * 85).astype(np.uint8)
        return rng.integers(0, 256, (height, width), dtype=np.uint8)

    current = plane()
    previous = draw(st.sampled_from(["none", "same", "other"]))
    previous = {"none": None, "same": current.copy(), "other": plane()}[previous]
    tiles = []
    for _ in range(draw(st.integers(1, 5))):
        x = draw(st.integers(0, cols - 1))
        y = draw(st.integers(0, rows - 1))
        w = draw(st.integers(1, cols - x))
        h = draw(st.integers(1, rows - y))
        tiles.append(Tile(x * block, y * block, w * block, h * block))
    return block, current, previous, tiles


@given(plane_and_tiles(),
       st.sampled_from([TextureThresholds(),
                        TextureThresholds(low=0.1, high=0.3, dark_mean=0.0)]),
       st.sampled_from([MotionProbeConfig(), MotionProbeConfig(patch_radius=0),
                        MotionProbeConfig(patch_radius=2, pixel_tolerance=0)]))
@settings(max_examples=300, deadline=None)
def test_random_planes_match_definitions(case, thresholds, config):
    block, current, previous, tiles = case
    evaluator = ContentEvaluator(thresholds, config)
    fast = evaluator.evaluate_tiles(
        tiles, FrameAnalysis(current, previous, block))
    oracle = [per_pixel_content(t, current, previous, thresholds, config)
              for t in tiles]
    assert_same_contents(fast, oracle)
    if previous is None:
        assert all(c.motion is MotionClass.LOW and c.motion_score == 0.0
                   for c in fast)


def test_grid_entry_point_matches_definitions(vga_frame_pair):
    """``evaluate`` picks the coarsest lattice the grid allows and
    propagates the central motion exactly as before."""
    previous, current = vga_frame_pair
    for cols, rows in ((1, 1), (2, 2), (5, 3), (4, 6)):
        grid = uniform_tiling(640, 480, cols, rows)
        fast = ContentEvaluator().evaluate(grid, current, previous)
        oracle = PerPixelEvaluator().evaluate(grid, current, previous)
        assert_same_contents(fast, oracle)


def test_grid_off_a_supplied_lattice_rebuilds_the_analysis():
    rng = np.random.default_rng(5)
    current = rng.integers(0, 256, (48, 48), dtype=np.uint8)
    previous = rng.integers(0, 256, (48, 48), dtype=np.uint8)
    grid = TileGrid.from_grid(48, 48, [20, 28], [12, 36])
    coarse = FrameAnalysis(current, previous, 16)
    fast = ContentEvaluator().evaluate(grid, current, previous, coarse)
    oracle = PerPixelEvaluator().evaluate(grid, current, previous)
    assert_same_contents(fast, oracle)


def test_rejects_planes_it_cannot_sum_exactly():
    plane = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        FrameAnalysis(plane.astype(np.float64), None, 8)
    with pytest.raises(ValueError):
        FrameAnalysis(plane, np.zeros((16, 8), dtype=np.uint8), 8)
    with pytest.raises(ValueError):
        FrameAnalysis(plane, None, 5)
    with pytest.raises(ValueError):
        FrameAnalysis(plane, None, 8).motion_scores(
            tile_rects([Tile(0, 0, 8, 8)]), MotionProbeConfig())


# ----------------------------------------------------------------------
# The patch-mean threshold, exhaustively
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", [4, 6, 9])
def test_patch_mean_threshold_is_the_float_expression(count):
    """For every pair of patch sums a clipped 3x3 patch of uint8 samples
    can produce, the decision is the definition's ``|Sa/n - Sb/n| >
    tol`` in float64 — which the integer form ``|Sa - Sb| > tol*n``
    does not reproduce."""
    tolerance = MotionProbeConfig().pixel_tolerance
    sums = np.arange(255 * count + 1)
    sum_a, sum_b = np.meshgrid(sums, sums, indexing="ij")
    got = patch_means_differ(sum_a, sum_b, np.int64(count), tolerance)
    # The definition, pair by pair in Python floats, wherever rounding
    # could matter (within one grey level of the threshold) ...
    near = np.abs(np.abs(sum_a - sum_b) - tolerance * count) <= count
    for a, b in zip(sum_a[near].tolist(), sum_b[near].tolist()):
        assert got[a, b] == (abs(a / count - b / count) > tolerance), (a, b)
    # ... and by magnitude everywhere else.
    far = ~near
    assert (got[far] == (np.abs(sum_a - sum_b)[far] > tolerance * count)).all()
    if count != 4:  # quotients by 4 are exact; by 6 and 9 they round
        integer_form = np.abs(sum_a - sum_b) > tolerance * count
        assert (got != integer_form).any()


@pytest.mark.parametrize("count", [4, 6, 9])
def test_boundary_patches_through_the_probe(count):
    """Real clipped patches whose sums sit on the threshold: the corner
    of a tile (4 taps), its edge centre when one tile-dimension is 1
    row of taps short (6) and an interior point (9)."""
    config = MotionProbeConfig()
    shape = {4: (16, 16), 6: (2, 16), 9: (16, 16)}[count]
    rng = np.random.default_rng(count)
    for _ in range(200):
        current = rng.integers(0, 256, shape, dtype=np.uint8)
        previous = current.copy()
        # Move one probed patch's sum by exactly tol * n (when it fits).
        y, x = (0, 0) if count == 4 else (shape[0] // 2, shape[1] // 2)
        patch = (slice(max(0, y - 1), y + 2), slice(max(0, x - 1), x + 2))
        assert previous[patch].size == count
        room = 255 - previous[patch].astype(np.int64)
        delta = config.pixel_tolerance * count
        flat = previous[patch].reshape(-1).copy()
        for i in range(flat.size):
            step = min(delta, int(room.reshape(-1)[i]))
            flat[i] += step
            delta -= step
        previous[patch] = flat.reshape(previous[patch].shape)
        tile = Tile(0, 0, shape[1], shape[0])
        fast = FrameAnalysis(current, previous, 2).motion_scores(
            tile_rects([tile]), config)
        assert fast == [MotionProbe(config).score(current, previous)]
