"""Tests for the content-aware re-tiling strategy (paper §III-B)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.texture import TextureClass
from repro.tiling.constraints import TilingConstraints
from repro.tiling.content_aware import ContentAwareRetiler
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


def medical_frame_pair(width=320, height=240, content=ContentClass.BRAIN,
                       motion=MotionPreset.PAN_RIGHT, seed=5):
    cfg = GeneratorConfig(width=width, height=height, num_frames=2,
                          content_class=content, motion=motion, seed=seed)
    v = BioMedicalVideoGenerator(cfg).generate()
    return v[0].luma, v[1].luma


class TestPartitionInvariants:
    def test_result_is_exact_partition(self):
        prev, cur = medical_frame_pair()
        result = ContentAwareRetiler().retile(cur, prev)
        # TileGrid's constructor enforces the invariant; double-check
        # through the coverage map.
        cover = result.grid.coverage_map()
        assert cover.min() >= 0

    def test_respects_max_tiles(self):
        cons = TilingConstraints(max_tiles=10)
        prev, cur = medical_frame_pair()
        result = ContentAwareRetiler(cons).retile(cur, prev)
        assert len(result.grid) <= 10

    def test_contents_match_tiles(self):
        prev, cur = medical_frame_pair()
        result = ContentAwareRetiler().retile(cur, prev)
        assert len(result.contents) == len(result.grid)
        for content, tile in zip(result.contents, result.grid):
            assert content.tile == tile

    @given(st.integers(0, 6), st.sampled_from(list(ContentClass)))
    @settings(max_examples=12, deadline=None)
    def test_partition_property_across_content(self, seed, content):
        prev, cur = medical_frame_pair(content=content, seed=seed)
        result = ContentAwareRetiler().retile(cur, prev)
        total = sum(t.area for t in result.grid)
        assert total == cur.size
        assert 1 <= len(result.grid) <= TilingConstraints().max_tiles


class TestMedicalStructure:
    def test_borders_become_low_texture_tiles(self):
        """Centred anatomy: the frame's dark borders form LOW tiles."""
        prev, cur = medical_frame_pair(width=640, height=480, seed=3)
        result = ContentAwareRetiler().retile(cur, prev)
        low = [c for c in result.contents if c.texture is TextureClass.LOW]
        assert len(low) >= 4

    def test_center_partitioned_into_minimum_tiles(self):
        """The busy centre gets at least min_center_tiles tiles."""
        prev, cur = medical_frame_pair(width=640, height=480,
                                       content=ContentClass.BONE, seed=3)
        cons = TilingConstraints()
        result = ContentAwareRetiler(cons).retile(cur, prev)
        cx, cy = 320, 240
        center_tiles = [
            t for t in result.grid
            if t.x < cx < t.x_end or t.y < cy < t.y_end
            or (t.x >= 160 and t.x_end <= 480)
        ]
        assert len(result.grid) >= cons.min_center_tiles

    def test_tile_count_exceeds_uniform_cost_diversity(self):
        """Content-aware tiles have diverse areas (vs uniform tiling) —
        the diversity the paper's Fig. 3 shows."""
        prev, cur = medical_frame_pair(width=640, height=480, seed=3)
        result = ContentAwareRetiler().retile(cur, prev)
        areas = [t.area for t in result.grid]
        assert max(areas) > 2 * min(areas)

    def test_first_frame_without_previous(self):
        _, cur = medical_frame_pair()
        result = ContentAwareRetiler().retile(cur, None)
        assert len(result.grid) >= 1

    def test_tiny_frame_falls_back_to_single_tile(self):
        frame = np.random.default_rng(0).integers(
            0, 255, size=(48, 48)
        ).astype(np.uint8)
        result = ContentAwareRetiler().retile(frame, None)
        assert len(result.grid) == 1

    def test_uniform_bright_frame_keeps_centre_partition(self):
        """No low-content border: margins stay 0, centre still split."""
        rng = np.random.default_rng(1)
        frame = rng.integers(60, 220, size=(320, 320)).astype(np.uint8)
        result = ContentAwareRetiler().retile(frame, None)
        assert sum(t.area for t in result.grid) == frame.size

    def test_alignment_of_tile_origins(self):
        prev, cur = medical_frame_pair(width=640, height=480, seed=3)
        cons = TilingConstraints(align=16)
        result = ContentAwareRetiler(cons).retile(cur, prev)
        for t in result.grid:
            assert t.x % 16 == 0
            assert t.y % 16 == 0


class TestGrowthBehaviour:
    def test_dark_border_grows_margin(self):
        """A frame with a wide dark border and a bright busy centre
        yields margin tiles wider than the minimum tile size."""
        rng = np.random.default_rng(2)
        frame = np.full((320, 320), 12, dtype=np.uint8)
        frame[112:208, 112:208] = rng.integers(
            40, 250, size=(96, 96)
        ).astype(np.uint8)
        cons = TilingConstraints()
        result = ContentAwareRetiler(cons).retile(frame, None)
        # The leftmost tile column must be wider than the minimum.
        left_tiles = [t for t in result.grid if t.x == 0]
        assert max(t.width for t in left_tiles) > cons.min_tile_width

    def test_growth_step_influences_margins(self):
        """A larger growth step reaches the cap in fewer steps but must
        still produce a valid partition."""
        prev, cur = medical_frame_pair(width=640, height=480, seed=3)
        for step in (0.1, 0.25, 0.5):
            cons = TilingConstraints(growth_step=step)
            result = ContentAwareRetiler(cons).retile(cur, prev)
            assert sum(t.area for t in result.grid) == cur.size

    def test_a_finer_growth_step_evaluates_more_candidates(self):
        """A finer step evaluates more candidate strips (the paper's 25%
        balances margin precision against evaluation count)."""
        evaluated = []
        for step in (0.1, 0.25, 0.5):
            retiler = ContentAwareRetiler(TilingConstraints(growth_step=step))
            _, sizes, _ = retiler._margin_candidates(640, 480)
            evaluated.append(len(sizes))
        assert evaluated == sorted(evaluated, reverse=True)
        assert evaluated[0] > evaluated[-1]
