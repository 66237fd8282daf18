"""Tests for the proposed bio-medical search policy (paper §III-C2)."""

import numpy as np

from repro.analysis.motion_probe import MotionClass
from repro.motion.base import SearchContext
from repro.motion.cross import CrossSearch
from repro.motion.hexagon import HexagonOrientation, HexagonSearch
from repro.motion.one_at_a_time import OneAtATimeSearch
from repro.motion.proposed import (
    BioMedicalSearchPolicy,
    GopMotionState,
    ProposedSearchConfig,
    TileHookSpec,
    TileLearned,
    merge_learned,
)


class TestPolicySelection:
    def setup_method(self):
        self.policy = BioMedicalSearchPolicy()

    def test_low_motion_first_frame_uses_cross_16(self):
        alg, window = self.policy.select(MotionClass.LOW, True)
        assert isinstance(alg, CrossSearch)
        assert window == 16

    def test_low_motion_rest_uses_oats_8(self):
        alg, window = self.policy.select(MotionClass.LOW, False)
        assert isinstance(alg, OneAtATimeSearch)
        assert window == 8

    def test_high_motion_first_frame_uses_rotating_hexagon_max_window(self):
        alg, window = self.policy.select(MotionClass.HIGH, True)
        assert isinstance(alg, HexagonSearch)
        assert alg.orientation is HexagonOrientation.ROTATING
        assert window == 64

    def test_high_motion_rest_uses_directional_hexagon_smaller_window(self):
        self.policy.state.learn(0, (5, 1))  # learn horizontal axis
        alg, window = self.policy.select(MotionClass.HIGH, False)
        assert isinstance(alg, HexagonSearch)
        assert alg.orientation is HexagonOrientation.HORIZONTAL
        assert window == 32

    def test_vertical_axis_selects_vertical_hexagon(self):
        self.policy.state.learn(0, (1, 9))
        alg, _ = self.policy.select(MotionClass.HIGH, False)
        assert alg.orientation is HexagonOrientation.VERTICAL

    def test_oats_axis_follows_learned_direction(self):
        self.policy.state.learn(0, (0, 4))
        alg, _ = self.policy.select(MotionClass.LOW, False)
        assert alg.primary_axis == "y"

    def test_custom_windows(self):
        policy = BioMedicalSearchPolicy(
            ProposedSearchConfig(low_first_window=32, high_rest_window=16)
        )
        assert policy.select(MotionClass.LOW, True)[1] == 32
        assert policy.select(MotionClass.HIGH, False)[1] == 16


class TestGopMotionState:
    def test_learn_records_tile_mv(self):
        state = GopMotionState()
        state.learn(3, (4, -2))
        assert state.predictor(3) == (4, -2)
        assert state.predictor(99) == (0, 0)

    def test_dominant_axis_from_first_nonzero(self):
        state = GopMotionState()
        state.learn(0, (0, 0))
        assert state.dominant_axis is None
        state.learn(1, (1, 5))
        assert state.dominant_axis == "y"
        state.learn(2, (9, 0))  # later votes do not flip the axis
        assert state.dominant_axis == "y"

    def test_start_gop_resets_state(self):
        policy = BioMedicalSearchPolicy()
        policy.state.learn(0, (7, 0))
        policy.start_gop()
        assert policy.state.dominant_axis is None
        assert policy.state.predictor(0) == (0, 0)


class TestSearchBlock:
    def _ctx_factory(self, ref, block, x, y):
        def factory(window):
            return SearchContext(ref, block, x, y, window, lambda_mv=0.0)
        return factory

    def test_learns_on_first_frame_and_inherits(self, rng):
        from scipy import ndimage
        base = ndimage.gaussian_filter(rng.standard_normal((96, 96)), 4.0)
        ref = np.clip(128 + 100 * base / np.abs(base).max(), 0, 255).astype(np.uint8)
        true = (6, 0)
        block = ref[40:56, 46:62]  # shifted by (6, 0)
        policy = BioMedicalSearchPolicy()
        policy.start_gop()
        factory = self._ctx_factory(ref, block, 40, 40)
        first = policy.search_block(factory, MotionClass.HIGH, True, tile_id=0)
        assert first.mv == true
        assert policy.state.dominant_axis == "x"
        # Second frame: the policy seeds from the learned MV, so even
        # the tiny 8x8-window OATS finds the same displacement.
        rest = policy.search_block(
            factory, MotionClass.LOW, False, tile_id=0
        )
        assert rest.mv == true

    def test_left_mv_seed_is_used(self):
        """A perfect left-neighbour predictor short-circuits the search."""
        yy, xx = np.mgrid[0:96, 0:96]
        ref = np.clip(128 + 60 * np.sin(2 * np.pi * xx / 80.0)
                      + 60 * np.sin(2 * np.pi * yy / 80.0), 0, 255).astype(np.uint8)
        block = ref[45:61, 47:63]  # displacement (7, 5)
        policy = BioMedicalSearchPolicy()
        policy.start_gop()
        factory = self._ctx_factory(ref, block, 40, 40)
        result = policy.search_block(
            factory, MotionClass.HIGH, False, tile_id=0, left_mv=(7, 5)
        )
        assert result.mv == (7, 5)
        assert result.cost == 0.0


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
