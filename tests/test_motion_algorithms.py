"""Tests for the motion search algorithm library.

Each algorithm is exercised on planted-translation problems where the
true displacement is known, plus cost-ordering and budget properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion import (
    CrossSearch,
    FullSearch,
    HexagonOrientation,
    HexagonSearch,
    OneAtATimeSearch,
    SEARCH_REGISTRY,
    TZSearch,
    get_search,
)
from repro.motion.base import SearchContext


def planted_context(true_dx, true_dy, window=16, seed=0, block=16, sigma=4.0):
    """Reference with textured content; the current block is the
    reference shifted by (true_dx, true_dy): searching must find
    mv = (true_dx, true_dy) s.t. ref[pos + mv] == block.

    ``sigma`` controls spatial correlation: video-like content is
    smooth at the scale of a search step, so pattern searches can walk
    downhill.
    """
    from scipy import ndimage
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((96, 96))
    smooth = ndimage.gaussian_filter(base, sigma)
    smooth = smooth / np.abs(smooth).max()
    ref = np.clip(128 + 100 * smooth, 0, 255).astype(np.uint8)
    x, y = 40, 40
    blk = ref[y + true_dy : y + true_dy + block, x + true_dx : x + true_dx + block]
    return SearchContext(ref, blk, x, y, window, lambda_mv=0.0)


def unimodal_context(true_dx, true_dy, window=16, block=16):
    """Perfectly unimodal matching landscape: long-period sinusoidal
    texture whose period exceeds twice the search range, so the SAD
    surface has a single basin — every convergent search must find the
    exact optimum here."""
    yy, xx = np.mgrid[0:96, 0:96]
    ref = np.clip(
        128
        + 60 * np.sin(2 * np.pi * xx / 80.0)
        + 60 * np.sin(2 * np.pi * yy / 80.0),
        0, 255,
    ).astype(np.uint8)
    x, y = 40, 40
    blk = ref[y + true_dy : y + true_dy + block, x + true_dx : x + true_dx + block]
    return SearchContext(ref, blk, x, y, window, lambda_mv=0.0)


ALL_ALGORITHMS = [
    FullSearch(),
    TZSearch(),
    CrossSearch(),
    OneAtATimeSearch(),
    HexagonSearch(HexagonOrientation.HORIZONTAL),
    HexagonSearch(HexagonOrientation.VERTICAL),
    HexagonSearch(HexagonOrientation.ROTATING),
]


class TestFindsPlantedMotion:
    @pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: type(a).__name__)
    def test_zero_motion(self, alg):
        ctx = planted_context(0, 0)
        result = alg.search(ctx)
        assert result.mv == (0, 0)
        assert result.cost == 0.0

    @pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: type(a).__name__)
    def test_small_motion(self, alg):
        ctx = planted_context(2, -1)
        result = alg.search(ctx)
        assert result.cost == 0.0
        assert result.mv == (2, -1)

    @pytest.mark.parametrize(
        "alg",
        [a for a in ALL_ALGORITHMS if not isinstance(a, OneAtATimeSearch)],
        ids=lambda a: type(a).__name__,
    )
    def test_moderate_motion_unimodal(self, alg):
        """On a single-basin landscape every 2-D search lands within one
        sample of the optimum (the final small-cross refinement cannot
        reach a diagonal neighbour, a known pattern-search property);
        one-at-a-time is axis-sequential and covered separately."""
        ctx = unimodal_context(7, 5)
        zero_cost = ctx.evaluate((0, 0))
        result = alg.search(ctx)
        assert abs(result.mv[0] - 7) <= 1
        assert abs(result.mv[1] - 5) <= 1
        assert result.cost < 0.1 * zero_cost

    @pytest.mark.parametrize("alg,name", [
        (FullSearch(), "full"), (TZSearch(), "tz"),
        (CrossSearch(), "cross"),
    ])
    def test_moderate_motion_textured(self, alg, name):
        ctx = planted_context(7, 5)
        result = alg.search(ctx)
        assert result.cost == 0.0, f"{name} missed the optimum"
        assert result.mv == (7, 5)

    @pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: type(a).__name__)
    def test_good_predictor_rescues_large_motion(self, alg):
        """With the true MV offered as the start predictor, every
        algorithm must lock onto it (the proposed policy's direction
        inheritance relies on this)."""
        ctx = planted_context(11, -9, window=16)
        result = alg.search(ctx, start=(11, -9))
        assert result.mv == (11, -9)
        assert result.cost == 0.0


class TestCostBudgets:
    def test_full_search_evaluates_whole_window(self):
        ctx = planted_context(0, 0, window=4)
        FullSearch().search(ctx)
        assert ctx.sad_evaluations == 9 * 9

    def test_pattern_searches_are_cheaper_than_full(self):
        for alg in (CrossSearch(), HexagonSearch(), OneAtATimeSearch()):
            ctx_full = planted_context(3, 2, window=8)
            FullSearch().search(ctx_full)
            ctx_alg = planted_context(3, 2, window=8)
            alg.search(ctx_alg)
            assert ctx_alg.sad_evaluations < ctx_full.sad_evaluations

    def test_full_search_is_cost_lower_bound(self):
        """No algorithm can beat exhaustive search's matching cost."""
        for seed in range(5):
            ctx_full = planted_context(5, 3, window=8, seed=seed)
            best = FullSearch().search(ctx_full)
            for alg in ALL_ALGORITHMS[1:]:
                ctx = planted_context(5, 3, window=8, seed=seed)
                result = alg.search(ctx)
                assert result.cost >= best.cost - 1e-9

    def test_tz_cheap_with_good_predictor(self):
        """TZ with a perfect predictor terminates early (the behaviour
        behind Table I's low speedup at coarse tilings)."""
        ctx_cold = planted_context(9, 0, window=32)
        TZSearch().search(ctx_cold, start=(0, 0))
        ctx_warm = planted_context(9, 0, window=32)
        TZSearch().search(ctx_warm, start=(9, 0))
        assert ctx_warm.sad_evaluations < ctx_cold.sad_evaluations

    def test_result_reports_context_totals(self):
        ctx = planted_context(1, 1)
        result = HexagonSearch().search(ctx)
        assert result.sad_evaluations == ctx.sad_evaluations
        assert result.pixel_ops == ctx.pixel_ops


class TestDirectionality:
    def test_matched_hexagon_orientation_finds_better_match(self):
        """The paper picks the hexagon orientation by the learned
        motion axis because the matched orientation tracks that axis
        better (§III-C2)."""
        ctx_h = unimodal_context(10, 0)
        cost_h = HexagonSearch(HexagonOrientation.HORIZONTAL).search(ctx_h).cost
        ctx_v = unimodal_context(10, 0)
        cost_v = HexagonSearch(HexagonOrientation.VERTICAL).search(ctx_v).cost
        assert cost_h <= cost_v
        ctx_h = unimodal_context(0, 10)
        cost_h = HexagonSearch(HexagonOrientation.HORIZONTAL).search(ctx_h).cost
        ctx_v = unimodal_context(0, 10)
        cost_v = HexagonSearch(HexagonOrientation.VERTICAL).search(ctx_v).cost
        assert cost_v <= cost_h

    def test_one_at_a_time_axis_order(self):
        """Primary-axis walking finds pure-axis motion exactly."""
        ctx = planted_context(6, 0, window=8)
        result = OneAtATimeSearch(primary_axis="x").search(ctx)
        assert result.mv == (6, 0)
        ctx = planted_context(0, 6, window=8)
        result = OneAtATimeSearch(primary_axis="y").search(ctx)
        assert result.mv == (0, 6)

    def test_one_at_a_time_invalid_axis(self):
        with pytest.raises(ValueError):
            OneAtATimeSearch(primary_axis="z")


class TestRegistry:
    def test_all_registered_names_instantiate(self):
        for name in SEARCH_REGISTRY:
            alg = get_search(name)
            ctx = planted_context(1, 0, window=4)
            result = alg.search(ctx)
            assert ctx.is_feasible(result.mv)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown search"):
            get_search("quantum")

    def test_tz_validation(self):
        with pytest.raises(ValueError):
            TZSearch(raster_step=0)


class TestWindowRespect:
    @pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: type(a).__name__)
    def test_result_within_window(self, alg):
        ctx = planted_context(3, 3, window=2)  # optimum outside window
        result = alg.search(ctx)
        assert abs(result.mv[0]) <= 2 and abs(result.mv[1]) <= 2

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_hexagon_always_feasible_property(self, dx, dy, window):
        ctx = planted_context(dx % 3, dy % 3, window=window)
        result = HexagonSearch(HexagonOrientation.ROTATING).search(ctx)
        assert ctx.is_feasible(result.mv)
