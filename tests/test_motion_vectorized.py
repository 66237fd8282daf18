"""Property tests: the batched candidate path of :class:`SearchContext`
is observationally identical to scalar probing.

These are the equivalence guarantees the search algorithms rely on
when they submit per-step candidate batches through
``evaluate_many``/``evaluate_batch`` instead of scalar ``evaluate``
calls.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.motion.base import INFEASIBLE, SearchContext


def _make_plane(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    return rng.integers(0, 256, size=(h, w), dtype=np.uint8)


def _context(seed: int, window: int, bh: int = 8, bw: int = 8):
    rng = np.random.default_rng(seed)
    ref = _make_plane(rng, 48, 64)
    cur = _make_plane(rng, 48, 64)
    by = int(rng.integers(0, 48 - bh + 1))
    bx = int(rng.integers(0, 64 - bw + 1))
    block = cur[by : by + bh, bx : bx + bw]
    return SearchContext(ref, block, bx, by, window, lambda_mv=4.0)


candidate_lists = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.integers(0, 16), mvs=candidate_lists)
def test_evaluate_many_matches_scalar_probing(seed, window, mvs):
    """Same costs, same best MV, same op counts, same cache."""
    scalar_ctx = _context(seed, window)
    batch_ctx = _context(seed, window)

    best_mv, best_cost = None, INFEASIBLE
    scalar_costs = []
    for mv in mvs:
        cost = scalar_ctx.evaluate(mv)
        scalar_costs.append(cost)
        if cost < best_cost:
            best_mv, best_cost = (int(mv[0]), int(mv[1])), cost
    if best_mv is None:
        best_mv = (0, 0)
        best_cost = scalar_ctx.evaluate(best_mv)

    got_mv, got_cost = batch_ctx.evaluate_many(mvs)
    batch_costs = batch_ctx.evaluate_batch(mvs)

    assert got_mv == best_mv
    assert got_cost == best_cost
    assert batch_costs == scalar_costs
    assert batch_ctx.sad_evaluations == scalar_ctx.sad_evaluations
    assert batch_ctx.pixel_ops == scalar_ctx.pixel_ops
    assert batch_ctx._cache == scalar_ctx._cache


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.integers(0, 16), mvs=candidate_lists)
def test_batch_deduplicates_but_costs_match(seed, window, mvs):
    """Duplicated candidates cost nothing extra and return cached values."""
    ctx = _context(seed, window)
    first = ctx.evaluate_batch(mvs)
    evals = ctx.sad_evaluations
    second = ctx.evaluate_batch(mvs + mvs)
    assert second == first + first
    assert ctx.sad_evaluations == evals  # everything was cached
