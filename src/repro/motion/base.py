"""Shared infrastructure for block-matching motion search.

A :class:`SearchContext` binds one current block to a reference plane
and exposes :meth:`SearchContext.evaluate`, which returns the matching
cost of a candidate motion vector.  The context

* clamps candidates to the frame and to the configured search window,
* caches costs so revisited candidates are free (as in real encoders,
  which skip already-tested points), and
* counts SAD evaluations — the dominant encoding cost — for the
  platform cost model.

Cost is SAD plus a small motion-vector rate penalty
``lambda_mv * (|dx| + |dy|)``, a standard simplification of the
rate-distortion cost used by HM/Kvazaar integer search.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.motion.kernel import sad_batch, window_view

MotionVector = Tuple[int, int]

#: Cost returned for candidates outside the frame or window.
INFEASIBLE = float("inf")

#: Per-dtype cache of ``promote_types(dtype, int32)`` (hot-path helper;
#: a fresh context is built for every block of every frame).
_DIFF_DTYPES: Dict[np.dtype, np.dtype] = {}


def _diff_dtype(dtype: np.dtype) -> np.dtype:
    cached = _DIFF_DTYPES.get(dtype)
    if cached is None:
        cached = _DIFF_DTYPES[dtype] = np.promote_types(dtype, np.int32)
    return cached


@dataclass
class MotionSearchResult:
    """Outcome of one block search."""

    mv: MotionVector
    cost: float
    sad_evaluations: int
    pixel_ops: int

    @property
    def dx(self) -> int:
        return self.mv[0]

    @property
    def dy(self) -> int:
        return self.mv[1]


class SearchContext:
    """Evaluation context for one block against one reference plane.

    Parameters
    ----------
    reference:
        Reconstructed reference luma plane (``int`` or ``uint8``).
    block:
        Current block samples, shape ``(bh, bw)``.
    block_x, block_y:
        Top-left position of the block in the current frame.
    window:
        Maximum displacement magnitude per axis (search range +-window).
    lambda_mv:
        Motion-vector rate penalty weight.
    """

    def __init__(
        self,
        reference: np.ndarray,
        block: np.ndarray,
        block_x: int,
        block_y: int,
        window: int,
        lambda_mv: float = 1.0,
    ):
        if window < 0:
            raise ValueError("window must be non-negative")
        self.reference = reference
        self.block = block.astype(np.int32, copy=False)
        self.block_x = block_x
        self.block_y = block_y
        self.window = window
        self.lambda_mv = lambda_mv
        #: Cost cache contract: key is the exact integer candidate
        #: ``(dx, dy)``; value is the **full rate-penalized cost**
        #: ``SAD + lambda_mv * (|dx| + |dy|)`` as a Python float, or
        #: :data:`INFEASIBLE` for candidates outside the window/frame.
        #: The scalar (:meth:`evaluate`) and batched
        #: (:meth:`evaluate_batch`) paths read and write the same
        #: cache with the same key/value convention, so revisited
        #: candidates are free regardless of which path saw them first.
        self._cache: Dict[MotionVector, float] = {}
        self.sad_evaluations = 0
        self.pixel_ops = 0
        self._windows: Optional[np.ndarray] = None  # lazy sliding view
        #: Difference dtype: wide enough for reference - block without
        #: overflow (int32 for 8-bit planes, as the scalar path always
        #: used; wider planes promote).
        self._diff_dtype = _diff_dtype(reference.dtype)

    @property
    def block_height(self) -> int:
        return self.block.shape[0]

    @property
    def block_width(self) -> int:
        return self.block.shape[1]

    def is_feasible(self, mv: MotionVector) -> bool:
        """Candidate lies within the window and the reference frame."""
        dx, dy = mv
        if abs(dx) > self.window or abs(dy) > self.window:
            return False
        rx = self.block_x + dx
        ry = self.block_y + dy
        ref_h, ref_w = self.reference.shape
        return (
            0 <= rx
            and 0 <= ry
            and rx + self.block_width <= ref_w
            and ry + self.block_height <= ref_h
        )

    def evaluate(self, mv: MotionVector) -> float:
        """Cost of a candidate MV (cached; infeasible candidates are inf).

        The cached value is the rate-penalized cost (see the cache
        contract in ``__init__``), shared with the batched path.
        """
        mv = (int(mv[0]), int(mv[1]))
        cached = self._cache.get(mv)
        if cached is not None:
            return cached
        if not self.is_feasible(mv):
            self._cache[mv] = INFEASIBLE
            return INFEASIBLE
        dx, dy = mv
        rx = self.block_x + dx
        ry = self.block_y + dy
        if self._windows is None:
            self._windows = window_view(
                self.reference, self.block_height, self.block_width
            )
        diff = np.subtract(
            self._windows[ry, rx], self.block, dtype=self._diff_dtype
        )
        np.abs(diff, out=diff)
        sad = int(diff.sum())
        cost = sad + self.lambda_mv * (abs(dx) + abs(dy))
        self._cache[mv] = cost
        self.sad_evaluations += 1
        self.pixel_ops += self.block_width * self.block_height
        return cost

    def evaluate_batch(self, mvs: Iterable[MotionVector]) -> List[float]:
        """Costs of a candidate batch, in input order (vectorized).

        All candidates not already cached are computed in one strided
        NumPy pass (:func:`repro.motion.kernel.sad_batch`): duplicate
        candidates within the batch are deduplicated, infeasible ones
        are cached as :data:`INFEASIBLE`, and ``sad_evaluations`` /
        ``pixel_ops`` advance exactly as if each new feasible candidate
        had been probed through :meth:`evaluate` — same costs, same
        cache contents, same op counts, just one kernel dispatch.
        """
        mvs_list = [(int(mv[0]), int(mv[1])) for mv in mvs]
        return self._batch_costs(mvs_list)

    def _batch_costs(self, mvs_list: List[MotionVector]) -> List[float]:
        """:meth:`evaluate_batch` body for already-normalized tuples.

        One Python pass deduplicates, filters the cache and splits by
        feasibility; all remaining candidates are answered by a single
        :func:`~repro.motion.kernel.sad_batch` dispatch.
        """
        cache = self._cache
        bh, bw = self.block.shape
        ref_h, ref_w = self.reference.shape
        w = self.window
        bx, by = self.block_x, self.block_y
        max_rx = ref_w - bw
        max_ry = ref_h - bh
        xs: List[int] = []
        ys: List[int] = []
        feasible: List[MotionVector] = []
        pending: set = set()
        for mv in mvs_list:
            if mv in cache or mv in pending:
                continue
            dx, dy = mv
            rx = bx + dx
            ry = by + dy
            if -w <= dx <= w and -w <= dy <= w and 0 <= rx <= max_rx and 0 <= ry <= max_ry:
                pending.add(mv)
                xs.append(rx)
                ys.append(ry)
                feasible.append(mv)
            else:
                cache[mv] = INFEASIBLE
        if feasible:
            if self._windows is None:
                self._windows = window_view(self.reference, bh, bw)
            sads = sad_batch(
                self._windows,
                self.block,
                np.asarray(xs, dtype=np.intp),
                np.asarray(ys, dtype=np.intp),
                self._diff_dtype,
            )
            lam = self.lambda_mv
            for mv, sad in zip(feasible, sads.tolist()):
                # Same arithmetic as the scalar path: Python int
                # SAD plus the float rate penalty.
                cache[mv] = sad + lam * (abs(mv[0]) + abs(mv[1]))
            self.sad_evaluations += len(feasible)
            self.pixel_ops += len(feasible) * bw * bh
        return [cache[mv] for mv in mvs_list]

    def evaluate_many(self, mvs: Iterable[MotionVector]) -> Tuple[MotionVector, float]:
        """Evaluate candidates (vectorized); return the best (mv, cost).

        Ties are broken toward the earlier candidate, so pattern
        ordering is deterministic — identical to probing each candidate
        through :meth:`evaluate` in order.
        """
        mvs_list = [(int(mv[0]), int(mv[1])) for mv in mvs]
        costs = self._batch_costs(mvs_list)
        best_mv: Optional[MotionVector] = None
        best_cost = INFEASIBLE
        for mv, cost in zip(mvs_list, costs):
            if cost < best_cost:
                best_cost = cost
                best_mv = mv
        if best_mv is None:
            # Every candidate infeasible: fall back to zero MV, which is
            # always feasible for in-frame blocks.
            best_mv = (0, 0)
            best_cost = self.evaluate(best_mv)
        return best_mv, best_cost

    def result(self, mv: MotionVector, cost: float) -> MotionSearchResult:
        return MotionSearchResult(
            mv=mv,
            cost=cost,
            sad_evaluations=self.sad_evaluations,
            pixel_ops=self.pixel_ops,
        )


class MotionSearch(abc.ABC):
    """Base class for search algorithms.

    Subclasses implement :meth:`search`, receiving the context and a
    start vector (the motion predictor, e.g. the neighbouring block's
    MV or the direction inherited from the first frame of the GOP).
    """

    name: str = "base"

    @abc.abstractmethod
    def search(
        self, ctx: SearchContext, start: MotionVector = (0, 0)
    ) -> MotionSearchResult:
        """Run the search and return the best motion vector found."""

    def native_spec(self) -> Optional[Tuple[int, int]]:
        """``(alg_code, param)`` of a :func:`repro.native.encode_frame`
        table row.

        Algorithms the native tile driver replicates
        evaluation-for-evaluation return their dispatch code; others
        return ``None`` and their tiles run the per-block NumPy loop.
        """
        return None

    def _start(self, ctx: SearchContext, start: MotionVector) -> Tuple[MotionVector, float]:
        """Evaluate the start predictor and the zero vector."""
        return ctx.evaluate_many([(0, 0), (int(start[0]), int(start[1]))])
