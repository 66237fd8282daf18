"""Content-aware rung pruning (the Green-VCA rule).

Green video complexity analysis (arxiv 2304.12384) selects per-title
encoding ladders from cheap spatial/temporal complexity features: for
*low-complexity* content an upscaled low rung is nearly
indistinguishable from a natively-encoded higher rung, so encoding the
higher rung buys little quality for its energy.  Our content
classifier's feature vector already contains the needed spatial
complexity cues (edge density, coefficient of variation — the same
statistics VCA's spatial energy ``E_Y`` summarizes), so the planner
reuses the one full-resolution analysis pass the ladder session
performs anyway.

The rule: an intermediate rung ``i`` is kept only when its predicted
quality gain over the next lower surviving candidate ``j``,

    gain_db(i) = complexity * 10 * log10(area_i / area_j)

reaches ``LadderConfig.min_gain_db``.  The primary (clinical
deliverable) and the lowest rung (reach floor) always survive.  The
prediction is a monotone proxy, not a rate-distortion model: what
matters for the ladder is the *ordering* it induces — complex content
keeps every rung, flat content collapses to top + bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.classes import FrameFeatures, extract_features
from repro.ladder.config import LadderConfig, LadderRung

__all__ = ["PlannedRung", "LadderPlan", "LadderPlanner", "complexity_score"]


def complexity_score(features: FrameFeatures) -> float:
    """Spatial complexity in ``[0, 1]`` from the classifier features.

    Edge density dominates (fraction of strong gradients — the direct
    analogue of VCA's high-frequency energy); the coefficient of
    variation adds large-structure contrast.  Both are scale-free, so
    the score is comparable across ingest geometries.
    """
    return float(np.clip(1.5 * features.edge_density + 0.5 * features.cv,
                         0.0, 1.0))


@dataclass(frozen=True)
class PlannedRung:
    """One surviving rung with its stable ladder id."""

    rung_id: int
    rung: LadderRung


@dataclass(frozen=True)
class LadderPlan:
    """Outcome of planning one ladder against one ingest stream."""

    #: Surviving rungs, largest first.  ``rung_id`` indexes the
    #: *configured* ladder, so ids stay stable across pruning.
    rungs: Tuple[PlannedRung, ...]
    #: ``(rung_id, predicted_gain_db)`` of every pruned rung.
    pruned: Tuple[Tuple[int, float], ...]
    #: Measured content complexity the decisions were based on
    #: (``None`` when nothing was measured: no pruning to decide and
    #: no features handed in).
    complexity: Optional[float]

    @property
    def rung_ids(self) -> List[int]:
        return [p.rung_id for p in self.rungs]


class LadderPlanner:
    """Plans which rungs of a :class:`LadderConfig` to encode."""

    def __init__(self, config: Optional[LadderConfig] = None):
        self.config = config or LadderConfig()

    def plan(
        self,
        first_luma: np.ndarray,
        features: Optional[FrameFeatures] = None,
    ) -> LadderPlan:
        """Prune the configured ladder for one stream.

        ``first_luma`` is the full-resolution first frame; pass
        ``features`` when the caller already extracted them (the
        ladder session shares one analysis pass between classification
        and planning — computing them twice would defeat the point).
        The feature pass only runs here when there is a pruning
        decision to make.

        Never-upscale is enforced here: a configured rung larger than
        the ingest raises ``ValueError``.
        """
        h, w = first_luma.shape
        cfg = self.config
        for rung in cfg.rungs:
            if rung.width > w or rung.height > h:
                raise ValueError(
                    f"rung {rung.width}x{rung.height} exceeds the "
                    f"{w}x{h} ingest: ladders never upscale"
                )
        prunes = cfg.prune and len(cfg.rungs) > 2
        if features is None and prunes:
            features = extract_features(first_luma)
        c = complexity_score(features) if features is not None else None
        if not prunes:
            kept = [PlannedRung(i, r) for i, r in enumerate(cfg.rungs)]
            return LadderPlan(rungs=tuple(kept), pruned=(), complexity=c)
        # Walk bottom-up: each intermediate rung must beat the next
        # lower *survivor* by min_gain_db.  Bottom and top always stay.
        n = len(cfg.rungs)
        keep = [n - 1]
        pruned: List[Tuple[int, float]] = []
        for i in range(n - 2, 0, -1):
            below = cfg.rungs[keep[-1]]
            gain = c * 10.0 * math.log10(cfg.rungs[i].area / below.area)
            if gain >= cfg.min_gain_db:
                keep.append(i)
            else:
                pruned.append((i, gain))
        keep.append(0)
        keep.sort()
        return LadderPlan(
            rungs=tuple(PlannedRung(i, cfg.rungs[i]) for i in keep),
            pruned=tuple(sorted(pruned)),
            complexity=c,
        )
