"""Shared-analysis rendition-ladder session.

One ingest stream in, one :class:`~repro.transcode.pipeline.FrameOutput`
stream per surviving rung out.  The multi-resolution encoding thesis
(arxiv 2301.12191) motivates the sharing: work that depends only on the
*content* — not the output geometry — is computed once at full
resolution and reused by every rung:

* **feature extraction** runs at most once, on the first
  full-resolution frame (not at all when the class is pinned and
  nothing is pruned: nothing would consume it);
* **classification** consumes those features
  (:meth:`ContentClassifier.classify_features`) and the resolved class
  is pinned into every rung's ``PipelineConfig.content_class``, so no
  rung session ever classifies on its own;
* **rung planning** (Green-VCA pruning) consumes the same features;
* **LUT observations** from every rung flow into one shared
  :class:`WorkloadEstimator`, keyed per resolution via
  ``WorkloadKey.resolution``.

Each surviving rung then runs an ordinary
:class:`ProposedStreamSession` over the box-downscaled frames.  Because
a rung session with a pinned content class is exactly what an
independent single-rung run with the same pinned class would be, the
ladder's per-rung output is **bit-identical** to N independent
sessions — the property `tests/test_ladder.py` and the smoke drill
assert, and what makes the shared-analysis savings free.

A ladder of **one** rung at ingest geometry is the plain session: same
bits, same reconstruction, same drops as
``StreamTranscoder.open_session()`` fed the same frames.  The network
server relies on that — every session it serves is a
:class:`LadderSession` over the admitted rungs — and on the
GOP-boundary surface below (:attr:`~LadderSession.pending_frames`,
:meth:`~LadderSession.only_buffers`,
:meth:`~LadderSession.export_state` /
:meth:`~LadderSession.import_state`,
:meth:`~LadderSession.bump_degradation`), which is the per-rung
sessions' own surface lifted over the rung list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.classes import FrameFeatures, extract_features
from repro.ladder.config import LadderConfig
from repro.ladder.planner import LadderPlan, LadderPlanner, PlannedRung
from repro.observability import get_registry
from repro.resilience.faults import FaultInjector
from repro.transcode.pipeline import (
    FrameOutput,
    PipelineConfig,
    ProposedStreamSession,
    StreamTranscoder,
    _shared_classifier,
)
from repro.video.frame import Frame
from repro.video.generator import ContentClass
from repro.video.scale import downscale_frame
from repro.workload.estimator import WorkloadEstimator

__all__ = ["LadderSession", "RungSession"]


class RungSession:
    """One rung's pipeline session plus its ladder bookkeeping."""

    def __init__(self, planned: PlannedRung, transcoder: StreamTranscoder):
        self.rung_id = planned.rung_id
        self.rung = planned.rung
        self.transcoder = transcoder
        self.session = transcoder.open_session()

    def close(self) -> None:
        self.transcoder.close()


class LadderSession:
    """Encodes one ingest stream into a pruned rendition ladder.

    Construction is cheap; the start (classification and planning when
    something consumes them, per-rung session creation) happens on the
    first :meth:`push`, because planning needs the first frame.

    ``base_config`` describes the *primary* rung: its gop/fps/QP/etc.
    are inherited by every rung, only ``content_class`` (pinned to the
    shared classification) and ``rung_resolution`` (the LUT key tag;
    ``None`` on the primary so full-resolution statistics keep pooling
    with pre-ladder sessions) differ per rung.  ``fault_injector``
    perturbs every rung's measured tile times (one seeded stream
    shared by the rungs, in encode order).
    """

    def __init__(
        self,
        base_config: Optional[PipelineConfig] = None,
        ladder: Optional[LadderConfig] = None,
        estimator: Optional[WorkloadEstimator] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.base_config = base_config or PipelineConfig()
        self.ladder = ladder or LadderConfig()
        #: Shared across rungs: every rung's tile observations land in
        #: one LUT, under per-resolution keys.
        self.estimator = estimator or WorkloadEstimator()
        self.fault_injector = fault_injector
        self.planner = LadderPlanner(self.ladder)
        self.plan: Optional[LadderPlan] = None
        self.features: Optional[FrameFeatures] = None
        self.rung_sessions: List[RungSession] = []
        #: Degradation bumps asked for before any rung session exists.
        self._early_bumps: List[Tuple[int, str]] = []
        self._finished = False

    # -- lifecycle -----------------------------------------------------
    @property
    def started(self) -> bool:
        return self.plan is not None

    def _start(self, first: Frame) -> None:
        """The one shared analysis pass (first valid frame only) — run
        only when something consumes it: with the class pinned the
        features feed nothing but a pruning decision, which the planner
        extracts for itself when it has one to make."""
        content = self.base_config.content_class
        if content is None:
            self.features = extract_features(first.luma)
            content = _shared_classifier().classify_features(self.features)
        self._open_rungs(
            self.planner.plan(first.luma, features=self.features), content
        )
        if len(self.ladder.rungs) > 1:
            # A one-rung ladder is the plain session; the ladder
            # families count sessions that encode several renditions.
            registry = get_registry()
            registry.inc(
                "repro_ladder_sessions_total",
                help="Rendition-ladder sessions started",
            )
            registry.inc(
                "repro_ladder_rungs_pruned_total", len(self.plan.pruned),
                help="Ladder rungs pruned by the Green-VCA rule",
            )

    def _open_rungs(self, plan: LadderPlan,
                    content: Optional[ContentClass]) -> None:
        self.plan = plan
        primary_id = plan.rungs[0].rung_id
        for planned in plan.rungs:
            cfg = replace(
                self.base_config,
                content_class=content,
                rung_resolution=(
                    None if planned.rung_id == primary_id
                    else planned.rung.height
                ),
            )
            rs = RungSession(planned, StreamTranscoder(
                cfg, estimator=self.estimator,
                fault_injector=self.fault_injector,
            ))
            for bump in self._early_bumps:
                rs.session.bump_degradation(*bump)
            self.rung_sessions.append(rs)

    def close(self) -> None:
        for rs in self.rung_sessions:
            rs.close()

    def __enter__(self) -> "LadderSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- GOP-boundary surface (what the network server drives) ---------
    @property
    def pending_frames(self) -> int:
        """Frames buffered since the last GOP boundary (every rung
        buffers the same frames, so the primary speaks for all)."""
        if not self.rung_sessions:
            return 0
        return self.rung_sessions[0].session.pending_frames

    def only_buffers(self, frame: Frame) -> bool:
        """Whether ``push(frame)`` would do no real work: the rungs are
        open, the frame lands mid-GOP (each rung just validates and
        buffers it) and no rung needs scaling (a same-size "downscale"
        is at most one plane copy).  The serving layer runs such pushes
        inline on its event loop and keeps the encode pool for the
        rest."""
        return (
            self.started
            and self.pending_frames + 1 < self.base_config.gop.size
            and all((rs.rung.height, rs.rung.width) == frame.luma.shape
                    for rs in self.rung_sessions)
        )

    def export_state(self) -> Dict[int, Dict[str, object]]:
        """Every rung's cross-GOP snapshot, keyed by rung id (see
        :meth:`ProposedStreamSession.export_state`; same GOP-boundary
        precondition — the rungs flush together)."""
        return {rs.rung_id: rs.session.export_state()
                for rs in self.rung_sessions}

    def import_state(self, states: Dict[int, Dict[str, object]]) -> None:
        """Restore :meth:`export_state` snapshots into a *fresh* ladder
        session: exactly the snapshotted rungs are opened (so a pruned
        ladder stays pruned, though its plan no longer says why), each
        pinned to the class the original session resolved."""
        if self.started:
            raise ValueError("import_state requires a fresh session")
        content = next(iter(states.values())).get("content_class")
        self._open_rungs(
            LadderPlan(
                rungs=tuple(PlannedRung(i, self.ladder.rungs[i])
                            for i in sorted(states)),
                pruned=(), complexity=None,
            ),
            ContentClass(content) if content
            else self.base_config.content_class,
        )
        for rs in self.rung_sessions:
            rs.session.import_state(states[rs.rung_id])

    def bump_degradation(self, frame_index: int = -1,
                         kind: str = "watchdog"):
        """Force one step of degradation-ladder escalation on every
        rung (serving watchdog hook).  Returns the primary's new
        :class:`DegradationLevel` — ``None`` without a resilience
        config, or before the first push, when the bump is held for
        the rung sessions to come."""
        if not self.rung_sessions:
            self._early_bumps.append((frame_index, kind))
            return None
        levels = [rs.session.bump_degradation(frame_index, kind)
                  for rs in self.rung_sessions]
        return levels[0]

    # -- ingest --------------------------------------------------------
    def push(self, frame: Frame) -> List[FrameOutput]:
        """Push one full-resolution ingest frame into every rung.

        Returns the rung-tagged outputs of every GOP that completed,
        primary rung first (``FrameOutput.rung`` names the rung).  The
        frame is box-downscaled once per rung; a rung at ingest
        resolution receives a copy of a writable frame, so it never
        aliases a reused ingest buffer, and a read-only frame itself.
        """
        if self._finished:
            raise ValueError("ladder session already finished")
        if not self.started:
            self._start(frame)
        outputs: List[FrameOutput] = []
        for rs in self.rung_sessions:
            scaled = downscale_frame(frame, rs.rung.width, rs.rung.height)
            for out in rs.session.push(scaled):
                out.rung = rs.rung_id
                outputs.append(out)
        return outputs

    def finish(self) -> List[FrameOutput]:
        """Flush every rung's partial tail GOP and close the ladder."""
        if self._finished:
            return []
        self._finished = True
        outputs: List[FrameOutput] = []
        for rs in self.rung_sessions:
            for out in rs.session.finish():
                out.rung = rs.rung_id
                outputs.append(out)
        return outputs
