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
sessions — the property `tests/test_ladder.py` asserts, and what
makes the shared-analysis savings free.

Every :meth:`~LadderSession.push` checks its ingest frame once, then
pushes it, scaled, into every rung, and returns that frame's output on
each rung, primary first.  The rungs need no common feed order: each
rung session encodes its frame at its push, and the shared LUT keys
its observations by rung height, so a key sees them in the order an
independent session of that rung would (two rungs of one height share
a key; no encode reads the LUT, so no output depends on that order).

A ladder of one rung at ingest geometry is the plain session: same
bits, same reconstruction, same drops as
``StreamTranscoder.open_session()`` fed the same frames, each at its
own push.  The network server relies on that — every session it serves
is a :class:`LadderSession` over the admitted rungs — and on the
GOP-boundary surface below (:attr:`~LadderSession.pending_frames`,
:meth:`~LadderSession.export_state` /
:meth:`~LadderSession.import_state`), which is the per-rung sessions'
own surface lifted over the rung list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.analysis.classes import FrameFeatures, extract_features
from repro.ladder.config import LadderConfig
from repro.ladder.planner import LadderPlan, LadderPlanner, PlannedRung
from repro.transcode.pipeline import (
    FrameOutput,
    PipelineConfig,
    ProposedStreamSession,
    StreamTranscoder,
    _shared_classifier,
    frame_is_corrupt,
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
    with pre-ladder sessions) differ per rung.
    """

    def __init__(
        self,
        base_config: Optional[PipelineConfig] = None,
        ladder: Optional[LadderConfig] = None,
        estimator: Optional[WorkloadEstimator] = None,
    ):
        self.base_config = base_config or PipelineConfig()
        self.ladder = ladder or LadderConfig()
        #: Shared across rungs: every rung's tile observations land in
        #: one LUT, under per-resolution keys.
        self.estimator = estimator or WorkloadEstimator()
        self.planner = LadderPlanner(self.ladder)
        self.plan: Optional[LadderPlan] = None
        self.features: Optional[FrameFeatures] = None
        self.rung_sessions: List[RungSession] = []
        #: The plane shape the first good frame fixed for the ingest
        #: check.
        self._ingest_shape: Optional[tuple] = None
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
            self.rung_sessions.append(RungSession(planned, StreamTranscoder(
                cfg, estimator=self.estimator)))

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
        """Frames pushed since the last GOP boundary (the rungs close
        their GOPs together, so the primary's count is every rung's)."""
        if not self.rung_sessions:
            return 0
        return self.rung_sessions[0].session.pending_frames

    def export_state(self) -> Dict[int, Dict[str, object]]:
        """Every rung's cross-GOP snapshot, keyed by rung id (see
        :meth:`ProposedStreamSession.export_state`; same GOP-boundary
        precondition — the rungs close their GOPs together)."""
        pending = self.pending_frames
        if pending:
            raise ValueError(
                "export_state requires a GOP boundary "
                f"({pending} frames pending)"
            )
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

    # -- ingest --------------------------------------------------------
    def push(self, frame: Frame) -> List[FrameOutput]:
        """Push one full-resolution ingest frame; returns its output on
        every rung, primary first (``FrameOutput.rung`` names the rung).

        The frame is checked once, on the ingest plane, with the rung
        sessions' own check: a bad frame raises, or is absorbed as a
        ``corrupt`` drop on every rung.  A good one is scaled to each
        rung (a rung at ingest size takes a read-only plane itself and
        a copy of a writable one) and encoded there.
        """
        if self._finished:
            raise ValueError("ladder session already finished")
        if not self.started:
            self._start(frame)
        corrupt = frame_is_corrupt(frame, self._ingest_shape,
                                   self.base_config)
        if not corrupt:
            self._ingest_shape = frame.luma.shape
        outputs: List[FrameOutput] = []
        for rs in self.rung_sessions:
            scaled = frame if corrupt else downscale_frame(
                frame, rs.rung.width, rs.rung.height)
            (out,) = rs.session.push(scaled, corrupt=corrupt)
            out.rung = rs.rung_id
            outputs.append(out)
        return outputs

    def finish(self) -> List[FrameOutput]:
        """Close the rungs' last GOPs and the ladder.  Every frame got
        its outputs at its push, so none is left to return."""
        if not self._finished:
            self._finished = True
            for rs in self.rung_sessions:
                rs.session.finish()
        return []
