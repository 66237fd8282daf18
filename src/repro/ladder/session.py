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

The ingest frame is shared too, until the rungs use it.  Several
rungs encode rung-major — the primary's whole GOP, then the next
rung's — so the LUT's observation order is what it was when each
push scaled on arrival: a mid-GOP
:meth:`push` only checks the frame and holds it, and the push that
closes the GOP (or :meth:`finish`) scales and feeds the held frames
rung by rung.  A ladder of **one** rung has no order to keep: each
push feeds its frame to the rung, which encodes it there and then.

A ladder of one rung at ingest geometry is the plain session: same
bits, same reconstruction, same drops as
``StreamTranscoder.open_session()`` fed the same frames, each at its
own push.  The network server relies on that — every session it serves
is a :class:`LadderSession` over the admitted rungs — and on the
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
        #: Degradation bumps asked for before any rung session exists.
        self._early_bumps = 0
        #: The open GOP's ingest frames, each with its check's verdict
        #: (``True``: corrupt, every rung drops it), and the plane
        #: shape the first good frame fixed for that check.
        self._held: List[Tuple[Frame, bool]] = []
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
                cfg, estimator=self.estimator))
            for _ in range(self._early_bumps):
                rs.session.bump_degradation()
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
        """Frames pushed since the last GOP boundary: held, on a ladder
        of several rungs, or already encoded by the one rung, whose GOP
        is still open."""
        pending = len(self._held)
        if self.rung_sessions:
            pending += self.rung_sessions[0].session.pending_frames
        return pending

    def only_buffers(self) -> bool:
        """Whether the next :meth:`push` would do no real work: a
        ladder of several rungs is open and the frame lands mid-GOP,
        where it is checked and held.  (A one-rung push always
        encodes.)  The serving layer runs such pushes inline on its
        event loop and keeps the encode pool for the rest."""
        return (len(self.rung_sessions) > 1
                and len(self._held) + 1 < self.base_config.gop.size)

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

    def bump_degradation(self) -> None:
        """Force one step of degradation-ladder escalation on every
        rung (serving watchdog hook).  Before the first push the bump
        is held for the rung sessions to come."""
        if not self.rung_sessions:
            self._early_bumps += 1
        for rs in self.rung_sessions:
            rs.session.bump_degradation()

    # -- ingest --------------------------------------------------------
    def push(self, frame: Frame) -> List[FrameOutput]:
        """Push one full-resolution ingest frame.

        The frame is checked (the rung sessions' own check, on the
        ingest plane: a bad frame raises, or is absorbed as a
        ``corrupt`` drop on every rung, at its own push).  A ladder of
        one rung feeds it to the rung and returns its output.  A ladder
        of several holds it — a writable plane is copied first, so the
        ladder never aliases a buffer its caller reuses, and a
        read-only one is held as it is — and the push that completes
        the GOP feeds the rungs and returns their outputs, primary rung
        first; any other returns none.  ``FrameOutput.rung`` names the
        rung.
        """
        if self._finished:
            raise ValueError("ladder session already finished")
        if not self.started:
            self._start(frame)
        corrupt = frame_is_corrupt(frame, self._ingest_shape,
                                   self.base_config)
        if not corrupt:
            self._ingest_shape = frame.luma.shape
        if len(self.rung_sessions) == 1:
            return self._feed(self.rung_sessions[0], [(frame, corrupt)])
        if not corrupt and frame.luma.flags.writeable:
            frame = frame.copy()
            frame.luma.flags.writeable = False
        self._held.append((frame, corrupt))
        if len(self._held) < self.base_config.gop.size:
            return []
        return self._feed_rungs()

    @staticmethod
    def _feed(rs: RungSession, frames) -> List[FrameOutput]:
        """Push checked ingest frames into one rung, scaled to it (a
        rung at ingest size takes a read-only plane itself and a copy
        of a writable one); returns its outputs, tagged."""
        outputs: List[FrameOutput] = []
        for frame, corrupt in frames:
            if corrupt:
                outputs += rs.session.push(frame, corrupt=True)
            else:
                outputs += rs.session.push(downscale_frame(
                    frame, rs.rung.width, rs.rung.height))
        for out in outputs:
            out.rung = rs.rung_id
        return outputs

    def _feed_rungs(self, finish: bool = False) -> List[FrameOutput]:
        """Feed the held frames to each rung in turn."""
        held, self._held = self._held, []
        outputs: List[FrameOutput] = []
        for rs in self.rung_sessions:
            outputs += self._feed(rs, held)
            if finish:
                rs.session.finish()
        return outputs

    def finish(self) -> List[FrameOutput]:
        """Feed every rung the held tail of a partial GOP (a ladder of
        several rungs), close the rungs' last GOPs and the ladder."""
        if self._finished:
            return []
        self._finished = True
        return self._feed_rungs(finish=True)
