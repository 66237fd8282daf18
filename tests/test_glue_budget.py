"""A deterministic budget for the interpreter work of a push.

Benchmarks see GIL-held Python only through a noisy wall clock; this
counts it.  ``sys.setprofile`` reports every Python-level and C-level
call the interpreter makes, a number that depends on the code and the
input and on nothing else — not the machine, not its load — so glue
creeping back into the per-frame path fails here, between benchmark
PRs, by name and by how much.

The budgets are about 10 % over what the code reached when they were
set (CPython 3.11; later interpreters inline comprehensions and count
lower).  A change that needs more calls per push must either earn them
back elsewhere or raise the budget in the same diff, where a reviewer
sees it.
"""

from __future__ import annotations

import sys

import pytest

from repro import native
from repro.analysis.evaluator import ContentEvaluator
from repro.codec.config import EncoderConfig, GopConfig
from repro.ladder.config import LadderConfig, LadderRung
from repro.ladder.session import LadderSession
from repro.resilience.degradation import ResilienceConfig
from repro.tiling.content_aware import ContentAwareRetiler, RetilingResult
from repro.tiling.uniform import uniform_tiling
from repro.transcode.pipeline import PipelineConfig
from repro.video.frame import Frame
from repro.video.generator import ContentClass, generate_video

_GOP = 8

pytestmark = pytest.mark.skipif(
    not native.available(),
    reason="the budget is for the served path: the native driver",
)


def _calls_per_push(width, height, warm_gops=2, push=None, rungs=None):
    """Interpreter call events per push over one steady-state GOP of a
    session configured as the network server configures it
    (``push(session, frame)`` drives each push; ``session.push`` by
    default; ``rungs`` is the ladder, one rung at ingest size by
    default)."""
    video = generate_video(content_class=ContentClass.BRAIN, width=width,
                           height=height, num_frames=(warm_gops + 1) * _GOP,
                           seed=16)
    config = PipelineConfig(
        fps=24.0, gop=GopConfig(_GOP),
        base_config=EncoderConfig(qp=32, search="hexagon", search_window=64),
        content_class=ContentClass.BRAIN, resilience=ResilienceConfig(),
    )
    ladder = LadderConfig(rungs=rungs or (LadderRung(width, height),),
                          prune=False)
    events = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in events:
            events[event] += 1

    with LadderSession(config, ladder) as session:
        frames = [Frame(f.luma, index=f.index) for f in video.frames]
        for frame in frames[:warm_gops * _GOP]:
            session.push(frame)
        outputs = []
        sys.setprofile(count)
        try:
            for frame in frames[warm_gops * _GOP:]:
                outputs += (push or LadderSession.push)(session, frame)
        finally:
            sys.setprofile(None)
    assert len(outputs) == _GOP * len(ladder.rungs)
    tiles = len(outputs[0].record.tiles)
    return (events["call"] + events["c_call"]) / _GOP, tiles


def test_a_96x96_push_stays_inside_its_call_budget():
    """Re-tiling included: three analysis crossings, a plan and eight
    frames of seven tiles per GOP."""
    calls, tiles = _calls_per_push(96, 96)
    assert tiles == 7
    assert calls <= 497, calls  # 452 when set; 792 before the GOP plan


def test_a_12_tile_vga_push_stays_inside_its_call_budget(monkeypatch):
    """640x480 over a pinned 4x3 grid — what scales with the tile count:
    the per-tile policy, the table's columns, the record pass."""
    grid = uniform_tiling(640, 480, 4, 3)

    def pinned(self, current, previous=None):
        return RetilingResult(
            grid, ContentEvaluator().evaluate(grid, current, previous))

    monkeypatch.setattr(ContentAwareRetiler, "retile", pinned)
    calls, tiles = _calls_per_push(640, 480)
    assert tiles == 12
    assert calls <= 663, calls  # 603 when set; 1096 before the GOP plan


def test_a_paced_one_rung_push_job_stays_inside_its_call_budget():
    """What the server adds around a paced session's push: the encode
    pool's job over a batch of one frame."""
    from repro.serving.server import _push_all

    calls, tiles = _calls_per_push(
        96, 96, push=lambda session, frame: _push_all(session, [frame]))
    assert tiles == 7
    assert calls <= 497, calls  # 452 when set, the bare push 450


def test_a_three_rung_push_stays_inside_its_call_budget():
    """Every push of a ladder encodes its frame on every rung: one
    ingest check, two box downscales and three one-rung pushes (each
    rung re-tiles at its own GOP start)."""
    calls, tiles = _calls_per_push(96, 96, rungs=(
        LadderRung(96, 96), LadderRung(72, 72), LadderRung(48, 48)))
    assert tiles == 7
    assert calls <= 943, calls  # 857 when set
