"""Resilience subsystem: error taxonomy, degradation ladder,
re-allocation on core failure, input validation and LUT checkpointing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation.baseline_khan import KhanAllocator
from repro.allocation.demand import UserDemand
from repro.allocation.proposed import ProposedAllocator
from repro.platform.mpsoc import MpsocConfig
from repro.platform.schedule import ThreadTask
from repro.resilience.checkpoint import load_lut, save_lut
from repro.resilience.degradation import (
    RECOVER_AFTER,
    DegradationController,
    DegradationLevel,
    ResilienceConfig,
)
from repro.resilience.errors import (
    AllocationError,
    CorruptFrameError,
    LutCorruptionError,
    TranscodeError,
)
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.transcode.server import TranscodingServer
from repro.video.frame import Frame, Video
from repro.workload.estimator import WorkloadEstimator
from repro.workload.lut import WorkloadLut

SMALL_PLATFORM = MpsocConfig(num_sockets=1, cores_per_socket=4)


def make_demand(user_id: int, thread_times, fps: float = 24.0) -> UserDemand:
    return UserDemand(
        user_id=user_id,
        threads=[
            ThreadTask(thread_id=i, user_id=user_id, cpu_time_fmax=t,
                       tile_index=i)
            for i, t in enumerate(thread_times)
        ],
    )


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_all_errors_share_base(self):
        for exc in (CorruptFrameError, AllocationError, LutCorruptionError):
            assert issubclass(exc, TranscodeError)

    def test_value_error_compatibility(self):
        # Pre-existing `except ValueError` call sites must keep working.
        assert issubclass(CorruptFrameError, ValueError)
        assert issubclass(AllocationError, ValueError)
        assert issubclass(LutCorruptionError, ValueError)


# ---------------------------------------------------------------------------
# Allocator edge cases
# ---------------------------------------------------------------------------
class TestAllocatorEdgeCases:
    def test_zero_thread_demand_not_admitted(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        empty = UserDemand(user_id=0, threads=[])
        busy = make_demand(1, [0.01, 0.01])
        result = allocator.allocate([empty, busy], fps=24.0)
        admitted_ids = {d.user_id for d in result.admitted}
        assert admitted_ids == {1}
        assert empty in result.rejected

    def test_single_demand_exceeding_capacity_rejected(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        slot = 1.0 / 24.0
        # One user demanding more cores than the whole platform has.
        giant = make_demand(0, [slot] * (SMALL_PLATFORM.num_cores + 2))
        result = allocator.allocate([giant], fps=24.0)
        assert result.num_users_served == 0
        assert giant in result.rejected

    def test_allocate_rejects_nonpositive_fps(self):
        demands = [make_demand(0, [0.01])]
        for fps in (0.0, float("nan"), float("inf")):
            with pytest.raises(AllocationError):
                ProposedAllocator(SMALL_PLATFORM).allocate(demands, fps)
            with pytest.raises(ValueError, match="fps must be finite"):
                KhanAllocator(SMALL_PLATFORM).allocate(demands, fps)
            with pytest.raises(ValueError, match="fps must be finite"):
                TranscodingServer(SMALL_PLATFORM, fps=fps)

    def test_allocate_with_all_cores_failed_raises(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        with pytest.raises(AllocationError):
            allocator.allocate(
                [make_demand(0, [0.01])], fps=24.0,
                failed_cores=set(range(SMALL_PLATFORM.num_cores)),
            )

    def test_allocate_avoids_failed_cores(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        failed = {0, 2}
        result = allocator.allocate(
            [make_demand(0, [0.01, 0.01])], fps=24.0, failed_cores=failed
        )
        used = {s.core_id for s in result.schedule.slots}
        assert not used & failed

    def test_reallocate_repacks_orphans(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        fps = 24.0
        # ~0.96 cores per user: the packing spans several cores, so a
        # failure orphans only part of the load.
        demands = [make_demand(i, [0.02, 0.02]) for i in range(3)]
        result = allocator.allocate(demands, fps)
        assert len(result.schedule.slots) > 1
        before = {
            (t.user_id, t.thread_id)
            for s in result.schedule.slots for t in s.tasks
        }
        failed = result.schedule.slots[0].core_id
        recovered = allocator.reallocate(result, [failed], fps)
        assert not recovered.schedule.has_core(failed)
        after = {
            (t.user_id, t.thread_id)
            for s in recovered.schedule.slots for t in s.tasks
        }
        # No thread lost: every task re-packed onto a surviving core.
        assert after == before
        assert recovered.shed == []

    def test_reallocate_sheds_lowest_priority_first(self):
        platform = MpsocConfig(num_sockets=1, cores_per_socket=2)
        allocator = ProposedAllocator(platform)
        fps = 24.0
        slot = 1.0 / fps
        # Each user needs one full core; both cores start occupied.
        demands = [make_demand(i, [slot]) for i in range(2)]
        result = allocator.allocate(demands, fps)
        assert result.num_users_served == 2
        failed = result.schedule.slots[0].core_id
        recovered = allocator.reallocate(result, [failed], fps)
        # Highest user_id (= lowest priority) is the victim.
        assert [d.user_id for d in recovered.shed] == [1]
        assert [d.user_id for d in recovered.admitted] == [0]
        for s in recovered.schedule.slots:
            assert all(t.user_id == 0 for t in s.tasks)

    def test_reallocate_all_cores_failed_sheds_everyone(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        fps = 24.0
        demands = [make_demand(i, [0.005]) for i in range(2)]
        result = allocator.allocate(demands, fps)
        every_core = [s.core_id for s in result.schedule.slots]
        recovered = allocator.reallocate(result, every_core, fps)
        assert recovered.admitted == []
        assert {d.user_id for d in recovered.shed} == {0, 1}

    def test_evict_unknown_core_raises(self):
        allocator = ProposedAllocator(SMALL_PLATFORM)
        result = allocator.allocate([make_demand(0, [0.005])], fps=24.0)
        with pytest.raises(AllocationError):
            result.schedule.evict_core(10_000)


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    FPS = 100.0  # slot = 10 ms

    def controller(self, **overrides) -> DegradationController:
        return DegradationController(self.FPS, ResilienceConfig(**overrides))

    def test_escalates_on_consecutive_misses(self):
        ctl = self.controller(escalate_after=2)
        assert ctl.observe_frame([0.02])  # miss 1: no escalation yet
        assert ctl.level is DegradationLevel.NONE
        assert ctl.observe_frame([0.02])  # miss 2: climb one rung
        assert ctl.level is DegradationLevel.QP_BUMP

    def test_escalates_while_debt_outstanding(self):
        # One huge spike, then individually on-time frames: the ladder
        # must keep climbing while the backlog exceeds a slot.
        ctl = self.controller()
        ctl.observe_frame([0.08])  # 7 slots of debt
        assert ctl.level is DegradationLevel.QP_BUMP
        ctl.observe_frame([0.005])  # on time but still behind budget
        assert ctl.level is DegradationLevel.WINDOW_SHRINK

    def test_hysteresis_requires_streak_and_drained_debt(self):
        assert RECOVER_AFTER == 3
        ctl = self.controller()
        ctl.observe_frame([0.012])  # small miss -> QP_BUMP, slight debt
        assert ctl.level is DegradationLevel.QP_BUMP
        ctl.observe_frame([0.002])  # on time, drains debt (streak 1)
        assert ctl.debt_seconds == 0.0
        ctl.observe_frame([0.002])  # streak 2: not yet
        assert ctl.level is DegradationLevel.QP_BUMP
        ctl.observe_frame([0.002])  # streak 3 and no debt: descend
        assert ctl.level is DegradationLevel.NONE

    def test_outstanding_debt_holds_the_rung(self):
        ctl = self.controller()
        ctl.observe_frame([0.019])  # miss with 0.9 slot of debt
        for _ in range(RECOVER_AFTER):
            ctl.observe_frame([0.0099])  # on time, debt barely moves
        assert ctl.debt_seconds > 0.0
        assert ctl.level is DegradationLevel.QP_BUMP

    def test_max_level_caps_the_ladder(self):
        ctl = self.controller(max_level=DegradationLevel.WINDOW_SHRINK)
        for _ in range(10):
            ctl.observe_frame([0.05])
        assert ctl.level is DegradationLevel.WINDOW_SHRINK

    def test_adjust_tile_per_rung(self):
        ctl = self.controller()
        # NONE: untouched.
        assert ctl.adjust_tile(30, 64, True, 42, 5) == (30, 64)
        ctl.observe_frame([0.05])  # -> QP_BUMP
        qp, window = ctl.adjust_tile(30, 64, True, 42, 5)
        assert (qp, window) == (35, 32)
        assert ctl.adjust_tile(30, 64, False, 42, 5) == (30, 64)
        ctl.observe_frame([0.05])  # -> WINDOW_SHRINK
        qp, window = ctl.adjust_tile(30, 64, False, 42, 5)
        assert (qp, window) == (30, 32)  # every tile's window shrinks

    def test_frame_drop_reclaims_debt_and_recovers(self):
        ctl = self.controller()
        for _ in range(4):
            ctl.observe_frame([0.05])  # climb to FRAME_DROP
        assert ctl.level is DegradationLevel.FRAME_DROP
        assert ctl.should_drop_frame()
        drops = 0
        while ctl.should_drop_frame():
            ctl.observe_dropped_frame()
            drops += 1
            assert drops < 100  # each drop reclaims a slot: must end
        assert ctl.debt_seconds == 0.0
        assert ctl.level is DegradationLevel.TILE_MERGE  # one rung down
        assert ctl.report.frames_dropped == drops

    def test_report_action_counts_sorted(self):
        ctl = self.controller()
        ctl.observe_frame([0.05])
        ctl.observe_corrupt_frame()
        ctl.force_escalate()
        counts = ctl.report.action_counts()
        assert counts == {"corrupt_drop": 1, "escalate": 1, "watchdog": 1}
        assert list(counts) == sorted(counts)

    def test_report_memory_is_bounded_by_action_kinds(self):
        """A served session can run for hours: what its report keeps
        must not grow with the frames it has seen."""
        import gc
        import tracemalloc

        def retained(frames: int) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                ctl = self.controller()
                for _ in range(frames):
                    ctl.observe_frame([0.05])  # over budget, every frame
                    if ctl.should_drop_frame():
                        ctl.observe_dropped_frame()
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # Slack for allocator noise only (tens of bytes between runs); a
        # per-action log would add ~2 MB over the 18k extra frames.
        small = retained(2_000)
        assert retained(20_000) <= small + 512


# ---------------------------------------------------------------------------
# Input validation in StreamTranscoder.run
# ---------------------------------------------------------------------------
class TestInputValidation:
    def test_empty_video_raises(self):
        with pytest.raises(CorruptFrameError):
            StreamTranscoder().run(Video(name="e", fps=24.0, frames=[]))

    def test_mismatched_frame_shape_raises_without_resilience(
            self, small_video):
        frames = [Frame(index=f.index, luma=f.luma.copy())
                  for f in small_video.frames]
        frames[3].luma = frames[3].luma[:-8, :]
        video = Video(name="bad", fps=small_video.fps, frames=frames)
        with pytest.raises(CorruptFrameError):
            StreamTranscoder(PipelineConfig(fps=video.fps)).run(video)

    def test_nonfinite_luma_dropped_under_resilience(self, small_video):
        frames = [Frame(index=f.index, luma=f.luma.copy())
                  for f in small_video.frames]
        poisoned = frames[4].luma.astype(np.float64)
        poisoned[::8] = np.nan
        frames[4].luma = poisoned
        video = Video(name="nan", fps=small_video.fps, frames=frames)
        config = PipelineConfig(fps=video.fps, resilience=ResilienceConfig())
        trace = StreamTranscoder(config).run(video)
        assert 4 in trace.dropped_frames
        assert trace.resilience.corrupt_frames_dropped == 1
        assert len(trace.frame_records) == len(frames) - 1

    def test_frame_below_min_tile_size_raises(self, rng):
        tiny = Frame(index=0, luma=rng.integers(0, 255, (16, 16)))
        video = Video(name="tiny", fps=24.0, frames=[tiny])
        with pytest.raises(CorruptFrameError):
            StreamTranscoder().run(video)

    def test_all_frames_corrupt_raises_even_with_resilience(self, rng):
        frame = Frame(index=0, luma=rng.integers(0, 255, (64, 64)))
        frame.luma = frame.luma.astype(np.float32)
        video = Video(name="allbad", fps=24.0, frames=[frame])
        config = PipelineConfig(resilience=ResilienceConfig())
        with pytest.raises(CorruptFrameError):
            StreamTranscoder(config).run(video)


# ---------------------------------------------------------------------------
# LUT checkpointing
# ---------------------------------------------------------------------------
def _trained_lut(small_video) -> WorkloadLut:
    estimator = WorkloadEstimator()
    transcoder = StreamTranscoder(
        PipelineConfig(fps=small_video.fps), estimator=estimator
    )
    transcoder.run(small_video)
    return estimator.lut


def _flip_mid_file(path) -> None:
    """Flip 16 bytes in the middle of a checkpoint so its checksum no
    longer matches."""
    data = bytearray(path.read_bytes())
    mid = len(data) // 2
    for off in range(mid, min(mid + 16, len(data))):
        data[off] ^= 0x5A
    path.write_bytes(bytes(data))


def _damage_histograms(lut: WorkloadLut, step: int = 1) -> int:
    """Damage every ``step``-th histogram in place, alternating a NaN
    running sum and negative bin counts; returns how many."""
    damaged = list(lut.tables.values())[::step]
    for i, hist in enumerate(damaged):
        if i % 2 == 0:
            hist._sum = float("nan")
        else:
            hist.counts[: len(hist.counts) // 2] = -1
    return len(damaged)


class TestLutCheckpoint:
    def test_roundtrip(self, small_video, tmp_path):
        lut = _trained_lut(small_video)
        assert len(lut) > 0
        path = tmp_path / "lut.json"
        save_lut(lut, path)
        loaded = load_lut(path)
        assert loaded.recovered
        assert loaded.reason == "ok"
        assert loaded.lut.to_dict() == lut.to_dict()

    def test_missing_file_is_cold_start(self, tmp_path):
        loaded = load_lut(tmp_path / "absent.json")
        assert not loaded.recovered
        assert loaded.reason == "missing"
        assert len(loaded.lut) == 0

    def test_corrupt_checkpoint_falls_back_to_fresh(
            self, small_video, tmp_path):
        lut = _trained_lut(small_video)
        path = tmp_path / "lut.json"
        save_lut(lut, path)
        _flip_mid_file(path)
        loaded = load_lut(path)
        assert not loaded.recovered
        assert len(loaded.lut) == 0

    def test_corrupt_checkpoint_strict_raises(self, small_video, tmp_path):
        lut = _trained_lut(small_video)
        path = tmp_path / "lut.json"
        save_lut(lut, path)
        _flip_mid_file(path)
        with pytest.raises(LutCorruptionError):
            load_lut(path, strict=True)

    def test_truncated_checkpoint_strict_raises(self, small_video, tmp_path):
        lut = _trained_lut(small_video)
        path = tmp_path / "lut.json"
        save_lut(lut, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])  # torn write
        with pytest.raises(LutCorruptionError):
            load_lut(path, strict=True)
        loaded = load_lut(path)  # lenient mode: fall back to cold start
        assert not loaded.recovered
        assert len(loaded.lut) == 0

    def test_unknown_frame_type_key_is_a_typed_corruption(
            self, small_video, tmp_path):
        """A checkpoint holding a key of a frame type the codec does not
        have (``"B"``: written by a build that still had B frames, or
        forged) verifies its checksum and still must not load: degrade
        to a cold start, or ``LutCorruptionError`` when strict."""
        import json

        from repro.resilience.checkpoint import payload_checksum

        path = tmp_path / "lut.json"
        save_lut(_trained_lut(small_video), path)
        document = json.loads(path.read_text())
        document["payload"]["entries"][0]["key"]["frame_type"] = "B"
        document["checksum"] = payload_checksum(document["payload"])
        path.write_text(json.dumps(document, sort_keys=True))
        loaded = load_lut(path)
        assert not loaded.recovered and len(loaded.lut) == 0
        assert "B" in loaded.reason
        with pytest.raises(LutCorruptionError):
            load_lut(path, strict=True)

    def test_validate_drops_corrupted_entries(self, small_video):
        lut = _trained_lut(small_video)
        before = len(lut)
        damaged = _damage_histograms(lut)
        assert damaged == before
        assert lut.validate() == damaged
        assert len(lut) == 0

    def test_save_excludes_inconsistent_entries(self, small_video, tmp_path):
        lut = _trained_lut(small_video)
        _damage_histograms(lut, step=2)
        path = tmp_path / "lut.json"
        save_lut(lut, path)
        loaded = load_lut(path)
        assert loaded.recovered
        assert all(h.is_consistent() for h in loaded.lut.tables.values())
