"""Full-stack integration tests: generator -> pipeline -> allocator ->
power, and cross-module consistency checks."""

import pytest

from repro.allocation import (
    KhanAllocator,
    ProposedAllocator,
    UserDemand,
    cores_needed,
)
from repro.codec.config import EncoderConfig, GopConfig
from repro.codec.encoder import VideoEncoder
from repro.experiments.common import (
    encode_with_proposed_policy,
    encode_with_search,
)
from repro.platform.cost_model import CostModel
from repro.platform.mpsoc import XEON_E5_2667
from repro.platform.power import PowerModel
from repro.tiling.uniform import uniform_tiling
from repro.transcode.pipeline import PipelineConfig, PipelineMode, StreamTranscoder
from repro.transcode.server import TranscodingServer
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


@pytest.fixture(scope="module")
def video():
    return BioMedicalVideoGenerator(GeneratorConfig(
        width=160, height=128, num_frames=16, seed=2,
        content_class=ContentClass.BONE, motion=MotionPreset.PAN_DOWN,
        motion_magnitude=3.0,
    )).generate()


class TestEndToEnd:
    def test_generate_transcode_allocate_power(self, video):
        """The full chain produces consistent, physically sensible
        numbers."""
        trace = StreamTranscoder(PipelineConfig()).run(video)
        gop = trace.steady_state_gop()
        demand = UserDemand(user_id=0, threads=gop.threads())
        result = ProposedAllocator().allocate([demand], 24.0)
        power = result.schedule.average_power(PowerModel())
        # Power is at least the all-idle floor and at most all-busy.
        pm = PowerModel()
        floor = XEON_E5_2667.num_cores * pm.p_idle
        ceiling = XEON_E5_2667.num_cores * pm.busy_power(XEON_E5_2667.f_max)
        assert floor <= power <= ceiling
        # Demand consistency between pipeline and allocator.
        assert cores_needed(demand, 24.0) == pytest.approx(
            sum(gop.mean_tile_cpu_times()) * 24.0
        )

    def test_cost_model_consistency_between_paths(self, video):
        """The Table I helper and the pipeline charge identical op
        prices (same CostModel)."""
        grid = uniform_tiling(video.width, video.height, 2, 2)
        outcome = encode_with_search(video, grid, "hexagon", window=16)
        model = CostModel()
        assert outcome.cpu_seconds == pytest.approx(
            model.seconds(outcome.stats.ops, XEON_E5_2667.f_max)
        )

    def test_proposed_policy_never_slower_than_reference(self, video):
        """On any corpus video the proposed combined search beats TZ in
        simulated CPU time at equal tiling."""
        grid = uniform_tiling(video.width, video.height, 2, 2)
        tz = encode_with_search(video, grid, "tz", window=64)
        prop = encode_with_proposed_policy(video, grid)
        assert prop.cpu_seconds < tz.cpu_seconds
        assert abs(prop.psnr - tz.psnr) < 1.0

    def test_server_headline_chain(self, video):
        """Mini Table II on a mini platform: the proposed side serves
        at least as many users at comparable quality."""
        from repro.platform.mpsoc import MpsocConfig
        platform = MpsocConfig(num_sockets=1, cores_per_socket=4)
        tp = StreamTranscoder(
            PipelineConfig(mode=PipelineMode.PROPOSED, platform=platform)
        ).run(video)
        tk = StreamTranscoder(PipelineConfig.khan(platform=platform)).run(video)
        server = TranscodingServer(platform=platform)
        rp = server.serve([tp], ProposedAllocator(platform))
        rk = server.serve([tk], KhanAllocator(platform))
        assert rp.num_users_served >= rk.num_users_served
        assert abs(rp.psnr_avg - rk.psnr_avg) < 3.0

    def test_gop_boundaries_reset_adaptation(self, video):
        """QPs inside a GOP may drift from defaults, but every GOP
        restarts from texture defaults on its I frame."""
        trace = StreamTranscoder(PipelineConfig()).run(video)
        from repro.qp.defaults import DEFAULT_QP
        defaults = set(DEFAULT_QP.values())
        for gop in trace.gops:
            first = gop.frames[0]
            assert {t.qp for t in first.tiles} <= defaults

    def test_stats_internally_consistent(self, video):
        """Frame bits/ssd equal the sum of their tiles; sequence stats
        equal the sum of their frames."""
        grid = uniform_tiling(video.width, video.height, 2, 2)
        stats = VideoEncoder(
            EncoderConfig(qp=32, search_window=8), GopConfig(8)
        ).encode(video, grid)
        for frame in stats.frames:
            assert frame.bits == sum(t.bits for t in frame.tiles)
            assert frame.ssd == pytest.approx(sum(t.ssd for t in frame.tiles))
        assert stats.total_bits == sum(f.bits for f in stats.frames)

    def test_determinism_of_whole_pipeline(self, video):
        """Two identical runs produce identical traces (no hidden
        global randomness)."""
        a = StreamTranscoder(PipelineConfig()).run(video)
        b = StreamTranscoder(PipelineConfig()).run(video)
        assert a.total_bits == b.total_bits
        assert a.average_psnr == b.average_psnr
        ta = [t.cpu_time_fmax for f in a.frame_records for t in f.tiles]
        tb = [t.cpu_time_fmax for f in b.frame_records for t in f.tiles]
        assert ta == tb


class TestReportModule:
    def test_build_report_smoke(self, monkeypatch):
        """The report generator runs end to end on tiny inputs."""
        import repro.experiments.report as report_mod

        def tiny_build(quick=True, seed=0):
            # exercise the real code path with minimal sizes
            from repro.experiments.table1 import run_table1, format_table1
            result = run_table1(width=96, height=80, num_frames=8,
                                tilings=[(1, 1)])
            return "# Reproduction report\n" + format_table1(result)

        text = tiny_build()
        assert "Reproduction report" in text
        assert "speedup" in text
