"""Tests for the multi-user serving simulation."""

import pytest

from repro.allocation import KhanAllocator, ProposedAllocator
from repro.platform.mpsoc import MpsocConfig
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.transcode.server import TranscodingServer
from repro.video.generator import (
    BioMedicalVideoGenerator,
    ContentClass,
    GeneratorConfig,
    MotionPreset,
)


@pytest.fixture(scope="module")
def traces():
    videos = [
        BioMedicalVideoGenerator(GeneratorConfig(
            width=160, height=128, num_frames=8, seed=s,
            content_class=cc, motion=MotionPreset.PAN_RIGHT,
        )).generate()
        for s, cc in ((0, ContentClass.BRAIN), (1, ContentClass.BONE))
    ]
    prop = [StreamTranscoder(PipelineConfig()).run(v) for v in videos]
    khan = [StreamTranscoder(PipelineConfig.khan()).run(v) for v in videos]
    return prop, khan


class TestDemands:
    def test_cycling_over_traces(self, traces):
        prop, _ = traces
        server = TranscodingServer()
        demands = server.demands(prop, 5)
        assert [d.user_id for d in demands] == [0, 1, 2, 3, 4]
        # Users 0 and 2 share the first trace's thread structure.
        assert len(demands[0].threads) == len(demands[2].threads)

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            TranscodingServer().demands([], 3)

    def test_invalid_fps_rejected(self):
        with pytest.raises(ValueError):
            TranscodingServer(fps=0)


class TestServe:
    def test_saturated_queue_is_resource_bound(self, traces):
        prop, _ = traces
        server = TranscodingServer()
        report = server.serve(prop, ProposedAllocator())
        assert report.num_users_served <= report.num_users_requested
        assert report.num_users_served > 0
        assert report.average_power_w > 0

    def test_fixed_user_count(self, traces):
        prop, _ = traces
        server = TranscodingServer()
        report = server.serve(prop, ProposedAllocator(), num_users=3)
        assert report.num_users_requested == 3
        assert report.num_users_served == 3

    def test_quality_stats_from_admitted_users(self, traces):
        prop, _ = traces
        report = TranscodingServer().serve(prop, ProposedAllocator(), num_users=4)
        assert report.psnr_min <= report.psnr_avg <= report.psnr_max
        assert report.bitrate_min_mbps <= report.bitrate_avg_mbps

    def test_power_grows_with_users(self, traces):
        _, khan = traces
        server = TranscodingServer()
        p2 = server.serve(khan, KhanAllocator(), num_users=2).average_power_w
        p6 = server.serve(khan, KhanAllocator(), num_users=6).average_power_w
        assert p6 > p2

    def test_proposed_serves_at_least_as_many_as_khan(self, traces):
        prop, khan = traces
        # Small platform so saturation actually binds with tiny videos.
        platform = MpsocConfig(num_sockets=1, cores_per_socket=4)
        server = TranscodingServer(platform=platform)
        rep_p = server.serve(prop, ProposedAllocator(platform))
        rep_k = server.serve(khan, KhanAllocator(platform))
        assert rep_p.num_users_served >= rep_k.num_users_served

    def test_power_savings_positive(self, traces):
        """Fig. 4's metric at equal users: the proposed side draws less."""
        prop, khan = traces
        server = TranscodingServer()
        rep_p = server.serve(prop, ProposedAllocator(), num_users=4)
        rep_k = server.serve(khan, KhanAllocator(), num_users=4)
        assert rep_p.num_users_served == rep_k.num_users_served == 4
        assert rep_p.average_power_w < rep_k.average_power_w
