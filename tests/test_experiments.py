"""Shape tests for the Table I/II and Fig. 3/4 harnesses
(``repro.experiments``, the one way to regenerate the paper's §IV).

The tier-1 classes use miniature inputs so they run in seconds.  The
``slow`` classes at the end run the same harnesses at the sizes
EXPERIMENTS.md quotes (Table I at 320x240, the rest at 640x480, 16
frames each) and assert the paper's shape there: who wins and by
roughly what factor.  They also hold the sensitivity sweeps beyond the
paper's single operating point (frame rate, platform size, QP ladder).
"""

import pytest

from repro.allocation import KhanAllocator, ProposedAllocator
from repro.codec.config import EncoderConfig
from repro.codec.encoder import VideoEncoder
from repro.experiments.common import medical_corpus
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import (
    DVFS_USERS,
    FIG4_USER_COUNTS,
    Fig4Result,
    format_fig4,
    run_fig4,
)
from repro.experiments.table1 import Table1Result, format_table1, run_table1
from repro.experiments.table2 import (
    Table2Result,
    Table2Side,
    format_table2,
    run_table2,
)
from repro.platform.mpsoc import MpsocConfig
from repro.platform.schedule import DvfsPolicy
from repro.tiling.uniform import TABLE1_TILINGS
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.transcode.server import TranscodingServer
from repro.video.generator import ContentClass, MotionPreset, generate_video

SMALL = dict(width=160, height=128, num_frames=8)
#: The sizes EXPERIMENTS.md's rows are regenerated at.
QVGA = dict(width=320, height=240, num_frames=16)
VGA = dict(width=640, height=480, num_frames=16)


class TestCorpus:
    def test_ten_distinct_videos(self):
        videos = medical_corpus(width=64, height=48, num_frames=2)
        assert len(videos) == 10
        names = {v.name for v in videos}
        assert len(names) == 10

    def test_corpus_spans_content_classes(self):
        videos = medical_corpus(width=64, height=48, num_frames=2)
        classes = {v.name.split("_")[0] for v in videos}
        assert classes == {"brain", "bone", "lung", "cardiac", "ultrasound"}


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self) -> Table1Result:
        return run_table1(tilings=[(1, 1), (2, 2)], seed=0, **SMALL)

    def test_row_structure(self, result):
        assert len(result.proposed) == 2
        assert len(result.hexagon) == 2
        assert result.proposed[0].tiling == (1, 1)

    def test_speedups_positive_and_meaningful(self, result):
        """Both fast searches beat TZ (the paper's headline)."""
        for row in result.proposed + result.hexagon:
            assert row.speedup > 1.0

    def test_quality_losses_small(self, result):
        """PSNR loss vs TZ stays fractions of a dB (paper: <= 0.32)."""
        for row in result.proposed + result.hexagon:
            assert row.psnr_loss_db < 1.0
            assert abs(row.compression_loss_pct) < 15.0

    def test_format_contains_all_tilings(self, result):
        text = format_table1(result)
        assert "1x1" in text and "2x2" in text
        assert "speedup" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(seed=0, **SMALL)

    def test_proposed_has_more_tiles_with_diverse_times(self, result):
        """The Fig. 3 qualitative claim: content-aware tiling yields
        more tiles with diverse CPU times vs [19]'s equal tiles."""
        assert len(result.proposed.tiles) > len(result.baseline.tiles)
        times = result.proposed.tile_cpu_times
        assert max(times) > 1.5 * min(times)

    def test_proposed_frame_cheaper(self, result):
        assert result.proposed.frame_cpu_time < result.baseline.frame_cpu_time

    def test_baseline_cores_all_fmax(self, result):
        assert result.baseline.cores_at_fmax_whole_slot == result.baseline.cores_used

    def test_proposed_fewer_fmax_cores(self, result):
        assert (result.proposed.cores_at_fmax_whole_slot
                <= result.baseline.cores_at_fmax_whole_slot)

    def test_format(self, result):
        text = format_fig3(result)
        assert "tile structure" in text
        assert "cores used" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        platform = MpsocConfig(num_sockets=1, cores_per_socket=8)
        return run_table2(num_videos=2, platform=platform, seed=0, **SMALL)

    def test_proposed_serves_more_users(self, result):
        assert result.proposed.users_avg >= result.baseline.users_avg
        assert result.user_ratio >= 1.0

    def test_stat_ordering(self, result):
        for side in (result.proposed, result.baseline):
            assert side.psnr_min <= side.psnr_avg <= side.psnr_max + 1e-9
            assert side.users_min <= side.users_max

    def test_comparable_quality(self, result):
        assert abs(result.proposed.psnr_avg - result.baseline.psnr_avg) < 3.0

    def test_format(self, result):
        text = format_table2(result)
        assert "TABLE II" in text
        assert "throughput factor" in text

    def test_format_faults_only_run(self):
        """A side that admitted zero users (e.g. a faults-only run on a
        dead platform) has ``None`` averaged quality stats and an
        undefined throughput ratio; formatting must render ``n/a``
        instead of raising."""
        empty = Table2Side(
            name="Work [19]", psnr_max=40.0, psnr_min=38.0, psnr_avg=None,
            bitrate_max=2.4, bitrate_min=2.1, bitrate_avg=None,
            users_max=0, users_min=0, users_avg=0.0,
        )
        served = Table2Side(
            name="Proposed", psnr_max=41.0, psnr_min=39.0, psnr_avg=40.0,
            bitrate_max=2.5, bitrate_min=2.2, bitrate_avg=2.3,
            users_max=4, users_min=2, users_avg=3.0,
        )
        result = Table2Result(proposed=served, baseline=empty)
        assert result.user_ratio is None
        text = format_table2(result)
        assert "n/a" in text
        assert "baseline served zero users" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self) -> Fig4Result:
        platform = MpsocConfig(num_sockets=2, cores_per_socket=8)
        return run_fig4(num_videos=1, user_counts=(1, 2, 4),
                        platform=platform, seed=0, **SMALL)

    def test_savings_positive(self, result):
        for n, s in result.savings_percent.items():
            assert s > 0, f"no savings at {n} users"

    def test_savings_grow_with_load(self, result):
        assert result.savings_percent[4] > result.savings_percent[1]

    def test_summary_statistics(self, result):
        assert result.peak_savings >= result.average_savings

    def test_format(self, result):
        text = format_fig4(result)
        assert "power savings" in text
        assert "average savings" in text
        assert f"@ {DVFS_USERS} users by DVFS policy" in text


# ---------------------------------------------------------------------------
# The paper's shape at the sizes EXPERIMENTS.md quotes (slow tier)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_table1_shape():
    result = run_table1(seed=0, tilings=TABLE1_TILINGS, **QVGA)
    print("\n" + format_table1(result))
    # Both fast searches beat TZ at every tiling.
    for row in result.proposed + result.hexagon:
        assert row.speedup > 1.0
    # Speedup grows with tile count (1.3 -> ~5x in the paper) ...
    assert result.proposed[-1].speedup > result.proposed[0].speedup
    # ... and averages several-x, not 1.1x.
    assert result.average_speedup("proposed") > 2.0
    # The proposed search is at least as fast as plain hexagon on
    # average (the paper's §III-C2 improvement).
    assert (result.average_speedup("proposed")
            >= 0.95 * result.average_speedup("hexagon"))
    # No meaningful encoding-efficiency loss (paper: <= 0.32 dB PSNR,
    # <= 0.5% bitrate; with simulator slack).
    for row in result.proposed:
        assert row.psnr_loss_db < 0.5
        assert row.compression_loss_pct < 5.0


@pytest.mark.slow
def test_fig3_shape():
    result = run_fig3(seed=0, **VGA)
    print("\n" + format_fig3(result))
    # Content-aware tiling yields more tiles than one per core, with
    # diverse per-tile CPU times (an order of magnitude in the paper).
    assert len(result.proposed.tiles) > len(result.baseline.tiles)
    times = result.proposed.tile_cpu_times
    assert max(times) > 2 * min(times)
    # [19]'s tiles have near-equal CPU demand (workload balancing).
    btimes = result.baseline.tile_cpu_times
    assert max(btimes) < 2.5 * min(btimes)
    # The proposed frame needs no more cores, with fewer pinned at
    # f_max for the whole slot, and is cheaper.
    assert result.proposed.cores_used <= result.baseline.cores_used
    assert (result.proposed.cores_at_fmax_whole_slot
            < result.baseline.cores_at_fmax_whole_slot
            + len(result.baseline.tiles))
    assert result.proposed.frame_cpu_time < result.baseline.frame_cpu_time


@pytest.mark.slow
def test_table2_shape():
    result = run_table2(num_videos=4, seed=0, **VGA)
    print("\n" + format_table2(result))
    # The proposed approach serves clearly more users (paper 1.6x).
    assert result.user_ratio > 1.3
    # [19] lands at its paper operating point (~15-16 users on 32 cores
    # at VGA/24 fps), the proposed approach in the paper's 20-27 range.
    assert 12 <= result.baseline.users_avg <= 18
    assert 20 <= result.proposed.users_avg <= 32
    # No quality collapse (paper: 40.5 vs 40.6 dB) and comparable
    # compression (paper: 2.23 vs 2.23 Mbps).
    assert abs(result.proposed.psnr_avg - result.baseline.psnr_avg) < 2.0
    assert result.proposed.bitrate_avg <= 2.0 * result.baseline.bitrate_avg


@pytest.mark.slow
def test_fig4_shape():
    result = run_fig4(num_videos=2, seed=0, user_counts=FIG4_USER_COUNTS,
                      **VGA)
    print("\n" + format_fig4(result))
    # Positive savings at every user count, growing toward saturation,
    # peaking near the paper's 44%.
    for n, s in result.savings_percent.items():
        assert s > 0, f"no savings at {n} users"
    assert result.savings_percent[12] > result.savings_percent[1]
    assert result.peak_savings > 35.0
    assert result.average_savings > 20.0
    # The DVFS decomposition: the energy-aware stretch draws no more
    # than race-to-idle, which draws no more than always-on cores.
    power = result.dvfs_power_w
    assert (power[DvfsPolicy.STRETCH] <= power[DvfsPolicy.RACE_TO_IDLE]
            <= power[DvfsPolicy.ALWAYS_ON])


# ---------------------------------------------------------------------------
# Sensitivity beyond the paper's operating point (slow tier)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestSensitivity:
    """The paper fixes FPS = 24 and the 32-core Xeon; these sweeps check
    that the reproduced advantage is not an artefact of that single
    operating point ("our proposed methodology is valid for any
    arbitrary resolution and frame rate", §IV-A)."""

    @pytest.fixture(scope="class")
    def video(self):
        return generate_video(
            content_class=ContentClass.BRAIN, motion=MotionPreset.PAN_RIGHT,
            seed=0, **QVGA,
        )

    def test_fps_sweep(self, video):
        """The user-count advantage persists across target frame rates,
        and a lower rate (a longer slot) serves more users."""
        users = {}
        for fps in (15.0, 24.0, 30.0):
            tp = StreamTranscoder(PipelineConfig(fps=fps)).run(video)
            tk = StreamTranscoder(PipelineConfig.khan(fps=fps)).run(video)
            server = TranscodingServer(fps=fps)
            users[fps] = (
                server.serve([tp], ProposedAllocator()).num_users_served,
                server.serve([tk], KhanAllocator()).num_users_served,
            )
        print("\nfps -> (proposed users, khan users):", users)
        for fps, (up, uk) in users.items():
            assert up >= uk, f"advantage lost at {fps} fps"
        assert users[15.0][0] >= users[30.0][0]

    def test_platform_size_sweep(self, video):
        """The advantage holds from 8 to 64 cores, and served users
        scale with the platform."""
        tp = StreamTranscoder(PipelineConfig()).run(video)
        tk = StreamTranscoder(PipelineConfig.khan()).run(video)
        users = {}
        for sockets, cores in ((1, 8), (2, 8), (4, 8), (4, 16)):
            platform = MpsocConfig(num_sockets=sockets, cores_per_socket=cores)
            server = TranscodingServer(platform=platform)
            users[platform.num_cores] = (
                server.serve([tp], ProposedAllocator(platform)).num_users_served,
                server.serve([tk], KhanAllocator(platform)).num_users_served,
            )
        print("\ncores -> (proposed users, khan users):", users)
        for up, uk in users.values():
            assert up >= uk
        proposed = [users[n][0] for n in sorted(users)]
        assert proposed == sorted(proposed)

    def test_qp_ladder_rate_distortion(self, video):
        """The paper's QP ladder spans a monotone RD curve on the
        substrate codec (the premise of Algorithm 1)."""
        points = []
        for qp in (22, 27, 32, 37, 42):
            stats = VideoEncoder(
                EncoderConfig(qp=qp, search_window=16)).encode(video)
            points.append((stats.average_psnr, stats.bitrate_mbps(24.0)))
        print("\nQP 22..42 -> (PSNR dB, Mbps):", points)
        psnrs = [p for p, _ in points]
        rates = [r for _, r in points]
        assert psnrs == sorted(psnrs, reverse=True)
        assert rates == sorted(rates, reverse=True)
