"""Smoke + shape tests for the Table I/II and Fig. 3/4 harnesses.

These use miniature inputs so the whole file runs in well under a
minute; the benchmarks/ directory runs the same harnesses at
paper-comparable sizes.
"""

import pytest

from repro.experiments.common import medical_corpus
from repro.experiments.fig3 import format_fig3, run_fig3
from repro.experiments.fig4 import Fig4Result, format_fig4, run_fig4
from repro.experiments.table1 import Table1Result, format_table1, run_table1
from repro.experiments.table2 import (
    Table2Result,
    Table2Side,
    format_table2,
    run_table2,
)
from repro.platform.mpsoc import MpsocConfig

SMALL = dict(width=160, height=128, num_frames=8)


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
