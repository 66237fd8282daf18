"""Tests for LUT-based workload estimation (paper §III-D1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.motion_probe import MotionClass
from repro.analysis.texture import TextureClass
from repro.codec.config import FrameType
from repro.transcode.pipeline import PipelineConfig, StreamTranscoder
from repro.video.generator import ContentClass
from repro.workload.estimator import SeedModel, WorkloadEstimator
from repro.workload.keys import WorkloadKey, area_bucket
from repro.workload.lut import CpuTimeHistogram, WorkloadLut
from tests.conftest import CountingLock


def make_key(qp=32, window=16, texture=TextureClass.MEDIUM,
             motion=MotionClass.LOW, frame_type=FrameType.P,
             bucket=14, content=None):
    return WorkloadKey(
        texture=texture, motion=motion, qp=qp, search_window=window,
        frame_type=frame_type, area_bucket=bucket, content_class=content,
    )


class TestAreaBucket:
    def test_powers_of_two(self):
        assert area_bucket(1) == 0
        assert area_bucket(2) == 1
        assert area_bucket(1024) == 10
        assert area_bucket(1025) == 10
        assert area_bucket(2047) == 10
        assert area_bucket(2048) == 11

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            area_bucket(0)


class TestCpuTimeHistogram:
    def test_mean_is_exact(self):
        h = CpuTimeHistogram()
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.mean == pytest.approx(0.002)
        assert h.count == 3

    def test_quantile_approximation(self):
        h = CpuTimeHistogram()
        values = np.linspace(0.001, 0.1, 200)
        for v in values:
            h.observe(v)
        q90 = h.quantile(0.9)
        # Log-binned approximation: within a bin width of the truth.
        assert 0.05 < q90 < 0.15

    def test_out_of_range_values_clamp(self):
        h = CpuTimeHistogram(t_min=1e-3, t_max=1.0)
        h.observe(1e-9)
        h.observe(100.0)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1

    def test_empty_histogram_raises(self):
        h = CpuTimeHistogram()
        with pytest.raises(ValueError):
            _ = h.mean
        with pytest.raises(ValueError):
            h.quantile(0.5)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            CpuTimeHistogram().observe(-0.1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CpuTimeHistogram(t_min=0)
        with pytest.raises(ValueError):
            CpuTimeHistogram(num_bins=1)

    @given(st.lists(st.floats(min_value=1e-6, max_value=9.0), min_size=1,
                    max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_quantiles_monotone_property(self, values):
        h = CpuTimeHistogram()
        for v in values:
            h.observe(v)
        assert h.quantile(0.1) <= h.quantile(0.5) <= h.quantile(0.9)


class TestWorkloadLut:
    def test_observe_and_lookup(self):
        lut = WorkloadLut()
        key = make_key(content=ContentClass.BRAIN)
        lut.observe(key, 0.004)
        hist = lut.lookup(key)
        assert hist is not None and hist.count == 1

    def test_class_generalisation_fallback(self):
        """A LUT trained on one content class serves queries about
        another class through the class-agnostic entry — the paper's
        LUT-reuse property."""
        lut = WorkloadLut()
        lut.observe(make_key(content=ContentClass.BRAIN), 0.004)
        other = make_key(content=ContentClass.LUNG)
        hist = lut.lookup(other)
        assert hist is not None
        assert hist.mean == pytest.approx(0.004)

    def test_missing_key_returns_none(self):
        assert WorkloadLut().lookup(make_key()) is None

    def test_distinct_keys_are_independent(self):
        lut = WorkloadLut()
        lut.observe(make_key(qp=22), 0.010)
        lut.observe(make_key(qp=42), 0.001)
        assert lut.lookup(make_key(qp=22)).mean == pytest.approx(0.010)
        assert lut.lookup(make_key(qp=42)).mean == pytest.approx(0.001)


def _key_sequences():
    """Observation sequences whose keys repeat, interleave and share a
    content-class-agnostic twin."""
    key = st.builds(
        make_key, qp=st.sampled_from([22, 32]), window=st.sampled_from([8, 64]),
        content=st.sampled_from([None, ContentClass.BRAIN, ContentClass.LUNG]),
    )
    time = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
    return st.lists(st.tuples(key, time), max_size=40)


class TestObserveMany:
    @settings(max_examples=60, deadline=None)
    @given(_key_sequences())
    def test_checkpoint_bytes_equal_to_observes_in_order(self, tmp_path_factory,
                                                         pairs):
        """One batched call leaves the LUT byte-equal — as the
        checkpoint writes it — to the same ``observe`` calls in order
        (running sums are floats: the order is part of the state)."""
        from repro.resilience.checkpoint import save_lut

        one_by_one, batched = WorkloadEstimator(), WorkloadEstimator()
        for key, cpu_time in pairs:
            one_by_one.observe(key, cpu_time)
        batched.observe_many([k for k, _ in pairs], [t for _, t in pairs])
        out = tmp_path_factory.mktemp("lut")
        files = []
        for name, estimator in (("a", one_by_one), ("b", batched)):
            save_lut(estimator.lut, out / name)
            files.append((out / name).read_bytes())
        assert files[0] == files[1]
        assert len(batched.lut) == len(one_by_one.lut)

    def test_one_lock_acquisition_and_one_counter_update_per_batch(self):
        from repro.observability import scoped

        estimator = WorkloadEstimator()
        lock = estimator._observe_lock = CountingLock()
        brain = ContentClass.BRAIN
        keys = [make_key(qp=22, content=brain), make_key(qp=32, content=brain),
                make_key(qp=22, content=brain)]
        with scoped() as (registry, _):
            estimator.observe_many(keys, [0.001, 0.002, 0.003])
            assert registry.value("repro_lut_updates_total") == 3
        assert lock.acquisitions == 1
        assert estimator.lut.lookup(keys[0]).count == 2


class TestWorkloadEstimator:
    def test_cold_start_uses_seed_model(self):
        est = WorkloadEstimator()
        out = est.estimate(make_key(), area=64 * 64)
        assert out > 0

    def test_warm_estimates_track_observations(self):
        est = WorkloadEstimator()
        key = make_key()
        for _ in range(10):
            est.observe(key, 0.0042)
        assert est.estimate(key, area=64 * 64) == pytest.approx(0.0042)

    def test_estimation_error_below_100us_after_training(self):
        """The paper reports over/under-estimation below 100 us once
        enough frames are processed; with a stable workload the LUT
        mean converges well inside that."""
        rng = np.random.default_rng(0)
        est = WorkloadEstimator()
        key = make_key()
        true = 0.0050
        for _ in range(200):
            est.observe(key, true + rng.normal(0, 5e-5))
        err = abs(est.estimation_error(key, area=64 * 64, actual=true))
        assert err < 100e-6

    def test_lut_beats_one_global_mean_on_transcoded_tiles(
            self, panning_qvga):
        """On a transcode's own tiles, each predicted before it is
        observed, the per-key LUT beats one global mean once warmed
        up."""
        trace = StreamTranscoder(PipelineConfig()).run(panning_qvga)
        est = WorkloadEstimator()
        errors, times = [], []
        for gop in trace.gops:
            for frame in gop.frames:
                for t in frame.tiles:
                    area = gop.grid.tiles[t.tile_index].area
                    key = WorkloadKey(
                        texture=t.texture, motion=t.motion, qp=t.qp,
                        search_window=t.search_window,
                        frame_type=frame.frame_type,
                        area_bucket=area_bucket(area),
                    )
                    errors.append(abs(est.estimate(key, area)
                                      - t.cpu_time_fmax))
                    est.observe(key, t.cpu_time_fmax)
                    times.append(t.cpu_time_fmax)
        assert len(times) > 20
        lut_err = np.mean(errors[len(errors) // 2:])
        naive_err = np.mean(np.abs(np.mean(times) - np.array(times)))
        assert lut_err < naive_err
        assert lut_err < 500e-6

    def test_quantile_mode_is_conservative(self):
        est_mean = WorkloadEstimator()
        est_q = WorkloadEstimator(lut=est_mean.lut, quantile=0.95)
        key = make_key()
        for v in np.linspace(0.001, 0.01, 100):
            est_mean.observe(key, v)
        assert est_q.estimate(key, 1) >= est_mean.estimate(key, 1) * 0.9

    def test_seed_model_monotone_in_window(self):
        seed = SeedModel()
        small = seed.estimate(make_key(window=8), area=1000)
        large = seed.estimate(make_key(window=64), area=1000)
        assert large > small

    def test_seed_model_motion_and_texture_effects(self):
        seed = SeedModel()
        low = seed.estimate(make_key(motion=MotionClass.LOW), 1000)
        high = seed.estimate(make_key(motion=MotionClass.HIGH), 1000)
        assert high > low
        flat = seed.estimate(make_key(texture=TextureClass.LOW), 1000)
        busy = seed.estimate(make_key(texture=TextureClass.HIGH), 1000)
        assert busy > flat

    def test_seed_model_intra_cheaper_than_inter(self):
        seed = SeedModel()
        intra = seed.estimate(make_key(frame_type=FrameType.I), 1000)
        inter = seed.estimate(make_key(frame_type=FrameType.P), 1000)
        assert intra < inter
