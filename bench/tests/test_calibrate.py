import pytest

import calibrate


def test_speed_index_is_mean_kernel_time_over_reference():
    ref_ns = int(calibrate.REFERENCE_MS * 1e6)
    samples = [(t, ref_ns) for t in range(100, 200, 5)]
    assert calibrate.speed_index(samples, 100, 200) == pytest.approx(1.0)
    slow = [(t, ref_ns * 5 // 4) for t in range(100, 200, 5)]
    assert calibrate.speed_index(slow, 100, 200) == pytest.approx(1.25)


def test_only_samples_inside_the_window_count():
    ref_ns = int(calibrate.REFERENCE_MS * 1e6)
    samples = [(t, ref_ns * 10) for t in range(0, 100, 5)]      # warm-up
    samples += [(t, ref_ns) for t in range(100, 200, 5)]
    samples += [(t, ref_ns * 10) for t in range(200, 300, 5)]   # drain
    assert calibrate.speed_index(samples, 100, 200) == pytest.approx(1.0)


def test_too_few_samples_is_an_error_not_a_guess():
    with pytest.raises(ValueError):
        calibrate.speed_index([(1, 5_000_000)] * 9, 0, 10)


def test_a_torn_last_line_is_dropped(tmp_path):
    path = tmp_path / "calibration.txt"
    path.write_text("100 5000000\n200 5100000\n300")
    assert calibrate.read_samples(path) == [(100, 5_000_000),
                                            (200, 5_100_000)]


def test_kernel_is_deterministic_work():
    a, b = calibrate.planes()
    assert calibrate.kernel_pass(a, b) == calibrate.kernel_pass(a, b) > 0
