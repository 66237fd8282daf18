import pytest

from stats import (
    percentile,
    samples_beyond,
    spread,
    supported,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 0) == 1


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ten_samples_beyond_rule():
    # p95 of 200 samples leaves exactly ten beyond it; 199 leave nine.
    assert samples_beyond(200, 95) == 10
    assert supported(200, 95)
    assert not supported(199, 95)
    # The issue's sample counts: 480 and 960 frames carry a p95.
    assert samples_beyond(480, 95) == 24
    assert supported(960, 95)
    assert not supported(480, 99)


def test_spread_is_interquartile_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    # statistics.quantiles(n=4) -> 10.5, 12, 13.5
    assert spread(values) == pytest.approx(3.0 / 12.0)
    assert spread([5.0] * 6) == 0.0
