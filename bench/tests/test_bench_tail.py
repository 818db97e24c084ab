import pytest

from run import tail_percentile


@pytest.mark.parametrize(
    "n,expected_p",
    [(3, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_needs_ten_samples_beyond(n, expected_p):
    xs = [float(i) for i in range(n)]
    tail = tail_percentile(xs)
    if expected_p is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected_p
    beyond = sum(x > value for x in xs)
    assert beyond >= 10
    assert value == pytest.approx((n - 1) * p / 100.0)
