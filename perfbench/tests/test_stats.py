import pytest

from perfbench.stats import median, percentile, summary


def test_nearest_rank_returns_observed_values():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.5], 99) == 7.5
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_summary_reports_its_sample_count():
    got = summary([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert got == {"p50": 5.0, "p95": 10.0, "p99": 10.0, "samples": 10}


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)
    with pytest.raises(ValueError):
        percentile([], 50)
