"""Wilson interval properties."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringlab.stats import EstimateResult, wilson_interval


@given(st.integers(1, 10_000), st.data())
def test_wilson_brackets_the_point_estimate(trials, data):
    events = data.draw(st.integers(0, trials))
    low, high = wilson_interval(events, trials)
    p = events / trials
    assert 0.0 <= low <= p <= high <= 1.0


def test_wilson_extremes():
    low, high = wilson_interval(0, 50)
    assert low == 0.0 and high > 0.0
    low, high = wilson_interval(50, 50)
    assert high == 1.0 and low < 1.0


def test_wilson_known_value():
    # 9 of 10 at 95%: the classic worked example lands near (0.60, 0.98)
    low, high = wilson_interval(9, 10)
    assert abs(low - 0.5958) < 5e-3
    assert abs(high - 0.9821) < 5e-3


def test_estimate_result_fields():
    est = EstimateResult.from_counts(400, 100)
    assert est.estimate == 0.25
    assert est.ci_low <= 0.25 <= est.ci_high
    with pytest.raises(ValueError):
        EstimateResult.from_counts(0, 0)
    with pytest.raises(ValueError):
        EstimateResult.from_counts(10, 11)
