import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geohpi.metrics import (
    SeriesMetrics,
    UndefinedMetricError,
    mean_spike_magnitude,
    series_metrics,
    std_dev,
    std_dev_differences,
)

# multiples of 2**-10 within +-1e6: their differences are exact and stay far
# from the subnormal range, so scaling by a power of two never underflows one
dyadic = st.integers(min_value=-2**10 * 10**6, max_value=2**10 * 10**6).map(
    lambda n: n / 2**10
)


class TestStdDev:
    def test_constant_series(self):
        assert std_dev([5.0, 5.0, 5.0]) == 0.0

    def test_mean_one_variance_three(self):
        assert std_dev([0, 0, 0, 4]) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_classic_fixture(self):
        assert std_dev([2, 4, 4, 4, 5, 5, 7, 9]) == 2.0

    def test_too_short(self):
        with pytest.raises(UndefinedMetricError):
            std_dev([1.0])


class TestStdDevDifferences:
    def test_arithmetic_progression_is_zero(self):
        assert std_dev_differences([3, 5, 7, 9, 11]) == 0.0

    def test_alternating_series(self):
        # diffs [1, -1, 1]: mean 1/3, variance 8/9
        assert std_dev_differences([0, 1, 0, 1]) == pytest.approx(
            math.sqrt(8 / 9), rel=1e-15
        )

    def test_constant_series_is_zero(self):
        assert std_dev_differences([4, 4, 4, 4]) == 0.0

    def test_too_short(self):
        with pytest.raises(UndefinedMetricError):
            std_dev_differences([1.0, 2.0])


class TestMeanSpikeMagnitude:
    def test_monotone_series_has_no_spikes(self):
        assert mean_spike_magnitude([1, 2, 4, 8, 9]) == (0.0, 0)

    def test_alternating_series(self):
        # diffs [1, -1, 1]; spikes (1,-1) and (-1,1) with magnitude 2 each
        assert mean_spike_magnitude([0, 1, 0, 1]) == (4.0, 2)

    def test_uneven_spikes(self):
        # diffs [2, -1, 2]; magnitudes 3 and 3; mean of squares 9
        assert mean_spike_magnitude([0, 2, 1, 3]) == (9.0, 2)

    def test_zero_difference_has_no_sign(self):
        # diffs [1, 0, -1]: no adjacent pair with strictly opposite signs
        assert mean_spike_magnitude([0, 1, 1, 0]) == (0.0, 0)

    def test_too_short(self):
        with pytest.raises(UndefinedMetricError):
            mean_spike_magnitude([1.0, 2.0])


class TestProperties:
    # integer-valued floats keep differences exact, so the invariance is
    # testable without float-absorption artifacts
    @given(
        series=st.lists(
            st.integers(min_value=-10**6, max_value=10**6).map(float),
            min_size=3,
            max_size=40,
        ),
        shift=st.integers(min_value=-10**6, max_value=10**6).map(float),
    )
    @settings(max_examples=150)
    def test_translation_invariance(self, series, shift):
        shifted = [x + shift for x in series]
        assert std_dev(shifted) == pytest.approx(std_dev(series), abs=1e-9, rel=1e-9)
        assert std_dev_differences(shifted) == pytest.approx(
            std_dev_differences(series), abs=1e-9, rel=1e-9
        )
        assert mean_spike_magnitude(shifted) == mean_spike_magnitude(series)

    @given(
        series=st.lists(dyadic, min_size=3, max_size=40),
        scale=st.sampled_from([0.5, 2.0, 4.0, 8.0, -2.0]),
    )
    def test_scaling(self, series, scale):
        scaled = [x * scale for x in series]
        assert std_dev(scaled) == pytest.approx(abs(scale) * std_dev(series), rel=1e-9)
        assert std_dev_differences(scaled) == pytest.approx(
            abs(scale) * std_dev_differences(series), rel=1e-9
        )
        msm, count = mean_spike_magnitude(series)
        msm_scaled, count_scaled = mean_spike_magnitude(scaled)
        assert count_scaled == count
        assert msm_scaled == pytest.approx(scale * scale * msm, rel=1e-9)

    def test_subnormal_spike_is_counted(self):
        # scaling this series by 0.5 underflows its differences to zero, which
        # is why test_scaling draws dyadic values
        assert mean_spike_magnitude([0.0, 5e-324, 0.0]) == (0.0, 1)

    @given(steps=st.lists(st.floats(min_value=0, max_value=100), min_size=2, max_size=30))
    def test_monotone_differences_mean_zero_msm(self, steps):
        series = [0.0]
        for step in steps:
            series.append(series[-1] + step)
        assert mean_spike_magnitude(series) == (0.0, 0)


class TestSeriesMetrics:
    def test_bundle_matches_parts(self):
        series = [100.0, 103.0, 99.0, 104.0, 101.0]
        bundle = series_metrics(series)
        assert bundle.std_dev == std_dev(series)
        assert bundle.std_dev_diffs == std_dev_differences(series)
        assert (bundle.msm, bundle.spike_count) == mean_spike_magnitude(series)

    def test_zero_spikes_means_zero_msm(self):
        bundle = series_metrics([1.0, 2.0, 3.0])
        assert bundle.spike_count == 0
        assert bundle.msm == 0.0

    def test_to_dict_is_flat(self):
        bundle = SeriesMetrics(1.0, 2.0, 3.0, 4)
        assert bundle.to_dict() == {
            "std_dev": 1.0,
            "std_dev_diffs": 2.0,
            "msm": 3.0,
            "spike_count": 4,
        }
