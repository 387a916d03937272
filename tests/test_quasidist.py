import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdfit.quasidist import PROMINENCE_FRAC, find_peaks, moments, normalize, quasi_distribution


class TestNormalize:
    def test_rescales_to_unit_sum(self):
        gamma, values = normalize(np.array([0.1, 0.3, 0.1]))
        assert gamma == pytest.approx(2.0)
        np.testing.assert_allclose(values, [0.2, 0.6, 0.2], atol=1e-15)

    def test_identity_on_normalized_input(self):
        gamma, values = normalize(np.array([0.2, 0.6, 0.2]))
        assert gamma == pytest.approx(1.0)
        np.testing.assert_allclose(values, [0.2, 0.6, 0.2], atol=1e-15)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError, match="zero sum"):
            normalize(np.array([1.0, -1.0]))

    def test_negative_sum_rejected(self):
        # a negative total would flip the signal's sign and its moments
        signal = np.array([0.2, -0.5, 0.1])
        for call in (lambda: normalize(signal), lambda: quasi_distribution(signal)):
            with pytest.raises(ValueError, match="negative sum"):
                call()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        signal = np.array([0.1, 0.5, bad, 0.3, 0.1])
        for call in (lambda: normalize(signal), lambda: quasi_distribution(signal)):
            with pytest.raises(ValueError, match="finite"):
                call()

    @pytest.mark.parametrize("signal", [[5e-324, 0.0, 0.0], [1e150, -1e150, 1e-300]])
    def test_sum_too_small_to_rescale_rejected(self, signal):
        # gamma or gamma * signal overflowed, with a RuntimeWarning
        for call in (lambda: normalize(signal), lambda: quasi_distribution(signal)):
            with pytest.raises(ValueError, match="too small to rescale"):
                call()

    def test_two_dimensional_rejected(self):
        signal = np.ones((3, 4))
        for call in (lambda: normalize(signal), lambda: quasi_distribution(signal)):
            with pytest.raises(ValueError, match="one-dimensional"):
                call()

    def test_negative_cells_kept(self):
        gamma, values = normalize(np.array([0.5, -0.1, 0.6]))
        assert gamma == pytest.approx(1.0)
        assert values[1] == pytest.approx(-0.1)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_scale_invariance(self, raw, c):
        signal = np.asarray(raw)
        gamma1, values1 = normalize(signal)
        gamma2, values2 = normalize(c * signal)
        np.testing.assert_allclose(values1, values2, rtol=1e-12, atol=1e-15)
        assert gamma2 == pytest.approx(gamma1 / c, rel=1e-12)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_output_sums_to_one(self, raw):
        _, values = normalize(np.asarray(raw))
        assert values.sum() == pytest.approx(1.0, abs=1e-12)


class TestMoments:
    def test_symmetric_three_cell(self):
        mean, variance = moments(np.array([0.2, 0.6, 0.2]))
        assert mean == pytest.approx(2.0)
        # 0.2*1 + 0.6*4 + 0.2*9 - 4 = 0.4
        assert variance == pytest.approx(0.4)

    def test_point_mass(self):
        values = np.zeros(10)
        values[6] = 1.0
        mean, variance = moments(values)
        assert mean == 7.0
        assert variance == 0.0

    def test_requires_unit_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            moments(np.array([0.2, 0.2]))

    @pytest.mark.parametrize("bad", [[np.nan], [0.5, np.nan, 0.5]])
    def test_nan_sum_rejected(self, bad):
        # the one value rule refuses a NaN before its total is formed
        with pytest.raises(ValueError, match=r"values must be finite \(no NaN or inf\)"):
            moments(np.array(bad))

    def test_shift_covariance(self):
        base = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        mean0, var0 = moments(base)
        for m in (1, 3, 10):
            mean, var = moments(np.concatenate([np.zeros(m), base]))
            assert mean == pytest.approx(mean0 + m, abs=1e-9)
            assert var == pytest.approx(var0, abs=1e-9)


class TestFindPeaks:
    def test_two_separated_peaks(self):
        peaks = find_peaks(np.array([0.0, 1.0, 0.0, 2.0, 0.0]))
        assert [(p.day, p.height) for p in peaks] == [(2, 1.0), (4, 2.0)]
        assert peaks[0].prominence == pytest.approx(1.0)
        assert peaks[1].prominence == pytest.approx(2.0)

    def test_monotone_has_no_peaks(self):
        assert find_peaks(np.arange(10.0)) == []

    def test_plateau_reports_leftmost_sample(self):
        peaks = find_peaks(np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert [p.day for p in peaks] == [2]

    def test_prominence_floor_filters_ripple(self):
        # the floor is PROMINENCE_FRAC of the maximum 10.2, so 0.51: a ripple
        # 0.4 above its notch is dropped, and one 0.6 above it is kept
        assert PROMINENCE_FRAC == 0.05
        below = find_peaks(np.array([0.0, 10.0, 9.6, 10.2, 0.0]))
        above = find_peaks(np.array([0.0, 10.0, 9.4, 10.2, 0.0]))
        assert [p.day for p in below] == [4]
        assert [p.day for p in above] == [2, 4]
        assert above[0].prominence == pytest.approx(0.6)

    def test_heights_match_values(self):
        values = np.array([0.0, 3.0, 1.0, 5.0, 2.0, 4.0, 0.0])
        for peak in find_peaks(values):
            assert peak.height == values[peak.day - 1]

    def test_short_input(self):
        assert find_peaks(np.array([1.0, 2.0])) == []

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=3,
            max_size=60,
        ),
        st.integers(min_value=-10, max_value=10),
    )
    def test_peak_count_invariant_under_rescale(self, raw, exponent):
        # power-of-two scale keeps the multiplication exact, so the float
        # ordering pattern (and thus the peak set) is preserved verbatim
        values = np.asarray(raw)
        base = find_peaks(values)
        scaled = find_peaks(2.0**exponent * values)
        assert [p.day for p in base] == [p.day for p in scaled]


class TestQuasiDistribution:
    def test_composition(self):
        signal = np.array([0.0, 1.0, 0.0, 2.0, 1.0])
        quasi = quasi_distribution(signal)
        assert quasi.gamma == pytest.approx(0.25)
        assert quasi.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert quasi.mean == pytest.approx(moments(quasi.values)[0])
        assert [p.day for p in quasi.peaks] == [2, 4]

    def test_symmetric_bump_is_centered(self):
        n = 101
        days = np.arange(1, n + 1)
        signal = np.exp(-((days - 51.0) ** 2) / (2 * 9.0**2))
        quasi = quasi_distribution(signal)
        assert abs(quasi.mean - 51.0) <= 1e-9

    def test_fitted_symmetric_bump_mean_within_one_day(self):
        from qdfit.fitting import fit

        n = 100
        days = np.arange(1, n + 1, dtype=float)
        f = np.exp(-((days - n / 2.0) ** 2) / (2 * 12.0**2))
        f /= f.sum()
        result = fit(f)
        quasi = quasi_distribution(result.discretized)
        assert abs(quasi.mean - n / 2.0) <= 1.0
