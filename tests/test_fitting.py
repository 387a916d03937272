import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qdfit
import qdfit.basis as basis
import qdfit.fitting as fitting
from qdfit.basis import NUM_PIECEWISE_BASIS, piecewise_basis_matrix
from qdfit.fitting import (
    IllConditionedError,
    PiecewiseCurve,
    assemble_design,
    chord_length_params,
    data_points,
    default_omega_grid,
    discretize,
    fit,
    fit_fixed_omega,
    mse,
    sample_curve,
    solve_normal_equations,
)
from fit_oracle import bisect_day_values, day_values, pp_eval, pp_spans
from synthetic import greville_abscissae, linear_day_curve, roundtrip_data, two_bump_counts


# two cycles of the library pipeline; prints the second cycle's minor faults
PIPELINE_CYCLES = """
import datetime, resource
import numpy as np
from qdfit import (WindowSpec, build_report, emit_json, emit_panel_svg, extract_window, fit,
                   histogram, moving_average_7, parse_csv, quasi_distribution)

rng = np.random.default_rng(5)
texts = []
for n_days in (29, 60, 120, 250, 500):
    x = np.arange(n_days + 6) / (n_days + 5)
    for mean in (
        10 + 1000 * np.exp(-(((x - 0.4) / 0.12) ** 2)),
        10 + 800 * np.exp(-(((x - 0.3) / 0.08) ** 2)) + 500 * np.exp(-(((x - 0.7) / 0.1) ** 2)),
        np.where(x < 0.45, 200.0, 500.0),
    ):
        counts = rng.poisson(mean)
        days = (datetime.date(2021, 1, 1) + datetime.timedelta(days=k) for k in range(counts.size))
        texts.append("date,cases\\n" + "".join(f"{d},{c:.3f}\\n" for d, c in zip(days, counts)))

def cycle():
    for text in texts:
        [raw] = parse_csv(text)
        smoothed = moving_average_7(raw)
        window = WindowSpec("custom", smoothed.start_date, smoothed.end_date)
        data = histogram(extract_window(smoothed, window))
        result = fit(data)
        quasi = quasi_distribution(result.discretized)
        report = build_report("cases", window, result.omega, result.mse, quasi, result.omega_grid_scores)
        emit_json(report)
        emit_panel_svg(data.f, quasi.values, "cases", report.omega, report.variance)

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestChordLengthParams:
    def test_equal_chords(self):
        params = chord_length_params(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        np.testing.assert_allclose(params, [0.0, 0.5, 1.0], atol=1e-15)

    def test_unequal_chords(self):
        params = chord_length_params(np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
        np.testing.assert_allclose(params, [0.0, 1.0 / 3.0, 1.0], atol=1e-15)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            chord_length_params(np.array([[1.0, 2.0]]))

    def test_repeated_point(self):
        with pytest.raises(ValueError):
            chord_length_params(np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 2.0]]))

    @pytest.mark.parametrize("step", [1.4e154, 1e300, float("inf"), float("nan")])
    def test_chord_that_overflows_rejected(self, step):
        # a finite step of 1.4e154 squares past the largest double; the one
        # value rule refuses every coordinate above 1e150 first
        points = np.array([[1.0, 0.0], [2.0, step], [3.0, 0.0]])
        with pytest.raises(ValueError, match=r"points must be finite .* magnitude at most 1e\+150"):
            chord_length_params(points)

    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_normalized_and_increasing(self, ys):
        points = data_points(np.asarray(ys))
        params = chord_length_params(points)
        assert params[0] == 0.0
        assert params[-1] == 1.0
        assert (np.diff(params) > 0.0).all()


class TestDesignMatrix:
    def test_endpoint_row(self):
        row = assemble_design(np.array([0.0, 0.5, 1.0]), 0.4)[0]
        assert row[0] == 1.0
        assert np.abs(row[1:]).max() == 0.0

    def test_rows_sum_to_one(self):
        params = np.linspace(0.0, 1.0, 200)
        design = assemble_design(params, 0.37)
        assert np.abs(design.sum(axis=1) - 1.0).max() <= 1e-12

    def test_left_rows_have_zero_right_columns(self):
        params = np.linspace(0.0, 1.0, 50)
        design = assemble_design(params, 0.62)
        left = params < 0.62
        assert np.abs(design[left][:, 15:]).max() == 0.0

    def test_slices_and_given_split_build_the_same_design(self, monkeypatch):
        # the basis is evaluated SLICE_ROWS rows at a time; slices that cut
        # across candidates, and a split passed in instead of computed, must
        # give the whole design bit for bit
        rng = np.random.default_rng(5)
        params = np.concatenate([[0.0], np.sort(rng.random(48)), [1.0]])
        omegas = np.array([0.21, 0.5, 0.77])
        whole = assemble_design(params, omegas)
        monkeypatch.setattr(basis, "SLICE_ROWS", 7)
        np.testing.assert_array_equal(assemble_design(params, omegas), whole)
        split = basis._segment_params(params, omegas)
        out = np.full_like(whole, np.nan)
        assert assemble_design(params, omegas, out, split) is out
        np.testing.assert_array_equal(out, whole)

    def test_nan_points_rejected(self):
        # the parameters refuse a NaN point by the one value rule, and the
        # design refuses NaN parameters
        points = np.array([[1.0, 0.2], [2.0, np.nan], [3.0, 0.5], [4.0, 0.1]])
        with pytest.raises(ValueError, match=r"points must be finite \(no NaN or inf\)"):
            chord_length_params(points)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            assemble_design(np.array([0.0, np.nan, np.nan, np.nan]), 0.4)


class TestNormalEquations:
    def test_zero_rhs_gives_zero_controls(self):
        params = np.linspace(0.0, 1.0, 80)
        design = assemble_design(params, 0.5)
        points = np.column_stack([np.zeros(80), np.zeros(80)])
        controls = solve_normal_equations(design, points)
        assert np.abs(controls).max() <= 1e-10

    def test_refit_reproduces_curve_samples(self):
        rng = np.random.default_rng(3)
        curve = PiecewiseCurve(0.45, rng.uniform(0.0, 2.0, size=(29, 2)))
        ts = np.linspace(0.0, 1.0, 200)
        points = curve.at(ts)
        controls = solve_normal_equations(assemble_design(ts, 0.45), points)
        refit = PiecewiseCurve(0.45, controls)
        assert np.abs(refit.at(ts) - points).max() <= 1e-6

    def test_square_system_interpolates(self):
        omega = 0.5
        grev = greville_abscissae()
        params = np.unique(np.concatenate([omega * grev, omega + (1 - omega) * grev]))
        assert params.size == 29
        rng = np.random.default_rng(11)
        points = rng.uniform(0.0, 1.0, size=(29, 2))
        design = assemble_design(params, omega)
        controls = solve_normal_equations(design, points)
        assert np.abs(design @ controls - points).max() <= 1e-8

    def test_gradient_optimality(self):
        rng = np.random.default_rng(5)
        f = rng.random(300)
        f /= f.sum()
        points = data_points(f)
        design = assemble_design(chord_length_params(points), 0.33)
        controls = solve_normal_equations(design, points)
        gradient = design.T @ (design @ controls - points)
        scale = np.abs(design.T @ points).max(axis=0)
        assert (np.abs(gradient).max(axis=0) <= 1e-8 * scale).all()

    def test_constant_shift_moves_controls_exactly(self):
        rng = np.random.default_rng(9)
        f = rng.random(500)
        f /= f.sum()
        points = data_points(f)
        design = assemble_design(chord_length_params(points), 0.4)
        base = solve_normal_equations(design, points)
        shifted_points = points.copy()
        shifted_points[:, 1] += 1.0
        shifted = solve_normal_equations(design, shifted_points)
        assert np.abs(shifted[:, 1] - base[:, 1] - 1.0).max() <= 1e-9

    def test_length_mismatch(self):
        design = assemble_design(np.linspace(0, 1, 10), 0.5)
        with pytest.raises(ValueError):
            solve_normal_equations(design, np.zeros((11, 2)))

    def test_singular_gram_raises_ill_conditioned(self):
        # an all-zero design gives a zero Gram matrix
        with pytest.raises(IllConditionedError):
            solve_normal_equations(np.zeros((40, 29)), np.ones((40, 2)))

    def test_stack_equals_one_design_at_a_time(self):
        rng = np.random.default_rng(17)
        f = rng.random(90)
        points = data_points(f / f.sum())
        params = chord_length_params(points)
        omegas = np.array([0.15, 0.5, 0.5, 0.83])
        designs = assemble_design(params, omegas)
        designs[2] = 0.0  # this candidate cannot be factorized
        controls = solve_normal_equations(designs, points)
        assert controls.shape == (4, 29, 2)
        assert np.isnan(controls[2]).all()
        for i in (0, 1, 3):
            np.testing.assert_array_equal(designs[i], assemble_design(params, omegas[i]))
            np.testing.assert_array_equal(controls[i], solve_normal_equations(designs[i], points))


class TestSampleCurve:
    def test_endpoints_hit_end_controls(self):
        rng = np.random.default_rng(1)
        curve = PiecewiseCurve(0.3, rng.normal(size=(29, 2)))
        samples = sample_curve(curve, 50)
        np.testing.assert_allclose(samples[0], curve.controls[0], atol=1e-14)
        np.testing.assert_allclose(samples[-1], curve.controls[28], atol=1e-14)

    def test_constant_curve(self):
        curve = PiecewiseCurve(0.5, np.ones((29, 2)))
        samples = sample_curve(curve, 3)
        np.testing.assert_allclose(samples, np.ones((3, 2)), atol=1e-12)

    def test_needs_two_samples(self):
        curve = PiecewiseCurve(0.5, np.ones((29, 2)))
        with pytest.raises(ValueError):
            sample_curve(curve, 1)

    def test_bad_control_shape(self):
        with pytest.raises(ValueError):
            PiecewiseCurve(0.5, np.ones((28, 2)))


class TestCurveEvaluation:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_pp_form_matches_basis_matrix(self, seed, omega, scale):
        rng = np.random.default_rng(seed)
        controls = scale * rng.normal(size=(NUM_PIECEWISE_BASIS, 2))
        knots = np.arange(11) / 10.0
        ts = np.concatenate(
            [[0.0, 1.0, omega], knots * omega, omega + (1.0 - omega) * knots, rng.random(50)]
        )
        expected = piecewise_basis_matrix(ts, omega) @ controls
        actual = pp_eval(basis.pp_curve(controls), *pp_spans(ts, np.array([omega])))[0]
        assert np.abs(actual - expected).max() <= 1e-13 * np.abs(controls).max()

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.01, max_value=0.99))
    def test_pp_derivative_matches_central_differences(self, seed, omega):
        # d/du of each span's polynomial; u stays inside the span
        rng = np.random.default_rng(seed)
        polys = basis.pp_curve(rng.normal(size=(NUM_PIECEWISE_BASIS, 2)))
        spans, us = pp_spans(rng.uniform(0.0, 1.0, 200), np.array([omega]))
        us = np.clip(us, 0.01, 0.99)
        h = 1e-5
        expected = (pp_eval(polys, spans, us + h) - pp_eval(polys, spans, us - h)) / (2 * h)
        actual = pp_eval(basis.pp_derivative(polys), spans, us)
        assert np.abs(actual - expected).max() <= 1e-6 * np.abs(polys).max()

    @pytest.mark.parametrize("t", [-1e-12, -0.5, 1.0 + 1e-12, 2.0, float("nan")])
    def test_parameters_outside_unit_interval_rejected(self, t):
        curve = PiecewiseCurve(0.4, np.ones((29, 2)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            curve.at(np.array([0.5, t]))

    @pytest.mark.parametrize("omega", [2.0, 0.0, 1.0, float("nan")])
    def test_omega_outside_unit_interval_rejected(self, omega):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            PiecewiseCurve(omega, np.zeros((29, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e151])
    def test_controls_held_to_the_value_rule(self, bad):
        # NaN controls made every curve value NaN
        controls = np.ones((29, 2))
        controls[7, 1] = bad
        with pytest.raises(ValueError, match="controls must be finite"):
            PiecewiseCurve(0.5, controls)


class TestFusedDiscretization:
    """fit discretizes inside its loop, by the exact rule: day k takes y(t*_k)
    where x(t*_k) = k, found by Newton's method from the chord-length
    parameters.  A stack of curves must give what one curve at a time gives."""

    @staticmethod
    def fused(curve, params):
        out = day_values(np.array([curve.omega]), curve.controls[None], params)[0]
        np.testing.assert_allclose(
            out, bisect_day_values(curve, params.size), rtol=0.0, atol=1e-12 * np.abs(curve.controls).max()
        )
        # the same curve inside a stack of curves gives the same row
        others = PiecewiseCurve(0.55, curve.controls * [1.0, -1.0] + [0.25, 1.0])
        stacked = day_values(
            np.array([others.omega, curve.omega]), np.stack([others.controls, curve.controls]), params
        )
        np.testing.assert_array_equal(stacked[1], out)
        np.testing.assert_array_equal(
            stacked[0], day_values(np.array([others.omega]), others.controls[None], params)[0]
        )
        return out

    def test_equal_x_ties_take_the_largest_index(self):
        # the max-below rule of `discretize`, which fit no longer uses; under
        # the exact rule a flat x fails gate (b) (see test_non_monotone_x)
        controls = np.column_stack([np.zeros(29), np.linspace(1.0, 2.0, 29)])
        curve = PiecewiseCurve(0.4, controls)
        samples = sample_curve(curve, 200)
        assert np.all(samples[:, 0] == 0.0)
        np.testing.assert_array_equal(discretize(samples, 3), samples[-1, 1])

    def test_day_without_earlier_sample_takes_the_first(self):
        # days outside [x(0), x(1)] take t = 0 or t = 1: y of the pp-form's
        # first span at u = 0 or of its last span at u = 1
        def y_at(curve, span, u):
            return basis.horner(basis.pp_curve(curve.controls)[span, :, 1], np.array(u))

        curve = linear_day_curve(0.4, 50)
        shifted = PiecewiseCurve(0.4, curve.controls + [0.5, 0.0])
        out = self.fused(shifted, np.linspace(0.0, 1.0, 50))
        assert out[0] == y_at(shifted, 0, 0.0)
        squeezed = PiecewiseCurve(0.4, curve.controls * [0.5, 1.0] + [12.0, 0.0])
        out = self.fused(squeezed, np.linspace(0.0, 1.0, 50))
        np.testing.assert_array_equal(out[:12], y_at(squeezed, 0, 0.0))
        np.testing.assert_array_equal(out[37:], y_at(squeezed, -1, 1.0))

    def test_linear_day_map_takes_y_at_its_inverse(self):
        # x(t) = 1 + (N - 1) t exactly, so t*_k = (k - 1)/(N - 1)
        curve = linear_day_curve(0.35, 80)
        ts = np.linspace(0.0, 1.0, 80)
        out = self.fused(curve, ts)
        np.testing.assert_allclose(out, curve.at(ts)[:, 1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n_samples", [2, 3000])
    def test_sample_counts(self, n_samples):
        # fit ignores n_samples and discretizes its winner by the exact rule
        curve = linear_day_curve(0.6, 60)
        f = roundtrip_data(curve, 60)
        result = fit(f, [0.6], n_samples)
        assert result.mse == fit(f, [0.6]).mse
        params = chord_length_params(data_points(f))
        np.testing.assert_array_equal(result.discretized, self.fused(result.curve, params))

    def test_non_monotone_x(self):
        # gate (b): a candidate whose x controls do not strictly increase is
        # never discretized or scored; flat x counts as not increasing
        rng = np.random.default_rng(21)
        f = rng.random(60) + 0.5
        f /= f.sum()
        real = fitting.solve_normal_equations

        def bend(design, points):
            controls = real(design, points)
            assert len(controls) == 3  # one stack, rows in grid order
            controls[0, 5, 0] = controls[0, 4, 0] - 1.0  # omega 0.4: x turns back
            controls[2, 5, 0] = controls[2, 4, 0]  # omega 0.6: x stalls
            return controls

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "solve_normal_equations", bend)
            result = fit(f, [0.4, 0.5, 0.6])
        scores = dict(result.omega_grid_scores)
        assert scores[0.4] == scores[0.6] == float("inf")
        assert scores[0.5] == fit(f, [0.5]).mse and result.omega == 0.5


class TestDiscretize:
    def test_max_below_rule(self):
        samples = np.array([[0.5, 10.0], [1.5, 20.0], [2.5, 30.0]])
        np.testing.assert_array_equal(discretize(samples, 3), [10.0, 20.0, 30.0])

    def test_fallback_to_first_sample(self):
        samples = np.array([[1.0, 42.0], [2.0, 43.0]])
        np.testing.assert_array_equal(discretize(samples, 1), [42.0])

    def test_tie_takes_largest_index(self):
        samples = np.array([[0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(discretize(samples, 1), [3.0])

    def test_monotone_spanning_grid(self):
        xs = np.linspace(1.0, 5.0, 41)
        samples = np.column_stack([xs, xs * 10.0])
        out = discretize(samples, 5)
        # immediately left of k: x = k - 0.1 for k = 2..5; fallback for k=1
        np.testing.assert_allclose(out, [10.0, 19.0, 29.0, 39.0, 49.0], atol=1e-9)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            discretize(np.empty((0, 2)), 3)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5.0, max_value=10.0, allow_nan=False),
                st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_output_values_come_from_samples(self, pairs, n_days):
        samples = np.array(pairs)
        out = discretize(samples, n_days)
        assert out.shape == (n_days,)
        assert all(v in samples[:, 1] for v in out)


class TestMse:
    def test_identical(self):
        assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_by_hand(self):
        assert mse(np.array([1.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_symmetric(self):
        a = np.array([0.3, 0.7, 0.1])
        b = np.array([0.1, 0.2, 0.9])
        assert mse(a, b) == mse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.ones(3), np.ones(4))


class TestFitFixedOmega:
    def test_constant_data_is_reproduced(self):
        f = np.full(120, 1.0 / 120)
        candidate = fit_fixed_omega(f, 0.35)
        assert candidate.mse <= 1e-16

    def test_roundtrip_from_known_curve(self):
        curve = linear_day_curve(0.4, 200)
        f = roundtrip_data(curve, 200)
        candidate = fit_fixed_omega(f, 0.4)
        assert candidate.mse <= 1e-14 * np.mean(np.arange(1, 201) ** 2 + f**2)

    def test_reported_mse_matches_recomputation(self):
        rng = np.random.default_rng(2)
        f = rng.random(60)
        f /= f.sum()
        candidate = fit_fixed_omega(f, 0.5)
        assert candidate.mse == mse(candidate.discretized, f)

    def test_equals_fit_on_one_candidate_grid(self):
        rng = np.random.default_rng(12)
        f = rng.random(45)
        f /= f.sum()
        fixed = fit_fixed_omega(f, 0.42)
        searched = fit(f, [0.42])
        assert fixed.omega == searched.omega == 0.42
        np.testing.assert_array_equal(fixed.curve.controls, searched.curve.controls)
        np.testing.assert_array_equal(fixed.discretized, searched.discretized)
        assert fixed.mse == searched.mse
        assert fixed.omega_grid_scores == searched.omega_grid_scores


class TestFit:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_data_rejected(self, bad):
        f = np.full(60, 1.0 / 60)
        f[17] = bad
        for call in (lambda: fit(f), lambda: fit_fixed_omega(f, 0.5), lambda: data_points(f)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_mean_centred_data_rejected(self):
        # a two-bump window minus its mean: negative values and a zero total
        counts, _ = two_bump_counts(200, (60.0, 150.0), (12.0, 16.0))
        f = counts[3:-3] / counts[3:-3].sum()
        centred = f - f.mean()
        for call in (lambda: fit(centred), lambda: fit_fixed_omega(centred, 0.5)):
            with pytest.raises(ValueError, match="non-negative"):
                call()
        with pytest.raises(ValueError, match="non-negative"):
            fit(np.where(np.arange(200) == 7, -1e-9, f))

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="zero total"):
            fit(np.zeros(40))

    def test_two_dimensional_data_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            fit(np.ones((40, 2)) / 80)

    def test_overflowing_chord_rejected(self):
        # finite values one 1e300 step apart: the chord length overflows
        with pytest.raises(ValueError, match=r"magnitude at most 1e\+150"):
            fit(np.r_[np.zeros(30), 1e300, np.zeros(30)])

    @pytest.mark.parametrize("n_days", [3, 28])
    def test_fewer_points_than_controls_rejected(self, n_days):
        f = np.full(n_days, 1.0 / n_days)
        for call in (lambda: fit(f), lambda: fit_fixed_omega(f, 0.5)):
            with pytest.raises(ValueError, match="at least 29"):
                call()

    def test_as_many_points_as_controls_accepted(self):
        f = np.full(NUM_PIECEWISE_BASIS, 1.0 / NUM_PIECEWISE_BASIS)
        assert fit(f, omega_grid=[0.5]).discretized.shape == (NUM_PIECEWISE_BASIS,)

    def test_basis_rows_requested_stay_within_the_design(self, monkeypatch):
        # a 500-day fit asks the basis evaluator for the 81 designs' rows and
        # the one-time pp table (10 spans x 6 points); curve evaluation adds none
        real = basis._basis_values
        rows = []

        def counting(ts, spans):
            rows.append(len(ts))
            return real(ts, spans)

        monkeypatch.setattr(basis, "_basis_values", counting)
        basis.pp_table.cache_clear()
        rng = np.random.default_rng(13)
        f = rng.random(500)
        fit(f / f.sum())
        assert sum(rows) <= 81 * 500 + 60

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux minor-fault counts")
    def test_repeat_fit_does_not_refault_its_memory(self):
        # a fit allocates its large arrays once, not per candidate, so a second
        # fit in one process reuses the heap instead of faulting it in again
        # (about 33k minor faults at 2000 days when every candidate allocated
        # its own temporaries and the heap top went back to the OS in between).
        # A stack holds 42 candidates at 120 days, 20 at 250, 10 at 500 and 2
        # at 2000.  The second fit of a process may still grow the heap once,
        # when the first fit's mmap-ed design raised glibc's mmap threshold;
        # from then on a repeated fit takes no minor faults
        resource = pytest.importorskip("resource")
        for n_days in (120, 250, 500, 2000):
            f = np.random.default_rng(19).random(n_days) + 0.1
            f /= f.sum()
            fit(f)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            fit(f)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert after - before < 5000, n_days
            fit(f)
            assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - after < 64, n_days

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux minor-fault counts")
    def test_repeat_pipeline_does_not_refault_its_memory(self):
        # the library pipeline over noisy 29..500-day windows of three shapes,
        # as the benchmark's warm workload runs it, in a fresh process.  A
        # repeated cycle took 4-49 minor faults on a 2-vCPU Xeon.  Without the
        # fit-wide design buffer, and so without the basis's `out=` and the day
        # values' `work=`, it took 2158-4330, as each stack's design went back
        # to the OS; the two tests above pass without that buffer
        src = os.path.dirname(os.path.dirname(qdfit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", PIPELINE_CYCLES], env=env, capture_output=True, text=True, check=True)
        assert int(out.stdout) < 1000

    def test_peak_memory_per_stacked_row(self):
        # a fit's transient memory per design row of a full stack: the design
        # takes 232 bytes a row, and the rest is bounded because the design is
        # built from the fit's own split in slices, and the day values gather
        # into the solved design.  Without those cuts a fit took 515-530
        # bytes a row at these lengths
        for n_days in (500, 2000):
            f = np.random.default_rng(23).random(n_days) + 0.1
            f /= f.sum()
            fit(f)  # the one-time pp table is not a stack's memory
            rows = max(1, fitting.STACK_ROWS // n_days) * n_days
            tracemalloc.start()
            try:
                fit(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 400 * rows, (n_days, peak / rows)

    def test_singleton_grid(self):
        f = np.full(60, 1.0 / 60)
        result = fit(f, omega_grid=[0.5])
        assert result.omega == 0.5
        assert len(result.omega_grid_scores) == 1

    def test_recovers_generating_omega(self):
        curve = linear_day_curve(0.3, 150)
        f = roundtrip_data(curve, 150)
        result = fit(f)
        assert abs(result.omega - 0.3) <= 0.01 + 1e-9

    def test_mse_is_grid_minimum(self):
        rng = np.random.default_rng(4)
        f = rng.random(80)
        f /= f.sum()
        result = fit(f, omega_grid=[0.2, 0.4, 0.6, 0.8])
        assert result.mse == min(s for _, s in result.omega_grid_scores)

    def test_deterministic_under_grid_order(self):
        rng = np.random.default_rng(6)
        f = rng.random(70)
        f /= f.sum()
        grid = [0.2, 0.35, 0.5, 0.65, 0.8]
        forward = fit(f, omega_grid=grid)
        backward = fit(f, omega_grid=grid[::-1])
        assert forward.omega == backward.omega
        assert forward.mse == backward.mse
        assert forward.omega_grid_scores == backward.omega_grid_scores

    def test_monotone_refinement(self):
        rng = np.random.default_rng(8)
        f = rng.random(90)
        f /= f.sum()
        coarse = fit(f, omega_grid=[0.3, 0.5, 0.7])
        fine = fit(f, omega_grid=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        assert fine.mse <= coarse.mse

    def test_tie_breaks_to_smaller_omega(self, monkeypatch):
        calls = []

        def stub(signal, data):
            calls.append(signal)
            return 0.125

        monkeypatch.setattr(fitting, "_mean_square", stub)
        # 60 days: all three candidates pass both gates and are scored
        result = fitting.fit(np.ones(60) / 60, omega_grid=[0.7, 0.3, 0.5])
        assert result.omega == 0.3
        assert len(calls) == 3

    def test_ill_conditioned_candidates_become_sentinels(self, monkeypatch):
        # each stack's normal equations are factorized in one call; after a
        # stacked failure, once per candidate, in grid order
        real_design, real_cholesky = fitting.assemble_design, fitting._cholesky
        assembled, stacks, factorized = [], [], []

        def recording(params, omega, out=None, split=None):
            assembled.extend(np.atleast_1d(omega).tolist())
            return real_design(params, omega, out, split)

        def flaky(gram):
            if gram.ndim == 3:
                stacks.append(assembled[-len(gram) :])
                omegas = stacks[-1]
            else:
                omegas = [assembled[len(factorized)]]
                factorized.extend(omegas)
            if min(omegas) < 0.4:
                raise IllConditionedError("synthetic failure")
            return real_cholesky(gram)

        monkeypatch.setattr(fitting, "assemble_design", recording)
        monkeypatch.setattr(fitting, "_cholesky", flaky)
        # 120 days: every candidate passes gate (a); the data's kink is at 0.5
        f = roundtrip_data(linear_day_curve(0.5, 120), 120)
        result = fitting.fit(f, omega_grid=[0.2, 0.3, 0.5, 0.7])
        assert stacks == [[0.2, 0.3, 0.5, 0.7]]
        assert factorized == [0.2, 0.3, 0.5, 0.7]
        scores = dict(result.omega_grid_scores)
        assert scores[0.2] == float("inf")
        assert scores[0.3] == float("inf")
        assert result.omega == 0.5

    def test_all_ill_conditioned_raises(self, monkeypatch):
        def always_fail(gram):
            raise IllConditionedError("synthetic failure")

        monkeypatch.setattr(fitting, "_cholesky", always_fail)
        with pytest.raises(RuntimeError, match="ill-conditioned"):
            fitting.fit(np.ones(40) / 40, omega_grid=[0.4, 0.6])

    def test_failing_and_passing_candidates_share_a_chunk(self, monkeypatch):
        # a zero design has a zero Gram matrix, which really fails to
        # factorize; the other candidates of its stack must be unaffected
        # (0.2 and 0.8 fail gate (a) here and are not assembled)
        real = fitting.assemble_design

        def zero_at_half(params, omega, out=None, split=None):
            design = real(params, omega, out, split)
            design[np.atleast_1d(omega) == 0.5] = 0.0
            return design

        rng = np.random.default_rng(31)
        f = rng.random(60)
        f /= f.sum()
        grid = [0.2, 0.5, 0.35, 0.8]
        # one stack holds the whole grid
        assert fitting.STACK_ROWS // f.size >= len(grid)
        clean, runner_up = fit(f, grid), fit(f, [0.35])
        monkeypatch.setattr(fitting, "assemble_design", zero_at_half)
        result = fit(f, grid)
        scores, clean_scores = dict(result.omega_grid_scores), dict(clean.omega_grid_scores)
        assert scores.pop(0.5) == float("inf")
        clean_scores.pop(0.5)
        assert scores == clean_scores
        assert clean.omega == 0.5 and result.omega == 0.35
        np.testing.assert_array_equal(result.discretized, runner_up.discretized)

    def test_grid_validation(self):
        f = np.ones(40) / 40
        with pytest.raises(ValueError):
            fit(f, omega_grid=[])
        with pytest.raises(ValueError):
            fit(f, omega_grid=[0.5, 1.0])

    def test_nan_candidate_rejected_before_any_design(self, monkeypatch):
        designs = []
        monkeypatch.setattr(
            fitting, "assemble_design", lambda *args: designs.append(args) or assemble_design(*args)
        )
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fit(np.ones(40) / 40, [0.5, float("nan")])
        assert designs == []

    def test_bare_number_is_a_one_candidate_grid(self):
        f = roundtrip_data(linear_day_curve(0.5, 60), 60)
        result = fit(f, 0.5)
        assert result.omega == 0.5
        assert result.omega_grid_scores == fit(f, [0.5]).omega_grid_scores

    def test_default_grid(self):
        np.testing.assert_array_equal(default_omega_grid(), np.arange(10, 91) / 100)
