import numpy as np
import pytest
from hypothesis import given, strategies as st

from basis_oracle import (
    basis_values_loop,
    closed_form_piecewise_row,
    closed_form_row,
    eval_basis_closed_form,
)
from qdfit.basis import (
    DEGREE,
    NUM_PIECEWISE_BASIS,
    NUM_QUASI_BASIS,
    _basis_values,
    _knot_spans,
    make_knot_vector,
    piecewise_basis_matrix,
    quasi_basis_matrix,
)

TS = np.linspace(0.0, 1.0, 1000)


def quasi_row(t: float) -> np.ndarray:
    """The 15 base-function values at one parameter."""
    return quasi_basis_matrix(np.array([t]))[0]


def piecewise_row(t: float, omega: float) -> np.ndarray:
    """The 29 two-piece basis values at one parameter."""
    return piecewise_basis_matrix(np.array([t]), omega)[0]


class TestKnotVector:
    def test_layout(self):
        kv = make_knot_vector()
        assert len(kv) == 21
        np.testing.assert_array_equal(kv[:6], 0.0)
        np.testing.assert_array_equal(kv[-6:], 1.0)
        np.testing.assert_allclose(kv[6:15], np.arange(1, 10) / 10.0)

    def test_first_interior_knot(self):
        assert make_knot_vector()[6] == pytest.approx(0.1)

    def test_non_decreasing(self):
        assert (np.diff(make_knot_vector()) >= 0.0).all()


def searched_spans(ts: np.ndarray) -> np.ndarray:
    """The span of each t by a search of the knot vector, numbered 0..9."""
    spans = np.searchsorted(make_knot_vector(), ts, "right") - 1
    return np.clip(spans, DEGREE, NUM_QUASI_BASIS - 1) - DEGREE


class TestKnotSpans:
    """`_knot_spans` finds spans by arithmetic; it must equal the knot search."""

    def test_ulps_around_every_knot(self):
        offsets = np.arange(-20_000, 20_001)
        for knot in np.unique(make_knot_vector()):
            ts = (np.float64(knot).view(np.int64) + offsets).view(np.float64)
            ts = ts[(ts >= 0.0) & (ts <= 1.0)]  # below 0.0 the bits are NaN
            np.testing.assert_array_equal(_knot_spans(ts), searched_spans(ts))

    def test_one_ulp_below_0_9(self):
        # 10 t rounds up to exactly 9 here, and only the knot compare puts t
        # back into span 8
        t = np.nextafter(0.9, 0.0)
        assert int(10.0 * t) == 9
        assert _knot_spans(np.array([t]))[0] == 8 == searched_spans(np.array([t]))[0]

    def test_random_values(self):
        ts = np.random.default_rng(17).random(2_000_000)
        ts = np.concatenate([[0.0, 1.0], ts])
        np.testing.assert_array_equal(_knot_spans(ts), searched_spans(ts))


class TestLevelAtATime:
    """`_basis_values` runs Cox-de Boor one degree level at a time; it must
    equal the loop over r of `basis_values_loop` bit for bit."""

    @staticmethod
    def assert_same(ts):
        spans = _knot_spans(ts)
        np.testing.assert_array_equal(_basis_values(ts, spans), basis_values_loop(ts, spans))

    def test_domain_ends(self):
        self.assert_same(np.array([0.0, 1.0]))

    def test_ulps_around_every_knot(self):
        offsets = np.arange(-20, 21)
        ts = np.concatenate(
            [(np.float64(k).view(np.int64) + offsets).view(np.float64) for k in np.unique(make_knot_vector())]
        )
        self.assert_same(ts[(ts >= 0.0) & (ts <= 1.0)])

    def test_random_values(self):
        self.assert_same(np.random.default_rng(23).random(200_000))


class TestOutArrays:
    """Writing into caller-given arrays gives what allocating gives, whatever
    the arrays held before."""

    OMEGAS = np.array([0.23, 0.5, 0.81])

    def test_piecewise_basis_matrix(self):
        ts = np.random.default_rng(3).random(300)
        for omega in (0.37, self.OMEGAS):
            expected = piecewise_basis_matrix(ts, omega)
            out = np.full(expected.shape, np.nan)
            assert piecewise_basis_matrix(ts, omega, out) is out
            np.testing.assert_array_equal(out, expected)

    def test_piecewise_basis_matrix_rejects_a_bad_out(self):
        ts = np.linspace(0.0, 1.0, 10)
        for out in (np.empty((10, 30)), np.empty((29, 10)).T):
            with pytest.raises(ValueError, match="C-contiguous"):
                piecewise_basis_matrix(ts, 0.4, out)


class TestRecursiveEvaluator:
    """Endpoint and support properties of the Cox-de Boor evaluator."""

    def test_endpoint_interpolation(self):
        assert quasi_row(0.0)[0] == 1.0
        assert quasi_row(1.0)[14] == 1.0

    def test_other_functions_vanish_at_endpoints(self):
        assert (quasi_row(0.0)[1:] == 0.0).all()
        assert (quasi_row(1.0)[:14] == 0.0).all()

    def test_value_at_first_interior_knot(self):
        # 2500/3 * 0.1^5, the first polynomial piece of function 5
        assert quasi_row(0.1)[5] == pytest.approx(2500.0 / 3.0 * 1e-5, rel=1e-12)

    def test_local_support_is_exact_zero(self):
        kv = make_knot_vector()
        ts = TS[::7]
        design = quasi_basis_matrix(ts)
        for i in range(NUM_QUASI_BASIS):
            lo, hi = kv[i], kv[i + 6]
            outside = (ts < lo) | (ts > hi)
            assert (design[outside, i] == 0.0).all()


class TestClosedForms:
    def test_first_function_inside_first_piece(self):
        # -1e5 (0.05 - 0.1)^5
        assert eval_basis_closed_form(0, 0.05) == pytest.approx(0.03125, abs=1e-12)

    def test_fifth_function_first_piece(self):
        assert eval_basis_closed_form(5, 0.05) == pytest.approx(
            2500.0 / 3.0 * 0.05**5, rel=1e-12
        )

    def test_translation_rule(self):
        assert eval_basis_closed_form(9, 0.75) == pytest.approx(
            eval_basis_closed_form(5, 0.35), rel=1e-12
        )

    def test_reflection_rule(self):
        assert eval_basis_closed_form(14, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert eval_basis_closed_form(10, 0.37) == pytest.approx(
            eval_basis_closed_form(4, 0.63), rel=1e-12
        )

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            eval_basis_closed_form(15, 0.5)

    def test_agrees_with_recursion(self):
        ts = TS[::3]
        closed = np.vstack([closed_form_row(t) for t in ts])
        assert np.abs(closed - quasi_basis_matrix(ts)).max() <= 1e-9


class TestQuasiVector:
    def test_endpoints(self):
        np.testing.assert_array_equal(quasi_row(0.0), np.eye(15)[0])
        np.testing.assert_array_equal(quasi_row(1.0), np.eye(15)[14])

    def test_partition_of_unity_mid(self):
        assert quasi_row(0.5).sum() == pytest.approx(1.0, abs=1e-12)

    def test_partition_of_unity_dense(self):
        sums = quasi_basis_matrix(TS).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_non_negativity(self):
        assert quasi_basis_matrix(TS).min() >= -1e-12

    def test_reflection_symmetry(self):
        left = quasi_basis_matrix(TS)
        right = quasi_basis_matrix(1.0 - TS)[:, ::-1]
        assert np.abs(left - right).max() <= 1e-12

    def test_translation_identities(self):
        for j in range(1, 5):
            ts = TS[TS >= 0.1 * j]
            shifted = quasi_basis_matrix(ts - 0.1 * j)[:, 5]
            assert np.abs(quasi_basis_matrix(ts)[:, 5 + j] - shifted).max() <= 1e-12

    def test_matrix_matches_closed_form(self):
        ts = np.array([0.0, 0.05, 0.1, 1 / 3, 0.77, 0.9999999, 1.0])
        stacked = np.vstack([closed_form_row(t) for t in ts])
        assert np.abs(quasi_basis_matrix(ts) - stacked).max() <= 1e-13

    def test_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError):
            quasi_basis_matrix(np.array([[0.1]]))
        with pytest.raises(ValueError):
            quasi_basis_matrix(np.array([-0.1]))
        with pytest.raises(ValueError):
            quasi_basis_matrix(np.array([1.1]))

    def test_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            quasi_basis_matrix(np.array([np.nan]))

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_partition_and_bounds_everywhere(self, t):
        values = quasi_row(t)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert values.min() >= -1e-12
        assert values.max() <= 1.0 + 1e-12


class TestPiecewiseVector:
    def test_left_endpoint(self):
        values = piecewise_row(0.0, 0.4)
        assert values[0] == 1.0
        assert np.abs(values[1:]).max() == 0.0

    def test_junction_interpolates_shared_control(self):
        values = piecewise_row(0.4, 0.4)
        assert values[14] == 1.0
        assert values.sum() == 1.0

    def test_right_endpoint(self):
        values = piecewise_row(1.0, 0.4)
        assert values[28] == 1.0

    def test_one_sided_support_left(self):
        values = piecewise_row(0.37, 0.4)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(values[15:]).max() == 0.0

    def test_one_sided_support_right(self):
        values = piecewise_row(0.63, 0.4)
        assert np.abs(values[:14]).max() == 0.0

    def test_omega_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                piecewise_basis_matrix(TS, bad)

    def test_nan_parameter_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            piecewise_basis_matrix(np.array([0.2, np.nan, 0.7]), 0.4)

    @pytest.mark.parametrize("omega", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_partition_of_unity_dense(self, omega):
        sums = piecewise_basis_matrix(TS, omega).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("omega", [0.2, 0.5, 0.8])
    def test_matrix_matches_scalar(self, omega):
        ts = np.array([0.0, omega / 2, omega, (1 + omega) / 2, 1.0])
        stacked = np.vstack([closed_form_piecewise_row(t, omega) for t in ts])
        assert np.abs(piecewise_basis_matrix(ts, omega) - stacked).max() <= 1e-13

    def test_curve_continuous_at_junction(self):
        rng = np.random.default_rng(7)
        for omega in (0.25, 0.5, 0.75):
            controls = rng.uniform(-1.0, 1.0, size=(NUM_PIECEWISE_BASIS, 2))
            ts = np.array([np.nextafter(omega, 0.0), omega, np.nextafter(omega, 1.0)])
            pts = piecewise_basis_matrix(ts, omega) @ controls
            assert np.abs(pts - pts[1]).max() <= 1e-10
            # the junction value is exactly the shared control point
            np.testing.assert_array_equal(pts[1], controls[14])
