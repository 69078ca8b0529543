import itertools

import numpy as np
import pytest

from jacksonlab import (
    PreconditionError,
    circle_dist,
    expected_circle_error,
    fejer_identity_check,
    fejer_kernel,
    fejer_value,
    jackson_kernel,
    median3_circle_error,
    pe_pmf,
    pe_statevector_pmf,
)
from jacksonlab.numerics import effective_trig_degree, trig_coeffs_from_samples
from jacksonlab.phase_dist import kernel_integral, tail_bound


class TestPePmf:
    def test_exact_phase_point_mass(self):
        assert pe_pmf(2, 0.0).probs == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_half_integer_phase(self):
        # hand evaluation: sin(pi/2)^2 / (4 sin(pi/4)^2) = 1/2 for both outcomes
        assert pe_pmf(2, 0.25).probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_statevector_oracle(self):
        pmf = pe_pmf(8, 0.3)
        assert np.max(np.abs(pmf.probs - pe_statevector_pmf(8, 0.3))) < 1e-12

    def test_x_reduced_mod_one(self):
        assert pe_pmf(8, 1.3).probs == pytest.approx(pe_pmf(8, 0.3).probs, abs=1e-15)

    def test_normalization_sweep(self):
        for M in range(1, 257, 5):
            for x in np.linspace(0, 1, 64, endpoint=False):
                assert abs(pe_pmf(M, x).probs.sum() - 1.0) < 1e-12

    def test_integer_mx_point_mass(self):
        pmf = pe_pmf(12, 5 / 12)
        assert pmf.probs[5] == 1.0

    def test_tail_bound(self):
        for M in (3, 7, 16, 33):
            for x in np.linspace(0, 1, 32, endpoint=False):
                pmf = pe_pmf(M, x)
                d = np.atleast_1d(circle_dist(np.arange(M) / M, pmf.x))
                far = d > 0
                assert np.all(pmf.probs[far] <= tail_bound(M, d[far]) + 1e-15)

    def test_reflection_symmetry(self):
        for M in (4, 7, 12):
            for x in (0.13, 0.377, 0.91):
                a = pe_pmf(M, x).probs
                b = pe_pmf(M, 1 - x).probs
                assert a == pytest.approx(b[(-np.arange(M)) % M], abs=1e-14)

    def test_invalid_m(self):
        with pytest.raises(PreconditionError):
            pe_pmf(0, 0.3)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_nonfinite_phase_rejected(self, x):
        with pytest.raises(PreconditionError, match="finite"):
            pe_pmf(4, x)


class TestExpectedCircleError:
    def test_exact_phase(self):
        # off-peak probabilities are sin(pi k)^2 ~ 1e-33 in floating point
        assert expected_circle_error(pe_pmf(2, 0.0)) == pytest.approx(0.0, abs=1e-30)

    def test_two_point(self):
        # both outcomes at circle distance 1/4 from x = 1/4
        assert expected_circle_error(pe_pmf(2, 0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_log_over_m_bound(self):
        for M in range(4, 257, 3):
            worst = max(
                expected_circle_error(pe_pmf(M, x))
                for x in np.linspace(0, 1, 64, endpoint=False)
            )
            assert worst <= 2 * np.log(M) / M + 2 / M


class TestMedian3CircleError:
    def test_deterministic_outcome(self):
        assert median3_circle_error(4, 0.5) == 0.0
        assert median3_circle_error(6, 1 / 3) == 0.0

    def _enumerate(self, M, x):
        pmf = pe_pmf(M, x)
        d = np.atleast_1d(circle_dist(np.arange(M) / M, pmf.x))
        total = 0.0
        for i, j, k in itertools.product(range(M), repeat=3):
            total += pmf.probs[i] * pmf.probs[j] * pmf.probs[k] * sorted(
                (d[i], d[j], d[k])
            )[1]
        return total

    def test_matches_triple_enumeration(self):
        assert median3_circle_error(3, 1 / 6) == pytest.approx(
            self._enumerate(3, 1 / 6), abs=1e-12
        )
        for M, x in ((4, 0.2), (5, 0.77), (6, 0.11)):
            assert median3_circle_error(M, x) == pytest.approx(
                self._enumerate(M, x), abs=1e-12
            )

    def test_constant_over_m_bound(self):
        for M in range(4, 129, 3):
            worst = max(
                median3_circle_error(M, x)
                for x in np.linspace(0, 1, 64, endpoint=False)
            )
            assert M * worst <= 4.0

    def test_median_never_hurts(self):
        for M in (4, 9, 16, 33):
            for x in np.linspace(0, 1, 64, endpoint=False):
                assert median3_circle_error(M, x) <= expected_circle_error(
                    pe_pmf(M, x)
                ) + 1e-14


class TestFejer:
    def test_value_at_integers(self):
        for n in (1, 2, 5, 16):
            assert fejer_value(n, 0.0) == float(n)
            assert fejer_value(n, 3.0) == float(n)

    def test_hand_value(self):
        assert fejer_value(2, 0.5) == pytest.approx(0.0, abs=1e-30)

    def test_nan_stays_nan(self):
        assert np.isnan(fejer_value(4, np.nan))
        vals = fejer_value(4, np.array([np.nan, np.inf, 0.0, 1.0]))
        assert np.isnan(vals[:2]).all() and vals[2] == vals[3] == 4.0

    def test_unit_integral(self):
        for n in range(1, 33):
            assert abs(kernel_integral(fejer_kernel(n)) - 1.0) < 1e-10

    def test_nonnegative_and_periodic(self):
        ts = np.linspace(-1.0, 2.0, 10_000)
        for n in (1, 3, 8):
            vals = fejer_value(n, ts)
            assert np.all(vals >= 0.0)
        ts = np.linspace(0, 1, 257)
        assert np.max(np.abs(fejer_value(5, ts) - fejer_value(5, ts + 1.0))) < 1e-12


class TestFejerIdentity:
    def test_small_cases(self):
        assert fejer_identity_check(4, 0.2) < 1e-13
        assert fejer_identity_check(16, 1 / 3) < 1e-13

    def test_two_point_case(self):
        assert fejer_identity_check(2, 0.25) < 1e-14
        kernel_side = fejer_value(2, np.arange(2) / 2 - 0.25) / 2
        assert kernel_side == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_integer_mx_rejected(self):
        with pytest.raises(PreconditionError):
            fejer_identity_check(4, 0.5)


class TestJacksonKernel:
    def test_order_one_is_constant(self):
        spec = jackson_kernel(1)
        assert spec.norm_const == pytest.approx(1.0, abs=1e-14)
        ts = np.linspace(0, 1, 50)
        assert spec(ts) == pytest.approx(np.ones(50), abs=1e-12)

    def test_order_two_constant(self):
        # F_2(t) = 1 + cos(2 pi t), integral of F_2^2 is 3/2
        assert jackson_kernel(2).norm_const == pytest.approx(2 / 3, abs=1e-12)

    def test_unit_integral(self):
        for n in range(1, 33):
            assert abs(kernel_integral(jackson_kernel(n)) - 1.0) < 1e-12

    def test_trig_degree(self):
        spec = jackson_kernel(8)
        assert spec.trig_degree == 14
        rep = effective_trig_degree(spec, 14, 4 * 14 + 1)
        assert rep.residual < 1e-10

    def test_nonnegative(self):
        ts = np.linspace(0, 1, 10_000)
        for n in (2, 5, 12):
            assert np.all(jackson_kernel(n)(ts) >= 0.0)


class TestKernelCoefficients:
    def test_coefficients_match_sampled_kernel(self):
        for kernel in (fejer_kernel(5), jackson_kernel(5), jackson_kernel(1)):
            d = kernel.trig_degree
            m = 2 * d + 1
            sampled = trig_coeffs_from_samples(kernel(np.arange(m) / m)).coeffs
            assert np.max(np.abs(sampled - kernel.fourier_coeffs())) < 1e-13

    def test_closed_form_normalization_matches_sampling(self):
        for n in range(1, 301):
            m = 4 * n - 3  # odd, above twice the degree of F_n^2
            c0 = np.mean(fejer_value(n, np.arange(m) / m) ** 2)
            assert jackson_kernel(n).norm_const * c0 == pytest.approx(1.0, abs=2e-13)
