import itertools

import numpy as np
import pytest

from jacksonlab import (
    PreconditionError,
    circle_dist,
    fejer_identity_check,
    fejer_kernel,
    fejer_value,
    jackson_kernel,
    pe_pmf,
    pe_statevector_pmf,
)
from jacksonlab.counting_model import amp_support
from jacksonlab.numerics import effective_trig_degree, trig_coeffs_from_samples
from jacksonlab.phase_dist import kernel_integral, outcome_phases, pe_probs, tail_bound
from oracles import expected_circle_error, median3_circle_error

PI_LD = 4 * np.arctan(np.longdouble(1))


def _fejer_oracle(n, t):
    """F_n at the float64 points t, in long double; r = t - rint(t) is exact."""
    t = np.asarray(t, dtype=np.longdouble)
    r = t - np.rint(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(PI_LD * n * r) ** 2 / (n * np.sin(PI_LD * r) ** 2)
    return np.where(r == 0, np.longdouble(n), ratio)


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
        # the statevector pmf was all NaN; the identity check raised ValueError or OverflowError
        for law in (pe_pmf, pe_statevector_pmf, fejer_identity_check):
            with pytest.raises(PreconditionError, match="finite"):
                law(4, x)


class TestOutcomePhases:
    def test_cached_read_only_and_shared(self):
        z = outcome_phases(16)
        assert np.array_equal(z, np.arange(16) / 16)
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 1.0
        assert outcome_phases(16) is z
        amp_support.cache_clear()  # an entry cached earlier may hold an evicted array
        assert amp_support(16)[2] is outcome_phases(16)

    def test_pe_pmf_unchanged(self):
        for M, x in ((1, 0.3), (5, 0.71), (64, 3 / 32), (64, 0.123)):
            expected = pe_probs(M, circle_dist(np.arange(M) / M, x))
            assert np.array_equal(pe_pmf(M, x).probs, expected)


class TestPeProbs:
    @pytest.mark.parametrize("M", [3, 7, 17, 37, 67])
    def test_bit_identical_to_the_mask_form(self, M):
        rng = np.random.default_rng(M)
        points = np.concatenate(([0.0, 1e-16, 1e-15, 2e-15], rng.uniform(size=40), np.arange(M) / M))
        for d in (points, circle_dist(outcome_phases(M), points[:, None])):
            want = np.ones_like(d)
            far = d > 1e-15
            want[far] = np.sin(np.pi * M * d[far]) ** 2 / (M**2 * np.sin(np.pi * d[far]) ** 2)
            assert np.array_equal(pe_probs(M, d), want)


class TestOrderMustBeAnInteger:
    # each of these was truncated by int(): pe_pmf(2.7, x) ran at M = 2, fejer_kernel(True) at 1
    BAD = (2.7, 2.5, 2.9, True, False, np.nan, np.inf, "3")

    @pytest.mark.parametrize("M", BAD)
    def test_pe_pmf(self, M):
        with pytest.raises(PreconditionError, match="M must be a positive integer"):
            pe_pmf(M, 0.1)

    @pytest.mark.parametrize("n", BAD)
    def test_jackson_kernel(self, n):
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            jackson_kernel(n)

    @pytest.mark.parametrize("n", BAD)
    def test_fejer_kernel(self, n):
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            fejer_kernel(n)

    @pytest.mark.parametrize("n", BAD)
    def test_fejer_value(self, n):
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            fejer_value(n, np.array([0.1, 0.3]))

    @pytest.mark.parametrize("M", BAD)
    def test_fejer_identity_check_and_statevector(self, M):
        for law in (fejer_identity_check, pe_statevector_pmf):
            with pytest.raises(PreconditionError, match="M must be a positive integer"):
                law(M, 0.1)

    def test_integral_values_accepted(self):
        assert np.array_equal(pe_pmf(4.0, 0.1).probs, pe_pmf(4, 0.1).probs)
        assert jackson_kernel(np.int64(3)) == jackson_kernel(3.0) == jackson_kernel(3)
        assert fejer_kernel(np.int64(5)).order == 5
        assert fejer_value(3.0, 0.2) == fejer_value(3, 0.2)


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

    @pytest.mark.parametrize("n", (1, 2, 7, 96, 256))
    def test_matches_long_double_oracle_next_to_integers(self, n):
        # just below an integer, t % 1.0 rounds to 1 - |t|: 96.06 at n = 96, t = -3e-13
        eps = np.array([1e-16, 3e-13, 1e-10, 1e-6])
        ts = (np.arange(-2, 3)[:, None] + np.concatenate((eps, -eps))).ravel()
        vals = fejer_value(n, ts)
        oracle = _fejer_oracle(n, ts)
        assert np.all(vals <= n)
        assert np.max(np.abs(vals - oracle) / oracle) <= 1e-14
        assert fejer_value(n, ts[1]) == vals[1]

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
        assert effective_trig_degree(spec, 14) < 1e-10

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
