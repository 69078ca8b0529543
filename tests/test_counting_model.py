import itertools
from decimal import Decimal, localcontext
from math import comb, isqrt, sqrt

import numpy as np
import pytest

from jacksonlab import (
    PreconditionError,
    median3_amp_pmf,
    single_run_pmf,
    theta_of_weight,
)
from jacksonlab.constructors import _log_binom, binom_band_width, binom_weight_matrix
from jacksonlab.phase_dist import amp_support, single_run_amp_pmf
from jacksonlab.qsim import counting_statevector_pmf
from oracles import expected_amp_error, median3_circle_error


class TestThetaOfWeight:
    def test_endpoints(self):
        assert theta_of_weight(0, 16) == 0.0
        assert theta_of_weight(16, 16) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_quarter(self):
        assert theta_of_weight(4, 16) == pytest.approx(np.pi / 6, abs=1e-15)

    def test_sin_squared_identity(self):
        for N in (5, 9, 100):
            for k in range(N + 1):
                theta = theta_of_weight(k, N)
                assert abs(np.sin(theta) ** 2 - k / N) < 1e-15

    @pytest.mark.parametrize("N", [1, 16, 1600])
    def test_is_arcsin_of_np_sqrt_bit_for_bit(self, N):
        # math.sqrt and np.sqrt are both correctly rounded
        ks = range(N + 1)
        assert [theta_of_weight(k, N) for k in ks] == [float(np.arcsin(np.sqrt(k / N))) for k in ks]

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            theta_of_weight(-1, 4)
        with pytest.raises(PreconditionError):
            theta_of_weight(5, 4)

    def test_nonpositive_length(self):
        for N in (0, -3):
            with pytest.raises(PreconditionError, match="N must be a positive integer"):
                theta_of_weight(0, N)

    @pytest.mark.parametrize("call", [
        lambda: single_run_pmf(1.5, 4, 4),   # returned a law
        lambda: median3_amp_pmf(2, 4.5, 3),  # returned a law
        lambda: theta_of_weight(True, 4),    # took True for k = 1
        lambda: theta_of_weight(1, True),
    ])
    def test_weight_and_length_must_be_whole_numbers(self, call):
        with pytest.raises(PreconditionError, match="must be (a positive integer|an integer >= 0)"):
            call()

    def test_integral_floats_accepted(self):
        assert theta_of_weight(4.0, 16.0) == theta_of_weight(4, 16)


class TestSingleRunPmf:
    def test_zero_weight_point_mass(self):
        for M in (2, 5, 8):
            pmf = single_run_pmf(0, 9, M)
            assert pmf[0] == pytest.approx(1.0, abs=1e-14)

    def test_full_weight_even_m(self):
        pmf = single_run_pmf(8, 8, 6)
        assert pmf[3] == pytest.approx(1.0, abs=1e-14)

    def test_matches_full_simulation(self):
        w = np.array([1, 0, 0, 0])
        pmf = single_run_pmf(1, 4, 4)
        assert np.max(np.abs(pmf - counting_statevector_pmf(w, 4))) < 1e-12

    def test_normalized(self):
        for N in (4, 9, 25):
            for k in range(N + 1):
                for M in (2, 3, 7):
                    assert abs(single_run_pmf(k, N, M).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("N,M", [(0, 4), (4, 0)])
    def test_nonpositive_sizes_rejected(self, N, M):
        for law in (single_run_pmf, median3_amp_pmf):
            with pytest.raises(PreconditionError, match="must be a positive integer"):
                law(0, N, M)

    def test_non_integral_precision_rejected(self):
        for law in (single_run_pmf, single_run_amp_pmf, median3_amp_pmf):
            with pytest.raises(PreconditionError, match="M must be a positive integer"):
                law(1, 4, 2.5)

    def test_integral_float_precision_accepted(self):
        for law in (single_run_amp_pmf, median3_amp_pmf):
            for got, want in zip(law(1, 4, 4.0), law(1, 4, 4)):
                assert np.array_equal(got, want)


class TestSingleRunAmpPmf:
    @pytest.mark.parametrize("N", [1, 4, 9, 25])
    def test_one_eigenphase_equals_the_folded_mixture(self, N):
        # even M covers the outcome z = M/2, which is its own partner M - z
        for M in range(1, 10):
            z = np.arange(M)
            for k in range(N + 1):
                folded = np.bincount(np.minimum(z, M - z), weights=single_run_pmf(k, N, M))
                values, probs = single_run_amp_pmf(k, N, M)
                assert values.shape == probs.shape == (M // 2 + 1,)
                assert np.max(np.abs(probs - folded)) <= 1e-15, (k, M)

    def test_support_is_read_only(self):
        for array in amp_support(6):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_bool_precision_refused_after_one_is_cached(self):
        # the law checks M only through amp_support, whose cache keeps True apart from 1
        single_run_amp_pmf(0, 4, 1)
        with pytest.raises(PreconditionError, match="M must be a positive integer"):
            single_run_amp_pmf(0, 4, True)


class TestAmpEstimate:
    # the estimate sin(pi z/M)^2 of outcome z, on the support amp_support(M)[0]
    def test_zero(self):
        assert amp_support(8)[0][0] == 0.0

    def test_half_m(self):
        assert amp_support(8)[0][4] == pytest.approx(1.0, abs=1e-15)

    def test_quarter_m(self):
        assert amp_support(8)[0][2] == pytest.approx(0.5, abs=1e-15)


def _median3_amp_brute(k, N, M):
    run = single_run_pmf(k, N, M)
    amps = np.sin(np.pi * np.minimum(np.arange(M), M - np.arange(M)) / M) ** 2
    out = {}
    for i, j, l in itertools.product(range(M), repeat=3):
        m = sorted((amps[i], amps[j], amps[l]))[1]
        out[m] = out.get(m, 0.0) + run[i] * run[j] * run[l]
    support = np.array(sorted(out))
    return support, np.array([out[v] for v in support])


class TestMedian3AmpPmf:
    def test_point_mass_input(self):
        values, probs = median3_amp_pmf(0, 9, 5)
        assert probs[0] == pytest.approx(1.0, abs=1e-13)
        assert values[0] == 0.0

    def test_small_case_vs_enumeration(self):
        values, probs = median3_amp_pmf(1, 9, 3)
        bs, bp = _median3_amp_brute(1, 9, 3)
        assert values == pytest.approx(bs, abs=1e-15)
        assert probs == pytest.approx(bp, abs=1e-12)

    def test_shortcut_equals_brute_force(self):
        for N in (4, 9, 16, 25):
            for M in range(2, 7):
                for k in range(N + 1):
                    values, probs = median3_amp_pmf(k, N, M)
                    bs, bp = _median3_amp_brute(k, N, M)
                    assert values == pytest.approx(bs, abs=1e-15)
                    assert probs == pytest.approx(bp, abs=1e-12)

    def test_support_inside_unit_interval(self):
        values, probs = median3_amp_pmf(3, 16, 7)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_reflection_symmetry_even_m(self):
        for N in range(2, 17):
            for M in (2, 4, 8):
                for k in range(N + 1):
                    v1, p1 = median3_amp_pmf(k, N, M)
                    v2, p2 = median3_amp_pmf(N - k, N, M)
                    order = np.argsort(1.0 - v2)
                    assert v1 == pytest.approx((1.0 - v2)[order], abs=1e-12)
                    assert p1 == pytest.approx(p2[order], abs=1e-12)


class TestExpectedAmpError:
    def test_endpoints_exact(self):
        assert expected_amp_error(0, 16, 5) == 0.0
        assert expected_amp_error(16, 16, 4) == pytest.approx(0.0, abs=1e-15)

    def test_one_over_n_scaling(self):
        for n in range(6, 37, 6):
            N, M = n * n, n // 6 + 1
            worst = max(expected_amp_error(k, N, M) for k in range(N + 1))
            assert worst <= 8.0 / n

    def test_bounded_by_circle_error(self):
        for N in (9, 16):
            for M in (3, 4, 6):
                for k in range(N + 1):
                    theta = theta_of_weight(k, N)
                    bound = np.pi * median3_circle_error(M, theta / np.pi)
                    assert expected_amp_error(k, N, M) <= bound + 1e-12


def _dense_rows(N, xs):
    """binom_weight_matrix's bands scattered into full rows over weights 0..N."""
    lo, w = binom_weight_matrix(N, xs)
    out = np.zeros((len(w), N + 1))
    for row, start, band in zip(out, lo, w):
        row[start : start + len(band)] = band
    return out


class TestBinomWeights:
    def test_endpoint_zero(self):
        w = _dense_rows(5, [0.0])[0]
        assert w[0] == 1.0 and w[1:].sum() == 0.0

    def test_endpoint_one(self):
        w = _dense_rows(5, [1.0])[0]
        assert w[5] == 1.0 and w[:5].sum() == 0.0

    def test_small_exact(self):
        assert _dense_rows(2, [0.5])[0] == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)

    def test_large_n_mean_and_spread(self):
        N, x = 1296, 0.3
        w = _dense_rows(N, [x])[0]
        k = np.arange(N + 1)
        assert abs(np.dot(w, k / N) - x) < 1e-10
        assert np.dot(w, np.abs(x - k / N)) <= np.sqrt(x * (1 - x) / N)

    def test_relative_accuracy_against_direct(self):
        from math import comb

        N, x = 60, 0.37
        w = _dense_rows(N, [x])[0]
        direct = np.array([comb(N, k) * x**k * (1 - x) ** (N - k) for k in range(N + 1)])
        assert np.max(np.abs(w - direct) / direct) < 1e-11

    def test_matrix_agrees_with_rows(self):
        xs = np.array([0.0, 0.123, 0.5, 0.987, 1.0])
        mat = _dense_rows(10, xs)
        for row, x in zip(mat, xs):
            assert row == pytest.approx(_dense_rows(10, [x])[0], abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            binom_weight_matrix(4, [1.5])

    def test_nan_rejected(self):
        with pytest.raises(PreconditionError):
            binom_weight_matrix(4, [np.nan])
        with pytest.raises(PreconditionError):
            binom_weight_matrix(4, np.array([0.5, np.nan]))


def _exact_binomial_terms(N, x, lo, count):
    """Binomial(N, x) pmf at k = lo..lo+count-1, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        p = Decimal(x)
        ratio = p / (1 - p)
        term = Decimal(comb(N, lo)) * p**lo * (1 - p) ** (N - lo)
        out = []
        for k in range(lo, lo + count):
            out.append(term)
            term = term * (N - k) / (k + 1) * ratio
    return out


def _exact_binomial_window(N, x, sigmas=12, floor=Decimal("1e-250")):
    """{k: Binomial(N, x) pmf at k} within sigmas standard deviations, at 50 digits."""
    sd = sqrt(N * x * (1 - x))
    lo, hi = max(0, int(N * x - sigmas * sd)), min(N, int(N * x + sigmas * sd) + 1)
    terms = _exact_binomial_terms(N, x, lo, hi - lo + 1)
    return {k: term for k, term in enumerate(terms, lo) if term > floor}


class TestLogBinom:
    @pytest.mark.parametrize("N", [1, 2, 3, 10, 11, 9216])
    def test_symmetric(self, N):
        logc = _log_binom(N)
        assert logc.shape == (N + 1,)
        assert np.array_equal(logc, logc[::-1])

    def test_small_cases(self):
        assert np.array_equal(_log_binom(1), [0.0, 0.0])
        assert _log_binom(2) == pytest.approx([0.0, np.log(2), 0.0], rel=1e-15, abs=0)
        assert _log_binom(3) == pytest.approx([0.0, np.log(3), np.log(3), 0.0], rel=1e-15, abs=0)

    def test_read_only(self):
        logc = _log_binom(16)
        with pytest.raises(ValueError):
            logc[0] = 1.0

    @pytest.mark.parametrize("N", [16, 400, 1600, 9216, 40000])
    def test_weights_match_exact_binomial(self, N):
        xs = np.array([0.013, 0.3, 0.5, 0.71234, 0.999])
        weights = _dense_rows(N, xs)
        worst = 0.0
        for row, x in zip(weights, xs):
            for k, exact in _exact_binomial_window(N, float(x)).items():
                worst = max(worst, float(abs(Decimal(row[k]) - exact) / exact))
        assert worst <= max(1e-13, 4e-15 * N)


class TestBinomBand:
    @pytest.mark.parametrize("N", [1600, 160000])
    def test_band_at_the_outer_lobatto_nodes_against_50_digits(self, N):
        # at the first interior node for n = 400, Nx is about 2.5: a 12 sigma
        # cut there would drop about 4e-13 of the mass
        n = isqrt(N)
        xs = (1.0 - np.cos(np.pi * np.array([1, n - 1]) / n)) / 2.0
        lo, w = binom_weight_matrix(N, xs)
        assert w.shape == (2, binom_band_width(N)) and w.shape[1] < N + 1
        for start, row, x in zip(lo, w, xs):
            exact = _exact_binomial_terms(N, float(x), int(start), len(row))
            with localcontext() as ctx:
                ctx.prec = 50
                assert 1 - sum(exact) <= 2 * Decimal(-80).exp()
            worst = max(float(abs(Decimal(v) - e) / e)
                        for v, e in zip(row, exact) if e > Decimal("1e-250"))
            assert worst <= max(1e-13, 4e-15 * N)

    def test_width_is_the_whole_row_for_small_orders(self):
        assert [binom_band_width(N) for N in (1, 2, 16, 200, 256)] == [2, 3, 17, 201, 257]
        assert binom_band_width(400) == 315 and binom_band_width(160000) == 5117

    def test_band_is_placed_inside_the_row(self):
        N = 1600
        W = binom_band_width(N)
        xs = np.array([0.0, 1e-9, 0.25, 0.5, 0.999, 1.0])
        lo, w = binom_weight_matrix(N, xs)
        assert np.array_equal(lo, np.clip(np.rint(N * xs).astype(int) - W // 2, 0, N + 1 - W))
        assert lo[0] == 0 and lo[-1] == N + 1 - W
        assert w[0, 0] == 1.0 and w[-1, -1] == 1.0
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-14


class TestCountingModel:
    def test_tables_normalized(self):
        N, M = 9, 4
        single = np.array([single_run_pmf(k, N, M) for k in range(N + 1)])
        med = np.array([median3_amp_pmf(k, N, M)[1] for k in range(N + 1)])
        assert single.shape == (10, 4)
        assert np.max(np.abs(single.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(med.sum(axis=1) - 1.0)) < 1e-12

    def test_degenerate_rows(self):
        N, M = 4, 4
        # k=0 gives A'=0 surely; k=N with M even gives A'=1 surely
        values, probs = median3_amp_pmf(0, N, M)
        assert probs[values == 0.0] == pytest.approx(1.0)
        values, probs = median3_amp_pmf(N, N, M)
        assert probs[-1] == pytest.approx(1.0, abs=1e-12)
