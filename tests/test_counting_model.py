import itertools

import numpy as np
import pytest

from jacksonlab import (
    PreconditionError,
    amp_estimate,
    binom_weights,
    build_counting_model,
    expected_amp_error,
    median3_amp_pmf,
    median3_circle_error,
    single_run_pmf,
    theta_of_weight,
)
from jacksonlab.counting_model import binom_weight_matrix, single_run_amp_pmf
from jacksonlab.qsim import counting_statevector_pmf


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

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            theta_of_weight(-1, 4)
        with pytest.raises(PreconditionError):
            theta_of_weight(5, 4)


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


class TestAmpEstimate:
    def test_zero(self):
        assert amp_estimate(0, 8) == 0.0

    def test_half_m(self):
        assert amp_estimate(4, 8) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_m(self):
        assert amp_estimate(2, 8) == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            amp_estimate(8, 8)


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


class TestBinomWeights:
    def test_endpoint_zero(self):
        w = binom_weights(5, 0.0)
        assert w[0] == 1.0 and w[1:].sum() == 0.0

    def test_endpoint_one(self):
        w = binom_weights(5, 1.0)
        assert w[5] == 1.0 and w[:5].sum() == 0.0

    def test_small_exact(self):
        assert binom_weights(2, 0.5) == pytest.approx([0.25, 0.5, 0.25], abs=1e-14)

    def test_large_n_mean_and_spread(self):
        N, x = 1296, 0.3
        w = binom_weights(N, x)
        k = np.arange(N + 1)
        assert abs(np.dot(w, k / N) - x) < 1e-10
        assert np.dot(w, np.abs(x - k / N)) <= np.sqrt(x * (1 - x) / N)

    def test_relative_accuracy_against_direct(self):
        from math import comb

        N, x = 60, 0.37
        w = binom_weights(N, x)
        direct = np.array([comb(N, k) * x**k * (1 - x) ** (N - k) for k in range(N + 1)])
        assert np.max(np.abs(w - direct) / direct) < 1e-11

    def test_matrix_agrees_with_rows(self):
        xs = np.array([0.0, 0.123, 0.5, 0.987, 1.0])
        mat = binom_weight_matrix(10, xs)
        for row, x in zip(mat, xs):
            assert row == pytest.approx(binom_weights(10, x), abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(PreconditionError):
            binom_weights(4, 1.5)

    def test_nan_rejected(self):
        with pytest.raises(PreconditionError):
            binom_weights(4, np.nan)
        with pytest.raises(PreconditionError):
            binom_weight_matrix(4, np.array([0.5, np.nan]))


class TestCountingModel:
    def test_tables_normalized(self):
        model = build_counting_model(9, 4)
        assert model.single.shape == (10, 4)
        assert np.max(np.abs(model.single.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(model.med_probs.sum(axis=1) - 1.0)) < 1e-12

    def test_degenerate_rows(self):
        model = build_counting_model(4, 4)
        # k=0 gives A'=0 surely; k=N with M even gives A'=1 surely
        assert model.med_probs[0][model.med_support == 0.0] == pytest.approx(1.0)
        assert model.med_probs[4][-1] == pytest.approx(1.0, abs=1e-12)
