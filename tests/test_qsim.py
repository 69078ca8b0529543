import numpy as np
import pytest

from jacksonlab import (
    PreconditionError,
    counting_statevector_pmf,
    eigencheck,
    grover_unitary,
    pe_pmf,
    pe_statevector_pmf,
    single_run_pmf,
)
from jacksonlab.qsim import ResourceError, _hadamard, _inverse_dft
from jacksonlab.verify import _x_sweep
from oracles import norm_residual, unitarity_residual


def _weight_string(k, N):
    return np.array([1] * k + [0] * (N - k))


class TestPeStatevector:
    def test_exact_phase(self):
        assert pe_statevector_pmf(2, 0.0) == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_integer_mx(self):
        pmf = pe_statevector_pmf(3, 1 / 3)
        assert pmf[1] == pytest.approx(1.0, abs=1e-14)

    def test_matches_closed_form(self):
        assert np.max(np.abs(pe_statevector_pmf(8, 0.3) - pe_pmf(8, 0.3).probs)) < 1e-12

    def test_closed_form_sweep(self):
        for M in range(1, 65, 7):
            for x in np.linspace(0, 1, 32, endpoint=False):
                gap = np.abs(pe_statevector_pmf(M, x) - pe_pmf(M, x).probs)
                assert np.max(gap) < 1e-12

    def test_non_power_of_two_m(self):
        # the inverse transform is a dense matrix, so any M works
        pmf = pe_statevector_pmf(5, 0.23)
        assert abs(pmf.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("M", [1, 2, 7, 64])
    def test_rows_match_scalar_calls(self, M):
        xs = _x_sweep()
        rows = pe_statevector_pmf(M, xs)
        assert rows.shape == (32, M)
        for x, row in zip(xs, rows):
            assert np.max(np.abs(row - pe_statevector_pmf(M, x))) <= 1e-15

    def test_one_nan_in_an_array_rejected(self):
        xs = _x_sweep()
        xs[5] = np.nan
        with pytest.raises(PreconditionError, match="finite"):
            pe_statevector_pmf(8, xs)

    def test_huge_phases_reduced_mod_one(self):
        # 2 pi x y overflowed to inf, so the pmf was all NaN
        assert pe_statevector_pmf(4, 1e308) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)
        gap = pe_statevector_pmf(8, 1e6 + 0.3) - pe_pmf(8, 1e6 + 0.3).probs
        assert np.max(np.abs(gap)) < 1e-12

    def test_inverse_dft_cached_and_read_only(self):
        F = _inverse_dft(16)
        assert _inverse_dft(16) is F
        assert not F.flags.writeable
        with pytest.raises(ValueError):
            F[0, 0] = 0.0
        assert np.max(np.abs(F @ F.conj().T - np.eye(16))) < 1e-14

    def test_hadamard_cached_and_read_only(self):
        H = _hadamard(16)
        assert _hadamard(16) is H
        assert not H.flags.writeable
        with pytest.raises(ValueError):
            H[0, 0] = 0.0
        signs = (-1.0) ** np.array([[bin(i & j).count("1") for j in range(16)] for i in range(16)])
        assert np.max(np.abs(4.0 * H - signs)) < 1e-15
        assert np.array_equal(_hadamard(1), [[1.0]])


class TestGroverUnitary:
    def test_all_zeros_fixes_uniform(self):
        U = grover_unitary(_weight_string(0, 8))
        u = np.ones(8) / np.sqrt(8)
        assert np.linalg.norm(U @ u - u) < 1e-12

    def test_all_ones_negates_uniform(self):
        U = grover_unitary(_weight_string(8, 8))
        u = np.ones(8) / np.sqrt(8)
        assert np.linalg.norm(U @ u + u) < 1e-12

    def test_unitarity(self):
        for k, N in ((1, 4), (3, 8), (7, 16)):
            assert unitarity_residual(grover_unitary(_weight_string(k, N))) < 1e-10

    def test_single_marked_eigenvalue(self):
        # N=4, |w|=1: theta = arcsin(1/2) = pi/6, eigenvalues e^{+-i pi/3}
        w = np.array([1, 0, 0, 0])
        U = grover_unitary(w)
        psi1 = np.array([1.0, 0, 0, 0])
        psi0 = np.array([0, 1.0, 1, 1]) / np.sqrt(3)
        for sign in (1, -1):
            psi = (psi1 + sign * 1j * psi0) / np.sqrt(2)
            assert np.linalg.norm(U @ psi - np.exp(sign * 1j * np.pi / 3) * psi) < 1e-12

    def test_non_power_of_two_rejected(self):
        with pytest.raises(PreconditionError):
            grover_unitary(np.array([1, 0, 0]))


class TestBitstring:
    @pytest.mark.parametrize("build", [
        lambda: counting_statevector_pmf([0.5, 1, 0, 0], 2),  # ran as [0, 1, 0, 0]
        lambda: grover_unitary([1.9, 0]),                     # ran as [1, 0]
        lambda: grover_unitary([np.nan, 0]),                  # raised a bare ValueError
    ])
    def test_entries_tested_before_the_int_cast(self, build):
        with pytest.raises(PreconditionError, match="bitstring entries must be 0 or 1"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: grover_unitary([[0, 1], [1, 0]]),              # returned a (1, 2, 2) array
        lambda: counting_statevector_pmf([[0, 1], [1, 0]], 2),  # numpy matmul ValueError
        lambda: eigencheck([[0, 1], [1, 0]]),                   # "needs 0 < |w| < N"
        lambda: grover_unitary(1),                              # len() of an unsized object
    ])
    def test_bitstring_must_be_one_dimensional(self, build):
        with pytest.raises(PreconditionError, match="bitstring must be 1-D"):
            build()

    def test_bool_entries_accepted(self):
        assert np.array_equal(grover_unitary([True, False]), grover_unitary([1, 0]))
        assert np.array_equal(counting_statevector_pmf(np.array([True, False, True, False]), 4),
                              counting_statevector_pmf([1, 0, 1, 0], 4))


class TestEigencheck:
    def test_exhaustive_small_sweep(self):
        for N in (4, 8, 16):
            for k in range(1, N):
                ec = eigencheck(_weight_string(k, N))
                assert ec.residual < 1e-12
                assert ec.orthogonality < 1e-14
                assert ec.decomposition < 1e-14

    def test_uniform_overlap_half(self):
        for N in (4, 8):
            for k in range(1, N):
                w = _weight_string(k, N)
                psi1 = (w == 1) / np.sqrt(k)
                psi0 = (w == 0) / np.sqrt(N - k)
                psi_plus = (psi1 + 1j * psi0) / np.sqrt(2)
                u = np.ones(N) / np.sqrt(N)
                assert abs(abs(np.vdot(u, psi_plus)) ** 2 - 0.5) < 1e-12

    def test_degenerate_weights_rejected(self):
        with pytest.raises(PreconditionError):
            eigencheck(_weight_string(0, 4))
        with pytest.raises(PreconditionError):
            eigencheck(_weight_string(4, 4))


class TestCountingStatevector:
    def test_zero_weight_point_mass(self):
        for M in (2, 5, 8):
            pmf = counting_statevector_pmf(_weight_string(0, 8), M)
            assert pmf[0] == pytest.approx(1.0, abs=1e-12)

    def test_full_weight_even_m(self):
        pmf = counting_statevector_pmf(_weight_string(8, 8), 6)
        assert pmf[3] == pytest.approx(1.0, abs=1e-12)

    def test_matches_mixture_model(self):
        pmf = counting_statevector_pmf(_weight_string(3, 8), 8)
        assert np.max(np.abs(pmf - single_run_pmf(3, 8, 8))) < 1e-12

    def test_mixture_sweep(self):
        for N in (4, 8):
            for k in range(N + 1):
                for M in range(2, 9):
                    pmf = counting_statevector_pmf(_weight_string(k, N), M)
                    assert np.max(np.abs(pmf - single_run_pmf(k, N, M))) < 1e-12

    def test_depends_only_on_weight(self):
        rng = np.random.default_rng(31)
        base = _weight_string(5, 16)
        ref = counting_statevector_pmf(base, 5)
        for _ in range(5):
            perm = rng.permutation(16)
            assert np.max(np.abs(counting_statevector_pmf(base[perm], 5) - ref)) < 1e-12

    def test_normalized(self):
        pmf = counting_statevector_pmf(_weight_string(3, 16), 7)
        assert norm_residual(np.sqrt(pmf)) < 1e-12

    def test_resource_limits(self):
        with pytest.raises(ResourceError):
            counting_statevector_pmf(_weight_string(1, 512), 4)
        with pytest.raises(ResourceError):
            counting_statevector_pmf(_weight_string(1, 8), 64)
        with pytest.raises(ResourceError):
            counting_statevector_pmf(_weight_string(1, 8), 33)

    def test_resource_limits_are_refusals(self):
        # ResourceError is a PreconditionError, and still a RuntimeError
        for w, M in ((_weight_string(1, 512), 4), (_weight_string(1, 8), 33)):
            with pytest.raises(PreconditionError, match="capped"):
                counting_statevector_pmf(w, M)
        assert issubclass(ResourceError, RuntimeError)

    @pytest.mark.parametrize("M", [2.5, 0, -1, True])
    def test_precision_must_be_a_positive_integer(self, M):
        # int() ran 2.5 at M = 2, and M = 0 hit the size cap
        with pytest.raises(PreconditionError, match="M must be a positive integer"):
            counting_statevector_pmf(_weight_string(1, 8), M)
