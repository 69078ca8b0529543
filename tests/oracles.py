"""Brute-force oracles and exact error statistics used by the tests.

The oracles (the triple median, the direct Fourier sum and the checks
built on it, the unitarity and norm residuals) import nothing from
jacksonlab, so they stay independent of the code they check.  The
statistics are exact expectations under the public outcome laws.
"""

import numpy as np

from jacksonlab import median3_amp_pmf, median3_pmf, pe_pmf


def median3(a, b, c):
    """Middle value of three reals."""
    return sorted((a, b, c))[1]


def fourier_sum(coeffs, x):
    """sum_{k=-m..m} c_k e^{2 pi i k x} term by term, complex, for coeffs ordered k = -m..m."""
    c = np.asarray(coeffs, dtype=complex)
    m = (len(c) - 1) // 2
    ks = np.arange(-m, m + 1)
    return np.exp(2j * np.pi * np.multiply.outer(np.asarray(x, dtype=float), ks)) @ c


def imag_residue(coeffs, x):
    """Max |imaginary part| of the Fourier sum at x; small for a real polynomial."""
    return float(np.max(np.abs(fourier_sum(coeffs, x).imag)))


def conjugate_symmetry_defect(coeffs):
    """Max |c_{-k} - conj(c_k)| relative to the largest coefficient."""
    c = np.asarray(coeffs, dtype=complex)
    return float(np.max(np.abs(c[::-1] - np.conj(c))) / max(np.max(np.abs(c)), 1e-300))


def unitarity_residual(U):
    """Max elementwise |U U^dagger - I|."""
    U = np.asarray(U)
    return float(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))))


def norm_residual(state):
    """|  ||state||^2 - 1 |."""
    state = np.asarray(state)
    return float(abs(np.vdot(state, state).real - 1.0))


def _outcome_distances(pmf):
    # circle distance from each outcome phase z/M to the eigenphase x
    d = (np.arange(pmf.M) / pmf.M - pmf.x) % 1.0
    return np.minimum(d, 1.0 - d)


def expected_circle_error(pmf):
    """E[d(Z/M, x)] under the phase-estimation outcome law."""
    return float(np.dot(pmf.probs, _outcome_distances(pmf)))


def median3_circle_error(M, x):
    """Exact E[median of three i.i.d. circle errors d(Z_i/M, x)], by order statistics."""
    pmf = pe_pmf(M, x)
    support, probs = median3_pmf(_outcome_distances(pmf), pmf.probs)
    return float(np.dot(support, probs))


def expected_amp_error(k, N, M):
    """Exact E[|A' - k/N|] for the median-of-three amplitude estimate."""
    values, probs = median3_amp_pmf(k, N, M)
    return float(np.dot(probs, np.abs(values - k / N)))
