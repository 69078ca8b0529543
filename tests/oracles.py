"""Brute-force oracles and exact error statistics used by the tests.

The oracles (the triple median, the direct Fourier sum and the checks
built on it, the unitarity and norm residuals, the full-width binomial
mixture, the exact Bernstein sum and the np.unique form of the
median-of-three law) import nothing
from jacksonlab, so they stay independent of the code they check.  The statistics are exact expectations under the public
outcome laws.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import numpy as np

from jacksonlab import median3_amp_pmf, median3_pmf, pe_pmf


def median3(a, b, c):
    """Middle value of three reals."""
    return sorted((a, b, c))[1]


def median3_pmf_by_unique(values, probs):
    """The median-of-three law with duplicates merged by np.unique and np.add.at.

    np.add.at adds each value's probability into its group in index order;
    rows of probs are laws on the same values, as in numerics.median3_pmf.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    support, inverse = np.unique(values, return_inverse=True)
    agg = np.zeros(probs.shape[:-1] + (len(support),))
    np.add.at(agg.T, inverse, probs.T)
    cdf = np.clip(np.cumsum(agg, axis=-1), 0.0, 1.0)
    med_cdf = cdf * cdf * (3.0 - 2.0 * cdf)
    med_probs = med_cdf.copy()
    med_probs[..., 1:] -= med_cdf[..., :-1]
    return support, med_probs


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


def binomial_mixture(N, table, x):
    """sum_{k=0..N} C(N, k) x^k (1-x)^(N-k) table[k] over every weight, at 40 digits.

    x is taken exactly as the float it is; the result is rounded once, to float.
    """
    if x == 0.0:
        return float(table[0])
    if x == 1.0:
        return float(table[N])
    with localcontext() as ctx:
        ctx.prec = 40
        p = Decimal(float(x))
        ratio = p / (1 - p)
        term, total = (1 - p) ** N, Decimal(0)
        for k in range(N + 1):
            total += term * Decimal(float(table[k]))
            term = term * (N - k) / (k + 1) * ratio
        return float(total)


def bernstein_exact(samples, x):
    """sum_k C(n, k) x^k (1-x)^(n-k) g_k over the float samples g_k = g(k/n), exactly.

    Every float is a dyadic rational, so the Fraction sum at the float x is the
    exact value that a float Bernstein evaluation rounds.
    """
    n = len(samples) - 1
    t = Fraction(float(x))
    return sum(comb(n, k) * t**k * (1 - t) ** (n - k) * Fraction(float(g))
               for k, g in enumerate(samples))


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
