"""Brute-force oracles and exact error statistics used by the tests.

The oracles (the triple median, the direct Fourier sum and the checks
built on it, the unitarity and norm residuals, the full-width binomial
mixture, the exact Bernstein sum, piecewise-linear interpolant and kernel
spectrum, the 40-digit phase_median3 expectation, counting value table and
Jackson sum, and the np.unique form of the median-of-three law) import
nothing from jacksonlab, so they stay independent of the code they check.
The statistics are exact expectations under the public outcome laws.
"""

from bisect import bisect_right
from decimal import Decimal, localcontext
from fractions import Fraction
from math import asin, comb, pi, sqrt

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


def _decimal(v):
    """v as a Decimal: a Decimal as it is, anything else exactly as its float."""
    return v if isinstance(v, Decimal) else Decimal(float(v))


def binomial_mixture(N, table, x):
    """sum_{k=0..N} C(N, k) x^k (1-x)^(N-k) table[k] over every weight, at 40 digits.

    x is taken exactly as the float it is, and each table entry as the float
    it is or as a Decimal; the result is rounded once, to float.
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
            total += term * _decimal(table[k])
            term = term * (N - k) / (k + 1) * ratio
        return float(total)


def bernstein_exact(samples, x):
    """sum_k C(n, k) x^k (1-x)^(n-k) g_k over the samples g_k = g(k/n), exactly.

    Every float is a dyadic rational, so the Fraction sum at the float x is the
    exact value that a float Bernstein evaluation rounds.  A sample is taken
    exactly as the float it is, or as a Fraction as it is.
    """
    n = len(samples) - 1
    t = Fraction(float(x))
    return sum(comb(n, k) * t**k * (1 - t) ** (n - k)
               * (g if isinstance(g, Fraction) else Fraction(float(g)))
               for k, g in enumerate(samples))


def piecewise_linear_exact(knots_x, knots_y, t):
    """The piecewise-linear interpolant of the float knots at t, exactly.

    The knots are dyadic rationals, as every float is, so the interpolation
    between the two knots around t, in Fractions, is the exact value of the
    target that a float interpolation rounds.  knots_x increases from
    knots_x[0] <= t to knots_x[-1] >= t; t is an int, float or Fraction.
    """
    xs = [Fraction(float(v)) for v in knots_x]
    ys = [Fraction(float(v)) for v in knots_y]
    t = Fraction(t)
    i = min(bisect_right(xs, t), len(xs) - 1) - 1
    return ys[i] + (ys[i + 1] - ys[i]) * (t - xs[i]) / (xs[i + 1] - xs[i])


# pi to 50 digits, past the 40 the Decimal oracles carry
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _sin_pi(u):
    """sin(pi u) in Decimal: u is reduced exactly to r = u - m in [-1/2, 1/2]
    for an integer m, the Taylor series of sin at pi r, |pi r| <= pi/2, is
    summed until its terms no longer change the total, and the sum changes
    sign for an odd m."""
    m = u.to_integral_value()  # round half even: |r| <= 1/2
    a = _PI * (u - m)
    term, total, k, last = a, a, 1, None
    while total != last:
        last = total
        term = -term * a * a / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return -total if m % 2 else total


def _pe_law(M, x):
    """The phase-estimation outcome law at precision M and the Decimal phase
    x: Pr[Z = z] = sin(pi M t)^2 / (M sin(pi t))^2 at t = z/M - x, where a t
    that is an integer takes the limit 1.  Runs in the caller's context."""
    law = []
    for z in range(M):
        t = Decimal(z) / M - x
        law.append(Decimal(1) if t == t.to_integral_value()
                   else (_sin_pi(M * t) / (M * _sin_pi(t))) ** 2)
    return law


def _median3_law(law):
    """The law of the median of three i.i.d. draws from a law on an ordered
    support, law[i] on its i-th smallest value, by P[med <= v] = F(v)^2 (3 - 2 F(v)).
    Runs in the caller's context."""
    out, cdf, below = [], Decimal(0), Decimal(0)
    for p in law:
        cdf = min(cdf + p, Decimal(1))
        med = cdf * cdf * (3 - 2 * cdf)
        out.append(med - below)
        below = med
    return out


def phase_median3_exact(samples, x):
    """E[median of g(Z_1/M), g(Z_2/M), g(Z_3/M)] for three i.i.d. phase
    estimation outcomes at precision M = len(samples) and phase x, with the
    float samples g_z = g(z/M), at 40 digits.

    Pr[Z = z] = sin(pi M t)^2 / (M sin(pi t))^2 at t = z/M - x, with x taken
    exactly as the float it is; a t that is an integer takes the limit 1.
    The median's law is P[med <= v] = F(v)^2 (3 - 2 F(v)) over the sorted,
    merged sample values.  The result is rounded once, to float.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        law = {}
        for g, p in zip(samples, _pe_law(len(samples), Decimal(float(x)))):
            v = Decimal(float(g))
            law[v] = law.get(v, Decimal(0)) + p
        support = sorted(law)
        return float(sum(v * p for v, p in zip(support, _median3_law([law[v] for v in support]))))


def _grover_phase(k, N):
    """theta/pi for theta = arcsin sqrt(k/N), by Newton's method on
    sin(pi u) = sqrt(k/N) from the float estimate, to the caller's precision;
    the ends k = 0 and k = N are exactly 0 and 1/2."""
    if k in (0, N):
        return Decimal(k) / N / 2
    s = (Decimal(k) / N).sqrt()
    u = Decimal(asin(sqrt(k / N)) / pi)
    for _ in range(20):
        # d/du sin(pi u) = pi cos(pi u) = pi sin(pi (u + 1/2))
        step = (_sin_pi(u) - s) / (_PI * _sin_pi(u + Decimal("0.5")))
        u -= step
        if abs(step) < Decimal("1e-38"):
            return u
    raise ArithmeticError(f"Newton's method did not converge at k={k}, N={N}")


def counting_table(samples, M, N, median3):
    """v_k, k = 0..N, at 40 digits: E[g(A)] (median3 false) or E[g(median
    of three A)] for the amplitude estimate A = sin(pi Z/M)^2 of one counting
    run on N bits of weight k; binomial_mixture(N, table, x) mixes them.

    samples are the float values g(sin(pi j/M)^2), j = 0..M//2, whose A
    increases with j.  Z is phase estimation at precision M on the eigenphase
    theta/pi; the other eigenphase, 1 - theta/pi, gives the same law once
    each outcome z is folded onto j = min(z, M - z).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        g = [Decimal(float(v)) for v in samples]
        table = []
        for k in range(N + 1):
            law = [Decimal(0)] * len(g)
            for z, p in enumerate(_pe_law(M, _grover_phase(k, N))):
                law[min(z, M - z)] += p
            if median3:  # j orders the estimates as A does
                law = _median3_law(law)
            table.append(sum(p * v for p, v in zip(law, g)))
        return table


def jackson_exact(samples, order, x):
    """(1/Q) sum_j K(j/Q - x) g_j over the Q = len(samples) float samples
    g_j = g(j/Q), at 40 digits, for the Jackson kernel K = c F^2 of the
    given order n: F(t) = sin(pi n t)^2 / (n sin(pi t)^2), with its limit n
    at an integer t, and c the reciprocal of F^2's mean,
    sum_{|k|<n} (1 - |k|/n)^2 (Parseval on F's Fourier triangle).

    x is taken exactly as the float it is; the result is rounded once, to float.
    """
    n, Q = order, len(samples)
    with localcontext() as ctx:
        ctx.prec = 40
        xd = Decimal(float(x))
        total = Decimal(0)
        for j, g in enumerate(samples):
            t = Decimal(j) / Q - xd
            f = (Decimal(n) if t == t.to_integral_value()
                 else _sin_pi(n * t) ** 2 / (n * _sin_pi(t) ** 2))
            total += f * f * Decimal(float(g))
        mean = sum(Fraction(n - abs(k), n) ** 2 for k in range(1 - n, n))
        return float(total * mean.denominator / mean.numerator / Q)


def kernel_coeffs_exact(kind, order):
    """Fourier coefficients c_k, k = -p(n-1) .. p(n-1), of the kernel of the
    given kind and order n, as Fractions.

    "fejer" (p = 1) is F_n's triangle 1 - |k|/n, |k| < n.  "jackson" (p = 2)
    is c F_n^2: the triangle's autocorrelation, summed in integers, divided
    by its centre sum_{|k|<n} (1 - |k|/n)^2, which is the mean of F_n^2
    (Parseval), so c_0 = 1.
    """
    n = order
    triangle = [n - abs(k) for k in range(1 - n, n)]  # n times F_n's coefficients
    if kind == "fejer":
        return [Fraction(t, n) for t in triangle]
    auto = [0] * (2 * len(triangle) - 1)
    for i, a in enumerate(triangle):
        for j, b in enumerate(triangle):
            auto[i + j] += a * b
    return [Fraction(s, auto[len(triangle) - 1]) for s in auto]


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
