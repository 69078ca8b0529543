"""Exact phase-estimation outcome distributions and approximation kernels.

The outcome of phase estimation at precision M on eigenphase x is a
closed-form pmf over {0,...,M-1}; it coincides with a discretized,
renormalized Fejer kernel recentered at x.  The Jackson kernel is the
normalized square of the Fejer kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import PreconditionError, circle_dist, finite_phase, positive_int

# below this circle distance the removable singularity is replaced by its limit
_SINGULARITY_EPS = 1e-15


@dataclass(frozen=True)
class PhasePMF:
    """Outcome law of phase estimation: precision M, eigenphase x."""

    M: int
    x: float
    probs: np.ndarray


@lru_cache(maxsize=64)
def outcome_phases(M):
    """Read-only outcome phases z/M, z = 0..M-1, of phase estimation at precision M."""
    out = np.arange(M) / M
    out.flags.writeable = False
    return out


def pe_probs(M, d):
    """Pr[Z=z] = sin(pi M d)^2 / (M sin(pi d))^2 at circle distances d, any shape.

    d is the circle distance from z/M to the eigenphase; the removable
    singularity at d = 0 takes its limit 1.
    """
    far = d > _SINGULARITY_EPS
    s = np.where(far, np.sin(np.pi * d), 1.0)
    return np.where(far, np.sin(np.pi * M * d) ** 2 / (M**2 * s**2), 1.0)


def pe_pmf(M, x):
    """Exact pmf of the phase-estimation outcome Z at precision M, phase x.

    x must be finite and is reduced mod 1; the probabilities are
    pe_probs at the circle distances from z/M to x.
    """
    M = positive_int(M, "M")
    x = finite_phase(x) % 1.0
    return PhasePMF(M=M, x=x, probs=pe_probs(M, circle_dist(outcome_phases(M), x)))


def tail_bound(M, d):
    """Quadratic falloff bound 1/(4 M^2 d^2); +inf at d = 0 (vacuous)."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / (4.0 * M**2 * d**2)


def fejer_value(n, t):
    """1-periodic Fejer kernel of order n; equals n at integers, NaN at NaN/inf."""
    n = positive_int(n, "n")
    # r = t - rint(t) is exact and lies in [-1/2, 1/2], so the ratio keeps its
    # full relative accuracy up to the integers, where it is 0/0 and takes its
    # limit n; F_n <= n, which the clamp keeps against rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        t_arr = np.asarray(t, dtype=float)
        r = t_arr - np.rint(t_arr)
        ratio = np.sin(np.pi * n * r) ** 2 / (n * np.sin(np.pi * r) ** 2)
    out = np.where(np.abs(r) <= _SINGULARITY_EPS, float(n), np.minimum(ratio, n))
    if np.ndim(t) == 0:
        return float(out)
    return out


@lru_cache(maxsize=32)
def _offset_tables(order, Q):
    """Read-only (2, Q) tables [sin; cos] of pi*order*u and of pi*u at the
    offsets u = o/Q, o = -(Q//2) .. Q-1-Q//2, of a Q-node uniform rule.

    order*o is reduced to (-Q, Q] in integers first, so every angle lies in
    (-pi, pi] and each entry is as accurate as one sine there.
    """
    o = np.arange(Q) - Q // 2
    k = (order * o + Q - 1) % (2 * Q) - (Q - 1)
    out = (np.stack((np.sin(np.pi * k / Q), np.cos(np.pi * k / Q))),
           np.stack((np.sin(np.pi * o / Q), np.cos(np.pi * o / Q))))
    for a in out:
        a.flags.writeable = False
    return out


def fejer_identity_check(M, x):
    """Max deviation between the phase pmf and F_M(z/M - x)/M.

    Requires x finite and M*x not an integer (the exact-phase case is a
    point mass).
    """
    M = positive_int(M, "M")
    x = finite_phase(x)
    if abs(M * x - round(M * x)) < 1e-12:
        raise PreconditionError("M*x must not be an integer")
    pmf = pe_pmf(M, x)
    z = np.arange(M)
    kernel_side = fejer_value(M, z / M - pmf.x) / M
    return float(np.max(np.abs(pmf.probs - kernel_side)))


@dataclass(frozen=True)
class KernelSpec:
    """Nonnegative 1-periodic approximation kernel with unit integral."""

    kind: str  # "fejer" | "jackson"
    order: int
    norm_const: float

    @property
    def trig_degree(self):
        if self.kind == "fejer":
            return self.order - 1
        return 2 * (self.order - 1)

    def fourier_coeffs(self):
        """Fourier coefficients for k = -trig_degree .. trig_degree.

        F_n has the triangle 1 - |k|/n for |k| < n; F_n^2 has its
        autocorrelation.
        """
        n = self.order
        triangle = 1.0 - np.abs(np.arange(1 - n, n)) / n
        if self.kind == "fejer":
            return triangle
        return self.norm_const * np.convolve(triangle, triangle)

    def __call__(self, t):
        base = fejer_value(self.order, t)
        if self.kind == "fejer":
            return base
        return self.norm_const * base**2

    def quadrature_rows(self, Q):
        """Row function of the Q-node uniform rule, re-centred on each point.

        rows(x) returns (c, K) for a 1-D x: c[i] = rint(Q x[i]) mod Q, and
        K[i, o] = kernel(s - x[i]) at the node s = (c[i] + o - Q//2)/Q mod 1.
        That difference is u - d, with u = (o - Q//2)/Q and
        d = x - rint(Q x)/Q, |d| <= 1/(2Q).  sin(pi m (u - d)) is expanded by
        angle addition into a rank-2 product of the per-offset tables with
        the per-point sin and cos of pi m d, for m = order (numerator) and
        m = 1 (denominator), so no entry takes a sine.  For u != 0,
        |u| >= 2|d| and neither difference cancels badly; at u = 0 both are
        exactly -sin(pi m d), and a point with |d| <= 1e-15 takes the limit
        F = order there.
        """
        n, half = self.order, Q // 2

        def rows(x):
            num_table, den_table = _offset_tables(n, Q)
            x = x % 1.0
            c = np.rint(x * Q)
            d = x - c / Q
            a = np.pi * d
            # in place from here: sin(pi n t) / sin(pi t), then F_n(t), then the kernel
            k = np.stack((np.cos(n * a), -np.sin(n * a)), axis=1) @ num_table
            with np.errstate(divide="ignore", invalid="ignore"):
                k /= np.stack((np.cos(a), -np.sin(a)), axis=1) @ den_table
            k[np.abs(d) <= _SINGULARITY_EPS, half] = n
            k *= k
            k /= n
            if self.kind == "jackson":
                k *= k
                k *= self.norm_const
            return c.astype(np.intp) % Q, k

        return rows


def fejer_kernel(n):
    return KernelSpec(kind="fejer", order=positive_int(n, "n"), norm_const=1.0)


def jackson_kernel(n):
    """Normalized square of the Fejer kernel of order n.

    The normalization constant is the reciprocal of the constant Fourier
    coefficient of F_n^2, sum_{|k|<n} (1 - |k|/n)^2 = (2n^2 + 1)/(3n).
    """
    n = positive_int(n, "n")
    return KernelSpec(kind="jackson", order=n, norm_const=3.0 * n / (2.0 * n * n + 1.0))


def kernel_integral(kernel):
    """Integral over one period, via the constant Fourier coefficient."""
    m = 2 * kernel.trig_degree + 1
    return float(np.mean(kernel(np.arange(m) / m)))
