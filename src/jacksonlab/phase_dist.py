"""Exact phase-estimation outcome distributions and approximation kernels.

The outcome of phase estimation at precision M on eigenphase x is a
closed-form pmf over {0,...,M-1}; it coincides with a discretized,
renormalized Fejer kernel recentered at x.  The Jackson kernel is the
normalized square of the Fejer kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import PreconditionError, circle_dist, median3_pmf

# below this circle distance the removable singularity is replaced by its limit
_SINGULARITY_EPS = 1e-15


@dataclass(frozen=True)
class PhasePMF:
    """Outcome law of phase estimation: precision M, eigenphase x."""

    M: int
    x: float
    probs: np.ndarray

    def outcomes(self):
        return np.arange(self.M)


def pe_pmf(M, x):
    """Exact pmf of the phase-estimation outcome Z at precision M, phase x.

    x must be finite and is reduced mod 1.  Pr[Z=z] = sin(pi M d)^2 /
    (M sin(pi d))^2 with d the circle distance from z/M to x, and 1 at
    d = 0.
    """
    M = int(M)
    if M < 1:
        raise PreconditionError("M must be a positive integer")
    x = float(x)
    if not math.isfinite(x):
        raise PreconditionError(f"phase x must be finite, got {x!r}")
    x %= 1.0
    d = circle_dist(np.arange(M) / M, x)
    d = np.atleast_1d(d)
    probs = np.ones(M)
    far = d > _SINGULARITY_EPS
    probs[far] = np.sin(np.pi * M * d[far]) ** 2 / (M**2 * np.sin(np.pi * d[far]) ** 2)
    return PhasePMF(M=M, x=x, probs=probs)


def tail_bound(M, d):
    """Quadratic falloff bound 1/(4 M^2 d^2); +inf at d = 0 (vacuous)."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore"):
        return 1.0 / (4.0 * M**2 * d**2)


def expected_circle_error(pmf):
    """E[d(Z/M, x)] under the phase-estimation outcome law."""
    d = circle_dist(np.arange(pmf.M) / pmf.M, pmf.x)
    return float(np.dot(pmf.probs, d))


def median3_circle_error(M, x):
    """Exact E[median of three i.i.d. circle errors d(Z_i/M, x)].

    Computed by value-aggregated order statistics; agrees with full M^3
    triple enumeration to rounding.
    """
    pmf = pe_pmf(M, x)
    d = circle_dist(np.arange(pmf.M) / pmf.M, pmf.x)
    support, probs = median3_pmf(d, pmf.probs)
    return float(np.dot(support, probs))


def fejer_value(n, t):
    """1-periodic Fejer kernel of order n; equals n at integers, NaN at NaN/inf."""
    n = int(n)
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    # the ratio is computed everywhere and replaced by its limit n near the
    # integers, where it is 0/0 or rounding noise
    with np.errstate(divide="ignore", invalid="ignore"):
        t_arr = np.asarray(t, dtype=float) % 1.0
        ratio = np.sin(np.pi * n * t_arr) ** 2 / (n * np.sin(np.pi * t_arr) ** 2)
    d = np.minimum(t_arr, 1.0 - t_arr)
    out = np.where(d <= _SINGULARITY_EPS, float(n), ratio)
    if np.ndim(t) == 0:
        return float(out)
    return out


def fejer_identity_check(M, x):
    """Max deviation between the phase pmf and F_M(z/M - x)/M.

    Requires M*x not an integer (the exact-phase case is a point mass).
    """
    M = int(M)
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


def fejer_kernel(n):
    if int(n) < 1:
        raise PreconditionError("n must be a positive integer")
    return KernelSpec(kind="fejer", order=int(n), norm_const=1.0)


def jackson_kernel(n):
    """Normalized square of the Fejer kernel of order n.

    The normalization constant is the reciprocal of the constant Fourier
    coefficient of F_n^2, sum_{|k|<n} (1 - |k|/n)^2 = (2n^2 + 1)/(3n).
    """
    n = int(n)
    if n < 1:
        raise PreconditionError("n must be a positive integer")
    return KernelSpec(kind="jackson", order=n, norm_const=3.0 * n / (2.0 * n * n + 1.0))


def kernel_integral(kernel, sample_count=None):
    """Integral over one period, via the constant Fourier coefficient."""
    m = sample_count or (2 * kernel.trig_degree + 1)
    if m % 2 == 0:
        m += 1
    return float(np.mean(kernel(np.arange(m) / m)))
