"""Exact phase-estimation outcome distributions, the quantum-counting laws
built from them, and approximation kernels.

The outcome of phase estimation at precision M on eigenphase x is a
closed-form pmf over {0,...,M-1}; it coincides with a discretized,
renormalized Fejer kernel recentered at x.  A run of counting on an N-bit
string of weight k is phase estimation on the Grover iterate, an equal
mixture of the eigenphases +-theta/pi with theta = arcsin(sqrt(k/N)); its
amplitude estimate is sin(pi Z/M)^2, and the median of three runs
sharpens its concentration.  The Jackson kernel is the normalized square
of the Fejer kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .numerics import (PreconditionError, _scalarize, finite_phase, finite_phases, frac,
                       median3_pmf, positive_int, view_fits, window_view)

# below this circle distance the removable singularity is replaced by its limit
_SINGULARITY_EPS = 1e-15


class PhasePMF(NamedTuple):
    """Outcome law of phase estimation: precision M, eigenphase x."""

    M: int
    x: float
    probs: np.ndarray


def pe_pmf(M, x):
    """Exact pmf of the phase-estimation outcome Z at precision M, phase x.

    x must be finite and is reduced mod 1 into [0, 1); the probabilities are
    the float law of pe_pmf_rows.
    """
    M = positive_int(M, "M")
    x = finite_phase(x) % 1.0
    # a phase just below 0 (-1e-17) rounds to 1.0, whose law is the law at 0
    return PhasePMF(M, 0.0 if x == 1.0 else x, _float_law(M, x))


def pe_pmf_rows(M, xs):
    """Outcome law of phase estimation at precision M (a positive int): the
    (M,) law of a float phase xs, or one row per phase of an array xs, of
    shape xs.shape + (M,).  Every outcome law is built here or, for pe_pmf
    and the counting law, by its float path _float_law.  A NaN or infinite
    phase raises PreconditionError.

    Pr[Z=z] = sin(pi M t)^2 / (M sin(pi t))^2 at t = z/M - x.  With
    c = rint(M x) and d = x - c/M, the numerator is sin(pi M d)^2 for every z.
    With o = z - c reduced into -(M//2) .. M-1-M//2, the denominator's sine is
    sin(pi(o/M - d)) = Re(F e^{i pi d}), where F = sin(pi o/M) + i cos(pi o/M)
    is read from the cached window view _law_table(M): one complex product
    per entry with one number per phase, so no entry takes a sine.
    At o = 0, F = i and the product is exactly -sin(pi d); a phase with
    |d| <= 1e-15 takes the limit 1 there.
    """
    M = positive_int(M, "M")
    # the phase is checked before the reduction, which warns on an infinity
    x = frac(np.asarray(finite_phases(xs)))
    c = np.rint(x * M).astype(np.intp)
    d = x - c / M
    a = np.pi * d[..., None]
    # cos + i sin of pi d, from the same np.cos and np.sin as the float law's
    e = np.empty(a.shape, complex)
    e.real = np.cos(a)
    e.imag = np.sin(a)
    # a phase's M outcomes are row (M//2 - c) mod M of the view; the gather
    # copies just those rows (an index array, 0-d for a float phase), so the
    # product goes in place: a second (P, M) complex array cost more in page
    # faults than it saved
    rows = _law_table(M)[np.asarray((M // 2 - c) % M)]
    rows *= e
    # the laws as (P, M) rows, views of the fresh product whatever the shape
    # of xs, so a phase that takes the limit is a (row, column) pair of them
    near = np.flatnonzero(np.abs(d) <= _SINGULARITY_EPS)
    law = _law(M, rows.real.reshape(-1, M), a.reshape(-1, 1),
               (near, c.ravel()[near] % M) if near.size else None)
    return law.reshape(rows.shape)


def check_precision(M):
    """M, an int >= 1 (from positive_int); PreconditionError when numpy
    cannot describe pe_pmf_rows's (M + 1, M) complex window view of the law
    table (M > 759,250,124), so such an M is refused before any array of its
    size is made, whatever memory the machine has."""
    if not view_fits((M + 1, M), 16):
        raise PreconditionError(f"precision M={M} is too large: numpy cannot describe "
                                "the (M + 1) x M window view of its outcome laws")
    return M


def _float_law(M, x):
    """The (M,) law at one phase, with no check of its own: M an int >= 1
    (from positive_int) and x a finite float in [0, 1] (reduced mod 1, so
    1.0 only from a phase just below 0).  c is M for x within 1/(2M) below
    1, and the window start is taken mod M, so x = 1.0 gives the law at 0."""
    c = round(x * M)
    s = (M // 2 - c) % M
    d = x - c / M
    a = np.pi * d
    return _law(M, (_law_table(M)[s] * complex(np.cos(a), np.sin(a))).real, a,
                c % M if abs(d) <= _SINGULARITY_EPS else None)


def _law(M, sines, a, at):
    """sin(M a)^2 / (M sines)^2, for the sines Re(F e^{i a}) of the
    outcomes, with 1 at the o = 0 entries that take the limit: at is None
    when no entry does, else an index of sines, an int for one law or a
    (row, column) pair of index arrays for (P, M) rows.  The 1 is written
    into the sines before the division too, which keeps 0/0 out at a = 0;
    both writes are plain indexing, one entry per law that takes the limit."""
    if at is not None:
        sines[at] = 1.0
    # into a new array: the rows come out C-contiguous, not strided over F
    law = np.divide(np.sin(M * a) / M, sines)
    law *= law
    if at is not None:
        law[at] = 1.0
    return law


def theta_of_weight(k, N):
    """Grover angle arcsin(sqrt(k/N)) in [0, pi/2]; k and N whole numbers."""
    N = positive_int(N, "N")
    k = positive_int(k, "weight k", low=0)
    if k > N:
        raise PreconditionError("weight k must lie in [0, N]")
    # math.sqrt is correctly rounded, as np.sqrt is; math.asin is not np.arcsin
    return float(np.arcsin(math.sqrt(k / N)))


def single_run_pmf(k, N, M):
    """Outcome pmf of one counting run: equal mixture of the two eigenphases."""
    phi = theta_of_weight(k, N) / np.pi
    probs = pe_pmf_rows(M, np.array([phi, 1.0 - phi]))
    return 0.5 * probs[0] + 0.5 * probs[1]


@lru_cache(maxsize=64)
def amp_support(M):
    """Read-only (values, fold) of a counting run at precision M.

    values: the distinct estimates sin(pi j/M)^2, j = 0..M//2; fold: the index
    j = min(z, M-z) of outcome z's estimate (grouping by index, not by sin^2
    values).
    """
    M = check_precision(positive_int(M, "M"))
    z = np.arange(M)
    values = np.sin(np.pi * np.arange(M // 2 + 1) / M) ** 2
    fold = np.minimum(z, M - z)
    for a in (values, fold):
        a.flags.writeable = False
    return values, fold


def single_run_amp_pmf(k, N, M):
    """(values, probs) of the single-run amplitude estimate A.

    One eigenphase is enough: 1 - theta/pi puts on z the mass theta/pi puts
    on M-z, which the fold merges with z, so this is the folded mixture.
    """
    values, fold = amp_support(M)  # checks M; a cached M was checked when it came in
    # theta/pi lies in [0, 1/2], a phase already reduced mod 1
    probs = _float_law(len(fold), theta_of_weight(k, N) / np.pi)
    return values, np.bincount(fold, weights=probs)


def median3_amp_pmf(k, N, M):
    """(values, probs) of A' = median of three i.i.d. single-run estimates."""
    values, probs = single_run_amp_pmf(k, N, M)
    return median3_pmf(values, probs)


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
    return _scalarize(out, t)


def _offset_angles(order, Q):
    """pi*order*u at the offsets u = o/Q, o = -(Q//2) .. Q-1-Q//2, of a
    Q-node uniform rule.  order*o is reduced to (-Q, Q] in integers first,
    so every angle lies in (-pi, pi] and its sine and cosine are each as
    accurate as one sine there."""
    o = np.arange(Q) - Q // 2
    return np.pi * ((order * o + Q - 1) % (2 * Q) - (Q - 1)) / Q


# one entry per precision M of the outcome laws: verify alone sweeps 63
@lru_cache(maxsize=128)
def _law_table(M):
    """The read-only (M + 1, M) window view (window_view) of the complex table
    F = sin + i cos of the offset angles pi o/M (_offset_angles(1, M)) laid
    out twice, so row s is F's M entries from s on.  M is checked here
    (check_precision), on a cache miss only."""
    check_precision(M)
    a = _offset_angles(1, M)
    return window_view(np.tile(np.sin(a) + 1j * np.cos(a), 2), M)


def fejer_identity_check(M, x):
    """Max deviation between the phase pmf and F_M(z/M - x)/M.

    x is a finite phase or a 1-D array of them, the max taken over all;
    no M*x may be an integer (the exact-phase case is a point mass).
    """
    M = positive_int(M, "M")
    xs = frac(np.asarray(finite_phases(x)))  # reduced first, so M*x cannot overflow
    if np.any(np.abs(M * xs - np.rint(M * xs)) < 1e-12):
        raise PreconditionError("M*x must not be an integer")
    kernel_side = fejer_value(M, np.arange(M) / M - xs[..., None]) / M
    return float(np.max(np.abs(pe_pmf_rows(M, xs) - kernel_side)))


# the one place the kernel kinds are named: each is norm_const * F_n^power
_FEJER_POWER = {"fejer": 1, "jackson": 2}
KERNEL_KINDS = tuple(_FEJER_POWER)


@dataclass(frozen=True)
class KernelSpec:
    """Nonnegative 1-periodic approximation kernel with unit integral,
    norm_const * F_n^p for the Fejer kernel F_n of order n: p = 1 for
    "fejer", p = 2 (the Jackson kernel) for "jackson".  Any other kind, or
    an order that is not a positive integer, raises PreconditionError."""

    kind: str  # a key of _FEJER_POWER
    order: int

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _FEJER_POWER):
            raise PreconditionError(f"kernel kind must be in {KERNEL_KINDS}, got {self.kind!r}")
        # an int order >= 1 is kept: setting a frozen field costs more than the check
        if not (type(self.order) is int and self.order >= 1):
            object.__setattr__(self, "order", positive_int(self.order, "n"))

    @property
    def norm_const(self):
        """1 for the Fejer kernel.  For the Jackson kernel, the reciprocal of
        the constant Fourier coefficient of F_n^2,
        sum_{|k|<n} (1 - |k|/n)^2 = (2n^2 + 1)/(3n)."""
        if self.kind == "fejer":
            return 1.0
        n = self.order
        return 3.0 * n / (2.0 * n * n + 1.0)

    @property
    def trig_degree(self):
        return _FEJER_POWER[self.kind] * (self.order - 1)

    def fourier_coeffs(self):
        """Read-only Fourier coefficients for k = -trig_degree .. trig_degree,
        one array per kernel (_fourier_coeffs)."""
        return _fourier_coeffs(self)

    def __call__(self, t):
        return self.norm_const * fejer_value(self.order, t) ** _FEJER_POWER[self.kind]

    def quadrature(self, samples):
        """(band, table) of the Q-node uniform rule on Q = len(samples)
        samples g(j/Q), re-centred on each point: for a 1-D x,
        sum_o K[i, o] table[c[i] + o] = sum_j kernel(j/Q - x[i]) g(j/Q),
        where (c, K) = band(x).

        c[i] = rint(Q x[i]) mod Q, and K[i, o] = kernel(s - x[i]) at the
        node s = (c[i] + o - Q//2)/Q mod 1, whose sample is table[c[i] + o]:
        the table is the samples wrapped round to 2Q - 1 entries.  s - x[i]
        is u - d, with u = (o - Q//2)/Q and d = x - rint(Q x)/Q,
        |d| <= 1/(2Q).  sin(pi m (u - d)) is expanded by angle addition into
        a rank-2 product of [sin; cos] of the angles pi m u (_offset_angles)
        with the per-point sin and cos of pi m d, for m = order (numerator)
        and m = 1 (denominator), so no entry takes a sine.  For u != 0,
        |u| >= 2|d| and neither difference cancels badly; at u = 0 both are
        exactly -sin(pi m d), and a point with |d| <= 1e-15 takes the limit
        F = order there.
        """
        Q, n, p, norm = len(samples), self.order, _FEJER_POWER[self.kind], self.norm_const
        half = Q // 2
        table = np.concatenate((samples[Q - half :], samples, samples[: Q - 1 - half]))

        rows = []

        def band(x):
            if not rows:
                # C-ordered (2, Q) [sin; cos] rows at m = n and m = 1: made on the
                # first block, not at build, and freed with the band
                rows.extend(np.array((np.sin(u), np.cos(u)))
                            for u in (_offset_angles(n, Q), _offset_angles(1, Q)))
            x = frac(x)
            c = np.rint(x * Q)
            d = x - c / Q
            a = np.pi * d
            # in place from here: sin(pi n t) / sin(pi t), then F_n(t), then the kernel
            k = np.stack((np.cos(n * a), -np.sin(n * a)), axis=1) @ rows[0]
            with np.errstate(divide="ignore", invalid="ignore"):
                k /= np.stack((np.cos(a), -np.sin(a)), axis=1) @ rows[1]
            k[np.abs(d) <= _SINGULARITY_EPS, half] = n
            k *= k
            k /= n
            k **= p
            k *= norm
            return c.astype(np.intp) % Q, k

        return band, table


# one entry per kernel (kind, order), 4 * order doubles at most: the target
# never enters, so every Jackson compile at an order after the first reads it
@lru_cache(maxsize=128)
def _fourier_coeffs(kernel):
    """Read-only coefficients of norm_const * F_n^p, k = -p(n-1) .. p(n-1).

    F_n has the triangle 1 - |k|/n for |k| < n; F_n^p has the triangle
    convolved with itself up to power p.
    """
    n = kernel.order
    triangle = 1.0 - np.abs(np.arange(1 - n, n)) / n
    out = kernel.norm_const * reduce(np.convolve, [triangle] * _FEJER_POWER[kernel.kind])
    out.flags.writeable = False
    return out


def fejer_kernel(n):
    return KernelSpec(kind="fejer", order=n)


def jackson_kernel(n):
    """Normalized square of the Fejer kernel of order n (KernelSpec.norm_const)."""
    return KernelSpec(kind="jackson", order=n)


def kernel_integral(kernel):
    """Integral over one period, via the constant Fourier coefficient."""
    m = 2 * kernel.trig_degree + 1
    return float(np.mean(kernel(np.arange(m) / m)))
