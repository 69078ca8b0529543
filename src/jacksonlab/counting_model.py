"""Exact outcome model of quantum counting conditioned on Hamming weight.

A run of counting on an N-bit string of weight k performs phase
estimation on the Grover iterate starting from the uniform state, which
behaves as an equal mixture of the two eigenphases +-theta/pi with
theta = arcsin(sqrt(k/N)).  The amplitude estimate is sin(pi Z/M)^2, and
the median of three independent runs sharpens its concentration.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .numerics import PreconditionError, median3_pmf, positive_int
from .phase_dist import _float_law, check_precision, pe_pmf_rows


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


@lru_cache(maxsize=8)
def _log_binom(N):
    """log C(N, k) for k = 0..N, read-only; shared by every block of one N.

    Running sum of log((N-j+1)/j) up to N//2, mirrored by C(N, k) = C(N, N-k),
    so the two halves are exactly symmetric.  The sum runs in long double,
    because in float64 its rounding grows with N (3e-8 in log C at N = 10^6);
    where long double is no wider than float64, that is the accuracy.
    """
    j = np.arange(1, N // 2 + 1, dtype=np.longdouble)
    half = np.concatenate(([0.0], np.cumsum(np.log((N - j + 1) / j)).astype(float)))
    out = np.concatenate((half, half[: N - N // 2][::-1]))
    out.flags.writeable = False
    return out


# log of the mass each binomial tail outside its band may hold, at most
_TAIL_LOG = 80.0


def binom_band_width(N):
    """Width W = min(N+1, 2h+1) of every Binomial(N, x) band, whatever x is.

    Bernstein's inequality bounds P[|K - Nx| >= t] per tail by
    exp(-t^2 / (2(Nx(1-x) + t/3))); with Nx(1-x) <= N/4 that is exp(-L) at
    t = L/3 + sqrt(L^2/9 + 2L N/4), L = _TAIL_LOG.  h is t rounded up, plus
    one for centring the band on rint(Nx), so each tail outside the band
    holds at most e^-80.  h grows as sqrt(N): O(n) weights for N = n^2.
    """
    L = _TAIL_LOG
    h = math.ceil(L / 3 + math.sqrt(L * L / 9 + 2 * L * N / 4)) + 1
    return min(N + 1, 2 * h + 1)


def binom_weight_matrix(N, xs):
    """Band of the Binomial(N, x) pmf for each x in xs, as (lo, w).

    w has shape (len(xs), binom_band_width(N)) and w[i, j] = P[K = lo[i] + j]
    for x = xs[i]; the band is centred on rint(N x) and clipped into 0..N.
    Computed in log space.  Rows for x in {0, 1} are exact point masses;
    the others are renormalized over their band.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise PreconditionError("all x must lie in [0, 1]")
    W = binom_band_width(N)
    lo = np.clip(np.rint(N * xs).astype(int) - W // 2, 0, N + 1 - W)
    interior = (xs > 0.0) & (xs < 1.0)
    x = np.where(interior, xs, 0.5)[:, None]  # endpoint rows are overwritten below
    # log C(N, k) + k log x + (N - k) log(1 - x), in place: a block's working
    # set is three (points x W) arrays, both products made in one of them
    k = lo[:, None] + np.arange(W)
    w = _log_binom(N)[k]
    w += (prod := np.multiply(np.log(x), k))
    w += np.multiply(np.log1p(-x), np.subtract(N, k, out=k), out=prod)
    np.exp(w, out=w)
    w /= np.where(interior, w.sum(axis=1), 1.0)[:, None]
    w[~interior] = 0.0
    w[xs == 0.0, 0] = 1.0
    w[xs == 1.0, W - 1] = 1.0
    return lo, w
