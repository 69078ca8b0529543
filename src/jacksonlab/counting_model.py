"""Exact outcome model of quantum counting conditioned on Hamming weight.

A run of counting on an N-bit string of weight k performs phase
estimation on the Grover iterate starting from the uniform state, which
behaves as an equal mixture of the two eigenphases +-theta/pi with
theta = arcsin(sqrt(k/N)).  The amplitude estimate is sin(pi Z/M)^2, and
the median of three independent runs sharpens its concentration.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .numerics import PreconditionError, circle_dist, median3_pmf, positive_int
from .phase_dist import outcome_phases, pe_probs


def theta_of_weight(k, N):
    """Grover angle arcsin(sqrt(k/N)) in [0, pi/2]."""
    if N < 1:
        raise PreconditionError("N must be a positive integer")
    if not (0 <= k <= N):
        raise PreconditionError("weight k must lie in [0, N]")
    return float(np.arcsin(np.sqrt(k / N)))


def single_run_pmf(k, N, M):
    """Outcome pmf of one counting run: equal mixture of the two eigenphases."""
    phases = amp_support(M)[2]
    phi = theta_of_weight(k, N) / np.pi
    probs = pe_probs(int(M), circle_dist(phases, np.array([[phi], [1.0 - phi]]) % 1.0))
    return 0.5 * probs[0] + 0.5 * probs[1]


@lru_cache(maxsize=64)
def amp_support(M):
    """Read-only (values, fold, phases) of a counting run at precision M.

    values: the distinct estimates sin(pi j/M)^2, j = 0..M//2; fold: the index
    j = min(z, M-z) of outcome z's estimate (grouping by index, not by sin^2
    values); phases: the outcome phases z/M.
    """
    M = positive_int(M, "M")
    z = np.arange(M)
    values = np.sin(np.pi * np.arange(M // 2 + 1) / M) ** 2
    fold = np.minimum(z, M - z)
    for a in (values, fold):
        a.flags.writeable = False
    return values, fold, outcome_phases(M)


def single_run_amp_pmf(k, N, M):
    """(values, probs) of the single-run amplitude estimate A.

    One eigenphase is enough: 1 - theta/pi puts on z the mass theta/pi puts
    on M-z, which the fold merges with z, so this is the folded mixture.
    """
    values, fold, phases = amp_support(M)
    probs = pe_probs(int(M), circle_dist(phases, theta_of_weight(k, N) / np.pi))
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


def binom_weight_matrix(N, xs):
    """Binomial(N, x) pmf over weights 0..N for each x in xs; shape (len(xs), N+1).

    Computed in log space.  Rows for x in {0, 1} are exact point masses;
    the others are renormalized to sum to 1.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise PreconditionError("all x must lie in [0, 1]")
    k = np.arange(N + 1)
    logc = _log_binom(N)
    out = np.zeros((len(xs), N + 1))
    interior = (xs > 0.0) & (xs < 1.0)
    if interior.any():
        xi = xs[interior]
        logw = (
            logc[None, :]
            + np.outer(np.log(xi), k)
            + np.outer(np.log1p(-xi), N - k)
        )
        w = np.exp(logw)
        out[interior] = w / w.sum(axis=1, keepdims=True)
    out[xs == 0.0, 0] = 1.0
    out[xs == 1.0, N] = 1.0
    return out
