"""Exact outcome model of quantum counting conditioned on Hamming weight.

A run of counting on an N-bit string of weight k performs phase
estimation on the Grover iterate starting from the uniform state, which
behaves as an equal mixture of the two eigenphases +-theta/pi with
theta = arcsin(sqrt(k/N)).  The amplitude estimate is sin(pi Z/M)^2, and
the median of three independent runs sharpens its concentration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .numerics import PreconditionError, median3_pmf
from .phase_dist import pe_pmf


def theta_of_weight(k, N):
    """Grover angle arcsin(sqrt(k/N)) in [0, pi/2]."""
    if not (0 <= k <= N):
        raise PreconditionError("weight k must lie in [0, N]")
    return float(np.arcsin(np.sqrt(k / N)))


def single_run_pmf(k, N, M):
    """Outcome pmf of one counting run: equal mixture of the two eigenphases."""
    theta = theta_of_weight(k, N)
    x_plus = (theta / np.pi) % 1.0
    x_minus = (1.0 - theta / np.pi) % 1.0
    return 0.5 * pe_pmf(M, x_plus).probs + 0.5 * pe_pmf(M, x_minus).probs


def amp_estimate(z, M):
    """Amplitude estimate sin(pi z / M)^2 derived from outcome z."""
    z = np.asarray(z)
    if np.any(z < 0) or np.any(z >= M):
        raise PreconditionError("outcome z must lie in [0, M)")
    out = np.sin(np.pi * np.asarray(z, dtype=float) / M) ** 2
    if out.ndim == 0:
        return float(out)
    return out


def _amp_support(M):
    """Distinct amplitude values and the canonical z-index of each.

    Outcomes z and M-z yield the same estimate; grouping is by index,
    not by floating comparison of sin^2 values.
    """
    z = np.arange(M)
    canonical = np.minimum(z, (M - z) % M)
    idx = np.unique(canonical)
    return np.sin(np.pi * idx / M) ** 2, canonical, idx


def single_run_amp_pmf(k, N, M):
    """(values, probs) of the single-run amplitude estimate A."""
    run = single_run_pmf(k, N, M)
    values, canonical, idx = _amp_support(M)
    probs = np.zeros(len(idx))
    pos = np.searchsorted(idx, canonical)
    np.add.at(probs, pos, run)
    return values, probs


def median3_amp_pmf(k, N, M):
    """(values, probs) of A' = median of three i.i.d. single-run estimates."""
    values, probs = single_run_amp_pmf(k, N, M)
    return median3_pmf(values, probs)


def expected_amp_error(k, N, M):
    """Exact E[|A' - k/N|] for the median-of-three estimate."""
    values, probs = median3_amp_pmf(k, N, M)
    return float(np.dot(probs, np.abs(values - k / N)))


@lru_cache(maxsize=8)
def _log_binom(N):
    """log C(N, k) for k = 0..N, read-only; shared by every block of one N."""
    k = np.arange(N + 1)
    out = gammaln(N + 1) - gammaln(k + 1) - gammaln(N - k + 1)
    out.flags.writeable = False
    return out


def binom_weights(N, x):
    """Binomial(N, x) pmf over weights 0..N, computed in log space.

    Endpoints x in {0, 1} return exact point masses; otherwise weights
    are renormalized to sum to 1.
    """
    N = int(N)
    if not (0.0 <= x <= 1.0):
        raise PreconditionError("x must lie in [0, 1]")
    w = np.zeros(N + 1)
    if x == 0.0:
        w[0] = 1.0
        return w
    if x == 1.0:
        w[N] = 1.0
        return w
    k = np.arange(N + 1)
    logw = (
        _log_binom(N)
        + k * np.log(x)
        + (N - k) * np.log1p(-x)
    )
    w = np.exp(logw)
    return w / w.sum()


def binom_weight_matrix(N, xs):
    """Rows of binom_weights(N, x) for each x in xs; shape (len(xs), N+1)."""
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


@dataclass(frozen=True)
class CountingModel:
    """Per-weight outcome tables for counting on N bits with precision M."""

    N: int
    M: int
    single: np.ndarray       # (N+1, M) single-run outcome pmfs over z
    med_support: np.ndarray  # shared A' support values (canonical indices)
    med_probs: np.ndarray    # (N+1, support size) pmfs of A'


def build_counting_model(N, M):
    N, M = int(N), int(M)
    if N < 1 or M < 1:
        raise PreconditionError("N and M must be positive integers")
    single = np.array([single_run_pmf(k, N, M) for k in range(N + 1)])
    support = None
    med_rows = []
    for k in range(N + 1):
        values, probs = median3_amp_pmf(k, N, M)
        if support is None:
            support = values
        med_rows.append(probs)
    return CountingModel(
        N=N, M=M, single=single, med_support=support, med_probs=np.array(med_rows)
    )
