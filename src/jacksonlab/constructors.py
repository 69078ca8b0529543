"""The four approximation constructions and their error reports.

Given a degree budget n, builds: the Bernstein operator of order n, the
quantum-counting polynomial (median-of-three, or the single-run variant
that loses a log factor), the phase-estimation trigonometric polynomial,
and convolution with the Jackson kernel.  All expectations are exact
sums; no sampling is involved anywhere.  Each method is one row of
``_METHOD_TABLE``: its (M, N) rule, its builder and its basis.

Each construction keeps its defining expectation as
``Approximant.reference`` and answers calls through its exact
coefficient form of degree <= n, compiled from the reference on first
use: for the algebraic methods the reference at the n+1 Chebyshev-Lobatto
points, truncated to the exact degree d (values at max(d, 1) + 1 points),
for the trigonometric ones 2n+1 Fourier coefficients.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .numerics import (
    Grid,
    LobattoPoly,
    PreconditionError,
    TrigPoly,
    cheb_lobatto_nodes,
    modulus_estimate,
    positive_int,
    real_x,
    sup_distance,
    trig_coeffs_from_samples,
)
from . import numerics
from .phase_dist import (amp_support, check_precision, jackson_kernel, pe_pmf_rows,
                         single_run_amp_pmf)

DEFAULT_GRID_SIZE = 4097  # points of error_report's uniform grid, and the CLI's --grid-size


@dataclass(frozen=True)
class ErrorReport:
    """Grid sup error of an approximant against its target, scaled by omega_{1/n}."""

    method: str
    n: int
    sup_err: float
    omega_ref: float
    ratio: float
    grid_size: int


@dataclass(frozen=True)
class Approximant:
    """A built approximant: callable, with its derived parameters.

    ``reference`` evaluates the defining expectation directly; the degree
    certifications probe it.  ``degree`` is the exact degree its builder
    gives, at most n.  Calls go through ``form``, the exact coefficient
    form that ``compile`` builds from the reference's data on first
    evaluation (a LobattoPoly of degree max(degree, 1), or a TrigPoly of
    degree n); the form is the one check of x, so a NaN or infinite x
    raises PreconditionError.
    """

    method: str
    n: int
    M: Optional[int]
    N: Optional[int]
    reference: Callable
    compile: Callable
    degree: int

    @property
    def degenerate(self):
        """Exact degree 0: the approximant is a constant."""
        return self.degree == 0

    @property
    def basis(self):
        """"chebyshev" for the algebraic methods, "fourier" for the trigonometric ones."""
        return _METHOD_TABLE[self.method].basis

    @cached_property
    def form(self):
        return self.compile()

    def __call__(self, x):
        return self.form(x)


def _blockwise(rows_fn, width):
    """Reference evaluator that applies rows_fn to blocks of points.

    rows_fn maps a 1-D array of points to one value each through a
    (points x width) matrix; numerics._in_blocks hands it the points in
    blocks.  A scalar x gives a float, an array x an array of its shape.
    x is checked as a call checks it (real_x), and a NaN or infinite x
    raises PreconditionError.
    """

    def fn(x):
        x = real_x(x)
        xs = numerics._finite(np.ravel(x), PreconditionError, "reference x must be finite")
        out = numerics._in_blocks(rows_fn, xs, width)
        return float(out[0]) if isinstance(x, float) else out.reshape(x.shape)

    return fn


def _target_values(g, x, where):
    """g at the points x as floats; PreconditionError if any value is NaN or infinite."""
    return numerics._finite(g(x), PreconditionError, f"target values must be finite {where}")


def _lobatto_form(reference, n, d):
    """The reference at the n+1 budget nodes, truncated to its exact degree d."""
    return lambda: LobattoPoly(reference(cheb_lobatto_nodes(n + 1))).truncated(d)


def _fourier_form(reference, n):
    m = 2 * n + 1
    return lambda: trig_coeffs_from_samples(reference(np.arange(m) / m))


def derived_params(method, n):
    """(M, N) for a method at degree budget n; None where not applicable.

    M is chosen as the largest precision whose degree bound fits inside
    n: 6(M-1) <= n for three counting runs, 2(M-1) <= n for one run,
    3(M-1) <= n for three phase estimations.  The counting bounds count
    degree 2 per Grover query, M-1 queries a run.
    """
    n = positive_int(n, "degree budget n")
    if not (isinstance(method, str) and method in _METHOD_TABLE):  # a list is refused too
        raise PreconditionError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")
    M, N = _METHOD_TABLE[method].params(n)
    if N is not None:  # the counting value table has N + 1 weights
        positive_int(N, "N = n^2")
    return M, N


def _banded(band, table, W):
    """Reference x -> sum_j w[i, j] table[lo[i] + j], where (lo, w) = band(x)
    gives W weights per point of a block, and lo[i] + W <= len(table): a
    gather of rows of the table's window view (made on the first call: a
    Jackson form never calls its reference) and an einsum per block."""
    windows = None

    def rows(x):
        nonlocal windows
        if windows is None:
            windows = numerics.window_view(table, W)
        lo, w = band(x)
        return np.einsum("ij,ij->i", w, windows[lo])

    return _blockwise(rows, W)


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


def _binomial_mixture(N, table):
    """Reference x -> sum_k P[Binomial(N, x) = k] table[k], over each x's band.

    The band (binom_weight_matrix) leaves out at most 2e^-80 of the mass, so
    the sum is the full mixture to rounding, at O(sqrt N) weights per point.
    """
    # the name is looked up on each call, so a patched binom_weight_matrix is used
    return _banded(lambda x: binom_weight_matrix(N, x), table, binom_band_width(N))


def _bernstein(g, n, M, N):
    values = _target_values(g, np.arange(n + 1) / n, "at the Bernstein nodes k/n")
    fn = _binomial_mixture(n, values)
    return fn, _lobatto_form(fn, n, n), n


def _counting_value_table(g, N, M, median3):
    """v_k = E[g(A)|weight k] (or E[g(A')|k]), one entry per weight.

    The integer weights run in row blocks (numerics._in_blocks); per block the
    median rule and g, evaluated once on the amplitude support, apply once.
    """
    values = amp_support(M)[0]
    gvals = _target_values(g, values, "on the counting amplitude support")

    def rows(weights):
        laws = np.array([single_run_amp_pmf(k, N, M)[1] for k in weights.tolist()])
        if median3:
            laws = numerics.median3_pmf(values, laws)[1]
        return laws @ gvals

    return numerics._in_blocks(rows, np.arange(N + 1), len(values))


def _counting(g, n, M, N, median3):
    # one run's law has degree M-1 in k/N; the median of three is cubic in it
    degree = (3 if median3 else 1) * (M - 1)
    fn = _binomial_mixture(N, _counting_value_table(g, N, M, median3))
    return fn, _lobatto_form(fn, n, degree), degree


def _phase(g, n, M, N):
    check_precision(M)  # an M whose laws numpy cannot lay out is refused before g is sampled
    gvals = _target_values(g, np.arange(M) / M, "at the phase outcomes z/M")

    def rows(x):
        # one outcome law per point, on the g-values of the M outcomes
        support, med = numerics.median3_pmf(gvals, pe_pmf_rows(M, x))
        return med @ support

    fn = _blockwise(rows, M)
    return fn, _fourier_form(fn, n), 3 * (M - 1)


def _jackson(g, n, M, N):
    """The Q-node uniform rule (1/Q) sum_j K(j/Q - x) g(j/Q), exact (to
    rounding) for trigonometric integrands of degree below Q, with each
    point's nodes re-centred on it (KernelSpec.quadrature)."""
    order = max(n // 2, 1)
    kernel = jackson_kernel(order)
    quad = 8 * (kernel.trig_degree + 1)
    # the reference's (quad, quad) window view of the table (_banded), before g is sampled
    if not numerics.view_fits((quad, quad), 8):
        raise PreconditionError(f"n={n} is too large for jackson_kernel: numpy cannot "
                                f"describe the window view of its {quad}-node quadrature")
    gs = _target_values(g, np.arange(quad) / quad, "at the quadrature nodes")
    sums = _banded(*kernel.quadrature(gs), quad)

    def jackson_form():
        # the quadrature rule in closed form: coefficient k of the result is
        # the kernel's times the DFT of the g-samples at k
        d = kernel.trig_degree
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        coeffs[n - d : n + d + 1] = kernel.fourier_coeffs() * numerics._real_spectrum(gs, d)
        return TrigPoly(coeffs)

    return (lambda x: sums(x) / quad), jackson_form, kernel.trig_degree


class _Method(NamedTuple):
    params: Callable  # n -> (M, N) at degree budget n
    build: Callable   # (g, n, M, N) -> (reference, compile, exact degree)
    basis: str        # "chebyshev" or "fourier": the form's coefficients


# every method is declared here, once
_METHOD_TABLE = {
    "bernstein": _Method(lambda n: (None, None), _bernstein, "chebyshev"),
    "counting_median3": _Method(lambda n: (n // 6 + 1, n * n),
                                partial(_counting, median3=True), "chebyshev"),
    "counting_single": _Method(lambda n: (n // 2 + 1, n * n),
                               partial(_counting, median3=False), "chebyshev"),
    "phase_median3": _Method(lambda n: (n // 3 + 1, None), _phase, "fourier"),
    "jackson_kernel": _Method(lambda n: (None, None), _jackson, "fourier"),
}
METHODS = tuple(_METHOD_TABLE)
TRIG_METHODS = tuple(m for m in METHODS if _METHOD_TABLE[m].basis == "fourier")


def build_approximant(g, method, n):
    """Build the named construction for target g at degree budget n.

    n must be a positive integer (numpy integers included).  An approximant
    of exact degree 0 is a constant, flagged ``degenerate`` with a warning.
    """
    if not isinstance(n, numbers.Integral):
        raise PreconditionError(f"degree budget n must be a positive integer, got {n!r}")
    M, N = derived_params(method, n)  # refuses a bad n or an unknown name first
    n, row = int(n), _METHOD_TABLE[method]
    if row.basis == "fourier" and not g.periodic:
        raise PreconditionError(f"method {method!r} requires a periodic target")
    reference, compile_form, degree = row.build(g, n, M, N)
    if degree == 0:
        warnings.warn(f"{method} with n={n} has exact degree 0: the approximant "
                      "degenerates to a constant", stacklevel=2)
    return Approximant(method=method, n=n, M=M, N=N, reference=reference,
                       compile=compile_form, degree=degree)


def approximant_coefficients(approx):
    """Spectral coefficients of a built approximant, from its stored form.

    A real array of Chebyshev coefficients in 2x-1, degree 0..n, for the
    algebraic methods, exact zeros above the exact degree; the complex
    Fourier coefficients, k = -n..n, for the trigonometric ones.
    """
    if approx.basis == "chebyshev":
        coeffs = np.zeros(approx.n + 1)
        coeffs[: approx.degree + 1] = approx.form.chebyshev()[: approx.degree + 1]
        return coeffs
    return approx.form.coeffs


def omega_reference(g, delta):
    """omega_delta(g): analytic when the target ships one, else a grid estimate."""
    if g.analytic_modulus is not None:
        return float(g.analytic_modulus(delta))
    size = max(4097, int(np.ceil(16.0 / delta)) + 1)
    return modulus_estimate(g, delta, Grid.uniform(size))


def error_report(g, method, n=None, grid=None):
    """Grid sup error of a construction, with the omega_{1/n} ratio.

    ``method`` is either an Approximant already built for g (n, if given,
    must be its n) or a method name, built here at budget n.
    """
    grid = grid or Grid.uniform(DEFAULT_GRID_SIZE)
    approx = method if isinstance(method, Approximant) else build_approximant(g, method, n)
    if n not in (None, approx.n):
        raise PreconditionError(f"n={n!r} differs from the approximant's n={approx.n}")
    # a non-finite target on the grid is bad input, not a fault of the approximant
    target = _target_values(g, grid.points, "on the error grid")
    sup_err = sup_distance(lambda _x: target, approx, grid)
    omega = omega_reference(g, 1.0 / approx.n)
    ratio = sup_err / omega if omega > 0 else 0.0
    return ErrorReport(
        method=approx.method,
        n=approx.n,
        sup_err=sup_err,
        omega_ref=omega,
        ratio=ratio,
        grid_size=len(grid),
    )
