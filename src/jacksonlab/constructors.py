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
use: values at the n+1 Chebyshev-Lobatto points for the algebraic
methods, 2n+1 Fourier coefficients for the trigonometric ones.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
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
from .counting_model import (
    amp_support,
    binom_band_width,
    binom_weight_matrix,
    single_run_amp_pmf,
)
from .phase_dist import jackson_kernel, pe_pmf_rows


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
    certifications probe it.  Calls go through ``form``, the exact
    coefficient form that ``compile`` builds from the reference's data on
    first evaluation (a LobattoPoly or a TrigPoly of degree n); the form is
    the one check of x, so a NaN or infinite x raises PreconditionError.
    """

    method: str
    n: int
    M: Optional[int]
    N: Optional[int]
    reference: Callable
    compile: Callable
    degenerate: bool = False

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


def _lobatto_form(reference, n):
    return lambda: LobattoPoly(reference(cheb_lobatto_nodes(n + 1)))


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
    return _METHOD_TABLE[method].params(n)


def _banded(band, table, W):
    """Reference x -> sum_j w[i, j] table[lo[i] + j], where (lo, w) = band(x)
    gives W weights per point of a block, and lo[i] + W <= len(table).

    Each block takes one gather of its points' windows and one einsum.  The
    window view of the table (about 50 us to make) is made once, on the
    reference's first call: not per block, and not at build, since a
    Jackson approximant is built with a reference its form never calls.
    """
    windows = None

    def rows(x):
        nonlocal windows
        if windows is None:
            windows = np.lib.stride_tricks.sliding_window_view(table, W)
        lo, w = band(x)
        return np.einsum("ij,ij->i", w, windows[lo])

    return _blockwise(rows, W)


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
    return fn, _lobatto_form(fn, n), n


def _counting_value_table(g, N, M, median3):
    """v_k = E[g(A)|weight k] (or E[g(A')|k]), one entry per weight.

    The weights run in the reference's row blocks; per block the median rule
    and g, evaluated once on the amplitude support, are applied once.
    """
    values = amp_support(M)[0]
    gvals = _target_values(g, values, "on the counting amplitude support")

    def rows(weights):
        laws = np.array([single_run_amp_pmf(k, N, M)[1] for k in weights.astype(int).tolist()])
        if median3:
            laws = numerics.median3_pmf(values, laws)[1]
        return laws @ gvals

    return _blockwise(rows, len(values))(np.arange(N + 1))


def _counting(g, n, M, N, median3):
    # one run's law has degree M-1 in k/N; the median of three is cubic in it
    fn = _binomial_mixture(N, _counting_value_table(g, N, M, median3))
    return fn, _lobatto_form(fn, n), (3 if median3 else 1) * (M - 1)


def _phase(g, n, M, N):
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
ALGEBRAIC_METHODS = tuple(m for m in METHODS if _METHOD_TABLE[m].basis == "chebyshev")
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
    degenerate = degree == 0
    if degenerate:
        warnings.warn(f"{method} with n={n} has exact degree 0: the approximant "
                      "degenerates to a constant", stacklevel=2)
    return Approximant(method=method, n=n, M=M, N=N, reference=reference,
                       compile=compile_form, degenerate=degenerate)


def approximant_coefficients(approx):
    """Spectral coefficients of a built approximant, from its stored form.

    A real array of Chebyshev coefficients in 2x-1, degree 0..n, for the
    algebraic methods; the complex Fourier coefficients, k = -n..n, for
    the trigonometric ones.
    """
    if approx.basis == "chebyshev":
        return approx.form.chebyshev()
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
    grid = grid or Grid.uniform(4097)
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
