"""The four approximation constructions and their error reports.

Given a degree budget n, builds: the Bernstein operator of order n, the
quantum-counting polynomial (median-of-three, or the single-run variant
that loses a log factor), the phase-estimation trigonometric polynomial,
and convolution with the Jackson kernel.  All expectations are exact
sums; no sampling is involved anywhere.

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
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .numerics import (
    EvaluationError,
    Grid,
    LobattoPoly,
    PreconditionError,
    TrigPoly,
    cheb_lobatto_nodes,
    circle_dist,
    modulus_estimate,
    positive_int,
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
from .phase_dist import KernelSpec, jackson_kernel, outcome_phases, pe_probs

ALGEBRAIC_METHODS = ("bernstein", "counting_median3", "counting_single")
TRIG_METHODS = ("phase_median3", "jackson_kernel")
METHODS = ALGEBRAIC_METHODS + TRIG_METHODS


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
    first evaluation (a LobattoPoly or a TrigPoly of degree n).
    """

    method: str
    n: int
    M: Optional[int]
    N: Optional[int]
    reference: Callable
    compile: Callable
    degenerate: bool = False

    @cached_property
    def form(self):
        return self.compile()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise EvaluationError(f"non-finite x passed to the {self.method} approximant")
        return self.form(x)


# matrix entries one block of a reference evaluation may hold: 2 MB per
# float64 temporary, so a block's working set stays in cache and the
# reference runs in the same few MB of memory whatever n is
_BLOCK_ENTRIES = 1 << 18


def _blockwise(rows_fn, width):
    """Reference evaluator that applies rows_fn to blocks of points.

    rows_fn maps a 1-D array of points to one value each through a
    (points x width) matrix; each call gets at most
    max(1, _BLOCK_ENTRIES // width) points.  A scalar x gives a float,
    an array x an array; a NaN or infinite x raises PreconditionError.
    """

    def fn(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise PreconditionError("reference x must be finite")
        step = max(1, _BLOCK_ENTRIES // width)
        # an empty x still makes one (empty) call, so its shape comes from rows_fn
        out = np.concatenate(
            [rows_fn(x[i : i + step]) for i in range(0, max(len(x), 1), step)]
        )
        return float(out[0]) if scalar else out

    return fn


def _target_values(g, x, where):
    """g at the points x as floats; PreconditionError if any value is NaN or infinite."""
    values = np.asarray(g(x), dtype=float)
    if not np.isfinite(values).all():
        raise PreconditionError(f"target values must be finite {where}")
    return values


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
    degree 2 per Grover query, M-1 queries a run.  The exact degree of
    the counting approximants is half that: M-1 for one run, whose law
    is a polynomial of degree M-1 in k/N, and 3(M-1) for the median of
    three, which is cubic in that law.
    """
    n = positive_int(n, "degree budget n")
    if method == "bernstein":
        return None, None
    if method == "counting_median3":
        return n // 6 + 1, n * n
    if method == "counting_single":
        return n // 2 + 1, n * n
    if method == "phase_median3":
        return n // 3 + 1, None
    if method == "jackson_kernel":
        return None, None
    raise PreconditionError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")


def _binomial_mixture(N, table):
    """Reference x -> sum_k P[Binomial(N, x) = k] table[k], over each x's band.

    The band (binom_weight_matrix) leaves out at most 2e^-80 of the mass, so
    the sum is the full mixture to rounding, at O(sqrt N) weights per point.
    """
    W = binom_band_width(N)
    windows = np.lib.stride_tricks.sliding_window_view(table, W)

    def rows(x):
        lo, w = binom_weight_matrix(N, x)
        return np.einsum("ij,ij->i", w, windows[lo])

    return _blockwise(rows, W)


def _bernstein_approximant(g, n):
    values = _target_values(g, np.arange(n + 1) / n, "at the Bernstein nodes k/n")
    fn = _binomial_mixture(n, values)
    return Approximant(method="bernstein", n=n, M=None, N=None, reference=fn,
                       compile=_lobatto_form(fn, n))


def _counting_value_table(g, N, M, median3):
    """v_k = E[g(A)|weight k] (or E[g(A')|k]), one entry per weight.

    The weights run in the reference's row blocks; per block the median rule
    and g, evaluated once on the amplitude support, are applied once.
    """
    values = amp_support(M)[0]
    gvals = _target_values(g, values, "on the counting amplitude support")

    def rows(weights):
        laws = np.array([single_run_amp_pmf(k, N, M)[1] for k in weights.astype(int)])
        if median3:
            laws = numerics.median3_pmf(values, laws)[1]
        return laws @ gvals

    return _blockwise(rows, len(values))(np.arange(N + 1))


def _counting_approximant(g, n, median3):
    method = "counting_median3" if median3 else "counting_single"
    M, N = derived_params(method, n)
    degenerate = M == 1
    if degenerate:
        warnings.warn(
            f"{method} with n={n} gives precision M=1: the approximant "
            "degenerates to the constant g(0)",
            stacklevel=3,
        )
    table = _counting_value_table(g, N, M, median3)
    fn = _binomial_mixture(N, table)
    return Approximant(method=method, n=n, M=M, N=N, reference=fn,
                       compile=_lobatto_form(fn, n), degenerate=degenerate)


def _phase_approximant(g, n):
    if not g.periodic:
        raise PreconditionError("phase construction requires a periodic target")
    M, _ = derived_params("phase_median3", n)
    phases = outcome_phases(M)
    gvals = _target_values(g, phases, "at the phase outcomes z/M")

    def rows(x):
        # one outcome law per point, on the g-values of the M outcomes
        d = circle_dist(phases, x[:, None] % 1.0)
        support, med = numerics.median3_pmf(gvals, pe_probs(M, d))
        return med @ support

    fn = _blockwise(rows, M)
    return Approximant(method="phase_median3", n=n, M=M, N=None, reference=fn,
                       compile=_fourier_form(fn, n))


def _convolution_samples(g, kernel, quad_points):
    if not g.periodic:
        raise PreconditionError("kernel convolution requires a periodic target")
    quad_points = int(quad_points)
    if quad_points < 8 * (kernel.trig_degree + 1):
        raise PreconditionError(
            "quad_points must be at least 8*(kernel trig degree + 1)"
        )
    return _target_values(g, np.arange(quad_points) / quad_points, "at the quadrature nodes")


def _quadrature_convolution(kernel, gs):
    """(1/Q) sum_j kernel(j/Q - x) g(j/Q), entry by entry, with each point's
    nodes re-centred on it (KernelSpec.quadrature_rows)."""
    Q = len(gs)
    rows = kernel.quadrature_rows(Q)

    def sums(x):
        c, k = rows(x)
        # window[c[i]] is the samples from node c[i] - Q//2 on, wrapped round
        wrapped = gs[(np.arange(2 * Q - 1) - Q // 2) % Q]
        window = np.lib.stride_tricks.sliding_window_view(wrapped, Q)
        return np.einsum("ij,ij->i", k, window[c]) / Q

    return _blockwise(sums, Q)


def kernel_convolve(g, kernel: KernelSpec, quad_points):
    """Convolution of a periodic g with a trig-polynomial kernel.

    Uses the uniform-node composite rule, which is exact (to rounding)
    for trigonometric integrands of degree below the node count.
    """
    return _quadrature_convolution(kernel, _convolution_samples(g, kernel, quad_points))


def _jackson_approximant(g, n):
    order = max(n // 2, 1)
    kernel = jackson_kernel(order)
    quad = 8 * (kernel.trig_degree + 1)
    gs = _convolution_samples(g, kernel, quad)

    def jackson_form():
        # the quadrature rule in closed form: coefficient k of the result is
        # the kernel's times the DFT of the g-samples at k
        d = kernel.trig_degree
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        spectrum = np.fft.fft(gs) / quad
        coeffs[n - d : n + d + 1] = kernel.fourier_coeffs() * spectrum[np.arange(-d, d + 1)]
        return TrigPoly(coeffs)

    return Approximant(method="jackson_kernel", n=n, M=None, N=None,
                       reference=_quadrature_convolution(kernel, gs), compile=jackson_form)


def build_approximant(g, method, n):
    """Build the named construction for target g at degree budget n.

    n must be a positive integer (numpy integers included).
    """
    if not isinstance(n, numbers.Integral):
        raise PreconditionError(f"degree budget n must be a positive integer, got {n!r}")
    n = positive_int(n, "degree budget n")
    if method in TRIG_METHODS and not g.periodic:
        raise PreconditionError(f"method {method!r} requires a periodic target")
    if method == "bernstein":
        return _bernstein_approximant(g, n)
    if method == "counting_median3":
        return _counting_approximant(g, n, median3=True)
    if method == "counting_single":
        return _counting_approximant(g, n, median3=False)
    if method == "phase_median3":
        return _phase_approximant(g, n)
    if method == "jackson_kernel":
        return _jackson_approximant(g, n)
    raise PreconditionError(f"unknown method {method!r}; valid: {', '.join(METHODS)}")


def approximant_coefficients(approx):
    """Spectral coefficients of a built approximant, from its stored form.

    A real array of Chebyshev coefficients in 2x-1, degree 0..n, for the
    algebraic methods; the complex Fourier coefficients, k = -n..n, for
    the trigonometric ones.
    """
    if approx.method in ALGEBRAIC_METHODS:
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

    ``method`` is either an Approximant already built for g (n is then
    taken from it) or a method name, built here at budget n.
    """
    grid = grid or Grid.uniform(4097)
    approx = method if isinstance(method, Approximant) else build_approximant(g, method, n)
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
