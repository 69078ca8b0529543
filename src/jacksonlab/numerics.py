"""Core function representations and numerical utilities.

Provides target-function and polynomial containers (values at
Chebyshev-Lobatto nodes, trigonometric coefficients), circle distance, the
median-of-three law, sup-norm and modulus-of-continuity estimation on
grids, spectral coefficient extraction from samples, and effective-degree
certification.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


class PreconditionError(ValueError):
    """An operation was called outside its stated preconditions."""


class EvaluationError(ArithmeticError):
    """A function produced a non-finite value at a named point."""


# numpy refuses an array of more than intp.max bytes with a ValueError (a
# MemoryError below that), a strided view over a small buffer too
_MAX_BYTES = np.iinfo(np.intp).max
# the largest array a size s makes is the Jackson band's [sin; cos] rows at
# budget s: 2Q doubles with Q <= 8s, under 128 bytes per unit of s, so a
# larger size could only fail that way
_MAX_SIZE = _MAX_BYTES // 128


def positive_int(value, name, low=1):
    """value as an int; PreconditionError unless it is a whole number >= low
    and at most _MAX_SIZE.

    low is 1 for an order or a precision, 0 for a degree.  A bool is
    refused; an integral float such as 4.0 is accepted.
    """
    if type(value) is int and value >= low and value <= _MAX_SIZE:
        return value  # the common case, spared the numbers.Real check (about 0.4 us)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())
            or value < low):
        kind = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise PreconditionError(f"{name} must be {kind}, got {value!r}")
    if value > _MAX_SIZE:
        raise PreconditionError(f"{name} must be at most {_MAX_SIZE}, got {value!r}: "
                                "arrays of that size cannot be allocated")
    return int(value)


def view_fits(shape, itemsize):
    """Whether numpy can describe a view of this shape over items of
    itemsize bytes: its nominal size prod(shape) * itemsize, not its buffer's,
    must be at most _MAX_BYTES."""
    return math.prod(shape) * itemsize <= _MAX_BYTES


def window_view(table, width):
    """The read-only (len(table) - width + 1, width) view whose row i is
    table[i:i+width], sliding_window_view's at a tenth of its cost: one ndarray
    with strides (itemsize, itemsize) over the 1-D table (copied if strided)."""
    table = np.ascontiguousarray(table)
    out = np.ndarray((len(table) - width + 1, width), table.dtype, table,
                     strides=2 * table.strides)
    out.flags.writeable = False
    return out


def real_x(x):
    """x as a float, or as a float array when it has a dimension.

    PreconditionError unless x is a real number (numpy scalars included)
    or an array of them: a str or bytes is not parsed, a bool is not read
    as 0 or 1, and None and an int too large for a float are refused.
    """
    if isinstance(x, float):  # np.float64 included
        return x
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise PreconditionError("x is too large to be a float") from None
    xs = np.asarray(x)
    if xs.dtype.kind not in "iuf":
        raise PreconditionError(f"x must be a real number or an array of them, got {x!r}")
    xs = xs.astype(float, copy=False)
    return xs if xs.ndim else float(xs)


def finite_phase(x):
    """x as a float; PreconditionError unless it is one finite real number."""
    x = real_x(x)
    if not isinstance(x, float) or not math.isfinite(x):
        raise PreconditionError(f"phase x must be a finite real number, got {x!r}")
    return x


def finite_phases(x):
    """x, a phase or an array of them, as real_x returns it (a float or a
    float array); PreconditionError unless every phase is a finite real."""
    x = real_x(x)
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise PreconditionError(f"phase x must be finite, got {x!r}")
    return x


def _finite(values, error, message):
    """values as a float array; error(message) if any is NaN or infinite, or if
    they are not bool, int or float (a complex value is not cast to its real part)."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise error(f"{message}, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    if not np.isfinite(values).all():
        raise error(message)
    return values


# matrix entries one block of a (points x width) evaluation may hold: 512 kB
# per float64 temporary, so a block's working set (about four temporaries in
# the Jackson band, one in a LobattoPoly block) fits a 2 MB L2 cache and malloc
# reuses it from block to block; at 2 MB per temporary the Jackson band's were
# handed back to the OS and faulted in again on every block.  The evaluation
# runs in the same few MB of memory whatever n is.
_BLOCK_ENTRIES = 1 << 16


def _in_blocks(rows_fn, xs, width):
    """rows_fn's values on the 1-D array xs, one array, with rows_fn applied
    in order to blocks of at most max(1, _BLOCK_ENTRIES // width) points.

    rows_fn maps a 1-D array of points to one value each through a
    (points x width) matrix.  Points that fit one block go to rows_fn in
    one call, whose array is returned as it is.
    """
    step = max(1, _BLOCK_ENTRIES // width)
    if len(xs) <= step:
        return rows_fn(xs)
    out = np.empty(len(xs))
    for i in range(0, len(xs), step):
        out[i : i + step] = rows_fn(xs[i : i + step])
    return out


def _scalarize(out, like):
    if np.isscalar(like) or np.ndim(like) == 0:
        return float(out)
    return out


def frac(x):
    """x mod 1 of a float array, bit for bit x % 1.0 at about a tenth of its
    cost: floor is exact, and x - floor(x) rounds the true remainder once."""
    return x - np.floor(x)


def circle_dist(a, b):
    """Distance between phases a and b on the circle R/Z, in [0, 1/2]."""
    d = frac(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return _scalarize(np.minimum(d, 1.0 - d), d)


def median3_pmf(values, probs):
    """Exact pmf of the median of three i.i.d. draws from a discrete law.

    Aggregates duplicate support values, then uses the order-statistics
    identity P[med <= v] = F(v)^2 (3 - 2 F(v)).  Returns (support, probs)
    with support sorted increasing and duplicates merged.  values must be
    a 1-D array with no NaN.  probs may have shape (..., len(values)): each
    row is one law on the same values, and the returned probs have shape
    (..., len(support)).
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.ndim != 1:
        raise PreconditionError("median3_pmf: values must be a 1-D array")
    if probs.shape[-1:] != values.shape:
        raise PreconditionError("median3_pmf: probs must end in an axis of len(values)")
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    if ordered.size and math.isnan(ordered[-1]):  # NaN sorts last
        raise PreconditionError("median3_pmf: values must not be NaN")
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=ordered.size)
    # each run of equal values is summed in index order (the sort is stable), its
    # j-th outcome added in round j; take keeps the rows C-ordered for the products
    cdf = np.take(probs, order[starts], axis=-1)
    for j in range(1, sizes.max(initial=1)):
        grown = np.flatnonzero(sizes > j)
        cdf[..., grown] += np.take(probs, order[starts[grown] + j], axis=-1)
    # in place from here: F, clipped, then F^2 (3 - 2F), then its differences
    np.cumsum(cdf, axis=-1, out=cdf)
    np.clip(cdf, 0.0, 1.0, out=cdf)
    med = 2.0 * cdf
    np.subtract(3.0, med, out=med)
    cdf *= cdf
    cdf *= med
    med[..., :1] = cdf[..., :1]
    np.subtract(cdf[..., 1:], cdf[..., :-1], out=med[..., 1:])
    return ordered[first], med


@dataclass(frozen=True)
class TargetFunction:
    """An evaluable continuous function on [0,1] (or all of R if periodic).

    ``evaluator`` must accept numpy arrays.  ``analytic_modulus``, when
    present, maps a scale delta in (0,1] to an exact modulus of
    continuity at that scale.
    """

    evaluator: Callable
    periodic: bool = False
    analytic_modulus: Optional[Callable[[float], float]] = None
    name: str = "anonymous"

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation points in [0,1], a 1-D array of reals."""

    points: np.ndarray

    def __post_init__(self):
        try:  # a str is not parsed, nor a bool read as 0 or 1
            pts = real_x(self.points)
        except PreconditionError:
            raise PreconditionError(
                f"grid points must be real numbers, got {self.points!r}") from None
        if np.ndim(pts) != 1 or pts.size == 0:
            raise PreconditionError("grid points must be a nonempty 1-D array")
        if not (pts.min() >= 0.0 and pts.max() <= 1.0):  # NaN fails too
            raise PreconditionError("grid points must lie in [0,1]")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise PreconditionError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @staticmethod
    def uniform(size):
        return Grid(np.linspace(0.0, 1.0, positive_int(size, "grid size")))


# x - 0 below the smallest normal float makes w/(x - 0) overflow, so such an x
# has its differences scaled by a power of two: exact, and the barycentric
# ratio is unchanged (no other node is near enough 0 for a subnormal gap)
_TINY = float(np.finfo(float).tiny)
_SUBNORMAL_SCALE = 2.0**1000


@dataclass(frozen=True)
class LobattoPoly:
    """Algebraic polynomial on [0,1] held by its values at cheb_lobatto_nodes.

    Evaluated by the barycentric formula, which returns the stored value
    exactly at every node, x = 0 and x = 1 included, on an array x in row
    blocks (_in_blocks), so a call's memory does not grow with n.  Points
    outside [0,1] are refused rather than extrapolated.  Degree >= 1.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        nodes = cheb_lobatto_nodes(v.size)  # refuses fewer than two values
        weights = np.ones(v.size)
        weights[1::2] = -1.0
        weights[[0, -1]] *= 0.5
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_nodes", nodes)
        # the same floats: bisect and float == cost a quarter of searchsorted and a numpy ==
        object.__setattr__(self, "_node_list", nodes.tolist())
        object.__setattr__(self, "_weights", weights)

    @property
    def degree(self):
        return len(self.values) - 1

    def __call__(self, x):
        x = real_x(x)  # the one check of x, with the [0, 1] test below
        if isinstance(x, float):
            # one point: the same arithmetic as a row of the array path below
            if not 0.0 <= x <= 1.0:  # NaN fails too
                raise PreconditionError("all x must lie in [0, 1]")
            # searchsorted's index, by bisect: x <= 1, the last node, so i is in range
            i = bisect.bisect_left(self._node_list, x)
            if self._node_list[i] == x:
                return float(self.values[i])
            diff = x - self._nodes
            if x < _TINY:
                diff *= _SUBNORMAL_SCALE
            q = self._weights / diff
            # q @'s BLAS dot and ndarray.sum's pairwise sum, without their dispatch
            return float(q.dot(self.values) / np.add.reduce(q))
        lo, hi = (x.min(), x.max()) if x.size else (1.0, 1.0)
        if not (lo >= 0.0 and hi <= 1.0):  # NaN fails too
            raise PreconditionError("all x must lie in [0, 1]")
        flat = x.reshape(-1)
        rows = partial(self._rows, subnormal=True) if lo < _TINY else self._rows
        out = _in_blocks(rows, flat, self.values.size)
        # node hits by binary search, as in the scalar path: every x <= 1, the last node
        i = self._nodes.searchsorted(flat)
        hit = self._nodes[i] == flat
        out[hit] = self.values[i[hit]]
        return out.reshape(x.shape)

    def _rows(self, xs, subnormal=False):
        """The barycentric formula at a block of points in [0, 1]; a node
        hit gives NaN or inf here and is overwritten by the caller.
        subnormal says whether any point of the call is below _TINY.

        The block's one (points x (n+1)) temporary is divided in place: a
        second one per block made malloc hand memory back to the OS and
        fault it in again on every block at large n.
        """
        q = xs[:, None] - self._nodes
        if subnormal:
            q[xs < _TINY] *= _SUBNORMAL_SCALE  # xs - 0, the first column, is exact
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self._weights, q, out=q)
            return (q @ self.values) / np.add.reduce(q, axis=1)

    def chebyshev(self):
        """Chebyshev coefficients in 2x-1 of the same polynomial, degree 0..n."""
        n = self.degree
        # values at t = cos(pi k/n), k = 0..n, are the stored ones reversed;
        # the DCT-I of those is a real FFT of their even extension
        f = self.values[::-1]
        coeffs = np.fft.rfft(np.concatenate((f, f[-2:0:-1]))).real / n
        coeffs[[0, n]] /= 2.0
        return coeffs


_TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial sum_k c_k e^{2 pi i k x}, k in [-m, m].

    Calls return the real part, Re sum_{k=0..m} b_k e^{2 pi i k x} with
    b_0 = c_0 and b_k = c_k + conj(c_-k), evaluated baby-step/giant-step:
    k = aB + r with B = ceil(sqrt(m+1)) and A = ceil((m+1)/B), so each
    point needs one complex exponential z = e^{2 pi i (x mod 1)}, one power
    table z^0 .. z^B (the baby steps z^r, r < B, and the giant base z^B),
    the giant steps (z^B)^a (a < A), and the sum over r and a of
    z^r T[r, a] (z^B)^a for the B x A table T[r, a] = b_{aB+r}: two BLAS
    products, not m cosines and m sines.

    np.power takes an integer exponent below 100 by repeated squaring, at
    about half the cost of a complex exp; once m + 1 > 99**2 = 9801, B
    reaches 100 and numpy takes its general complex power instead, more
    than ten times slower, though still accurate to rounding.
    """

    coeffs: np.ndarray  # complex, ordered k = -m .. m

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.size < 1 or c.size % 2 == 0:
            raise PreconditionError("coefficient vector must have odd length")
        m = (c.size - 1) // 2
        baby = math.isqrt(m) + 1  # ceil(sqrt(m + 1))
        giant = -(-(m + 1) // baby)
        b = np.zeros(baby * giant, dtype=complex)
        b[: m + 1] = c[m:]
        b[1 : m + 1] += np.conj(c[:m][::-1])
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_table", b.reshape(giant, baby).T.copy())
        # the exponents 0 .. B and a, complex as np.power's complex loop takes them
        object.__setattr__(self, "_power_exps", np.arange(baby + 1, dtype=complex))
        object.__setattr__(self, "_giant_exps", np.arange(giant, dtype=complex))

    @property
    def degree(self):
        return (len(self.coeffs) - 1) // 2

    def __call__(self, x):
        # the one check of x; the phases depend on x mod 1 only, and reducing
        # first keeps the angle below 2 pi
        x = finite_phases(x)
        # one point (a float) makes the same ufunc calls as a row of an array;
        # the giant base is the table's one-entry last column, never a numpy
        # scalar, so np.power runs its ufunc loop and not numpy's scalar math
        one = isinstance(x, float)
        z = np.exp((x % 1.0 if one else frac(x.reshape(-1, 1))) * _TWO_PI_I)
        w = np.power(z, self._power_exps)
        giant = np.power(w[..., -1:], self._giant_exps)
        if one:
            return float(w[:-1].dot(self._table).dot(giant).real)
        # a stack of (1 x A) by (A x 1) products: each row is np.dot's BLAS dot
        out = np.matmul((w[:, :-1] @ self._table)[:, None], giant[..., None])
        return out.real.reshape(x.shape)


def sup_distance(f, h, grid):
    """Max over the grid of |f(x) - h(x)|; a lower bound on the sup norm."""
    pts = grid.points
    fv = np.asarray(f(pts), dtype=float)
    hv = np.asarray(h(pts), dtype=float)
    diff = fv - hv
    bad = ~np.isfinite(diff)
    if bad.any():
        raise EvaluationError(f"non-finite value at x={float(pts[bad][0])!r}")
    return float(np.max(np.abs(diff)))


def modulus_estimate(f, delta, grid):
    """Grid estimate of the modulus of continuity of f at scale delta.

    Maximizes |f(x)-f(y)| over grid pairs with |x-y| <= delta; a lower
    bound on the true modulus.  Requires grid spacing <= delta/8.
    """
    if not (delta > 0.0 and delta <= 1.0):
        raise PreconditionError("delta must lie in (0, 1]")
    pts = grid.points
    if len(pts) < 2:
        raise PreconditionError("grid too coarse for modulus estimation")
    spacing = np.max(np.diff(pts))
    if spacing > delta / 8.0 + 1e-15:
        raise PreconditionError(
            f"grid spacing {spacing:.3g} exceeds delta/8 = {delta / 8.0:.3g}"
        )
    vals = np.asarray(f(pts), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise PreconditionError(f"non-finite value at x={float(pts[bad][0])!r}")
    best = 0.0
    tol = delta * (1.0 + 1e-12)
    for shift in range(1, len(pts)):
        dx = pts[shift:] - pts[:-shift]
        if dx.min() > tol:
            break
        mask = dx <= tol
        if mask.any():
            best = max(best, float(np.max(np.abs(vals[shift:] - vals[:-shift])[mask])))
    return best


def cheb_lobatto_nodes(count):
    """count Chebyshev-Lobatto points (1 - cos(pi j/(count-1)))/2, from 0 to 1."""
    if count < 2:
        raise PreconditionError("need at least two nodes")
    return (1.0 - np.cos(np.pi * np.arange(count) / (count - 1))) / 2.0


def _real_spectrum(values, d):
    """Fourier coefficients c_k, k = -d..d, of real samples at len(values)
    equispaced points of [0, 1), for d <= (len(values) - 1) // 2.

    One real FFT gives c_0..c_d; c_-k is conj(c_k), exactly.
    """
    half = np.fft.rfft(values)[: d + 1] / len(values)
    return np.concatenate((np.conj(half[:0:-1]), half))


def trig_coeffs_from_samples(values):
    """Fourier coefficients of a real signal sampled at m equispaced points.

    m must be odd; recovery is exact (to rounding) for trigonometric
    polynomials of degree <= (m-1)/2, and the coefficients are exactly
    conjugate-symmetric.  Complex samples are refused.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise PreconditionError(f"samples must be real numbers, got dtype {values.dtype}")
    m = len(values)
    if m < 1:
        raise PreconditionError("need at least one sample")
    if m % 2 == 0:
        raise PreconditionError("sample count must be odd (ambiguous Nyquist bin)")
    return TrigPoly(_real_spectrum(values, (m - 1) // 2))


def _probe_residual(h, trunc, seed):
    """max |h - trunc| at 512 fresh random points in [0,1); EvaluationError unless
    both are finite there (a truncation of values near 1e308 can overflow)."""
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise PreconditionError(f"seed must be a non-negative integer, got {seed!r}")
    pts = np.random.default_rng(seed).uniform(0.0, 1.0, size=512)
    hv = _finite(h(pts), EvaluationError, "non-finite value at a fresh point of the degree probe")
    gap = np.abs(hv - trunc(pts))
    bad = ~np.isfinite(gap)
    if bad.any():
        raise EvaluationError(f"non-finite degree-probe residual at x={float(pts[bad][0])!r}")
    return float(np.max(gap))


def effective_algebraic_degree(h, claimed_degree, seed=0):
    """Certify that h is an algebraic polynomial of degree <= claimed_degree n.

    Samples h at max(4n+1, 2) Chebyshev-Lobatto nodes, keeps the Chebyshev
    coefficients of degree <= n of the interpolant (LobattoPoly.chebyshev),
    and returns the max deviation between h and that truncation on fresh
    random points.  A small residual certifies the degree bound regardless
    of aliasing.
    """
    n = positive_int(claimed_degree, "claimed_degree", low=0)
    vals = _finite(h(cheb_lobatto_nodes(max(4 * n + 1, 2))), EvaluationError,
                   "non-finite sample during degree probe")
    coeffs = LobattoPoly(vals).chebyshev()[: n + 1]
    return _probe_residual(
        h, lambda x: np.polynomial.chebyshev.chebval(2.0 * x - 1.0, coeffs), seed)


def effective_trig_degree(h, claimed_degree, seed=0):
    """Trigonometric analogue of effective_algebraic_degree.

    Samples h at 4n+1 equispaced points of [0,1), keeps the Fourier
    coefficients of degree <= n, and returns the max deviation between h
    and that truncation on fresh random points.
    """
    n = positive_int(claimed_degree, "claimed_degree", low=0)
    m = 4 * n + 1
    samples = _finite(h(np.arange(m) / m), EvaluationError,
                      "non-finite sample during degree probe")
    return _probe_residual(h, TrigPoly(_real_spectrum(samples, n)), seed)
