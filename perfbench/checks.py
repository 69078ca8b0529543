"""Output checks, written with plain numpy and independent of jacksonlab.

Each check returns a list of error strings; an empty list means the
output passed.  Tolerances admit rounding-level changes (a refactor that
moves results by 1e-12) and reject a wrong answer.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SUP_TOL = 1e-10              # absolute, on sup errors of order 1e-3 .. 1
REL_TOL = 1e-12              # relative, on omega_ref and sup_err / omega_ref
# approximant value vs its own coefficient form; jackson_kernel's direct
# evaluation carries rounding up to about 1.5e-9 (200k points at n=200)
FORM_TOL = 1e-8
LEAK_TOL = 1e-9              # coefficient mass above degree n, relative to the largest
DEGREE_RESIDUAL_MAX = 1e-8   # bound on the reported degree_residual
PMF_TOL = 1e-12              # outcome pmf vs statevector, and its normalization
KERNEL_TOL = 1e-10           # unit integral of a built kernel

SWEEP_HEADER = ["method", "n", "M", "sup_err", "omega_ref", "ratio",
                "degree_residual", "grid_size", "seed"]
VERIFY_CHECKS = ("pe_closed_form_vs_statevector", "quadratic_tail_bound",
                 "grover_eigenstructure", "no_interference_mixture",
                 "fejer_identity", "kernel_normalization")

# the corpus targets a benchmark build uses, restated with numpy
CORPUS = {
    "abs-half": lambda x: np.abs(x - 0.5),
    "sqrt": np.sqrt,
    "cos": lambda x: np.cos(2.0 * np.pi * (x % 1.0)),
    "triangle": lambda x: 2.0 * np.minimum(x % 1.0, 1.0 - x % 1.0),
}


def _close(a, b, abs_tol=0.0, rel_tol=0.0):
    return math.isfinite(a) and abs(a - b) <= abs_tol + rel_tol * abs(b)


def piecewise_linear(xs, ys, periodic):
    """The target a knot CSV describes, as a numpy function."""
    if periodic:
        return lambda t: np.interp(np.asarray(t, dtype=float) % 1.0, xs, ys)
    return lambda t: np.interp(np.asarray(t, dtype=float), xs, ys)


# --- coefficient forms -----------------------------------------------------

def cheb_points(count):
    """count first-kind Chebyshev points mapped to [0, 1]."""
    j = np.arange(count)
    return (1.0 - np.cos(np.pi * (2 * j + 1) / (2 * count))) / 2.0


def cheb_fit(values):
    """Chebyshev coefficients (in t = 2x - 1) of the interpolant through
    values sampled at cheb_points(len(values))."""
    t = 2.0 * cheb_points(len(values)) - 1.0
    return np.polynomial.chebyshev.chebfit(t, values, len(values) - 1)


def cheb_eval(coeffs, x):
    return np.polynomial.chebyshev.chebval(2.0 * np.asarray(x, dtype=float) - 1.0, coeffs)


def fourier_fit(values):
    """Coefficients c_k, k = -m..m, of the trig interpolant through values
    at the 2m+1 points j/(2m+1)."""
    return np.fft.fftshift(np.fft.fft(values)) / len(values)


def fourier_eval(coeffs, x):
    m = (len(coeffs) - 1) // 2
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(len(x))
    for lo in range(0, len(x), 512):  # bounded memory for long grids
        phases = np.exp(2j * np.pi * np.outer(x[lo:lo + 512], np.arange(-m, m + 1)))
        out[lo:lo + 512] = np.real(phases @ coeffs)
    return out


def leak(coeffs, n, fourier):
    """Largest coefficient above degree n, relative to the largest overall."""
    mags = np.abs(np.asarray(coeffs))
    scale = max(float(mags.max()), 1e-300)
    if fourier:
        m = (len(mags) - 1) // 2
        above = np.concatenate((mags[: max(m - n, 0)], mags[m + n + 1:]))
    else:
        above = mags[n + 1:]
    return float(above.max()) / scale if above.size else 0.0


# --- modulus of continuity -------------------------------------------------

def modulus_bounds(xs, ys, delta, periodic):
    """(lower, upper) for a grid estimate of omega_delta of a knot target.

    omega_delta is the largest |f(a) - f(b)| over |a - b| <= delta.  For
    a piecewise-linear f that maximum is attained with both points at
    knots, or one at a knot and the other delta away from it.  A grid
    with spacing <= delta/8 loses at most 2 * slope * delta/8 against
    the exact value on [0, 1]; a periodic target may also be measured
    around the circle, which can only raise it.
    """
    f = piecewise_linear(xs, ys, periodic)
    slope = float(np.max(np.abs(np.diff(ys) / np.diff(xs))))

    def exact(around):
        gap = np.abs(xs[:, None] - xs[None, :])
        if around:
            gap = np.minimum(gap, 1.0 - gap)
        pairs = float(np.max(np.abs(ys[:, None] - ys[None, :])[gap <= delta]))
        a = np.concatenate((xs, xs))
        b = np.concatenate((xs - delta, xs + delta))
        if not around:
            a, b = a[(b >= 0.0) & (b <= 1.0)], b[(b >= 0.0) & (b <= 1.0)]
        return max(pairs, float(np.max(np.abs(f(a) - f(b)), initial=0.0)))

    on_interval = exact(False)
    upper = max(on_interval, exact(True)) if periodic else on_interval
    return on_interval - slope * delta / 4.0, upper * (1.0 + 1e-9) + 1e-15


# --- CLI outputs -----------------------------------------------------------

def _report_consistent(sup, omega, ratio, where):
    if omega > 0 and not _close(ratio, sup / omega, rel_tol=REL_TOL):
        return [f"{where}: ratio {ratio!r} != sup_err / omega_ref"]
    return []


def check_sweep(text, method, target, ns, reference, grid_size, seed):
    """A sweep CSV against rows recorded from a known-good tree."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"sweep {method}/{target}: bad header {rows[:1]}"]
    rows = rows[1:]
    if [r[:2] for r in rows] != [[method, str(n)] for n in ns]:
        return [f"sweep {method}/{target}: rows {[r[:2] for r in rows]} do not match n = {ns}"]
    errors = []
    for r in rows:
        where = f"sweep {method}/{target}/n={r[1]}"
        ref = reference[f"{method}/{target}/{r[1]}"]
        try:
            sup, omega, ratio, residual = (float(v) for v in r[3:7])
        except ValueError:
            errors.append(f"{where}: non-numeric field in {r}")
            continue
        if r[2] != ref["M"] or r[7] != str(grid_size) or r[8] != str(seed):
            errors.append(f"{where}: M/grid_size/seed {r[2]},{r[7]},{r[8]} unexpected")
        if not _close(sup, ref["sup_err"], abs_tol=SUP_TOL):
            errors.append(f"{where}: sup_err {sup!r}, reference {ref['sup_err']!r}")
        if not _close(omega, ref["omega_ref"], abs_tol=1e-15, rel_tol=REL_TOL):
            errors.append(f"{where}: omega_ref {omega!r}, reference {ref['omega_ref']!r}")
        if not (0.0 <= residual <= DEGREE_RESIDUAL_MAX):
            errors.append(f"{where}: degree_residual {residual!r} above {DEGREE_RESIDUAL_MAX}")
        errors += _report_consistent(sup, omega, ratio, where)
    return errors


def check_construct(doc, method, n, xs, ys, periodic, grid_size):
    """A construct JSON against its own coefficients and the knot target.

    The emitted coefficients are re-evaluated on the grid and their sup
    error against the target recomputed here; it must match the reported
    sup_err.
    """
    where = f"construct {method}/n={n}"
    if doc.get("method") != method or doc.get("n") != n:
        return [f"{where}: document is for {doc.get('method')}/n={doc.get('n')}"]
    report = doc["error_report"]
    grid = np.linspace(0.0, 1.0, grid_size)
    fourier = doc["basis"] == "fourier"
    if fourier:
        coeffs = np.array([complex(re, im) for re, im in doc["coefficients"]])
        values = fourier_eval(coeffs, grid)
    else:
        coeffs = np.asarray(doc["coefficients"], dtype=float)
        values = cheb_eval(coeffs, grid)
    errors = []
    if report["grid_size"] != grid_size:
        errors.append(f"{where}: grid_size {report['grid_size']}")
    if not np.all(np.isfinite(values)):
        return errors + [f"{where}: non-finite coefficient form"]
    sup = float(np.max(np.abs(piecewise_linear(xs, ys, periodic)(grid) - values)))
    if not _close(report["sup_err"], sup, abs_tol=SUP_TOL):
        errors.append(f"{where}: sup_err {report['sup_err']!r}, coefficients give {sup!r}")
    if leak(coeffs, n, fourier) > LEAK_TOL:
        errors.append(f"{where}: coefficients above degree {n}")
    residual = doc["degree_residual"]
    if not (0.0 <= residual <= DEGREE_RESIDUAL_MAX):
        errors.append(f"{where}: degree_residual {residual!r} above {DEGREE_RESIDUAL_MAX}")
    lo, hi = modulus_bounds(xs, ys, 1.0 / n, periodic)
    if not (lo <= report["omega_ref"] <= hi):
        errors.append(f"{where}: omega_ref {report['omega_ref']!r} outside [{lo!r}, {hi!r}]")
    return errors + _report_consistent(report["sup_err"], report["omega_ref"],
                                       report["ratio"], where)


def check_verify(doc):
    if doc.get("passed") is not True:
        return ["verify: manifest not passed"]
    checks = doc.get("checks", {})
    errors = []
    for name in VERIFY_CHECKS:
        c = checks.get(name)
        if c is None or c.get("pass") is not True or not c["max_residual"] <= c["tolerance"]:
            errors.append(f"verify: check {name} missing or failed: {c}")
    return errors


# --- library calls ---------------------------------------------------------

def call_ok(x, y):
    """A float for a float x; a finite array of x's shape for an array x."""
    if isinstance(x, float):
        return isinstance(y, float) and math.isfinite(y)
    return isinstance(y, np.ndarray) and y.shape == x.shape and bool(np.all(np.isfinite(y)))


def statevector_pmf(M, x):
    """Phase-estimation outcome law by explicit state and inverse DFT."""
    state = np.exp(2j * np.pi * x * np.arange(M))
    return np.abs(np.fft.fft(state) / M) ** 2


def pmf_errors(M, x, probs, against_statevector):
    where = f"pe_pmf(M={M}, x={x!r})"
    if probs.shape != (M,) or not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        return [f"{where}: bad probabilities"]
    if abs(float(probs.sum()) - 1.0) > PMF_TOL:
        return [f"{where}: sums to {float(probs.sum())!r}"]
    if against_statevector and np.max(np.abs(probs - statevector_pmf(M, x))) > PMF_TOL:
        return [f"{where}: differs from the statevector law"]
    return []
