"""Cross-validation suite: closed forms against the statevector oracle,
and each approximant's coefficient form against its defining expectation.

Each check pits two independently coded paths against each other (or an
exact identity against floating-point evaluation) and reports the max
residual with its contract tolerance.
"""

from __future__ import annotations

import time

import numpy as np

from . import phase_dist, qsim
from .constructors import METHODS, TRIG_METHODS, build_approximant
from .corpus import get_target
from .numerics import circle_dist
from .phase_dist import amp_support, single_run_amp_pmf, single_run_pmf


# the phase checks' precisions and phase count; the counting checks' bitstring lengths
_PE_M = range(2, 65)
_X_COUNT = 32
_SIZES = (4, 8, 16)
# the form check's degree budget and points: 64 of the golden-ratio sequence,
# spread over [0, 1), with no numpy.random (its first import costs a verify
# run about 16 ms, more than the check itself)
_FORM_N = 12
_FORM_XS = (0.5 + np.arange(64) * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0


def _x_sweep():
    # includes exact-phase points (multiples of 1/M for small M) and irrationals
    return np.linspace(0.0, 1.0, _X_COUNT, endpoint=False)


def check_pe_equivalence():
    xs = _x_sweep()
    return max(float(np.max(np.abs(qsim.pe_statevector_pmf(M, xs)
                                    - phase_dist.pe_pmf_rows(M, xs))))
               for M in _PE_M)


def check_tail_bound():
    worst = 0.0
    xs = _x_sweep()
    for M in _PE_M:
        d = circle_dist(np.arange(M) / M, xs[:, None])
        far = d > 0
        bound = phase_dist.tail_bound(M, d[far])
        worst = max(worst, float(np.max(phase_dist.pe_pmf_rows(M, xs)[far] - bound, initial=0.0)))
    return worst


def check_eigenstructure():
    worst = 0.0
    for N in _SIZES:
        for k in range(1, N):
            w = np.array([1] * k + [0] * (N - k))
            ec = qsim.eigencheck(w)
            worst = max(worst, ec.residual, ec.orthogonality, ec.decomposition)
        # degenerate weights: u itself is an eigenvector with eigenvalue +-1
        u = np.ones(N) / np.sqrt(N)
        for k, sign in ((0, 1.0), (N, -1.0)):
            w = np.array([1] * k + [0] * (N - k))
            U = qsim.grover_unitary(w)
            worst = max(worst, float(np.linalg.norm(U @ u - sign * u)))
    return worst


def _counting_laws():
    for N in _SIZES:
        for k in range(N + 1):
            w = np.array([1] * k + [0] * (N - k))
            for M in range(2, 9):
                yield k, N, M, qsim.counting_statevector_pmf(w, M)


def check_mixture(laws=None):
    # laws: the (k, N, M, statevector law) tuples of _counting_laws, simulated here if None
    return max(float(np.max(np.abs(law - single_run_pmf(k, N, M))))
               for k, N, M, law in laws or _counting_laws())


def check_amp_law(laws=None):
    # the one-eigenphase amplitude law against the statevector law folded z <-> M-z
    return max(float(np.max(np.abs(np.bincount(amp_support(M)[1], weights=law)
                                   - single_run_amp_pmf(k, N, M)[1])))
               for k, N, M, law in laws or _counting_laws())


def check_fejer_identity():
    xs = (np.arange(_X_COUNT) + 0.5) / _X_COUNT + 1e-4  # avoid M*x integer
    return max(phase_dist.fejer_identity_check(M, xs) for M in _PE_M)


def check_kernel_normalization():
    worst = 0.0
    for n in range(1, 33):
        worst = max(worst, abs(phase_dist.kernel_integral(phase_dist.fejer_kernel(n)) - 1.0))
        worst = max(worst, abs(phase_dist.kernel_integral(phase_dist.jackson_kernel(n)) - 1.0))
    worst = max(worst, abs(phase_dist.jackson_kernel(2).norm_const - 2.0 / 3.0))
    return worst


def check_form_vs_reference():
    # every method's compiled form (LobattoPoly or TrigPoly) against the
    # expectation it was compiled from, which has degree <= n, off its nodes
    worst = 0.0
    for method in METHODS:
        g = get_target("triangle" if method in TRIG_METHODS else "abs-half")
        approx = build_approximant(g, method, _FORM_N)
        gap = approx(_FORM_XS) - approx.reference(_FORM_XS)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


CHECKS = (
    ("pe_closed_form_vs_statevector", check_pe_equivalence, 1e-12),
    ("quadratic_tail_bound", check_tail_bound, 1e-15),
    ("grover_eigenstructure", check_eigenstructure, 1e-10),
    ("no_interference_mixture", check_mixture, 1e-12),
    ("amp_law_vs_statevector", check_amp_law, 1e-12),
    ("fejer_identity", check_fejer_identity, 1e-12),
    ("kernel_normalization", check_kernel_normalization, 1e-10),
    ("form_vs_reference", check_form_vs_reference, 1e-12),
)

# the checks that take the statevector counting laws, which one run simulates once
_LAW_CHECKS = ("no_interference_mixture", "amp_law_vs_statevector")


def run_verification():
    """Run every cross-check; returns a JSON-serializable manifest.

    Each check has its runtime_s; laws_s times the shared counting laws.
    """
    checks = {}
    passed = True
    start = time.perf_counter()
    laws = list(_counting_laws())
    laws_s = time.perf_counter() - start
    for name, fn, tol in CHECKS:
        start = time.perf_counter()
        residual = fn(laws) if name in _LAW_CHECKS else fn()
        ok = residual <= tol
        passed = passed and ok
        checks[name] = {"max_residual": residual, "tolerance": tol, "pass": ok,
                        "runtime_s": time.perf_counter() - start}
    return {"schema_version": 1, "passed": passed, "laws_s": laws_s, "checks": checks}
