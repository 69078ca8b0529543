"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

from jacksonlab import (
    build_approximant,
    circle_dist,
    counting_statevector_pmf,
    eigencheck,
    error_report,
    fejer_identity_check,
    fejer_kernel,
    grover_unitary,
    jackson_kernel,
    pe_pmf,
    pe_statevector_pmf,
    single_run_pmf,
)
from jacksonlab.constructors import derived_params
from jacksonlab.corpus import CORPUS, NONPERIODIC_NAMES, PERIODIC_NAMES
from jacksonlab.numerics import effective_algebraic_degree, effective_trig_degree
from jacksonlab.phase_dist import kernel_integral, tail_bound
from oracles import expected_circle_error, imag_residue, median3_circle_error

SEED = 1234


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {desc} {detail}".rstrip())
    assert ok, f"criterion {num}: {desc} {detail}"


def _x_sweep(count=32):
    return np.linspace(0.0, 1.0, count, endpoint=False)


def test_criterion_01_pe_oracle_equivalence():
    worst = 0.0
    for M in range(2, 65):
        for x in _x_sweep():
            gap = np.abs(pe_statevector_pmf(M, x) - pe_pmf(M, x).probs)
            worst = max(worst, float(np.max(gap)))
    _report(1, "closed-form pmf vs statevector oracle", worst < 1e-12,
            f"(max residual {worst:.2e})")


def test_criterion_02_tail_bound():
    worst = 0.0
    for M in range(2, 65):
        for x in _x_sweep():
            pmf = pe_pmf(M, x)
            d = np.atleast_1d(circle_dist(np.arange(M) / M, pmf.x))
            far = d > 0
            excess = pmf.probs[far] - tail_bound(M, d[far])
            worst = max(worst, float(np.max(excess, initial=-1.0)))
    _report(2, "quadratic tail bound", worst <= 1e-15, f"(max excess {worst:.2e})")


def test_criterion_03_grover_eigenstructure():
    worst = 0.0
    for N in (4, 8, 16):
        for k in range(1, N):
            ec = eigencheck(np.array([1] * k + [0] * (N - k)))
            worst = max(worst, ec.residual)
        u = np.ones(N) / np.sqrt(N)
        for k, sign in ((0, 1.0), (N, -1.0)):
            U = grover_unitary(np.array([1] * k + [0] * (N - k)))
            worst = max(worst, float(np.linalg.norm(U @ u - sign * u)))
    _report(3, "Grover eigenstructure", worst < 1e-10, f"(max residual {worst:.2e})")


def test_criterion_04_no_interference_mixture():
    worst = 0.0
    for N in (4, 8, 16):
        for k in range(N + 1):
            w = np.array([1] * k + [0] * (N - k))
            for M in range(2, 9):
                gap = np.abs(counting_statevector_pmf(w, M) - single_run_pmf(k, N, M))
                worst = max(worst, float(np.max(gap)))
    _report(4, "no-interference mixture model", worst < 1e-12,
            f"(max residual {worst:.2e})")


def test_criterion_05_fejer_identity():
    worst = 0.0
    xs = (np.arange(32) + 0.5) / 32 + 1e-4  # keep M*x away from integers
    for M in range(2, 65):
        for x in xs:
            worst = max(worst, fejer_identity_check(M, x))
    _report(5, "discretized-Fejer identity", worst < 1e-12,
            f"(max deviation {worst:.2e})")


def test_criterion_06_kernel_normalization():
    worst = 0.0
    for n in range(1, 33):
        worst = max(worst, abs(kernel_integral(fejer_kernel(n)) - 1.0))
        worst = max(worst, abs(kernel_integral(jackson_kernel(n)) - 1.0))
    c_gap = abs(jackson_kernel(2).norm_const - 2.0 / 3.0)
    _report(6, "kernel normalization and J_2 constant", worst < 1e-10 and c_gap < 1e-12,
            f"(max integral gap {worst:.2e}, c gap {c_gap:.2e})")


def test_criterion_07_counting_degree_certification():
    worst_rel = 0.0
    for name in NONPERIODIC_NAMES:
        g = CORPUS[name]
        for n in range(6, 37, 6):
            for method in ("counting_median3", "counting_single"):
                approx = build_approximant(g, method, n)
                rep = effective_algebraic_degree(approx.reference, n, 4 * n + 1, seed=SEED)
                scale = 1.0 + float(np.max(np.abs(approx(np.linspace(0, 1, 257)))))
                worst_rel = max(worst_rel, rep.residual / scale)
    _report(7, "algebraic degree certification (counting constructions)",
            worst_rel < 1e-8, f"(max relative residual {worst_rel:.2e})")


def test_criterion_08_phase_degree_certification():
    worst_rel = 0.0
    worst_imag = 0.0
    for name in PERIODIC_NAMES:
        g = CORPUS[name]
        for n in range(3, 37, 3):
            approx = build_approximant(g, "phase_median3", n)
            rep = effective_trig_degree(approx.reference, n, 4 * n + 1, seed=SEED)
            scale = 1.0 + float(np.max(np.abs(approx(np.linspace(0, 1, 257)))))
            worst_rel = max(worst_rel, rep.residual / scale)
            poly = build_approximant(g, "phase_median3", n).form
            worst_imag = max(worst_imag, imag_residue(poly.coeffs, np.linspace(0, 1, 257)))
    _report(8, "trigonometric degree certification (phase construction)",
            worst_rel < 1e-8 and worst_imag < 1e-10,
            f"(max relative residual {worst_rel:.2e}, imag {worst_imag:.2e})")


def test_criterion_09_jackson_error_law():
    ok = True
    details = []
    for name in ("abs-half", "sqrt"):
        g = CORPUS[name]
        ratios = np.array(
            [error_report(g, "counting_median3", n).ratio for n in range(6, 37, 6)]
        )
        spread = ratios.max() / ratios.min()
        details.append(f"{name}: spread {spread:.2f}")
        ok = ok and spread < 3.0
    _report(9, "bounded sup_err / omega ratio for counting_median3", ok,
            "(" + "; ".join(details) + ")")


def test_criterion_10_log_factor_gap():
    g = CORPUS["abs-half"]
    ns = np.arange(8, 41, 4)
    med = np.array([error_report(g, "counting_median3", n).sup_err for n in ns])
    single = np.array([error_report(g, "counting_single", n).sup_err for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(med), 1)[0])
    log_normalized = single * ns / np.log(ns)
    bounded = log_normalized.max() / log_normalized.min() < 3.0
    grows = (single * ns)[-1] > (single * ns)[0]
    ok = slope <= -0.9 and bounded and grows
    _report(10, "log-factor gap between single-run and median-of-three", ok,
            f"(median3 slope {slope:.3f}, single n/log n spread "
            f"{log_normalized.max() / log_normalized.min():.2f}, "
            f"single*n grows: {grows})")


def test_criterion_11_bernstein_baseline():
    from math import comb

    g = CORPUS["abs-half"]
    ok = True
    details = []
    for n in (16, 64, 256):
        rep = error_report(g, "bernstein", n)
        scaled = rep.sup_err * np.sqrt(n)
        # the kink value is an exact binomial sum, and must not exceed the grid sup
        oracle = sum(comb(n, k) * 0.5**n * abs(k / n - 0.5) for k in range(n + 1))
        details.append(f"n={n}: {scaled:.3f}")
        ok = ok and 0.3 <= scaled <= 0.6 and rep.sup_err >= oracle - 1e-12
    _report(11, "Bernstein error scales like 1/sqrt(n)", ok, "(" + ", ".join(details) + ")")


def test_criterion_12_kernel_method_error():
    ok = True
    details = []
    for name in PERIODIC_NAMES:
        g = CORPUS[name]
        if g.analytic_modulus(0.5) == 0.0:
            continue  # constant target: ratio undefined
        ratios = np.array(
            [error_report(g, "jackson_kernel", n).ratio for n in range(8, 65, 8)]
        )
        details.append(f"{name}: max {ratios.max():.3f}")
        ok = ok and ratios.max() <= 3.0 and ratios[-1] <= ratios[0] + 0.05
    _report(12, "Jackson-kernel convolution error bounded by omega_{1/n}", ok,
            "(" + "; ".join(details) + ")")


def test_criterion_13_median_sharpening_statistics():
    worst_single = -np.inf
    worst_med = 0.0
    xs = _x_sweep(64)
    for M in range(4, 129):
        for x in xs:
            e = expected_circle_error(pe_pmf(M, x))
            worst_single = max(worst_single, M * e - (2 * np.log(M) + 2))
            worst_med = max(worst_med, M * median3_circle_error(M, x))
    ok = worst_single <= 0.0 and worst_med <= 4.0
    _report(13, "median-of-three sharpening constants", ok,
            f"(max M*E - (2 ln M + 2) = {worst_single:.3f}, max M*E[d_med] = {worst_med:.3f})")


def test_criterion_14_exact_interpolation_identities():
    worst = 0.0
    for name in PERIODIC_NAMES:
        g = CORPUS[name]
        for n in (6, 9, 12):
            M, _ = derived_params("phase_median3", n)
            z = np.arange(M) / M
            approx = build_approximant(g, "phase_median3", n)
            worst = max(worst, float(np.max(np.abs(approx(z) - g(z)))))
    for name in CORPUS:
        g = CORPUS[name]
        method = "phase_median3" if g.periodic else "counting_median3"
        approx = build_approximant(g, method, 12)
        worst = max(worst, float(abs(approx(np.array([0.0]))[0] - g(np.array([0.0]))[0])))
    _report(14, "exact interpolation identities", worst < 1e-12,
            f"(max deviation {worst:.2e})")
