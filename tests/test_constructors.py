import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from jacksonlab import (
    EvaluationError,
    Grid,
    PreconditionError,
    TargetFunction,
    bernstein_eval,
    build_approximant,
    counting_eval,
    counting_single_eval,
    error_report,
    fejer_kernel,
    jackson_kernel,
    kernel_convolve,
    phase_eval,
    phase_to_trigpoly,
)
from jacksonlab import constructors
from jacksonlab.constructors import (
    ALGEBRAIC_METHODS,
    METHODS,
    TRIG_METHODS,
    approximant_coefficients,
    derived_params,
)
from jacksonlab.corpus import CORPUS
from jacksonlab.counting_model import theta_of_weight
from jacksonlab.numerics import (
    effective_algebraic_degree,
    effective_trig_degree,
    sup_distance,
    trig_coeffs_from_samples,
)
from jacksonlab.phase_dist import median3_circle_error

CONST = TargetFunction(lambda x: np.full_like(np.asarray(x, float), 2.5), name="c")
CONST_P = TargetFunction(
    lambda x: np.full_like(np.asarray(x, float), 2.5), periodic=True, name="cp"
)


class TestDerivedParams:
    def test_degree_budgets_respected(self):
        for n in range(1, 50):
            M, N = derived_params("counting_median3", n)
            assert 6 * (M - 1) <= n and N == n * n
            M, _ = derived_params("counting_single", n)
            assert 2 * (M - 1) <= n
            M, _ = derived_params("phase_median3", n)
            assert 3 * (M - 1) <= n

    def test_unknown_method(self):
        with pytest.raises(PreconditionError):
            derived_params("remez", 8)


class TestBernstein:
    def test_constant(self):
        xs = np.linspace(0, 1, 11)
        for n in (1, 5, 20):
            assert build_approximant(CONST, "bernstein", n)(xs) == pytest.approx(
                np.full(11, 2.5), abs=1e-13
            )

    def test_linear_reproduced(self):
        g = CORPUS["identity"]
        xs = np.linspace(0, 1, 33)
        assert build_approximant(g, "bernstein", 12)(xs) == pytest.approx(xs, abs=1e-13)

    def test_second_moment(self):
        g = TargetFunction(lambda x: x**2, name="x2")
        # E[(k/n)^2] = x^2 + x(1-x)/n
        assert bernstein_eval(g, 10, 0.3) == pytest.approx(0.111, abs=1e-13)

    def test_kink_rate(self):
        g = CORPUS["abs-half"]
        rep = error_report(g, "bernstein", 64)
        assert 0.3 <= rep.sup_err * 8.0 <= 0.6

    def test_kink_value_matches_binomial_oracle(self):
        from math import comb

        g = CORPUS["abs-half"]
        n = 64
        oracle = sum(
            comb(n, k) * 0.5**n * abs(k / n - 0.5) for k in range(n + 1)
        )
        assert bernstein_eval(g, n, 0.5) == pytest.approx(oracle, abs=1e-13)


class TestCounting:
    def test_constant(self):
        xs = np.linspace(0, 1, 9)
        for method in ("counting_median3", "counting_single"):
            approx = build_approximant(CONST, method, 12)
            assert approx(xs) == pytest.approx(np.full(9, 2.5), abs=1e-12)

    def test_endpoint_interpolation(self):
        g = CORPUS["sqrt"]
        assert counting_eval(g, 12, 0.0) == pytest.approx(g(np.array([0.0]))[0], abs=1e-15)
        assert counting_single_eval(g, 12, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_right_endpoint_even_m(self):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "counting_median3", 18)  # M = 4, even
        assert approx.M % 2 == 0
        assert approx(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_degree_and_error(self):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "counting_median3", 12)
        rep = effective_algebraic_degree(approx.reference, 12, 49, seed=11)
        scale = 1e-8 * (1 + 0.5)
        assert rep.residual < scale
        err = error_report(g, "counting_median3", 12)
        assert err.ratio <= 10.0

    def test_degenerate_budget_warns(self):
        g = CORPUS["sqrt"]
        with pytest.warns(UserWarning, match="degenerates"):
            approx = build_approximant(g, "counting_median3", 4)
        assert approx.degenerate
        xs = np.linspace(0, 1, 7)
        assert approx(xs) == pytest.approx(np.zeros(7), abs=1e-15)

    def test_error_chain_bound(self):
        # sup error <= pi * worst median circle error + binomial spread term,
        # for a 1-Lipschitz target
        g = CORPUS["abs-half"]
        for n in (12, 24):
            M, N = derived_params("counting_median3", n)
            dmed = max(
                median3_circle_error(M, theta_of_weight(k, N) / np.pi)
                for k in range(N + 1)
            )
            rep = error_report(g, "counting_median3", n)
            assert rep.sup_err <= np.pi * dmed + 0.5 / n + 1e-12


class TestCountingSingle:
    def test_log_factor_gap(self):
        g = CORPUS["abs-half"]
        ns = np.arange(8, 41, 8)
        errs = np.array([error_report(g, "counting_single", n).sup_err for n in ns])
        normalized = errs * ns / np.log(ns)
        assert normalized.max() / normalized.min() < 2.0
        assert (errs * ns)[-1] > (errs * ns)[0]


class TestPhase:
    def test_constant(self):
        xs = np.linspace(0, 1, 9)
        approx = build_approximant(CONST_P, "phase_median3", 9)
        assert approx(xs) == pytest.approx(np.full(9, 2.5), abs=1e-13)

    def test_interpolates_at_grid_multiples(self):
        g = CORPUS["triangle"]
        for n in (6, 9, 15):
            M, _ = derived_params("phase_median3", n)
            z = np.arange(M) / M
            assert np.max(np.abs(phase_eval(g, n, z) - g(z))) < 1e-12

    def test_nonperiodic_rejected(self):
        with pytest.raises(PreconditionError):
            build_approximant(CORPUS["sqrt"], "phase_median3", 9)

    def test_degree_and_error(self):
        g = CORPUS["triangle"]
        approx = build_approximant(g, "phase_median3", 9)
        rep = effective_trig_degree(approx.reference, 9, 37, seed=13)
        assert rep.residual < 1e-8 * (1 + 1.0)
        assert error_report(g, "phase_median3", 9).ratio <= 10.0


class TestPhaseToTrigPoly:
    def test_constant(self):
        poly = phase_to_trigpoly(CONST_P, 6)
        assert poly.coeff(0).real == pytest.approx(2.5, abs=1e-12)
        others = np.abs(np.delete(poly.coeffs, poly.degree))
        assert np.max(others) < 1e-12

    def test_cosine_dominant_frequency(self):
        poly = phase_to_trigpoly(CORPUS["cos"], 12)
        mags = {k: abs(poly.coeff(k)) for k in range(-poly.degree, poly.degree + 1)}
        top = sorted(mags, key=mags.get, reverse=True)[:2]
        assert set(top) == {1, -1}

    def test_reproduces_evaluation(self):
        g = CORPUS["triangle"]
        n = 9
        poly = phase_to_trigpoly(g, n)
        approx = build_approximant(g, "phase_median3", n)
        pts = np.random.default_rng(17).uniform(size=512)
        scale = 1e-9 * (1 + np.max(np.abs(approx.reference(pts))))
        assert np.max(np.abs(poly(pts) - approx.reference(pts))) < scale

    def test_real_valued(self):
        for name in ("triangle", "cos"):
            poly = phase_to_trigpoly(CORPUS[name], 9)
            assert poly.conjugate_symmetry_defect() < 1e-10
            assert poly.imag_residue(np.linspace(0, 1, 200)) < 1e-10 * (
                1 + np.max(np.abs(poly.coeffs))
            )


class TestKernelConvolve:
    def test_order_one_jackson_gives_mean(self):
        g = CORPUS["triangle"]
        conv = kernel_convolve(g, jackson_kernel(1), 64)
        xs = np.linspace(0, 1, 17)
        mean = np.mean(g(np.arange(4096) / 4096))
        assert conv(xs) == pytest.approx(np.full(17, mean), abs=1e-6)

    def test_fejer_damps_frequencies(self):
        # convolution with F_3 scales frequency k by (3-|k|)/3
        conv = kernel_convolve(CORPUS["cos"], fejer_kernel(3), 64)
        xs = np.linspace(0, 1, 33)
        assert conv(xs) == pytest.approx((2 / 3) * np.cos(2 * np.pi * xs), abs=1e-13)

    def test_jackson_error_rate(self):
        g = CORPUS["triangle"]
        rep = error_report(g, "jackson_kernel", 16)
        assert rep.ratio <= 3.0

    def test_quad_points_precondition(self):
        with pytest.raises(PreconditionError):
            kernel_convolve(CORPUS["cos"], jackson_kernel(4), 16)

    def test_nonperiodic_rejected(self):
        with pytest.raises(PreconditionError):
            kernel_convolve(CORPUS["sqrt"], jackson_kernel(4), 128)

    def test_degree_reduction(self):
        approx = build_approximant(CORPUS["triangle"], "jackson_kernel", 16)
        rep = effective_trig_degree(approx.reference, 16, 65, seed=19)
        assert rep.residual < 1e-10


class TestErrorReport:
    def test_constant_zero_error(self):
        for method in ("bernstein", "counting_median3", "counting_single"):
            rep = error_report(CONST, method, 8)
            assert rep.sup_err < 1e-12
            assert rep.ratio == 0.0
        for method in ("phase_median3", "jackson_kernel"):
            rep = error_report(CONST_P, method, 9)
            assert rep.sup_err < 1e-12

    def test_incompatible_method_domain(self):
        with pytest.raises(PreconditionError):
            error_report(CORPUS["sqrt"], "phase_median3", 9)

    def test_fields(self):
        rep = error_report(CORPUS["abs-half"], "bernstein", 16, Grid.uniform(257))
        assert rep.grid_size == 257
        assert rep.ratio == pytest.approx(rep.sup_err / rep.omega_ref)
        assert np.isfinite([rep.sup_err, rep.omega_ref, rep.ratio]).all()

    def test_monotone_budget_sanity(self):
        g = CORPUS["abs-half"]
        errs = {
            n: error_report(g, "counting_median3", n, Grid.uniform(513)).sup_err
            for n in (12, 13, 14, 18, 19, 20)
        }
        early = min(errs[12], errs[13], errs[14])
        late = min(errs[18], errs[19], errs[20])
        assert late <= early + 1e-12


class TestCoefficients:
    def test_algebraic_coefficients_reproduce(self):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "counting_median3", 12)
        poly = approximant_coefficients(g, approx)
        pts = np.random.default_rng(23).uniform(size=128)
        assert np.max(np.abs(poly(pts) - approx.reference(pts))) < 1e-10

    def test_trig_coefficients_reproduce(self):
        g = CORPUS["cos"]
        approx = build_approximant(g, "jackson_kernel", 10)
        poly = approximant_coefficients(g, approx)
        pts = np.random.default_rng(29).uniform(size=128)
        assert np.max(np.abs(poly(pts) - approx.reference(pts))) < 1e-9


class TestBudgetValidation:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, "4", True, None])
    def test_rejected(self, method, n):
        with pytest.raises(PreconditionError, match="positive integer"):
            build_approximant(CONST_P, method, n)

    def test_numpy_integer_accepted(self):
        approx = build_approximant(CONST, "counting_median3", np.int64(6))
        assert approx.n == 6 and type(approx.n) is int


class TestCallDomain:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_nonfinite_x_raises(self, method, x):
        approx = build_approximant(CORPUS["triangle"], method, 6)
        with pytest.raises(EvaluationError):
            approx(x)
        with pytest.raises(EvaluationError):
            approx(np.array([0.25, x]))

    @pytest.mark.parametrize("method", ALGEBRAIC_METHODS)
    def test_reference_rejects_nan(self, method):
        approx = build_approximant(CORPUS["abs-half"], method, 8)
        with pytest.raises(PreconditionError):
            approx.reference(np.nan)

    @pytest.mark.parametrize("method", ALGEBRAIC_METHODS)
    def test_outside_unit_interval_raises(self, method):
        approx = build_approximant(CORPUS["sqrt"], method, 6)
        for x in (1.5, -0.25, np.array([0.5, 1.5])):
            with pytest.raises(PreconditionError):
                approx(x)


class TestCompiledForm:
    def test_compiled_on_first_call_and_kept(self):
        approx = build_approximant(CORPUS["abs-half"], "bernstein", 8)
        assert "form" not in vars(approx)
        approx(0.3)
        form = approx.form
        approx(np.linspace(0.0, 1.0, 5))
        assert approx.form is form

    def test_coefficients_are_the_stored_form(self):
        approx = build_approximant(CORPUS["cos"], "jackson_kernel", 10)
        assert approximant_coefficients(CORPUS["cos"], approx) is approx.form
        assert phase_to_trigpoly(CORPUS["cos"], 10).degree == 10
        approx = build_approximant(CORPUS["sqrt"], "counting_single", 10)
        assert approximant_coefficients(CORPUS["sqrt"], approx).degree == 10

    def test_scalar_in_float_out(self):
        for method in METHODS:
            y = build_approximant(CORPUS["triangle"], method, 6)(0.3)
            assert isinstance(y, float)


class TestBlockwiseReference:
    def test_blocks_cover_the_points_in_order(self, monkeypatch):
        monkeypatch.setattr(constructors, "_BLOCK_ENTRIES", 12)
        sizes = []

        def rows(x):
            sizes.append(len(x))
            return 2.0 * x

        fn = constructors._blockwise(rows, 5)        # at most 2 points per block
        x = np.linspace(0.0, 1.0, 7)
        assert np.array_equal(fn(x), 2.0 * x)
        assert sizes == [2, 2, 2, 1]
        assert fn(0.25) == 0.5 and isinstance(fn(0.25), float)
        assert fn(np.array([])).shape == (0,)
        sizes.clear()
        constructors._blockwise(rows, 100)(x)         # wider than a block: one row each
        assert sizes == [1] * 7

    @pytest.mark.filterwarnings("ignore:.*degenerates")
    @pytest.mark.parametrize("method", METHODS)
    def test_any_blocking_gives_the_single_block_values(self, monkeypatch, method):
        g = CORPUS["triangle"]
        x = np.concatenate((np.random.default_rng(5).uniform(size=101), [0.0, 1.0]))
        for n in (1, 7, 20):
            approx = build_approximant(g, method, n)
            monkeypatch.setattr(constructors, "_BLOCK_ENTRIES", 1 << 40)
            whole = approx.reference(x)
            for entries in (1, 1000):                # one-row blocks; several rows each
                monkeypatch.setattr(constructors, "_BLOCK_ENTRIES", entries)
                assert np.max(np.abs(approx.reference(x) - whole)) <= 1e-15
                y = approx.reference(x[0])
                assert isinstance(y, float) and abs(y - whole[0]) <= 1e-15
                assert approx.reference(np.array([])).shape == (0,)

    @pytest.mark.parametrize("method,n", [("jackson_kernel", 512), ("counting_median3", 96)])
    def test_degree_probe_memory_is_bounded(self, method, n):
        approx = build_approximant(CORPUS["triangle"], method, n)
        x = np.linspace(0.0, 1.0, 4 * n + 1)
        tracemalloc.start()
        try:
            approx.reference(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


GATE_NS = (1, 2, 3, 5, 6, 8, 13, 21, 34, 55, 80)
# the periodic corpus targets are all even; this one tells c_k from c_-k
SKEW_P = TargetFunction(
    lambda x: np.abs((np.asarray(x, float) - 0.2) % 1.0 - 0.5) + 0.3 * np.sin(6 * np.pi * x),
    periodic=True, name="skew",
)
GATE_TARGETS = {**CORPUS, "skew": SKEW_P}
GATE_CASES = [(method, name) for method in METHODS for name in sorted(CORPUS)
              if method not in TRIG_METHODS or CORPUS[name].periodic]
GATE_CASES += [(method, "skew") for method in TRIG_METHODS]


@pytest.mark.filterwarnings("ignore:.*degenerates")
@pytest.mark.parametrize("method,name", GATE_CASES)
def test_compiled_form_matches_reference(method, name):
    # jackson_kernel's reference is a direct sum over a kernel matrix whose own
    # rounding reaches ~3e-11; the compiled form is exact (see the cos test)
    tol = 1e-10 if method == "jackson_kernel" else 1e-12
    g = GATE_TARGETS[name]
    rng = np.random.default_rng(41)
    worst = 0.0
    for n in GATE_NS:
        approx = build_approximant(g, method, n)
        x = np.concatenate((rng.uniform(size=400), [0.0, 1.0]))
        worst = max(worst, float(np.max(np.abs(approx(x) - approx.reference(x)))))
    assert worst <= tol


def _jackson_cos_gain(order):
    """Exact kernel coefficient at frequency 1: autocorrelation of the Fejer
    triangle at lag 1, over its value at lag 0, (2 order^2 + 1)/(3 order)."""
    tri = {j: Fraction(order - abs(j), order) for j in range(1 - order, order)}
    lag1 = sum(tri[j] * tri[j + 1] for j in range(1 - order, order - 1))
    return lag1 * Fraction(3 * order, 2 * order * order + 1)


def test_jackson_exact_on_cos():
    g = CORPUS["cos"]
    x = np.concatenate((np.random.default_rng(43).uniform(size=400), [0.0, 1.0]))
    for n in (1, 2, 3, 8, 21, 80, 200):
        gain = float(_jackson_cos_gain(max(n // 2, 1)))
        approx = build_approximant(g, "jackson_kernel", n)
        assert np.max(np.abs(approx(x) - gain * np.cos(2 * np.pi * x))) <= 1e-14
