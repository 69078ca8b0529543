import gc
import itertools
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacksonlab import (
    Grid,
    PreconditionError,
    TargetFunction,
    TrigPoly,
    build_approximant,
    error_report,
    fejer_kernel,
    jackson_kernel,
    pe_statevector_pmf,
)
from jacksonlab import constructors, numerics
from jacksonlab.constructors import (
    METHODS,
    TRIG_METHODS,
    approximant_coefficients,
    derived_params,
)
from jacksonlab.corpus import CORPUS, target_from_csv
from jacksonlab.phase_dist import amp_support, median3_amp_pmf, single_run_amp_pmf, theta_of_weight
from jacksonlab.qsim import counting_statevector_pmf
from jacksonlab.numerics import (
    cheb_lobatto_nodes,
    effective_algebraic_degree,
    effective_trig_degree,
    real_x,
    sup_distance,
    trig_coeffs_from_samples,
)
from jacksonlab import phase_dist
from oracles import (
    bernstein_exact,
    binomial_mixture,
    conjugate_symmetry_defect,
    counting_table,
    imag_residue,
    jackson_exact,
    median3_circle_error,
    median3_pmf_by_unique,
    phase_median3_exact,
    piecewise_linear_exact,
)

ALGEBRAIC_METHODS = tuple(m for m in METHODS if m not in TRIG_METHODS)
PERIODIC_NAMES = tuple(name for name, g in CORPUS.items() if g.periodic)

CONST = TargetFunction(lambda x: np.full_like(np.asarray(x, float), 2.5), name="c")
CONST_P = TargetFunction(
    lambda x: np.full_like(np.asarray(x, float), 2.5), periodic=True, name="cp"
)

# the largest n at which each method's approximant has exact degree 0
DEGENERATE_UP_TO = {"bernstein": 0, "counting_median3": 5, "counting_single": 1,
                    "phase_median3": 2, "jackson_kernel": 3}


class TestDegenerateFromExactDegree:
    @pytest.mark.parametrize("method", METHODS)
    def test_flag_and_warning_exactly_at_degree_zero(self, method):
        # jackson_kernel at n <= 3 is the constant mean of g and was not flagged
        g = CORPUS["triangle"]
        for n in range(1, 13):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                approx = build_approximant(g, method, n)
            degenerate = n <= DEGENERATE_UP_TO[method]
            assert approx.degenerate is degenerate, n
            assert [str(w.message) for w in caught] == (
                [f"{method} with n={n} has exact degree 0: the approximant "
                 "degenerates to a constant"] if degenerate else []), n
            if degenerate:
                xs = np.linspace(0.0, 1.0, 9)
                assert np.ptp(approx(xs)) <= 1e-15


# the exact degree of each method's approximant at budget n, by its _METHOD_TABLE rule
EXACT_DEGREE = {"bernstein": lambda n: n, "counting_median3": lambda n: 3 * (n // 6),
                "counting_single": lambda n: n // 2, "phase_median3": lambda n: 3 * (n // 3),
                "jackson_kernel": lambda n: 2 * (max(n // 2, 1) - 1)}


class TestExactDegree:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [1, 5, 6, 24, 40, 41])
    def test_degree_follows_the_method_rule(self, method, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a degenerate request warns
            approx = build_approximant(CORPUS["triangle"], method, n)
        d = EXACT_DEGREE[method](n)
        assert approx.degree == d and approx.degenerate is (d == 0)
        # an algebraic form holds d + 1 values (two for a constant), a trig one 2n + 1
        assert approx.form.degree == (n if method in TRIG_METHODS else max(d, 1))

    # the forms held the reference at the n + 1 budget nodes; truncated to the exact
    # degree they move by at most 2.9e-15, and the worst gap to the reference goes
    # from 1.14e-14 to 1.10e-14, both on holder-cusp at n = 240 (n = 240 on the
    # other targets, left out for time, moves them by at most 2.9e-15 too)
    def test_counting_forms_are_the_budget_forms_to_rounding(self):
        xs = np.concatenate((np.linspace(0.0, 1.0, 4097),
                             np.random.default_rng(31).uniform(size=2000)))
        methods = ("counting_median3", "counting_single")
        cases = [*itertools.product(methods, ("abs-half", "sqrt", "holder-cusp", "identity"),
                                    (8, 24, 40, 96)),
                 *itertools.product(methods, ("holder-cusp",), (240,))]
        worst_form = worst_budget = 0.0
        for method, name, n in cases:
            approx = build_approximant(CORPUS[name], method, n)
            budget = numerics.LobattoPoly(approx.reference(cheb_lobatto_nodes(n + 1)))
            assert approx.form.degree == approx.degree < n
            form, kept, reference = approx(xs), budget(xs), approx.reference(xs)
            assert np.max(np.abs(form - kept)) <= 4e-15, (method, name, n)
            worst_form = max(worst_form, np.max(np.abs(form - reference)))
            worst_budget = max(worst_budget, np.max(np.abs(kept - reference)))
        assert worst_form <= worst_budget

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [5, 24, 41])
    def test_algebraic_coefficients_are_padded_with_exact_zeros(self, method, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            approx = build_approximant(CORPUS["triangle"], method, n)
        coeffs = approximant_coefficients(approx)
        if method in TRIG_METHODS:
            assert coeffs.shape == (2 * n + 1,)
            return
        d = approx.degree
        assert coeffs.shape == (n + 1,) and not np.any(coeffs[d + 1 :])
        assert np.array_equal(coeffs[: d + 1], approx.form.chebyshev()[: d + 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_degenerate_counting_request_is_a_constant(self, n):
        with pytest.warns(UserWarning, match="degenerates"):
            approx = build_approximant(CORPUS["abs-half"], "counting_median3", n)
        assert approx.form.degree == 1 and approx.form.values[0] == approx.form.values[1]
        coeffs = approximant_coefficients(approx)
        assert coeffs.shape == (n + 1,) and not np.any(coeffs[1:])
        assert coeffs[0] == approx.form.values[0]


class TestDerivedParams:
    def test_degree_budgets_respected(self):
        for n in range(1, 50):
            M, N = derived_params("counting_median3", n)
            assert 6 * (M - 1) <= n and N == n * n
            M, _ = derived_params("counting_single", n)
            assert 2 * (M - 1) <= n
            M, _ = derived_params("phase_median3", n)
            assert 3 * (M - 1) <= n

    @pytest.mark.parametrize("method", ["remez", None, ["bernstein"], {"bernstein": 1}],
                             ids=["str", "none", "list", "dict"])
    def test_unknown_method(self, method):
        # an unhashable name is refused like any other, not with a TypeError
        with pytest.raises(PreconditionError, match="unknown method"):
            derived_params(method, 8)
        with pytest.raises(PreconditionError, match="unknown method"):
            build_approximant(CONST_P, method, 8)

    @pytest.mark.parametrize("n", [12.9, 2.5, 0, -3, True])
    def test_budget_must_be_a_positive_integer(self, n):
        # int() truncated 12.9 to the n = 12 parameters
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            derived_params("counting_median3", n)
        assert derived_params("counting_median3", 12.0) == derived_params("counting_median3", 12)

    @pytest.mark.parametrize("n", [numerics._MAX_SIZE + 1, 10**23, 10**400, 1e30,
                                   np.uint64(2**64 - 1)])
    def test_budget_no_array_can_hold_is_refused(self, n):
        # numpy would refuse such an array with a ValueError, not a MemoryError
        with pytest.raises(PreconditionError, match="arrays of that size cannot be allocated"):
            derived_params("bernstein", n)
        assert derived_params("bernstein", numerics._MAX_SIZE) == (None, None)

    @pytest.mark.parametrize("method", METHODS)
    def test_build_refuses_a_size_no_array_can_hold(self, method):
        with pytest.raises(PreconditionError, match="arrays of that size cannot be allocated"):
            build_approximant(CONST_P, method, 10**23)

    @pytest.mark.parametrize("method,n", [("phase_median3", 3_000_000_000),
                                          ("jackson_kernel", 200_000_000)])
    def test_build_refuses_a_window_view_numpy_cannot_describe(self, method, n):
        # M = 10^9 + 1 outcome laws or a Q = 1.6e9-node quadrature: numpy raised
        # ValueError("array is too big") on the reference's window view, after
        # sampling g at M or Q points; the refusal comes before any sampling
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="numpy cannot describe"):
                build_approximant(CORPUS["cos"], method, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_largest_jackson_quadrature_passes_the_check(self):
        # n = 134,217,728 gives Q = 8 (2 (n/2) - 1) = 1,073,741,816 <= 2^30 - 1, the largest Q
        # whose (Q, Q) window view numpy can describe (not built: g would take 8 GB of
        # samples); n + 2 gives Q > 2^30 and is refused
        for n, fits in ((134_217_728, True), (134_217_730, False)):
            quad = 8 * (2 * (n // 2) - 1)
            assert numerics.view_fits((quad, quad), 8) is fits
        with pytest.raises(PreconditionError, match="1073741832-node quadrature"):
            build_approximant(CORPUS["cos"], "jackson_kernel", 134_217_730)

    @pytest.mark.parametrize("method", ["counting_median3", "counting_single"])
    def test_counting_refuses_an_n_squared_no_array_can_hold(self, method):
        # n = 10**9 passes the gate, but the value table would have n^2 + 1 = 10**18 + 1 weights
        with pytest.raises(PreconditionError, match=r"N = n\^2 must be at most"):
            derived_params(method, 10**9)
        assert derived_params(method, 2**28 - 1)[1] <= numerics._MAX_SIZE


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
        assert build_approximant(g, "bernstein", 10)(0.3) == pytest.approx(0.111, abs=1e-13)

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
        assert build_approximant(g, "bernstein", n)(0.5) == pytest.approx(oracle, abs=1e-13)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("name", ["abs-half", "identity", "const"])
    def test_form_and_reference_against_the_exact_sum(self, name, n):
        # each float result lies within a few roundings of the exact sum over
        # its own float samples g(k/n); the form measured up to 2.7 and the
        # reference up to 1.3, in units of eps * max|g|
        g = CORPUS[name]
        samples = g(np.arange(n + 1) / n)
        tol = 16 * np.finfo(float).eps * np.max(np.abs(samples))
        approx = build_approximant(g, "bernstein", n)
        xs = (0.5 + np.arange(32) * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0
        for x, form, reference in zip(xs, approx(xs), approx.reference(xs)):
            exact = bernstein_exact(samples, x)
            assert abs(float(Fraction(float(form)) - exact)) <= tol, x
            assert abs(float(Fraction(float(reference)) - exact)) <= tol, x

    @pytest.mark.parametrize("n", [16, 64])
    def test_csv_target_against_the_exact_sum(self, tmp_path, n):
        # the target's exact values at the nodes k/n (exact floats at these
        # n) interpolate its float knots in Fractions, apart from the
        # target's own np.interp; over four seeds the form measured up to
        # 3.3 and the reference up to 2.5, in units of eps * max|g|
        rng = np.random.default_rng(31)
        knots_x = np.concatenate(([0.0], np.sort(rng.uniform(0.02, 0.98, 10)), [1.0]))
        knots_y = rng.uniform(-1.0, 1.0, 12)
        path = tmp_path / "knots.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n"
                                          for x, y in zip(knots_x.tolist(), knots_y.tolist())))
        samples = [piecewise_linear_exact(knots_x, knots_y, Fraction(k, n)) for k in range(n + 1)]
        tol = 16 * np.finfo(float).eps * float(max(abs(v) for v in samples))
        approx = build_approximant(target_from_csv(str(path)), "bernstein", n)
        xs = (0.5 + np.arange(32) * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0
        for x, form, reference in zip(xs, approx(xs), approx.reference(xs)):
            exact = bernstein_exact(samples, x)
            assert abs(float(Fraction(float(form)) - exact)) <= tol, x
            assert abs(float(Fraction(float(reference)) - exact)) <= tol, x

    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6,
                    unique=True),
           st.lists(st.floats(1e-3, 10.0), min_size=7, max_size=7),
           st.integers(min_value=1, max_value=64))
    def test_nondecreasing_target_gives_nondecreasing_approximant(self, inner, rises, n):
        # B_n(g)' = n sum_k (g((k+1)/n) - g(k/n)) b_{n-1,k} >= 0 for a nondecreasing g
        knots = np.concatenate(([0.0], np.sort(inner), [1.0]))
        values = np.concatenate(([0.0], np.cumsum(rises[: len(knots) - 1])))
        g = TargetFunction(lambda x: np.interp(x, knots, values), name="rising")
        approx = build_approximant(g, "bernstein", n)
        xs = np.linspace(0.0, 1.0, 1025)
        for h in (approx, approx.reference):
            assert np.diff(h(xs)).min() >= -1e-14 * values[-1]


class TestCounting:
    def test_constant(self):
        xs = np.linspace(0, 1, 9)
        for method in ("counting_median3", "counting_single"):
            approx = build_approximant(CONST, method, 12)
            assert approx(xs) == pytest.approx(np.full(9, 2.5), abs=1e-12)

    def test_endpoint_interpolation(self):
        g = CORPUS["sqrt"]
        assert build_approximant(g, "counting_median3", 12)(0.0) == pytest.approx(
            g(np.array([0.0]))[0], abs=1e-15
        )
        assert build_approximant(g, "counting_single", 12)(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_right_endpoint_even_m(self):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "counting_median3", 18)  # M = 4, even
        assert approx.M % 2 == 0
        assert approx(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_degree_and_error(self):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "counting_median3", 12)
        residual = effective_algebraic_degree(approx.reference, 12, seed=11)
        scale = 1e-8 * (1 + 0.5)
        assert residual < scale
        err = error_report(g, "counting_median3", 12)
        assert err.ratio <= 10.0

    @pytest.mark.parametrize("method,runs", [("counting_median3", 3), ("counting_single", 1)])
    @pytest.mark.parametrize("n", [12, 24, 40])
    def test_exact_degree_of_reference(self, method, runs, n):
        # each run's law has degree M-1 in k/N; the median of three is cubic in it
        approx = build_approximant(CORPUS["abs-half"], method, n)
        d = runs * (approx.M - 1)
        assert effective_algebraic_degree(approx.reference, d) <= 1e-12
        assert effective_algebraic_degree(approx.reference, d - 1) >= 1e-6

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


    @pytest.mark.parametrize("method", ["counting_median3", "counting_single"])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("name", ["abs-half", "sqrt"])
    def test_form_and_reference_against_the_40_digit_mixture(self, method, n, name):
        # each float result lies within a few roundings of the 40-digit
        # mixture of the 40-digit value table over its own float samples
        # g(sin(pi j/M)^2); on 32 golden-ratio points and both ends the form
        # measured up to 3.1 and the reference up to 2.1, in units of eps * max|g|
        g = CORPUS[name]
        M, N = derived_params(method, n)
        samples = g(np.sin(np.pi * np.arange(M // 2 + 1) / M) ** 2)
        tol = 16 * np.finfo(float).eps * np.max(np.abs(samples))
        approx = build_approximant(g, method, n)
        table = counting_table(samples, M, N, method == "counting_median3")
        xs = np.concatenate(((0.5 + np.arange(32) * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0, [0.0, 1.0]))
        for x, form, reference in zip(xs, approx(xs), approx.reference(xs)):
            exact = binomial_mixture(N, table, x)
            assert abs(form - exact) <= tol, x
            assert abs(reference - exact) <= tol, x


class TestCountingValueTable:
    @pytest.mark.parametrize("median3", [True, False])
    @pytest.mark.parametrize("target", ["abs-half", "csv"])
    def test_equals_the_per_weight_expectation(self, monkeypatch, tmp_path, median3, target):
        path = tmp_path / "g.csv"
        path.write_text("0,0.3\n0.2,1.0\n0.45,-0.5\n0.7,0.25\n1,0.8\n")
        g = target_from_csv(str(path)) if target == "csv" else CORPUS[target]
        law = median3_amp_pmf if median3 else single_run_amp_pmf
        for n in (6, 13):
            M, N = derived_params("counting_median3" if median3 else "counting_single", n)
            expect = np.array([np.dot(p, g(v)) for v, p in (law(k, N, M) for k in range(N + 1))])
            # one row per block; 3 rows with a ragged last block; the whole table at once
            for entries in (1, 3 * (M // 2 + 1), 1 << 40):
                monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
                table = constructors._counting_value_table(g, N, M, median3)
                assert np.max(np.abs(table - expect)) <= 1e-14, (n, entries)

    @pytest.mark.parametrize("method", ["counting_median3", "counting_single"])
    def test_one_law_per_weight_and_one_target_call(self, monkeypatch, method):
        constructors._counting_laws.cache_clear()  # a cold build: earlier tests warm the cache
        weights, sizes = [], []
        law = constructors.single_run_amp_pmf
        monkeypatch.setattr(constructors, "single_run_amp_pmf",
                            lambda k, N, M: weights.append(k) or law(k, N, M))
        g = TargetFunction(lambda x: sizes.append(np.size(x)) or np.sqrt(x), name="counted")
        approx = build_approximant(g, method, 12)
        assert weights == list(range(approx.N + 1))
        assert {type(k) for k in weights} == {int}  # positive_int's fast path
        assert sizes == [approx.M // 2 + 1]

    @pytest.mark.parametrize("method", ["counting_median3", "counting_single"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_target_on_the_support_rejected(self, method, bad):
        g = TargetFunction(lambda x: np.where(x > 0.5, bad, x), name="bad")
        with pytest.raises(PreconditionError, match="finite"):
            build_approximant(g, method, 12)


class TestCountingLawsCache:
    # a table of one block is one product with its (N, M, median3) laws, kept
    # in _counting_laws; a larger table streams its blocks and keeps nothing

    @pytest.mark.parametrize("method", ["counting_median3", "counting_single"])
    def test_cold_warm_and_streamed_tables_are_equal(self, monkeypatch, method):
        g, median3 = CORPUS["abs-half"], method == "counting_median3"
        M, N = derived_params(method, 40)
        constructors._counting_laws.cache_clear()
        cold = constructors._counting_value_table(g, N, M, median3)
        info = constructors._counting_laws.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
        warm = constructors._counting_value_table(g, N, M, median3)
        assert constructors._counting_laws.cache_info().hits == 1
        # the uncached product of all N + 1 laws, bit for bit
        gvals = g(amp_support(M)[0])
        laws = constructors._weight_laws(np.arange(N + 1), N, M, median3)
        assert np.array_equal(cold, laws @ gvals) and np.array_equal(warm, laws @ gvals)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 5 * (M // 2 + 1))  # 5 weights a block
        streamed = constructors._counting_value_table(g, N, M, median3)
        assert constructors._counting_laws.cache_info() == (1, 1, 8, 1)
        # the same laws, five to a product: a row's rounding may depend on its
        # place in its block, so the streamed table is compared block by block
        blocks = [laws[i:i + 5] @ gvals for i in range(0, N + 1, 5)]
        assert np.array_equal(streamed, np.concatenate(blocks))

    @pytest.mark.parametrize("method", ["counting_median3", "counting_single"])
    def test_warm_build_makes_no_law_and_calls_g_once(self, monkeypatch, method):
        constructors._counting_laws.cache_clear()
        build_approximant(CORPUS["sqrt"], method, 12)
        weights, sizes = [], []
        law = constructors.single_run_amp_pmf
        monkeypatch.setattr(constructors, "single_run_amp_pmf",
                            lambda k, N, M: weights.append(k) or law(k, N, M))
        g = TargetFunction(lambda x: sizes.append(np.size(x)) or np.sqrt(x), name="counted")
        approx = build_approximant(g, method, 12)
        assert weights == [] and sizes == [approx.M // 2 + 1]
        bad = TargetFunction(lambda x: np.where(x > 0.5, np.nan, x), name="bad")
        with pytest.raises(PreconditionError, match="finite"):
            build_approximant(bad, method, 12)
        assert weights == []

    @pytest.mark.parametrize("median3", [True, False])
    def test_cached_laws_are_read_only(self, median3):
        constructors._counting_laws.cache_clear()
        # not (16, 5), counting_single at n = 4, whose cold build perfbench's tracer test counts
        laws = constructors._counting_laws(25, 5, median3)
        assert laws.shape == (26, 3) and not laws.flags.writeable
        with pytest.raises(ValueError):
            laws[0, 0] = 1.0
        assert constructors._counting_laws(25, 5, median3) is laws

    @pytest.mark.parametrize("n, kept", [(88, 1), (90, 0), (96, 0)])
    def test_only_a_table_of_one_block_is_kept(self, n, kept):
        # n = 88: 7745 weights x 8 estimates fit one block; n = 90 and 96 do not
        M, N = derived_params("counting_median3", n)
        constructors._counting_laws.cache_clear()
        table = constructors._counting_value_table(CORPUS["abs-half"], N, M, True)
        assert len(table) == N + 1
        assert constructors._counting_laws.cache_info().currsize == kept


class TestBinomialMixtureReference:
    # the reference sums each point's band only; the oracle sums all N+1 weights
    @pytest.mark.filterwarnings("ignore:.*degenerates")
    @pytest.mark.parametrize("n", [4, 13, 96])
    @pytest.mark.parametrize("method", ALGEBRAIC_METHODS)
    def test_reference_is_the_full_width_mixture(self, n, method):
        g = CORPUS["abs-half"]
        approx = build_approximant(g, method, n)
        if method == "bernstein":
            N, table = n, g(np.arange(n + 1) / n)
        else:
            N = approx.N
            table = constructors._counting_value_table(g, N, approx.M, method == "counting_median3")
        nodes = cheb_lobatto_nodes(n + 1)
        xs = np.concatenate(([0.0, 1e-3, 0.137, 0.5, 0.861, 0.999, 1.0],
                             nodes[[1, 2, n // 2, -3, -2]]))
        want = np.array([binomial_mixture(N, table, x) for x in xs])
        assert np.max(np.abs(approx.reference(xs) - want)) <= 1e-15 * np.max(np.abs(table))

    @pytest.mark.parametrize("method", ["bernstein", "counting_single"])
    def test_non_contiguous_target_values(self, method):
        # a strided ndarray cannot be laid over a broadcast (stride 0) table: the
        # window view copies it first, and every value is a contiguous target's
        broadcast = TargetFunction(lambda x: np.broadcast_to(np.array(0.5), np.shape(x)))
        full = TargetFunction(lambda x: np.full(np.shape(x), 0.5))
        assert not broadcast(np.arange(3.0)).flags.c_contiguous
        xs = np.linspace(0.0, 1.0, 17)
        got, want = (build_approximant(g, method, 8) for g in (broadcast, full))
        assert np.array_equal(got.reference(xs), want.reference(xs))
        assert np.array_equal(got(xs), want(xs))
        assert got(0.3) == want(0.3) and abs(got(0.3) - 0.5) <= 1e-15


class TestNonfiniteTarget:
    @pytest.mark.parametrize("method", ["bernstein", "phase_median3", "jackson_kernel"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_at_the_samples_the_method_uses(self, method, bad):
        g = TargetFunction(lambda x: np.where(x > 0.3, bad, x), periodic=True, name="bad")
        with pytest.raises(PreconditionError, match="finite"):
            build_approximant(g, method, 12)

    @pytest.mark.parametrize("method", ["bernstein", "phase_median3", "jackson_kernel"])
    def test_overflowing_csv_target_rejected(self, tmp_path, method):
        # finite knots whose linear interpolation overflows to -inf between them
        path = tmp_path / "big.csv"
        path.write_text("0,1.7e308\n0.5,-1.7e308\n1,1.7e308\n")
        g = target_from_csv(str(path), periodic=True)
        with pytest.raises(PreconditionError, match="finite"):
            build_approximant(g, method, 12)

    @pytest.mark.parametrize("method", METHODS)
    def test_complex_target_refused(self, method):
        # the imaginary part was dropped with only a numpy ComplexWarning
        g = TargetFunction(lambda x: x + 1j * x, periodic=True, name="complex")
        with pytest.raises(PreconditionError, match="dtype complex128"):
            build_approximant(g, method, 12)

    def test_complex_target_refused_on_the_error_grid(self):
        approx = build_approximant(CORPUS["triangle"], "jackson_kernel", 12)
        g = TargetFunction(lambda x: np.cos(2 * np.pi * x) + 0j, periodic=True)
        with pytest.raises(PreconditionError, match="error grid, got dtype complex128"):
            error_report(g, approx)

    def test_rejected_on_the_error_grid(self):
        # finite at the outcomes 0 and 1/2 that phase_median3 samples at n = 4, infinite between
        g = TargetFunction(lambda x: np.where(x % 0.5 == 0.0, 1.0, np.inf), periodic=True)
        approx = build_approximant(g, "phase_median3", 4)
        with pytest.raises(PreconditionError, match="error grid"):
            error_report(g, approx)

    def test_rejected_on_the_modulus_grid(self):
        # finite on the 4097-point error grid and the quadrature nodes, infinite at the
        # odd multiples of 1/8192, which only omega_reference's finer grid holds
        def g_of(x):
            return np.where((x * 8192) % 2 == 1, np.inf, np.cos(2 * np.pi * x))

        g = TargetFunction(g_of, periodic=True)
        with pytest.raises(PreconditionError, match="finite"):
            error_report(g, "jackson_kernel", 512)


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
            assert np.max(np.abs(build_approximant(g, "phase_median3", n)(z) - g(z))) < 1e-12

    @pytest.mark.parametrize("method", TRIG_METHODS)
    def test_nonperiodic_rejected(self, method):
        with pytest.raises(PreconditionError, match="periodic"):
            build_approximant(CORPUS["sqrt"], method, 9)

    def test_precision_one_is_flagged_degenerate(self):
        g = CORPUS["cos"]
        xs = np.linspace(0, 1, 7)
        for n in (1, 2):
            with pytest.warns(UserWarning, match="degenerates"):
                approx = build_approximant(g, "phase_median3", n)
            assert approx.M == 1 and approx.degenerate
            assert approx(xs) == pytest.approx(np.ones(7), abs=1e-15)  # the constant g(0)
        approx = build_approximant(g, "phase_median3", 3)  # any warning fails the test
        assert approx.M == 2 and not approx.degenerate

    def test_degree_and_error(self):
        g = CORPUS["triangle"]
        approx = build_approximant(g, "phase_median3", 9)
        assert effective_trig_degree(approx.reference, 9, seed=13) < 1e-8 * (1 + 1.0)
        assert error_report(g, "phase_median3", 9).ratio <= 10.0

    @pytest.mark.parametrize("name", PERIODIC_NAMES)
    def test_reference_is_the_median_of_three_expectation(self, name):
        # brute force: E[median of g(Z_i/M)] over all M^3 outcome triples,
        # under the statevector outcome law
        g = CORPUS[name]
        xs = np.concatenate((np.random.default_rng(31).uniform(size=40), [0.0, 0.5]))
        for n in (3, 6, 9, 15):
            M, _ = derived_params("phase_median3", n)
            gz = g(np.arange(M) / M)
            triples = np.array(list(itertools.product(range(M), repeat=3)))
            medians = np.median(gz[triples], axis=1)
            approx = build_approximant(g, "phase_median3", n)
            for x in xs:
                p = pe_statevector_pmf(M, x)
                expect = float(np.prod(p[triples], axis=1) @ medians)
                assert abs(approx.reference(x) - expect) <= 1e-12

    @pytest.mark.parametrize("n", [6, 12, 24])
    @pytest.mark.parametrize("name", ["cos", "triangle"])
    def test_form_and_reference_against_the_decimal_expectation(self, name, n):
        # each float result lies within a few roundings of the 40-digit
        # expectation over its own float samples g(z/M); on 32 golden-ratio
        # points and four exact phases the form measured up to 6.5 and the
        # reference up to 3.0, in units of eps * max|g|
        g = CORPUS[name]
        M, _ = derived_params("phase_median3", n)
        samples = g(np.arange(M) / M)
        tol = 16 * np.finfo(float).eps * np.max(np.abs(samples))
        approx = build_approximant(g, "phase_median3", n)
        xs = np.concatenate(((0.5 + np.arange(32) * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0,
                             [0.0, 0.25, 1 / 3, 0.5]))
        for x, form, reference in zip(xs, approx(xs), approx.reference(xs)):
            exact = phase_median3_exact(samples, x)
            assert abs(form - exact) <= tol, x
            assert abs(reference - exact) <= tol, x


class TestPhaseToTrigPoly:
    def test_constant(self):
        poly = build_approximant(CONST_P, "phase_median3", 6).form
        assert poly.coeffs[poly.degree].real == pytest.approx(2.5, abs=1e-12)
        others = np.abs(np.delete(poly.coeffs, poly.degree))
        assert np.max(others) < 1e-12

    def test_cosine_dominant_frequency(self):
        poly = build_approximant(CORPUS["cos"], "phase_median3", 12).form
        m = poly.degree
        mags = {k: abs(poly.coeffs[m + k]) for k in range(-m, m + 1)}
        top = sorted(mags, key=mags.get, reverse=True)[:2]
        assert set(top) == {1, -1}

    def test_reproduces_evaluation(self):
        g = CORPUS["triangle"]
        n = 9
        poly = build_approximant(g, "phase_median3", n).form
        approx = build_approximant(g, "phase_median3", n)
        pts = np.random.default_rng(17).uniform(size=512)
        scale = 1e-9 * (1 + np.max(np.abs(approx.reference(pts))))
        assert np.max(np.abs(poly(pts) - approx.reference(pts))) < scale

    def test_real_valued(self):
        for name in ("triangle", "cos"):
            poly = build_approximant(CORPUS[name], "phase_median3", 9).form
            assert conjugate_symmetry_defect(poly.coeffs) < 1e-10
            assert imag_residue(poly.coeffs, np.linspace(0, 1, 200)) < 1e-10 * (
                1 + np.max(np.abs(poly.coeffs))
            )


class TestJacksonKernelMethod:
    """The jackson_kernel method: convolution with the Jackson kernel."""

    def test_order_one_jackson_gives_mean(self):
        # n = 2 gives order 1, the constant kernel 1: exact degree 0
        g = CORPUS["triangle"]
        with pytest.warns(UserWarning, match="degenerates"):
            reference = build_approximant(g, "jackson_kernel", 2).reference
        xs = np.linspace(0, 1, 17)
        mean = np.mean(g(np.arange(4096) / 4096))
        assert reference(xs) == pytest.approx(np.full(17, mean), abs=1e-6)

    def test_jackson_error_rate(self):
        g = CORPUS["triangle"]
        rep = error_report(g, "jackson_kernel", 16)
        assert rep.ratio <= 3.0

    def test_degree_reduction(self):
        approx = build_approximant(CORPUS["triangle"], "jackson_kernel", 16)
        assert effective_trig_degree(approx.reference, 16, seed=19) < 1e-10

    @pytest.mark.parametrize("n", [8, 24, 48])
    @pytest.mark.parametrize("name", ["cos", "triangle"])
    def test_form_and_reference_against_the_40_digit_sum(self, name, n):
        # each float result lies within a few roundings of the 40-digit
        # Q-node sum over its own float samples g(j/Q); on 32 golden-ratio
        # points and both ends the form measured up to 2.5 and the reference
        # up to 3.5, in units of eps * max|g|
        g = CORPUS[name]
        order = max(n // 2, 1)
        Q = 8 * (jackson_kernel(order).trig_degree + 1)
        samples = g(np.arange(Q) / Q)
        tol = 16 * np.finfo(float).eps * np.max(np.abs(samples))
        approx = build_approximant(g, "jackson_kernel", n)
        xs = np.concatenate(((0.5 + np.arange(32) * ((np.sqrt(5.0) - 1.0) / 2.0)) % 1.0, [0.0, 1.0]))
        for x, form, reference in zip(xs, approx(xs), approx.reference(xs)):
            exact = jackson_exact(samples, order, x)
            assert abs(form - exact) <= tol, x
            assert abs(reference - exact) <= tol, x


@pytest.fixture(scope="module")
def periodic_csv_target(tmp_path_factory):
    """A seeded 30-knot piecewise-linear periodic target, read from a CSV file."""
    rng = np.random.default_rng(2022)
    xs = np.concatenate(([0.0], np.sort(rng.uniform(0.02, 0.98, 28)), [1.0]))
    ys = rng.uniform(-1.0, 1.0, 30)
    ys[-1] = ys[0]
    path = tmp_path_factory.mktemp("csv") / "periodic.csv"
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
    return target_from_csv(str(path), periodic=True)


class TestJacksonKernelCoefficientsOncePerOrder:
    """The Jackson form reads its kernel's coefficients from one cached
    array per order, bit for bit the convolution it replaced."""

    def test_two_builds_at_one_order_make_one_array(self, periodic_csv_target):
        phase_dist._fourier_coeffs.cache_clear()
        for _ in range(2):
            build_approximant(periodic_csv_target, "jackson_kernel", 200)(0.3)
        info = phase_dist._fourier_coeffs.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("name", ["triangle", "csv"])
    def test_form_is_the_convolution_bit_for_bit(self, periodic_csv_target, name):
        g = periodic_csv_target if name == "csv" else CORPUS[name]
        n, order = 200, 100
        triangle = 1.0 - np.abs(np.arange(1 - order, order)) / order
        kernel = (3.0 * order / (2.0 * order * order + 1.0)) * np.convolve(triangle, triangle)
        d = 2 * (order - 1)
        quad = 8 * (d + 1)
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        coeffs[n - d : n + d + 1] = kernel * numerics._real_spectrum(g(np.arange(quad) / quad), d)
        want = TrigPoly(coeffs)
        # every fourth quadrature node and 602 seeded points
        xs = np.concatenate((np.arange(0, quad, 4) / quad,
                             np.random.default_rng(34).uniform(0.0, 1.0, 602)))
        assert len(xs) == 1000
        for _ in range(2):  # the build that makes the array, then one that reads it
            approx = build_approximant(g, "jackson_kernel", n)
            assert np.array_equal(approximant_coefficients(approx), want.coeffs)
            assert np.array_equal(approx(xs), want(xs))


class TestRealSpectrum:
    """Both Fourier forms take one real FFT of real samples: c_-k = conj(c_k)."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(TRIG_METHODS), st.integers(min_value=1, max_value=64),
           st.sampled_from((*PERIODIC_NAMES, "csv")))
    def test_coefficients_are_conjugate_symmetric_bit_for_bit(
            self, periodic_csv_target, method, n, name):
        g = periodic_csv_target if name == "csv" else CORPUS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # phase_median3 at n <= 2 degenerates
            approx = build_approximant(g, method, n)
        c = approximant_coefficients(approx)
        assert c.shape == (2 * n + 1,)
        assert np.array_equal(c[::-1], np.conj(c))

    @pytest.mark.parametrize("n", [2, 3, 64, 200, 511])
    @pytest.mark.parametrize("name", ["triangle", "cos", "csv"])
    def test_jackson_form_matches_the_complex_fft(self, periodic_csv_target, name, n):
        # order 1 (trig degree 0) at n = 2 and 3; the quadrature lengths
        # 8(d + 1) = 504, 1592 and 4072 have odd prime factors
        g = periodic_csv_target if name == "csv" else CORPUS[name]
        kernel = jackson_kernel(max(n // 2, 1))
        d = kernel.trig_degree
        quad = 8 * (d + 1)
        gs = g(np.arange(quad) / quad)
        want = np.zeros(2 * n + 1, dtype=complex)
        want[n - d : n + d + 1] = kernel.fourier_coeffs() * (np.fft.fft(gs) / quad)[np.arange(-d, d + 1)]
        if d == 0:
            with pytest.warns(UserWarning, match="degenerates"):
                approx = build_approximant(g, "jackson_kernel", n)
        else:
            approx = build_approximant(g, "jackson_kernel", n)
        got = approximant_coefficients(approx)
        assert np.max(np.abs(got - want)) <= 1e-15 * (1 + np.max(np.abs(gs)))


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

    def test_n_must_match_a_built_approximant(self):
        # the n = 64 report was silently the n = 8 one
        g = CORPUS["abs-half"]
        approx = build_approximant(g, "bernstein", 8)
        with pytest.raises(PreconditionError, match="differs from the approximant's n=8"):
            error_report(g, approx, n=64)
        assert error_report(g, approx, n=8) == error_report(g, approx)

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
        coeffs = approximant_coefficients(approx)
        pts = np.random.default_rng(23).uniform(size=128)
        poly = np.polynomial.chebyshev.chebval(2.0 * pts - 1.0, coeffs)
        assert np.max(np.abs(poly - approx.reference(pts))) < 1e-10

    def test_trig_coefficients_reproduce(self):
        g = CORPUS["cos"]
        approx = build_approximant(g, "jackson_kernel", 10)
        poly = TrigPoly(approximant_coefficients(approx))
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
        # the form is the call's one gate, and a bad x is a precondition, as at every x gate
        approx = build_approximant(CORPUS["triangle"], method, 6)
        with pytest.raises(PreconditionError):
            approx(x)
        with pytest.raises(PreconditionError):
            approx(np.array([0.25, x]))

    @pytest.mark.parametrize("method", METHODS)
    def test_one_gate_per_call(self, monkeypatch, method):
        # a scalar call and a 64-point batch each pass x through real_x once
        approx = build_approximant(CORPUS["triangle"], method, 6)
        approx.form  # compiled first: the build's own reference calls are not counted
        calls = []

        def counted(x):
            calls.append(x)
            return real_x(x)

        bound = [module for name, module in sys.modules.items()
                 if name.startswith("jacksonlab") and getattr(module, "real_x", None) is real_x]
        for module in bound:
            monkeypatch.setattr(module, "real_x", counted)
        assert numerics in bound and constructors in bound
        for x in (0.3, np.linspace(0.0, 1.0, 64)):
            calls.clear()
            approx(x)
            assert len(calls) == 1, (method, type(x))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_reference_rejects_nan(self, method, x):
        approx = build_approximant(CORPUS["triangle"], method, 8)
        with pytest.raises(PreconditionError):
            approx.reference(x)
        with pytest.raises(PreconditionError):
            approx.reference(np.array([0.25, x]))

    @pytest.mark.parametrize("method", ALGEBRAIC_METHODS)
    def test_outside_unit_interval_raises(self, method):
        approx = build_approximant(CORPUS["sqrt"], method, 6)
        for x in (1.5, -0.25, 2, np.float32(1.5), np.array(-1e-300), np.array([0.5, 1.5])):
            with pytest.raises(PreconditionError, match=r"all x must lie in \[0, 1\]"):
                approx(x)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("x", ["0.3", b"0.3", None, True, False, np.bool_(True),
                                   np.array(["0.3"]), np.array([True, False]), [0.3, None]])
    def test_x_must_be_real(self, method, x):
        # a string was parsed, a bool ran at 0 or 1, and None was reported as a non-finite x
        approx = build_approximant(CORPUS["triangle"], method, 6)
        with pytest.raises(PreconditionError, match="real number"):
            approx(x)
        with pytest.raises(PreconditionError, match="real number"):
            approx.reference(x)

    @pytest.mark.parametrize("call", [
        lambda x: build_approximant(CORPUS["triangle"], "bernstein", 6)(x),
        lambda x: build_approximant(CORPUS["triangle"], "jackson_kernel", 6).reference(x),
        lambda x: phase_dist.pe_pmf(4, x),
        lambda x: pe_statevector_pmf(4, x),
    ], ids=["call", "reference", "pe_pmf", "pe_statevector_pmf"])
    def test_int_too_large_for_a_float(self, call):
        # float() raised a bare OverflowError
        with pytest.raises(PreconditionError, match="too large"):
            call(2**2000)


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
        assert approximant_coefficients(approx) is approx.form.coeffs
        assert build_approximant(CORPUS["cos"], "phase_median3", 10).form.degree == 10
        approx = build_approximant(CORPUS["sqrt"], "counting_single", 10)
        assert approximant_coefficients(approx).shape == (11,)

    def test_scalar_in_float_out(self):
        for method in METHODS:
            y = build_approximant(CORPUS["triangle"], method, 6)(0.3)
            assert isinstance(y, float)

    @pytest.mark.parametrize("method", METHODS)
    def test_scalar_call_is_the_array_path_bit_for_bit(self, method):
        # a single x takes the forms' scalar path, which has no arrays
        n = 24
        approx = build_approximant(CORPUS["triangle"], method, n)
        points = [*cheb_lobatto_nodes(n + 1).tolist(), 0.0, 1.0, -0.0,
                  *np.random.default_rng(11).uniform(size=500).tolist()]
        ints = [0, 1]
        if method in TRIG_METHODS:
            points += [5.3, -1e-300, 1e308]
            ints += [-3, 7]
        for x in points + ints:
            kinds = [x, np.float64(x), np.array(x)] + ([np.float32(x)] if abs(x) < 1e38 else [])
            for arg in kinds:
                y = approx(arg)
                assert type(y) is float, (arg, type(y))
                assert y == approx(np.array([arg]))[0], arg

    @pytest.mark.parametrize("method", METHODS)
    def test_batch_within_the_stated_bound_of_the_scalar_path(self, method):
        # a batch sums in its BLAS call's order, not the scalar path's: the README
        # bounds the gap by 4(n+1) eps times the sum of the terms' magnitudes
        n = 24
        approx = build_approximant(CORPUS["triangle"], method, n)
        xs = np.random.default_rng(12).uniform(size=500)
        gap = np.abs(approx(xs) - np.array([approx(x) for x in xs.tolist()]))
        assert np.all(gap <= 4 * (n + 1) * np.finfo(float).eps * _term_magnitudes(approx.form, xs))


def _term_magnitudes(form, xs):
    """Sum of |terms| of the stored form at each x in xs (none a node).

    Barycentric: sum_j |l_j(x)| (|v_j| + |p(x)|), the terms of numerator and
    denominator over the denominator, l_j = q_j / sum q.  Trigonometric:
    sum_k |b_k|, b_0 = c_0 and b_k = c_k + conj(c_-k).
    """
    if isinstance(form, TrigPoly):
        c, m = form.coeffs, form.degree
        b = c[m:].copy()
        b[1:] += np.conj(c[:m][::-1])
        return np.full(len(xs), np.abs(b).sum())
    v = form.values
    w = np.ones(v.size)
    w[1::2] = -1.0
    w[[0, -1]] *= 0.5
    q = w / (xs[:, None] - cheb_lobatto_nodes(v.size))
    lagrange = q / q.sum(axis=1, keepdims=True)
    return np.abs(lagrange) @ np.abs(v) + np.abs(lagrange).sum(axis=1) * np.abs(lagrange @ v)


class TestBlockwiseReference:
    def test_blocks_cover_the_points_in_order(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 12)
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
            monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1 << 40)
            whole = approx.reference(x)
            for entries in (1, 1000):                # one-row blocks; several rows each
                monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
                assert np.max(np.abs(approx.reference(x) - whole)) <= 1e-15
                y = approx.reference(x[0])
                assert isinstance(y, float) and abs(y - whole[0]) <= 1e-15
                assert approx.reference(np.array([])).shape == (0,)

    @pytest.mark.parametrize("method", ["bernstein", "counting_single", "jackson_kernel"])
    def test_window_view_made_once_on_the_first_call(self, monkeypatch, method):
        # by numerics.window_view: not per block, and not at build, which never reads it
        made = []
        view = numerics.window_view
        monkeypatch.setattr(numerics, "window_view",
                            lambda table, width: made.append(width) or view(table, width))
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1000)
        approx = build_approximant(CORPUS["triangle"], method, 24)
        assert made == []
        whole = approx.reference(np.linspace(0.0, 1.0, 257))  # many blocks
        assert approx.reference(0.5) == whole[128]
        assert len(made) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_array_x_keeps_its_shape(self, method):
        # a 2-D x raised a numpy ValueError in every reference but phase_median3's
        approx = build_approximant(CORPUS["triangle"], method, 7)
        x = np.linspace(0.0, 1.0, 12)
        assert np.array_equal(approx.reference(x.reshape(3, 4)), approx.reference(x).reshape(3, 4))
        assert np.array_equal(approx.reference(x[::2]), approx.reference(x)[::2])

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
    g = GATE_TARGETS[name]
    rng = np.random.default_rng(41)
    worst = 0.0
    for n in GATE_NS:
        approx = build_approximant(g, method, n)
        x = np.concatenate((rng.uniform(size=400), [0.0, 1.0]))
        worst = max(worst, float(np.max(np.abs(approx(x) - approx.reference(x)))))
    assert worst <= 1e-12


def _piecewise_linear(knots, periodic):
    """The target through equispaced knots, wrapped mod 1 when periodic."""
    ys = np.array(knots + knots[:1] if periodic else knots, dtype=float)
    xs = np.linspace(0.0, 1.0, len(ys))
    if periodic:
        return TargetFunction(lambda t: np.interp(np.asarray(t, float) % 1.0, xs, ys), periodic=True)
    return TargetFunction(lambda t: np.interp(np.asarray(t, float), xs, ys))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(METHODS), st.integers(min_value=1, max_value=24),
       st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_form_matches_reference_on_random_piecewise_linear_targets(method, n, knots, seed):
    g = _piecewise_linear(knots, method in TRIG_METHODS)
    if n <= DEGENERATE_UP_TO[method]:
        with pytest.warns(UserWarning, match="degenerates"):
            approx = build_approximant(g, method, n)
    else:
        approx = build_approximant(g, method, n)
    x = np.concatenate((np.random.default_rng(seed).uniform(size=32), [0.0, 1.0]))
    assert np.max(np.abs(approx(x) - approx.reference(x))) <= 1e-12


def _statevector_counting_table(g, N, M, median3):
    """E[g(estimate) | weight k], k = 0..N, from the full counting statevector:
    each weight's outcome law folded by amplitude value, then for median3 the
    law of the median of three runs."""
    z = np.arange(M)
    amplitude = np.sin(np.pi * np.minimum(z, M - z) / M) ** 2
    values, fold = np.unique(amplitude, return_inverse=True)
    table = []
    for k in range(N + 1):
        law = np.bincount(fold, weights=counting_statevector_pmf(np.arange(N) < k, M))
        support, law = median3_pmf_by_unique(values, law) if median3 else (values, law)
        table.append(float(law @ g(support)))
    return table


@pytest.mark.parametrize("method,n", [("counting_single", 4), ("counting_single", 8),
                                      ("counting_median3", 8)])
@pytest.mark.parametrize("name", ["abs-half", "sqrt"])
def test_counting_end_to_end_against_the_statevector(method, n, name):
    # counting_median3 at n = 4 is left out: M = 1, a constant
    g = CORPUS[name]
    approx = build_approximant(g, method, n)
    table = _statevector_counting_table(g, approx.N, approx.M, method == "counting_median3")
    x = np.concatenate((np.random.default_rng(47).uniform(size=64), [0.0, 1.0]))
    expect = np.array([binomial_mixture(approx.N, table, p) for p in x.tolist()])
    assert np.max(np.abs(approx(x) - expect)) <= 1e-12
    assert np.max(np.abs(approx.reference(x) - expect)) <= 1e-12


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
        if n <= 3:  # order 1: the constant, gain 0
            with pytest.warns(UserWarning, match="degenerates"):
                approx = build_approximant(g, "jackson_kernel", n)
        else:
            approx = build_approximant(g, "jackson_kernel", n)
        assert np.max(np.abs(approx(x) - gain * np.cos(2 * np.pi * x))) <= 1e-14


PI_LD = 4 * np.arctan(np.longdouble(1))


def _convolution_oracle(kernel, g, Q, x):
    """(1/Q) sum_j kernel(j/Q - x) g(j/Q) at each x, every entry in long double."""
    n = kernel.order
    gs = np.asarray(g(np.arange(Q) / Q), dtype=np.longdouble)
    t = np.arange(Q, dtype=np.longdouble)[None, :] / Q - np.asarray(x, np.longdouble)[:, None]
    r = t - np.rint(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.sin(PI_LD * n * r) ** 2 / (n * np.sin(PI_LD * r) ** 2)
    f[r == 0] = n
    k = f if kernel.kind == "fejer" else np.longdouble(kernel.norm_const) * f * f
    return (k @ gs) / Q


def _near_node_points(Q):
    """0, 1, a few nodes j/Q, and each node +- 10^-k for k = 6..14."""
    nodes = np.array([0, 1, Q // 3, Q - 1]) / Q
    h = 10.0 ** -np.arange(6, 15)
    return np.concatenate(([0.0, 1.0], nodes, (nodes[:, None] + h).ravel(),
                           (nodes[:, None] - h).ravel()))


class TestQuadratureReference:
    """The Jackson/Fejer quadrature sum, re-centred on each point."""

    @pytest.mark.parametrize("n", (64, 192, 448))
    def test_jackson_reference_matches_long_double_oracle(self, n):
        # just above a node, a sine taken at (s - x) mod 1 loses its relative accuracy
        order = n // 2
        kernel = jackson_kernel(order)
        Q = 8 * (kernel.trig_degree + 1)
        x = np.concatenate((_near_node_points(Q), np.random.default_rng(n).uniform(size=64)))
        approx = build_approximant(SKEW_P, "jackson_kernel", n)
        assert np.max(np.abs(approx.reference(x) - _convolution_oracle(kernel, SKEW_P, Q, x))) <= 1e-13

    @pytest.mark.parametrize("make", [fejer_kernel, jackson_kernel])
    @pytest.mark.parametrize("order", [1, 2, 7, 96, 256])
    def test_rows_match_kernel_call(self, make, order):
        kernel = make(order)
        for Q in (8 * (kernel.trig_degree + 1), 8 * (kernel.trig_degree + 1) + 3):
            # points at least 1e-3 node spacings from every node
            rng = np.random.default_rng(Q)
            x = (rng.integers(0, Q, size=50) + rng.uniform(0.001, 0.999, size=50)) / Q
            # each node's sample is its index j, so the table shows which node an entry holds
            band, table = kernel.quadrature(np.arange(Q, dtype=float))
            c, k = band(x)
            assert c.shape == (50,) and np.all((0 <= c) & (c < Q)) and k.shape == (50, Q)
            assert len(table) == 2 * Q - 1
            j = table[c[:, None] + np.arange(Q)]
            assert np.array_equal(j, (c[:, None] + np.arange(Q) - Q // 2) % Q)
            expected = kernel(j / Q - x[:, None])
            # relative to the kernel's peak: near its zeros neither side has relative accuracy
            assert np.max(np.abs(k - expected)) <= 1e-13 * np.max(expected)

    @pytest.mark.parametrize("order", (1, 7, 224, 1024))
    def test_offset_tables_match_long_double(self, order):
        # order*o is reduced in integers: sin(pi*order*o/Q) taken directly is off by 1.8e-13 at 1024
        Q = 8 * (2 * order - 1) + 1
        o = np.arange(Q, dtype=np.longdouble) - Q // 2

        def exact(m):
            angle = PI_LD * m * o / Q
            return np.stack((np.sin(angle), np.cos(angle)))

        # the outcome laws read rows of the window view of F = sin + i cos at
        # m = 1, laid out twice: row 0 is F, and so is row Q
        windows = phase_dist._law_table(Q)
        assert not windows.flags.writeable and windows.shape == (Q + 1, Q)
        assert np.array_equal(windows[0], windows[Q])
        assert np.max(np.abs(np.stack((windows[0].real, windows[0].imag)) - exact(1))) <= 2e-15
        # the band multiplies C-ordered [sin; cos] rows at m = order and m = 1
        band, _ = jackson_kernel(order).quadrature(np.zeros(Q))
        band(np.array([0.3]))
        for m, rows in zip((order, 1), _band_rows(band), strict=True):
            assert rows.shape == (2, Q) and rows.flags.c_contiguous
            assert np.max(np.abs(rows - exact(m))) <= 2e-15

    def test_build_makes_no_tables(self, monkeypatch):
        angles = phase_dist._offset_angles
        made = []

        def counted(order, Q):
            made.append((order, Q))
            return angles(order, Q)

        monkeypatch.setattr(phase_dist, "_offset_angles", counted)
        phase_dist._law_table.cache_clear()
        approx = build_approximant(CORPUS["triangle"], "jackson_kernel", 40)
        assert made == [] and phase_dist._law_table.cache_info().currsize == 0
        approx.reference(np.linspace(0.0, 1.0, 5))
        approx.reference(np.linspace(0.0, 1.0, 5))
        # rows of order n // 2 = 20 (numerator) and of order 1 (denominator), made
        # on the first call only; the Jackson reference makes no law table
        Q = 8 * (jackson_kernel(20).trig_degree + 1)
        assert made == [(20, Q), (1, Q)]
        assert phase_dist._law_table.cache_info().currsize == 0

    def test_band_copies_each_table_once(self):
        # the band's [sin; cos] rows are made on the first block and kept: a
        # reference evaluated over eight blocks holds what one block made, two
        # arrays of 2Q doubles, and no other array of Q doubles or more
        n = 64
        order = n // 2
        Q = 8 * (jackson_kernel(order).trig_degree + 1)
        approx = build_approximant(CORPUS["triangle"], "jackson_kernel", n)
        block = numerics._BLOCK_ENTRIES // Q
        xs = np.random.default_rng(5).uniform(size=8 * block)
        held = []
        tracemalloc.start()
        try:
            for points in (xs[:block], xs):
                approx.reference(points)
                snapshot = tracemalloc.take_snapshot()
                # numpy's data buffers, made on a line of phase_dist
                for only in (tracemalloc.Filter(True, phase_dist.__file__),
                             tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)):
                    snapshot = snapshot.filter_traces([only])
                held.append(sorted(t.size for t in snapshot.traces if t.size >= Q * 8))
        finally:
            tracemalloc.stop()
        assert held == [[2 * Q * 8] * 2] * 2

    def test_dropped_references_hold_no_tables(self):
        # a Jackson band's table and rows live as long as its approximant: no
        # cache that lives as long as the process keeps one.  Each holds Q
        # doubles or more; numpy keeps some smaller working buffers of its own
        smallest = 8 * 8 * (jackson_kernel(32).trig_degree + 1)
        tracemalloc.start(25)
        try:
            for n in (64, 128, 192):
                build_approximant(CORPUS["triangle"], "jackson_kernel", n).reference(
                    np.linspace(0.0, 1.0, 7))
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        snapshot = snapshot.filter_traces(
            [tracemalloc.Filter(True, phase_dist.__file__, all_frames=True),
             tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        assert sorted(t.size for t in snapshot.traces if t.size >= smallest) == []


def _band_rows(band):
    """The [sin; cos] rows a quadrature band keeps in its closure (none before its first block)."""
    return band.__closure__[band.__code__.co_freevars.index("rows")].cell_contents


class TestConstantsReproduced:
    @settings(deadline=None)
    @given(st.sampled_from(METHODS), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_const_is_reproduced_on_every_path(self, method, n, seed):
        g = CORPUS["const-periodic" if method in TRIG_METHODS else "const"]
        if n <= DEGENERATE_UP_TO[method]:
            with pytest.warns(UserWarning, match="degenerates"):
                approx = build_approximant(g, method, n)
        else:
            approx = build_approximant(g, method, n)
        xs = np.concatenate(([0.0, 1.0], np.random.default_rng(seed).uniform(0.0, 1.0, 30)))
        assert np.max(np.abs(approx.form(xs) - 0.75)) <= 1e-13
        assert max(abs(approx(x) - 0.75) for x in xs.tolist()) <= 1e-13
        assert np.max(np.abs(approx.reference(xs) - 0.75)) <= 1e-13
