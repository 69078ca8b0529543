import itertools
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from jacksonlab import (
    PreconditionError,
    build_approximant,
    circle_dist,
    fejer_identity_check,
    fejer_kernel,
    fejer_value,
    get_target,
    jackson_kernel,
    numerics,
    pe_pmf,
    pe_statevector_pmf,
    phase_dist,
    single_run_pmf,
)
from jacksonlab.numerics import (
    effective_trig_degree,
    finite_phase,
    finite_phases,
    positive_int,
    trig_coeffs_from_samples,
)
from jacksonlab.numerics import median3_pmf
from jacksonlab.phase_dist import (kernel_integral, pe_pmf_rows, single_run_amp_pmf, tail_bound,
                                   theta_of_weight)
from oracles import expected_circle_error, kernel_coeffs_exact, median3_circle_error

PI_LD = 4 * np.arctan(np.longdouble(1))


def _fejer_oracle(n, t):
    """F_n at the float64 points t, in long double; r = t - rint(t) is exact."""
    t = np.asarray(t, dtype=np.longdouble)
    r = t - np.rint(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(PI_LD * n * r) ** 2 / (n * np.sin(PI_LD * r) ** 2)
    return np.where(r == 0, np.longdouble(n), ratio)


def _law_oracle(M, xs):
    """The outcome law F_M(z/M - x)/M in long double, x reduced mod 1 and
    z/M - x formed in long double; one row per phase of a 1-D xs."""
    x = np.asarray(xs, dtype=np.longdouble) % 1
    return _fejer_oracle(M, np.arange(M, dtype=np.longdouble) / M - x[:, None]) / M


# phases z/M, next to them, both zeros, subnormal, 1 - 1e-17 (which is 1.0),
# the float next below 1, and huge
def _edge_phases(M):
    z = np.arange(M) / M
    return np.concatenate((z, z + 1e-16, [0.0, -0.0, 1e-300, -1e-300, 1 - 1e-17, np.nextafter(1.0, 0.0),
                                          5e15, -2.5]))


EDGE_ORDERS = [*range(1, 65), 67, 100, 127, 128, 171, 255, 256]
# largest |law - _law_oracle| over EDGE_ORDERS x _edge_phases: 8.0e-15 (M = 171)
ORACLE_TOL = 1e-14


class TestPePmf:
    def test_exact_phase_point_mass(self):
        assert pe_pmf(2, 0.0).probs == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_half_integer_phase(self):
        # hand evaluation: sin(pi/2)^2 / (4 sin(pi/4)^2) = 1/2 for both outcomes
        assert pe_pmf(2, 0.25).probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_statevector_oracle(self):
        pmf = pe_pmf(8, 0.3)
        assert np.max(np.abs(pmf.probs - pe_statevector_pmf(8, 0.3))) < 1e-12

    def test_x_reduced_mod_one(self):
        assert pe_pmf(8, 1.3).probs == pytest.approx(pe_pmf(8, 0.3).probs, abs=1e-15)
        # x % 1.0 rounds these to 1.0, outside [0, 1)
        for x in (-1e-17, -1e-300):
            pmf = pe_pmf(8, x)
            assert pmf.x == 0.0
            assert np.array_equal(pmf.probs, np.eye(8)[0])

    def test_normalization_sweep(self):
        for M in range(1, 257, 5):
            for x in np.linspace(0, 1, 64, endpoint=False):
                assert abs(pe_pmf(M, x).probs.sum() - 1.0) < 1e-12

    def test_integer_mx_point_mass(self):
        # exactly one-hot: every other outcome's numerator is sin(0) = 0
        for M, z in ((12, 5), (8, 2), (10, 3), (1, 0), (2, 1), (64, 6), (255, 254)):
            assert np.array_equal(pe_pmf(M, z / M).probs, np.eye(M)[z]), (M, z)
            assert np.array_equal(pe_pmf_rows(M, np.array([z / M, 0.0])), np.eye(M)[[z, 0]])
        assert np.array_equal(pe_pmf(10, 0.3).probs, np.eye(10)[3])

    def test_tail_bound(self):
        for M in (3, 7, 16, 33):
            for x in np.linspace(0, 1, 32, endpoint=False):
                pmf = pe_pmf(M, x)
                d = np.atleast_1d(circle_dist(np.arange(M) / M, pmf.x))
                far = d > 0
                assert np.all(pmf.probs[far] <= tail_bound(M, d[far]) + 1e-15)

    @pytest.mark.parametrize("M", [0, -3, 2.5, True])
    def test_tail_bound_precision_must_be_a_positive_integer(self, M):
        # M = 0 gave inf, M = -3 a bound of 2.78 and True ran at M = 1
        with pytest.raises(PreconditionError, match="M must be a positive integer"):
            tail_bound(M, 0.1)

    def test_reflection_symmetry(self):
        for M in (4, 7, 12):
            for x in (0.13, 0.377, 0.91):
                a = pe_pmf(M, x).probs
                b = pe_pmf(M, 1 - x).probs
                assert a == pytest.approx(b[(-np.arange(M)) % M], abs=1e-14)

    def test_invalid_m(self):
        with pytest.raises(PreconditionError):
            pe_pmf(0, 0.3)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, "0.3", b"0.3", None, True])
    def test_nonfinite_phase_rejected(self, x):
        # the statevector pmf was all NaN; the identity check raised ValueError or OverflowError;
        # a string was parsed and a bool ran at x = 1
        match = "finite" if isinstance(x, float) else "real number"
        for law in (pe_pmf, pe_statevector_pmf, fejer_identity_check):
            with pytest.raises(PreconditionError, match=match):
                law(4, x)


class TestOutcomePhases:
    """Laws at the outcome phases z/M, just above them, and at the ends of [0, 1)."""

    def test_pe_pmf_unchanged(self):
        # pe_pmf's law is the closed form within ORACLE_TOL, scalar call by scalar call
        for M in EDGE_ORDERS:
            xs = _edge_phases(M)
            got = np.array([pe_pmf(M, x).probs for x in xs.tolist()])
            assert np.max(np.abs(got - _law_oracle(M, xs))) <= ORACLE_TOL, M


class TestOneOutcomeLawKernel:
    def test_every_law_comes_from_pe_pmf_rows(self, monkeypatch):
        # a wrong angle table reaches every outcome law and the Jackson band,
        # so none rebuilds the formula itself
        triangle = get_target("triangle")
        xs = np.array([0.1, 0.37, 0.8])

        def laws():
            # the references are built here: a band makes its rows on its first call
            references = [build_approximant(triangle, method, 12).reference
                          for method in ("phase_median3", "jackson_kernel")]
            return (pe_pmf(7, 0.3).probs, single_run_pmf(3, 16, 7),
                    single_run_amp_pmf(3, 16, 7)[1], *(reference(xs) for reference in references))

        before = laws()
        angles = phase_dist._offset_angles
        # pi/2 - a turns each sine into a cosine: the outcome laws' sine becomes
        # cos(pi(o/M + d)) and the band's rows swap
        with monkeypatch.context() as patch:
            patch.setattr(phase_dist, "_offset_angles", lambda order, Q: np.pi / 2 - angles(order, Q))
            phase_dist._law_table.cache_clear()
            after = laws()
        phase_dist._law_table.cache_clear()  # no wrong table outlives the patch
        for right, wrong in zip(before, after):
            assert np.max(np.abs(right - wrong)) > 1e-3


def _count_calls(monkeypatch, fn):
    """Calls of fn, counted through a wrapper patched onto every jacksonlab
    module bound to its name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    bound = [module for name, module in sys.modules.items()
             if name.startswith("jacksonlab") and getattr(module, fn.__name__, None) is fn]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


class TestOneGatePerLawCall:
    def test_pe_pmf_checks_m_and_x_once(self, monkeypatch):
        # pe_pmf checked x, then pe_pmf_rows checked it again
        phases = _count_calls(monkeypatch, finite_phase)
        ints = _count_calls(monkeypatch, positive_int)
        for x in (0.3, -1e-17, np.float64(2.7), 5):
            phases.clear(), ints.clear()
            pe_pmf(7, x)
            assert len(phases) == 1 and len(ints) == 1, x

    def test_float_rows_check_m_and_x_once(self, monkeypatch):
        # a float phase takes the batch path, whose gate is finite_phases
        phases = _count_calls(monkeypatch, finite_phases)
        ints = _count_calls(monkeypatch, positive_int)
        pe_pmf_rows(7, 0.3)
        assert len(phases) == 1 and len(ints) == 1

    def test_amp_law_takes_one_angle_and_no_phase_check(self, monkeypatch):
        # theta/pi lies in [0, 1/2], so it is not checked as a phase
        phases = _count_calls(monkeypatch, finite_phase)
        angles = _count_calls(monkeypatch, theta_of_weight)
        for k, N, M in ((3, 16, 7), (0, 1, 1), (9216, 9216, 33), (5, 64, 7)):
            angles.clear()
            single_run_amp_pmf(k, N, M)
            assert len(angles) == 1 and phases == [], (k, N, M)


class TestPhasePMFRecord:
    def test_fields_by_name_and_as_a_tuple(self):
        pmf = pe_pmf(8, 1.3)
        M, x, probs = pmf
        assert (pmf.M, pmf.x) == (M, x) == (8, 1.3 % 1.0)
        assert pmf.probs is probs

    def test_fields_cannot_be_assigned(self):
        pmf = pe_pmf(8, 0.3)
        for field in ("M", "x", "probs"):
            with pytest.raises(AttributeError):
                setattr(pmf, field, np.zeros(8))


class TestPePmfRowsInputs:
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, np.float64(np.nan), np.float64(-np.inf)])
    def test_nonfinite_phase_refused(self, x):
        # checked before the remainder: numpy's remainder would warn on np.float64(nan)
        with pytest.raises(PreconditionError, match="finite"):
            pe_pmf_rows(8, x)
        with pytest.raises(PreconditionError, match="finite"):
            pe_pmf_rows(8, np.array([0.25, x]))

    @pytest.mark.parametrize("M", [0, -2])  # M = 0 gave an empty "law"
    def test_precision_must_be_positive(self, M):
        with pytest.raises(PreconditionError, match="M must be a positive integer"):
            pe_pmf_rows(M, 0.3)

    @pytest.mark.parametrize("law", [pe_pmf_rows, pe_pmf, lambda M, x: single_run_amp_pmf(5, 16, M)],
                             ids=["rows", "pe_pmf", "amp"])
    def test_precision_whose_window_view_numpy_cannot_describe_is_refused(self, law):
        # numpy raised ValueError("array is too big") on the (M + 1, M)
        # complex window view; the refusal comes before any array of size M
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="numpy cannot describe"):
                law(759_250_125, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_largest_precision_passes_the_check(self):
        # M = 759,250,124 itself is not built: its table would take 24 GB
        assert phase_dist.check_precision(759_250_124) == 759_250_124
        with pytest.raises(PreconditionError):
            phase_dist.check_precision(759_250_125)


def _one_hot_where_mx_is_an_integer(M, xs, laws):
    """Assert each law at a phase with M x an integer is exactly one-hot at
    M x mod M, +0.0 elsewhere; return how many were."""
    exact = 0
    for x, law in zip(xs, laws):
        z = M * x
        if z == int(z):
            assert np.array_equal(law, np.eye(M)[int(z) % M]), (M, x)
            assert not np.signbit(law).any(), (M, x)
            exact += 1
    return exact


class TestExactPhases:
    """The limit entry of a law at |M x - rint(M x)| <= 1e-15 M, written by
    index on the float path and on the batch path."""

    def test_verify_grid_is_one_hot_at_every_exact_phase(self):
        # verify's grid: M = 1..64 over the phases k/32
        xs = np.arange(32) / 32
        exact = 0
        for M in range(1, 65):
            rows = pe_pmf_rows(M, xs)
            floats = [pe_pmf(M, x).probs for x in xs.tolist()]
            exact += _one_hot_where_mx_is_an_integer(M, xs.tolist(), rows)
            assert _one_hot_where_mx_is_an_integer(M, xs.tolist(), floats) > 0
            for x, row, law in zip(xs.tolist(), rows, floats):
                assert np.array_equal(row, law), (M, x)
        assert exact == sum(np.gcd(M, 32) for M in range(1, 65))

    @pytest.mark.parametrize("M,x,z", [(10, 0.1 + 0.2, 3), (64, 0.5 + 2**-53, 32),
                                       (3, 1 / 3 + 1e-16, 1), (7, 6 / 7 - 2e-16, 6),
                                       (8, 1.0 - 1e-16, 0)])
    def test_near_exact_phase_is_the_same_law_on_both_paths(self, M, x, z):
        # M x is within 1e-15 of z but not equal: entry z is the limit 1 and
        # every other entry is tiny but not zero
        d = x - z / M if z else x - round(x)
        assert 0 < abs(d) <= 1e-15
        law = pe_pmf(M, x).probs
        assert np.array_equal(law, pe_pmf_rows(M, x))
        assert np.array_equal(law, pe_pmf_rows(M, np.array([0.3, x]))[1])
        assert law[z] == 1.0
        others = np.delete(law, z)
        assert np.all(others > 0) and np.all(others < 1e-28)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    @pytest.mark.parametrize("M", [1, 2, 5, 16])
    def test_batch_mixing_exact_and_inexact_phases(self, shape, M):
        # exact (z/M), near-exact (z/M + 4e-16) and inexact phases: each row
        # is the float law, one-hot where d = x - rint(M x)/M is 0, and the
        # batch keeps the shape of its phases
        pool = np.array([0.0, 1 / M, 0.3, 2 / M + 4e-16, 0.71, (M - 1) / M, 0.45,
                         1 / (2 * M), 3 / M, 0.999, 0.5, 2.0, -1 / M, 0.123, 1e-16])
        batches = pool[:4] if shape == () else [pool[:int(np.prod(shape))].reshape(shape)]
        for xs in batches:
            rows = pe_pmf_rows(M, xs)
            assert rows.shape == np.shape(xs) + (M,)
            for x, row in zip(np.ravel(xs).tolist(), rows.reshape(-1, M)):
                assert np.array_equal(row, pe_pmf(M, x).probs), x
                c = round(M * (x % 1.0))
                if x % 1.0 - c / M == 0:
                    assert np.array_equal(row, np.eye(M)[c % M]), x

    @pytest.mark.parametrize("M", [2, 4, 8, 64, 3, 7])
    @pytest.mark.parametrize("N", [1, 16, 49])
    def test_counting_law_at_the_end_weights(self, M, N):
        # weight 0 is phase 0 and weight N phase 1/2, exact when M is even:
        # a point mass at estimate 0 and at estimate 1 (fold index M//2)
        values, probs = single_run_amp_pmf(0, N, M)
        assert np.array_equal(probs, np.eye(len(values))[0])
        values, probs = single_run_amp_pmf(N, N, M)
        if M % 2 == 0:
            assert np.array_equal(probs, np.eye(len(values))[M // 2])
            assert not np.signbit(probs).any()
        else:
            assert np.array_equal(probs, np.bincount(np.minimum(np.arange(M), M - np.arange(M)),
                                                     weights=pe_pmf(M, 0.5).probs))


class TestInPlaceKernel:
    @pytest.mark.parametrize("M", EDGE_ORDERS)
    def test_rows_are_the_where_form_bit_for_bit(self, M):
        # the rows are the closed form within ORACLE_TOL, and each row is its float law bit for bit
        xs = _edge_phases(M)
        rows = pe_pmf_rows(M, xs)
        assert np.max(np.abs(rows - _law_oracle(M, xs))) <= ORACLE_TOL
        for x, row in zip(xs.tolist(), rows):
            assert np.array_equal(pe_pmf(M, x).probs, row), x

    @pytest.mark.parametrize("M", [1, 2, 7, 64, 255])
    def test_phase_rounding_up_to_m_wraps_to_outcome_zero(self, M):
        # rint(M x) = M for x in [1 - 1/(2M), 1): outcome 0 is the nearest, one step up
        xs = 1.0 - np.array([0.49, 0.3, 1e-3, 1e-12, 1e-16]) / M
        rows = pe_pmf_rows(M, xs)
        assert np.all(rows.argmax(axis=1) == 0)
        assert np.max(np.abs(rows - _law_oracle(M, xs))) <= ORACLE_TOL

    @pytest.mark.parametrize("M", [1, 2, 3, 64, 256])
    def test_rows_at_their_edges_are_the_float_law(self, M):
        # each row is one window of the offset table; these pin the window
        # start at exact phases, at the limit branch within 1e-15 of them,
        # at the phases that reduce to 1.0 or just below, and far out
        z = np.arange(M) / M
        xs = np.concatenate((z, z + 1e-15, z - 1e-15, z + 4e-16,
                             [-1e-17, 1.0 - 1e-17, 1e300, -1e300]))
        rows = pe_pmf_rows(M, xs)
        assert rows.shape == (len(xs), M)
        for x, row in zip(xs.tolist(), rows):
            assert np.array_equal(row, pe_pmf(M, x).probs), x
        assert np.array_equal(rows[:M], np.eye(M))

    @pytest.mark.parametrize("M", [1, 3, 64])
    def test_batch_keeps_the_phases_shape(self, M):
        xs = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
        rows = pe_pmf_rows(M, xs)
        assert rows.shape == (3, 4, M)
        assert np.array_equal(rows.reshape(12, M), pe_pmf_rows(M, xs.ravel()))
        assert pe_pmf_rows(M, 0.3).shape == (M,)

    def test_two_phases_at_a_large_precision_read_only_their_rows(self):
        # a gather that copied the (2, M + 1, M) window view would ask for
        # 160 GB here; the rows and the law's temporaries take about 4 x 3.2 MB
        M = 10**5
        phi = theta_of_weight(3, 8) / np.pi
        xs = np.array([phi, 1.0 - phi])
        phase_dist._law_table(M)
        tracemalloc.start()
        try:
            rows = pe_pmf_rows(M, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * rows.nbytes
        for x, row in zip(xs.tolist(), rows):
            assert np.array_equal(row, phase_dist._float_law(M, x))

    def test_table_is_the_offset_table_laid_out_twice(self):
        # cached as its (M + 1, M) window view: strides (16, 16), so row s is the
        # table's entries s .. s + M - 1, and row M is row 0 again
        for M in (1, 6, 17):
            windows = phase_dist._law_table(M)
            assert windows.shape == (M + 1, M) and windows.dtype == complex
            assert windows.strides == (16, 16) and not windows.flags.writeable
            a = phase_dist._offset_angles(1, M)
            assert np.array_equal(windows[0], np.sin(a) + 1j * np.cos(a))
            assert np.array_equal(windows[M], windows[0])

    def test_one_window_view_per_law_table(self, monkeypatch):
        # made when _law_table(M) misses its cache: none per batch or float law
        made = _count_calls(monkeypatch, numerics.window_view)
        phase_dist._law_table.cache_clear()
        for M in (5, 12):
            for xs in (0.3, np.linspace(0.0, 1.0, 9), np.zeros((2, 3))):
                pe_pmf_rows(M, xs)
            pe_pmf(M, 0.7)
            single_run_amp_pmf(3, 16, M)
        assert [(len(table), width) for table, width in made] == [(10, 5), (24, 12)]


phases = st.floats(allow_nan=False, allow_infinity=False)
orders = st.integers(min_value=1, max_value=256)


class TestKernelProperties:
    @given(orders, phases)
    def test_law_is_a_probability_vector(self, M, x):
        probs = pe_pmf(M, x).probs
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) <= 1e-12

    @given(orders, phases)
    def test_nearest_outcome_holds_the_textbook_mass(self, M, x):
        # |x - z/M| <= 1/(2M) on the circle gives Pr[z] >= (2/pi)^2
        z = int(np.rint(M * (x % 1.0))) % M
        assert pe_pmf(M, x).probs[z] >= 4 / np.pi**2 - 1e-15

    @given(orders, phases)
    def test_reduced_phase_lies_in_the_unit_interval(self, M, x):
        assert 0.0 <= pe_pmf(M, x).x < 1.0

    # most draws of phases are whole numbers or huge, whose d is 0
    @given(orders, st.one_of(st.floats(min_value=-2.0, max_value=2.0), phases))
    def test_nearest_entry_is_exact_whatever_the_complex_rounding(self, M, x):
        # at o = 0 the table's complex entry is i, so the product's real part is
        # fma(0, cos, -1 * sin) = -sin(pi d) exactly, with or without an FMA
        reduced = x % 1.0
        c = round(reduced * M)
        d = reduced - c / M
        assume(abs(d) > 1e-15)
        a = np.pi * d
        # squared as a product, as the law squares: pow(ratio, 2) can be one ulp off it
        ratio = (np.sin(M * a) / M) / -np.sin(a)
        nearest = ratio * ratio
        assert pe_pmf(M, x).probs[c % M] == nearest
        assert pe_pmf_rows(M, np.array([x, 0.3]))[0, c % M] == nearest

    @given(orders, st.lists(phases, min_size=1, max_size=8))
    def test_each_row_is_the_float_law(self, M, xs):
        rows = pe_pmf_rows(M, np.array(xs))
        for x, row in zip(xs, rows):
            assert np.array_equal(row, pe_pmf(M, x).probs)

    @given(st.lists(st.tuples(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 7.0]), phases),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=1, max_size=40))
    def test_median3_law_is_sorted_merged_and_normalized(self, draws):
        values, weights = (np.array(a) for a in zip(*draws))
        if not weights.sum() > 0.0:
            weights = np.ones_like(weights)
        support, probs = median3_pmf(values, weights / weights.sum())
        assert np.all(support[1:] > support[:-1]) and np.array_equal(support, np.unique(values))
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestOrderMustBeAnInteger:
    # each of these was truncated by int(): pe_pmf(2.7, x) ran at M = 2, fejer_kernel(True) at 1
    BAD = (2.7, 2.5, 2.9, True, False, np.nan, np.inf, "3")

    @pytest.mark.parametrize("M", BAD)
    def test_pe_pmf(self, M):
        with pytest.raises(PreconditionError, match="M must be a positive integer"):
            pe_pmf(M, 0.1)

    @pytest.mark.parametrize("n", BAD)
    def test_jackson_kernel(self, n):
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            jackson_kernel(n)

    @pytest.mark.parametrize("n", BAD)
    def test_fejer_kernel(self, n):
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            fejer_kernel(n)

    @pytest.mark.parametrize("n", BAD)
    def test_fejer_value(self, n):
        with pytest.raises(PreconditionError, match="n must be a positive integer"):
            fejer_value(n, np.array([0.1, 0.3]))

    @pytest.mark.parametrize("M", BAD)
    def test_fejer_identity_check_and_statevector(self, M):
        for law in (fejer_identity_check, pe_statevector_pmf, pe_pmf_rows):
            with pytest.raises(PreconditionError, match="M must be a positive integer"):
                law(M, 0.1)

    def test_integral_values_accepted(self):
        assert np.array_equal(pe_pmf(4.0, 0.1).probs, pe_pmf(4, 0.1).probs)
        assert jackson_kernel(np.int64(3)) == jackson_kernel(3.0) == jackson_kernel(3)
        assert fejer_kernel(np.int64(5)).order == 5
        assert fejer_value(3.0, 0.2) == fejer_value(3, 0.2)


class TestExpectedCircleError:
    def test_exact_phase(self):
        # off-peak probabilities are sin(pi k)^2 ~ 1e-33 in floating point
        assert expected_circle_error(pe_pmf(2, 0.0)) == pytest.approx(0.0, abs=1e-30)

    def test_two_point(self):
        # both outcomes at circle distance 1/4 from x = 1/4
        assert expected_circle_error(pe_pmf(2, 0.25)) == pytest.approx(0.25, abs=1e-15)

    def test_log_over_m_bound(self):
        for M in range(4, 257, 3):
            worst = max(
                expected_circle_error(pe_pmf(M, x))
                for x in np.linspace(0, 1, 64, endpoint=False)
            )
            assert worst <= 2 * np.log(M) / M + 2 / M


class TestMedian3CircleError:
    def test_deterministic_outcome(self):
        assert median3_circle_error(4, 0.5) == 0.0
        assert median3_circle_error(6, 1 / 3) == 0.0

    def _enumerate(self, M, x):
        pmf = pe_pmf(M, x)
        d = np.atleast_1d(circle_dist(np.arange(M) / M, pmf.x))
        total = 0.0
        for i, j, k in itertools.product(range(M), repeat=3):
            total += pmf.probs[i] * pmf.probs[j] * pmf.probs[k] * sorted(
                (d[i], d[j], d[k])
            )[1]
        return total

    def test_matches_triple_enumeration(self):
        assert median3_circle_error(3, 1 / 6) == pytest.approx(
            self._enumerate(3, 1 / 6), abs=1e-12
        )
        for M, x in ((4, 0.2), (5, 0.77), (6, 0.11)):
            assert median3_circle_error(M, x) == pytest.approx(
                self._enumerate(M, x), abs=1e-12
            )

    def test_constant_over_m_bound(self):
        for M in range(4, 129, 3):
            worst = max(
                median3_circle_error(M, x)
                for x in np.linspace(0, 1, 64, endpoint=False)
            )
            assert M * worst <= 4.0

    def test_median_never_hurts(self):
        for M in (4, 9, 16, 33):
            for x in np.linspace(0, 1, 64, endpoint=False):
                assert median3_circle_error(M, x) <= expected_circle_error(
                    pe_pmf(M, x)
                ) + 1e-14


class TestFejer:
    def test_value_at_integers(self):
        for n in (1, 2, 5, 16):
            assert fejer_value(n, 0.0) == float(n)
            assert fejer_value(n, 3.0) == float(n)

    def test_hand_value(self):
        assert fejer_value(2, 0.5) == pytest.approx(0.0, abs=1e-30)

    def test_nan_stays_nan(self):
        assert np.isnan(fejer_value(4, np.nan))
        vals = fejer_value(4, np.array([np.nan, np.inf, 0.0, 1.0]))
        assert np.isnan(vals[:2]).all() and vals[2] == vals[3] == 4.0

    @pytest.mark.parametrize("n", (1, 2, 7, 96, 256))
    def test_matches_long_double_oracle_next_to_integers(self, n):
        # just below an integer, t % 1.0 rounds to 1 - |t|: 96.06 at n = 96, t = -3e-13
        eps = np.array([1e-16, 3e-13, 1e-10, 1e-6])
        ts = (np.arange(-2, 3)[:, None] + np.concatenate((eps, -eps))).ravel()
        vals = fejer_value(n, ts)
        oracle = _fejer_oracle(n, ts)
        assert np.all(vals <= n)
        assert np.max(np.abs(vals - oracle) / oracle) <= 1e-14
        assert fejer_value(n, ts[1]) == vals[1]

    def test_unit_integral(self):
        for n in range(1, 33):
            assert abs(kernel_integral(fejer_kernel(n)) - 1.0) < 1e-10

    def test_nonnegative_and_periodic(self):
        ts = np.linspace(-1.0, 2.0, 10_000)
        for n in (1, 3, 8):
            vals = fejer_value(n, ts)
            assert np.all(vals >= 0.0)
        ts = np.linspace(0, 1, 257)
        assert np.max(np.abs(fejer_value(5, ts) - fejer_value(5, ts + 1.0))) < 1e-12


class TestFejerIdentity:
    def test_small_cases(self):
        assert fejer_identity_check(4, 0.2) < 1e-13
        assert fejer_identity_check(16, 1 / 3) < 1e-13

    def test_two_point_case(self):
        assert fejer_identity_check(2, 0.25) < 1e-14
        kernel_side = fejer_value(2, np.arange(2) / 2 - 0.25) / 2
        assert kernel_side == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_integer_mx_rejected(self):
        with pytest.raises(PreconditionError):
            fejer_identity_check(4, 0.5)

    def test_huge_phases_reduced_mod_one(self):
        # M*x overflowed to inf, and round(inf) raised OverflowError; 1e308 is an integer
        with pytest.raises(PreconditionError, match=r"M\*x must not be an integer"):
            fejer_identity_check(4, 1e308)
        assert fejer_identity_check(8, 1e6 + 0.3) < 1e-12

    def test_array_gives_the_max_of_the_scalar_calls(self):
        xs = (np.arange(32) + 0.5) / 32 + 1e-4  # the verify grid
        for M in range(2, 65):
            assert fejer_identity_check(M, xs) == max(fejer_identity_check(M, x) for x in xs)

    def test_no_phase_is_refused(self):
        # the max over no phases raised numpy's zero-size ValueError
        with pytest.raises(PreconditionError, match="at least one phase"):
            fejer_identity_check(4, np.array([]))

    def test_array_refuses_any_bad_phase(self):
        with pytest.raises(PreconditionError, match="finite"):
            fejer_identity_check(4, [0.1, np.nan])
        with pytest.raises(PreconditionError, match="integer"):
            fejer_identity_check(4, [0.1, 0.25])


class TestKernelSpecChecksItsInputs:
    # "fejr" was silently the Jackson kernel, and order 0 gave trig_degree -2
    @pytest.mark.parametrize("kind, order", [("fejr", 3), (None, 3), ("jackson", 0),
                                             ("jackson", 2.5), ("fejer", True)])
    def test_bad_kind_or_order_refused(self, kind, order):
        with pytest.raises(PreconditionError):
            phase_dist.KernelSpec(kind, order)

    def test_order_stored_as_int(self):
        spec = phase_dist.KernelSpec("jackson", np.int64(5))
        assert spec == jackson_kernel(5)
        assert type(spec.order) is int
        assert type(phase_dist.KernelSpec("fejer", 4.0).order) is int


class TestJacksonKernel:
    def test_order_one_is_constant(self):
        spec = jackson_kernel(1)
        assert spec.norm_const == pytest.approx(1.0, abs=1e-14)
        ts = np.linspace(0, 1, 50)
        assert spec(ts) == pytest.approx(np.ones(50), abs=1e-12)

    def test_spec_is_kind_and_order(self):
        # the normalisation is derived from (kind, order), so two specs of one kernel are equal
        assert jackson_kernel(5) == phase_dist.KernelSpec("jackson", 5)
        assert jackson_kernel(5).norm_const == 15.0 / 51.0
        assert fejer_kernel(5).norm_const == 1.0

    def test_order_two_constant(self):
        # F_2(t) = 1 + cos(2 pi t), integral of F_2^2 is 3/2
        assert jackson_kernel(2).norm_const == pytest.approx(2 / 3, abs=1e-12)

    def test_unit_integral(self):
        for n in range(1, 33):
            assert abs(kernel_integral(jackson_kernel(n)) - 1.0) < 1e-12

    def test_trig_degree(self):
        spec = jackson_kernel(8)
        assert spec.trig_degree == 14
        assert effective_trig_degree(spec, 14) < 1e-10

    def test_nonnegative(self):
        ts = np.linspace(0, 1, 10_000)
        for n in (2, 5, 12):
            assert np.all(jackson_kernel(n)(ts) >= 0.0)


def _unfolded_offset_table(order, Q):
    """[sin; cos](pi order o/Q), o = -(Q//2) .. Q-1-Q//2, written out once."""
    o = np.arange(Q) - Q // 2
    k = (order * o + Q - 1) % (2 * Q) - (Q - 1)
    return np.stack((np.sin(np.pi * k / Q), np.cos(np.pi * k / Q)))


def _kernel_band_by_kind(kind, n, Q, x):
    """The quadrature band written out per kind: F_n, then squared and
    normalised for the Jackson kernel."""
    c = np.rint(x * Q)
    a = np.pi * (x - c / Q)
    k = np.stack((np.cos(n * a), -np.sin(n * a)), axis=1) @ _unfolded_offset_table(n, Q)
    with np.errstate(divide="ignore", invalid="ignore"):
        k /= np.stack((np.cos(a), -np.sin(a)), axis=1) @ _unfolded_offset_table(1, Q)
    k[np.abs(a / np.pi) <= 1e-15, Q // 2] = n
    k *= k
    k /= n
    if kind == "jackson":
        k *= k
        k *= 3.0 * n / (2.0 * n * n + 1.0)
    return c.astype(np.intp) % Q, k


class TestKernelFactsFromThePower:
    """Every fact of norm * F_n^p equals the formula written out per kind, bit for bit."""

    @pytest.mark.parametrize("kind", ["fejer", "jackson"])
    def test_bit_for_bit_orders_1_to_64(self, kind):
        rng = np.random.default_rng(64)
        t = np.concatenate(([0.0, 1.0, -2.0, 0.5, 1e-17], rng.uniform(-1.0, 2.0, 40)))
        for n in range(1, 65):
            spec = phase_dist.KernelSpec(kind, n)
            triangle = 1.0 - np.abs(np.arange(1 - n, n)) / n
            if kind == "fejer":
                norm, degree, coeffs = 1.0, n - 1, triangle
            else:
                norm = 3.0 * n / (2.0 * n * n + 1.0)
                degree = 2 * (n - 1)
                coeffs = norm * np.convolve(triangle, triangle)

            def value(t):
                base = fejer_value(n, t)
                return base if kind == "fejer" else norm * base**2

            assert spec.norm_const == norm and spec.trig_degree == degree
            assert np.array_equal(spec.fourier_coeffs(), coeffs)
            # a float takes numpy's scalar sine, an array its vector sine
            assert np.array_equal(spec(t), value(t))
            assert all(spec(x) == value(x) for x in t.tolist())
            Q = 8 * (degree + 1)
            x = np.concatenate(([0.0, 0.5, 3 / Q], rng.uniform(0.0, 1.0, 20)))
            band, _ = spec.quadrature(np.zeros(Q))
            for got, want in zip(band(x), _kernel_band_by_kind(kind, n, Q, x)):
                assert np.array_equal(got, want), n


class TestKernelCoefficients:
    @pytest.mark.parametrize("kind", phase_dist.KERNEL_KINDS)
    def test_coefficients_against_the_exact_spectrum(self, kind):
        # against the triangle's autocorrelation in Fractions, orders 1..64:
        # the float convolution measured up to 3.6 (jackson) and 0.37 (fejer)
        # in units of eps * max|c|
        for n in range(1, 65):
            got = phase_dist.KernelSpec(kind, n).fourier_coeffs()
            exact = kernel_coeffs_exact(kind, n)
            assert len(got) == len(exact)
            tol = 8 * np.finfo(float).eps * float(max(exact))
            assert max(abs(float(Fraction(c) - e)) for c, e in zip(got.tolist(), exact)) <= tol, n

    def test_one_read_only_array_per_kernel(self):
        # the coefficients depend on (kind, order) only: every spec of one
        # kernel, however its order was given, reads the same cached array
        coeffs = jackson_kernel(5).fourier_coeffs()
        assert phase_dist.KernelSpec("jackson", np.int64(5)).fourier_coeffs() is coeffs
        assert phase_dist.KernelSpec("jackson", 5.0).fourier_coeffs() is coeffs
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0
        fejer = fejer_kernel(5).fourier_coeffs()
        assert fejer is not coeffs and not np.shares_memory(fejer, coeffs)
        assert fejer_kernel(5).fourier_coeffs() is fejer

    def test_coefficients_match_sampled_kernel(self):
        for kernel in (fejer_kernel(5), jackson_kernel(5), jackson_kernel(1)):
            d = kernel.trig_degree
            m = 2 * d + 1
            sampled = trig_coeffs_from_samples(kernel(np.arange(m) / m)).coeffs
            assert np.max(np.abs(sampled - kernel.fourier_coeffs())) < 1e-13

    def test_closed_form_normalization_matches_sampling(self):
        for n in range(1, 301):
            m = 4 * n - 3  # odd, above twice the degree of F_n^2
            c0 = np.mean(fejer_value(n, np.arange(m) / m) ** 2)
            assert jackson_kernel(n).norm_const * c0 == pytest.approx(1.0, abs=2e-13)
